"""Network engine tests: backprop against finite differences, Adam sanity,
flat parameter buffers and round-trips."""
import numpy as np
import pytest

from exoassist import anomaly as ano
from exoassist.nn import ADAM_CHUNK, MLP, Adam


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(1)
    net = MLP([5, 8, 8, 3], seed=2)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 3))

    def loss_of(flat):
        net.params[...] = flat
        out, _ = net.forward(x)
        return float(np.sum((out - target) ** 2))

    flat = net.params.copy()
    out, acts = net.forward(x)
    grads = net.backward(acts, 2.0 * (out - target))

    h = 1e-6
    idx = rng.choice(flat.size, 40, replace=False)
    for i in idx:
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd = (loss_of(fp) - loss_of(fm)) / (2 * h)
        assert grads[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_input_vjp_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = MLP([6, 10, 4], seed=4)
    x = rng.standard_normal((3, 6))
    cot = rng.standard_normal((3, 4))
    _, acts = net.forward(x)
    dx = net.input_vjp(acts, cot)

    h = 1e-6
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = float(np.sum(cot * (net(xp) - net(xm)))) / (2 * h)
        assert dx[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_weights_and_gradients_are_views_of_the_flat_buffers(tmp_path):
    def assert_views(net):
        for i in range(net.n_layers):
            assert np.shares_memory(net.W[i], net.params)
            assert np.shares_memory(net.b[i], net.params)
            assert np.shares_memory(net.dW[i], net.grads)
            assert np.shares_memory(net.db[i], net.grads)

    net = MLP([4, 7, 5, 2], seed=0)
    assert_views(net)
    net.params[...] = np.arange(net.params.size, dtype=float)
    assert_views(net)
    assert net.W[0][0, 1] == 1.0 and net.b[-1][-1] == net.params.size - 1

    sch = ano.NoiseSchedule.linear(T=4, nu=2)
    layout = ano.ChannelLayout(n=1, n_c=1)
    den = ano.Denoiser(2 * layout.per_tick, sch.T, hidden=(6,), embed_dim=4, seed=1)
    stats = ano.NormStats(mean=np.zeros(layout.per_tick), std=np.ones(layout.per_tick))
    ano.save_checkpoint(tmp_path / "det.npz", ano.AnomalyDetector(den, sch, stats, 2, layout))
    loaded = ano.load_checkpoint(tmp_path / "det.npz").denoiser.mlp
    assert_views(loaded)
    assert np.array_equal(loaded.params, den.mlp.params)


def test_flat_roundtrip():
    net = MLP([4, 7, 2], seed=0)
    net2 = MLP([4, 7, 2], seed=99)
    net2.params[...] = net.params
    x = np.random.default_rng(5).standard_normal((2, 4))
    assert np.array_equal(net(x), net2(x))


def test_adam_first_step_magnitude():
    # with bias correction the first update is ~lr * sign(grad)
    opt = Adam(3, lr=0.01)
    params = np.zeros(3)
    grads = np.array([1.0, -2.0, 0.5])
    new = opt.step(params, grads)
    assert np.allclose(np.abs(new), 0.01, atol=1e-6)
    assert np.all(np.sign(new) == -np.sign(grads))


def test_adam_converges_on_quadratic():
    opt = Adam(2, lr=0.05)
    params = np.array([3.0, -2.0])
    for _ in range(500):
        params = opt.step(params, 2.0 * (params - np.array([1.0, 1.0])))
    assert np.allclose(params, [1.0, 1.0], atol=1e-3)


def test_adam_matches_textbook_update_bitwise():
    rng = np.random.default_rng(3)
    b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    opt = Adam(50, lr=lr, beta1=b1, beta2=b2, eps=eps)
    params = rng.standard_normal(50)
    ref = params.copy()
    m = v = np.zeros(50)
    for t in range(1, 21):
        g = rng.standard_normal(50)
        new = opt.step(params, g)
        assert new is params  # updated in place
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g**2
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(new, ref)


def test_chunked_adam_matches_textbook_update_bitwise():
    # two full chunks and a partial one; the scratch never exceeds a chunk
    size = 2 * ADAM_CHUNK + 7
    rng = np.random.default_rng(4)
    b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    opt = Adam(size, lr=lr, beta1=b1, beta2=b2, eps=eps)
    assert opt._tmp.size == opt._update.size == ADAM_CHUNK
    params = rng.standard_normal(size)
    ref = params.copy()
    m = v = np.zeros(size)
    for t in range(1, 6):
        g = rng.standard_normal(size)
        opt.step(params, g)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g**2
        ref = ref - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert np.array_equal(params, ref)
