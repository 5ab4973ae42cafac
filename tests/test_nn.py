"""Network engine tests: backprop against finite differences, Adam sanity,
flat parameter round-trips."""
import numpy as np
import pytest

from exoassist.nn import MLP, Adam


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(1)
    net = MLP([5, 8, 8, 3], seed=2)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 3))

    def loss_of(flat):
        net.set_flat(flat)
        out, _ = net.forward(x)
        return float(np.sum((out - target) ** 2))

    flat = net.get_flat()
    out, acts = net.forward(x)
    dW, db, _ = net.backward(acts, 2.0 * (out - target))
    grads = MLP.flatten_grads(dW, db)

    h = 1e-6
    idx = rng.choice(flat.size, 40, replace=False)
    for i in idx:
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd = (loss_of(fp) - loss_of(fm)) / (2 * h)
        assert grads[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    net.set_flat(flat)


def test_input_vjp_matches_full_backward():
    rng = np.random.default_rng(3)
    net = MLP([6, 10, 4], seed=4)
    x = rng.standard_normal((3, 6))
    cot = rng.standard_normal((3, 4))
    _, acts = net.forward(x)
    _, _, dx_full = net.backward(acts, cot)
    dx = net.input_vjp(acts, cot)
    assert np.allclose(dx, dx_full)


def test_flat_roundtrip():
    net = MLP([4, 7, 2], seed=0)
    flat = net.get_flat()
    net2 = MLP([4, 7, 2], seed=99)
    net2.set_flat(flat)
    x = np.random.default_rng(5).standard_normal((2, 4))
    assert np.array_equal(net(x), net2(x))
    with pytest.raises(ValueError):
        net2.set_flat(flat[:-1])


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
    params = ref = rng.standard_normal(50)
    m = v = np.zeros(50)
    for t in range(1, 21):
        g = rng.standard_normal(50)
        before = params.copy()
        new = opt.step(params, g)
        assert np.array_equal(params, before)  # the input is not updated in place
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g**2
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(new, ref)
        params = new
