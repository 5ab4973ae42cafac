"""Trajectory tests: quintic boundary behavior, refinement against the
brute-force oracle, speed-limit enforcement, cost monotonicity, horizon
consistency, the anomaly-score coupling direction, and bit-for-bit
agreement with the refinement as first written."""
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import brute_force_qp, reference_refine

from exoassist import control as ctl
from exoassist import trajectory as traj
from exoassist.qp import QPResult


# ---------------------------------------------------------------------------
# quintic reference


def test_quintic_degenerate_constant():
    ref = traj.quintic_reference([0.3, -0.2], [0.3, -0.2], 2.0)
    for t in (0.0, 0.7, 1.3, 2.0, 5.0):
        q, qd, qdd = ref.sample(t)
        assert np.allclose(q, [0.3, -0.2])
        assert np.allclose(qd, 0.0)
        assert np.allclose(qdd, 0.0)


def test_quintic_peak_velocity_closed_form():
    # 0 -> 90 deg in 5 s peaks at 1.875 * 90/5 = 33.75 deg/s at midpoint
    ref = traj.quintic_reference([0.0], [np.pi / 2], 5.0)
    _, qd_mid, _ = ref.sample(2.5)
    assert np.degrees(qd_mid[0]) == pytest.approx(33.75, rel=1e-12)
    ts = np.linspace(0, 5, 2001)
    vmax = max(abs(ref.sample(t)[1][0]) for t in ts)
    assert np.degrees(vmax) == pytest.approx(33.75, rel=1e-6)


def test_quintic_boundary_conditions():
    ref = traj.quintic_reference([0.1, -0.5], [0.9, 0.4], 3.0)
    for t in (0.0, 3.0):
        q, qd, qdd = ref.sample(t)
        assert np.max(np.abs(qd)) < 1e-10
        assert np.max(np.abs(qdd)) < 1e-10
    assert np.allclose(ref.sample(0.0)[0], [0.1, -0.5])
    assert np.allclose(ref.sample(3.0)[0], [0.9, 0.4])
    # clamped beyond t_f
    assert np.allclose(ref.sample(10.0)[0], [0.9, 0.4])


def test_quintic_rejects_bad_duration():
    with pytest.raises(ValueError):
        traj.quintic_reference([0.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        traj.quintic_reference([0.0], [1.0], -2.0)


# ---------------------------------------------------------------------------
# refinement


def make_setup(n=1, speed_limit=np.radians(30.0), Kd=50.0, Cd=30.0, w=2.0, **qp):
    """A refinement setup through the one constructor; ``qp`` holds QPConfig fields."""
    return traj.QPSetup.from_config(ctl.QPConfig(**qp), n, speed_limit, Kd, Cd, w)


def discrete_consistent_start(ref, dt):
    r0 = ref.sample(0.0)[0]
    r1 = ref.sample(dt)[0]
    return r0, (r1 - r0) / dt


def test_refine_identity_when_constraints_inactive():
    ref = traj.quintic_reference([0.0], [np.pi / 2], 5.0)  # peak 33.75 deg/s
    setup = make_setup(horizon=20, dt=0.05, R=1e-8, speed_limit=np.radians(70.0))
    q0, qd0 = discrete_consistent_start(ref, 0.05)
    seg = traj.refine(ref, (q0, qd0), setup, 0.0)
    refs = np.stack([ref.sample(i * 0.05)[0] for i in range(21)])
    assert np.degrees(np.max(np.abs(seg.q_d - refs))) < 0.01


def test_refine_speed_limit_rollout_reaches_target():
    """Raise profile whose unrefined peak (56 deg/s) exceeds the 30 deg/s cap."""
    ref = traj.quintic_reference([0.0], [np.pi / 2], 3.0)
    setup = make_setup(horizon=20, dt=0.05, speed_limit=np.radians(30.0))
    # receding horizon without a plant: re-solve every 10 ms from the
    # previously refined desired state
    q, qd = np.array([0.0]), np.array([0.0])
    qs, qds = [], []
    for k in range(500):
        qs.append(q)
        qds.append(qd)
        q, qd, _ = traj.refine(ref, (q, qd), setup, k * 0.01).sample(0.01)
    assert np.degrees(np.max(np.abs(qds))) <= 30.0 + 1e-6
    assert np.degrees(abs(qs[-1][0] - np.pi / 2)) < 0.5


def test_refine_small_instance_matches_bruteforce():
    """N=3, n=1 instances against exhaustive active-set enumeration."""
    rng = np.random.default_rng(17)
    for trial in range(5):
        t_f = rng.uniform(1.0, 2.0)
        ref = traj.quintic_reference([0.0], [rng.uniform(0.5, 1.2)], t_f)
        setup = make_setup(
            horizon=3, dt=0.1, R=0.05,
            speed_limit=rng.uniform(0.25, 0.6),
            accel_limit=rng.uniform(2.0, 5.0),
            position_min=-2.0, position_max=2.0,
        )
        gradient = np.array([rng.uniform(-0.5, 0.5)])
        score_init = rng.uniform(0.0, 0.4)
        q0 = np.array([0.0])
        qd0 = np.array([rng.uniform(0.0, 0.2)])
        seg = traj.refine(ref, (q0, qd0), setup, 0.0, gradient, score_init)

        # rebuild the same condensed QP and solve by enumeration
        N, dt = setup.N, setup.dt
        refs = np.array([ref.sample(i * dt)[0][0] for i in range(N + 1)])
        Lp, Lv = traj._prediction_matrices(N, dt)
        q_base = q0[0] + np.arange(N + 1) * dt * qd0[0]
        gK = gradient[0] * setup.Kd[0]
        gC = gradient[0] * setup.Cd[0]
        Ls = np.zeros((N + 1, N))
        s_base = np.full(N + 1, score_init)
        for i in range(1, N + 1):
            Ls[i] = Ls[i - 1] - setup.w * dt * gK * Lv[i - 1]
            Ls[i, i - 1] += -setup.w * dt * gC
            s_base[i] = s_base[i - 1] - setup.w * dt * gK * qd0[0]
        Qw = np.full(N + 1, setup.Q[0])
        H = 2 * (Lp.T @ (Qw[:, None] * Lp) + setup.R[0] * np.eye(N) + Ls.T @ Ls)
        f = 2 * (Lp.T @ (Qw * (q_base - refs)) + Ls.T @ s_base)
        rows, rhs = [], []
        for i in range(1, N + 1):
            rows.append(Lv[i]); rhs.append(setup.speed_limit[0] - qd0[0])
            rows.append(-Lv[i]); rhs.append(setup.speed_limit[0] + qd0[0])
            rows.append(Lp[i]); rhs.append(setup.q_max[0] - q_base[i])
            rows.append(-Lp[i]); rhs.append(q_base[i] - setup.q_min[0])
        for i in range(N):
            e = np.zeros(N); e[i] = 1.0
            rows.append(e); rhs.append(setup.accel_limit[0])
            rows.append(-e); rhs.append(setup.accel_limit[0])
        A, b = np.array(rows), np.array(rhs)
        x_star, obj_star = brute_force_qp(H / 2, f / 2, A, b)
        assert x_star is not None, f"trial {trial}: oracle found no KKT point"
        u = seg.qddot_d.reshape(-1)
        obj_solver = 0.5 * u @ (H / 2) @ u + (f / 2) @ u
        assert obj_solver == pytest.approx(obj_star, abs=1e-6)
        assert np.allclose(u, x_star, atol=1e-5), f"trial {trial}"


def test_refine_infeasible_is_reported():
    # initial velocity far above the limit with a tiny acceleration budget
    ref = traj.quintic_reference([0.0], [0.5], 2.0)
    setup = make_setup(horizon=5, dt=0.05, speed_limit=0.1, accel_limit=0.01)
    with pytest.raises(traj.RefinementError, match="infeasible"):
        traj.refine(ref, (np.array([0.0]), np.array([2.0])), setup, 0.0)


def test_refine_reports_a_hessian_that_is_not_positive_definite(monkeypatch):
    # QPConfig's R > 0 keeps H positive definite; a solver result saying otherwise is an error
    monkeypatch.setattr(traj, "qp_solve", lambda *args, **kw: QPResult("not_positive_definite"))
    ref = traj.quintic_reference([0.0], [0.5], 2.0)
    with pytest.raises(traj.RefinementError, match="QP solver failed: not_positive_definite"):
        traj.refine(ref, (np.array([0.0]), np.array([0.0])), make_setup(horizon=5, dt=0.05), 0.0)


def test_refine_monotone_cost_in_speed_limit():
    ref = traj.quintic_reference([0.0], [np.pi / 2], 3.0)
    q0, qd0 = discrete_consistent_start(ref, 0.05)
    costs = []
    for lim_deg in (20.0, 30.0, 45.0, 70.0):
        setup = make_setup(horizon=20, dt=0.05, speed_limit=np.radians(lim_deg))
        costs.append(traj.refine(ref, (q0, qd0), setup, 0.0).objective)
    assert all(c1 >= c2 - 1e-9 for c1, c2 in zip(costs, costs[1:]))


def test_refine_receding_horizon_consistency():
    """Re an optimal tail: shifting the horizon start forward by one step
    reproduces the previous solution's tail cost (dynamic programming)."""
    ref = traj.quintic_reference([0.0], [np.pi / 2], 3.0)
    base = dict(dt=0.05, R=0.01, speed_limit=np.radians(30.0))
    q0, qd0 = discrete_consistent_start(ref, 0.05)
    seg0 = traj.refine(ref, (q0, qd0), make_setup(horizon=12, **base), 0.0)
    stage0 = (
        float(np.sum((seg0.q_d[0] - ref.sample(0.0)[0]) ** 2))
        + 0.01 * float(np.sum(seg0.qddot_d[0] ** 2))
        + float(seg0.score_pred[0] ** 2)
    )
    seg1 = traj.refine(
        ref,
        (seg0.q_d[1], seg0.qdot_d[1]),
        make_setup(horizon=11, **base), 0.05,
        score_init=float(seg0.score_pred[1]),
    )
    assert seg1.objective == pytest.approx(seg0.objective - stage0, rel=1e-6, abs=1e-8)


def test_refine_score_coupling_slows_resisted_motion():
    """A positive score with a gradient opposing the motion makes the
    refinement yield: commanded acceleration along the motion drops."""
    ref = traj.quintic_reference([0.0], [np.pi / 2], 2.0)
    # on-reference during the acceleration phase: the free solve speeds up
    t_now = 0.3
    q0, qd0 = (ref.sample(t_now)[i] for i in (0, 1))
    setup = make_setup(horizon=10, dt=0.05, speed_limit=np.radians(90.0),
                       Kd=50.0, Cd=30.0, w=2.0)
    seg_free = traj.refine(ref, (q0, qd0), setup, t_now)
    assert seg_free.qddot_d[0, 0] > 0.1  # sanity: accelerating
    # detector says interaction torque resisting the motion raises the score
    seg_resist = traj.refine(ref, (q0, qd0), setup, t_now,
                             anomaly_gradient=np.array([-0.6]), score_init=0.4)
    assert seg_resist.qddot_d[0, 0] < seg_free.qddot_d[0, 0] - 1e-6
    # and the predicted score stays below the uncontrolled growth
    drift = 0.4 + np.cumsum(
        0.05 * 2.0 * 0.6 * (50.0 * seg_free.qdot_d[:-1, 0] + 30.0 * seg_free.qddot_d[:, 0]))
    assert seg_resist.score_pred[-1] < drift[-1]


def test_refine_without_gradient_equals_zero_gradient():
    ref = traj.quintic_reference([0.0, 0.0], [0.6, 0.9], 2.0)
    setup = make_setup(n=2, horizon=10, dt=0.05, speed_limit=0.4)
    state = (np.array([0.01, 0.0]), np.array([0.1, 0.2]))
    none = traj.refine(ref, state, setup, 0.3, score_init=0.2)
    zero = traj.refine(ref, state, setup, 0.3, np.zeros(2), 0.2)
    for name in ("q_d", "qdot_d", "qddot_d", "score_pred"):
        assert np.array_equal(getattr(none, name), getattr(zero, name)), name
    assert none.objective == zero.objective


def test_setup_from_config_gives_per_joint_arrays():
    setup = make_setup(n=3, speed_limit=0.5, Kd=[40.0, 50.0, 60.0], Cd=30.0, w=1.0,
                       horizon=8, Q=[1.0, 2.0, 3.0], position_max=2.0)
    assert setup.N == 8 and setup.w == 1.0
    for name in ("Q", "R", "speed_limit", "accel_limit", "q_min", "q_max", "Kd", "Cd"):
        assert getattr(setup, name).shape == (3,), name
    assert list(setup.Kd) == [40.0, 50.0, 60.0]
    assert list(setup.q_max) == [2.0, 2.0, 2.0]


def test_setup_constants_are_read_only():
    setup = make_setup(n=2, horizon=5)
    for name in ("Lp", "Lv", "Qw", "Rw", "H0", "A_in", "b_lim"):
        arr = getattr(setup, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert setup.A_in.shape == (6 * 5 * 2, 5 * 2)  # velocity, position and box rows, both signs


def test_refined_segment_sampling_consistency():
    ref = traj.quintic_reference([0.0, 0.0], [0.6, 0.9], 2.0)
    setup = make_setup(n=2, horizon=10, dt=0.05, speed_limit=1.0)
    seg = traj.refine(ref, (np.zeros(2), np.zeros(2)), setup, 0.0)
    # knot samples match the stored arrays; dynamics rows are exact
    for i in range(10):
        q, qd, _ = seg.sample(i * 0.05)
        assert np.allclose(q, seg.q_d[i], atol=1e-12)
        assert np.allclose(qd, seg.qdot_d[i], atol=1e-12)
        assert np.allclose(seg.q_d[i + 1], seg.q_d[i] + 0.05 * seg.qdot_d[i], atol=1e-10)
        assert np.allclose(seg.qdot_d[i + 1], seg.qdot_d[i] + 0.05 * seg.qddot_d[i], atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), horizon=st.integers(2, 20),
       gradient_scale=st.sampled_from([None, 0.0, 1e-3, 0.5, 50.0]),
       speed_factor=st.sampled_from([0.3, 0.6, 3.0]), R=st.sampled_from([0.01, 0.2]),
       position_margin=st.sampled_from([0.02, np.pi]), seed=st.integers(0, 2**32 - 1))
@example(n=4, horizon=20, gradient_scale=0.5, speed_factor=0.3, R=0.01, position_margin=np.pi,
         seed=1)
def test_refine_matches_reference_bit_for_bit(n, horizon, gradient_scale, speed_factor, R,
                                              position_margin, seed):
    """Per-move constants change no byte of a refinement: zero, small and
    large score gradients, speed limits that bind (the active set iterates)
    and limits that do not, and tight position limits."""
    rng = np.random.default_rng(seed)
    q0 = rng.uniform(-0.5, 0.5, n)
    qf = q0 + rng.uniform(-1.5, 1.5, n)
    t_f = rng.uniform(0.5, 3.0)
    ref = traj.quintic_reference(q0, qf, t_f)
    peak = 1.875 * np.max(np.abs(qf - q0)) / t_f  # quintic peak speed
    setup = make_setup(n, speed_limit=max(speed_factor * peak, 1e-3),
                       Kd=rng.uniform(20.0, 80.0, n), Cd=rng.uniform(10.0, 40.0, n),
                       w=rng.uniform(0.5, 3.0), horizon=horizon,
                       dt=float(rng.choice([0.01, 0.05])), Q=list(rng.uniform(0.5, 2.0, n)),
                       R=R, accel_limit=rng.uniform(2.0, 8.0),
                       position_min=list(np.minimum(q0, qf) - position_margin),
                       position_max=list(np.maximum(q0, qf) + position_margin))
    t_now = rng.uniform(0.0, t_f)
    q, qd, _ = ref.sample(t_now)
    state = (q + rng.normal(0.0, 0.01, n), np.clip(qd, -setup.speed_limit, setup.speed_limit))
    gradient = None if gradient_scale is None else gradient_scale * rng.normal(size=n)
    args = (ref, state, setup, t_now, gradient, rng.uniform(0.0, 1.0))
    try:
        want = reference_refine(*args)
    except traj.RefinementError as exc:
        with pytest.raises(traj.RefinementError, match=re.escape(str(exc))):
            traj.refine(*args)
        return
    got = traj.refine(*args)
    for name in ("q_d", "qdot_d", "qddot_d", "score_pred"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.objective == want.objective
    assert (got.t0, got.dt) == (want.t0, want.dt)
