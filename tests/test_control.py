"""Controller tests: fast term structure, transparent-mode compensation and
amplification, impedance steady-state contract, task-config bit mapping."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exoassist import control as ctl
from exoassist import dynamics as dyn
from exoassist.config import ConfigError
from oracles import (christoffel, fast_term, plant_matrices, plant_terms, reference_friction,
                     reference_impedance_control, reference_step, reference_transparent_control)


@pytest.fixture(scope="module")
def model():
    return dyn.PlantModel()


def closed_loop(model, controller, ticks, state, tau_e_fn, substeps=10, dt=1e-3):
    """Minimal 100 Hz control / 1 kHz physics loop used by these tests."""
    t = 0.0
    for _ in range(ticks):
        tau_e = tau_e_fn(t, state)
        u = controller(state, tau_e)
        for _ in range(substeps):
            tau_e = tau_e_fn(t, state)
            state = dyn.step(model, state, u, tau_e, dt)
            t += dt
    return state


# ---------------------------------------------------------------------------
# fast term


def test_fast_term_zero_when_synchronized(model):
    _, S2, _, _ = plant_matrices(model)
    qdot = np.array([0.3, -0.2, 0.5, 0.1])
    state = dyn.PlantState(q=np.zeros(4), qdot=qdot, theta=np.zeros(2), thetadot=S2 @ qdot)
    assert np.allclose(fast_term(state, 2.0), 0.0)


def test_fast_term_definition(model):
    # mismatch of 1 rad/s on the first cable joint, Kv = 2I
    state = dyn.PlantState(q=np.zeros(4), qdot=np.zeros(4),
                           theta=np.zeros(2), thetadot=np.array([1.0, 0.0]))
    out = fast_term(state, 2.0)
    assert np.allclose(out, [0.0, 0.0, -2.0, 0.0])


def test_fast_term_direct_joints_always_zero(model):
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = dyn.PlantState(q=rng.normal(size=4), qdot=rng.normal(size=4),
                               theta=rng.normal(size=2), thetadot=rng.normal(size=2))
        out = fast_term(state, rng.uniform(0.5, 4.0))
        assert np.all(out[: model.n - model.n_c] == 0.0)


# ---------------------------------------------------------------------------
# transparent mode


def test_transparent_pure_compensation_at_rest(model):
    q = np.array([0.1, 0.5, -0.2, 0.7])
    state = dyn.settled_state(model, q)
    cfg = ctl.TransparentConfig()
    u = ctl.transparent_control(model, state, np.zeros(4), cfg)
    expected = dyn.gravity_vector(model, q)  # friction est is zero at rest
    assert np.allclose(u, expected, atol=1e-12)


def test_transparent_rejects_nonfinite_tau(model):
    state = dyn.settled_state(model, np.zeros(4))
    with pytest.raises(ValueError):
        ctl.transparent_control(model, state, np.array([np.nan, 0, 0, 0]), ctl.TransparentConfig())


def test_transparent_amplification_map():
    """Closed-loop tau_e -> qdd map on a stiff, frictionless test plant.

    With strong fast/slow separation the response settles onto
    (1/gamma0) (M + B_bar)^-1 tau_e; checked on the driven component.
    """
    m = dyn.PlantModel(spring_stiffness=2000.0, motor_inertia=0.005,
                       friction_c0=0.0, friction_c1=0.0, friction_c3=0.0)
    q0 = np.array([0.0, 0.25, 0.0, 0.0])
    _, S2, _, B = plant_matrices(m)
    Bbar = S2.T @ B @ S2
    cfg = ctl.TransparentConfig(Kv=3.0)
    dt = 2e-4
    for joint in (1, 3):
        tau = np.zeros(4)
        tau[joint] = 1.0 if joint == 1 else 0.5
        state = dyn.settled_state(m, q0)
        for _ in range(8):  # 80 ms at 100 Hz control
            u = ctl.transparent_control(m, state, tau, cfg)
            for _ in range(50):
                state = dyn.step(m, state, u, tau, dt)
        u = ctl.transparent_control(m, state, tau, cfg)
        after = dyn.step(m, state, u, tau, dt)
        acc = (after.qdot - state.qdot) / dt
        pred = (1.0 / cfg.gamma0) * np.linalg.solve(dyn.mass_matrix(m, state.q) + Bbar, tau)
        assert acc[joint] == pytest.approx(pred[joint], rel=0.05)


def test_transparent_holds_arm_stationary(model):
    q0 = np.array([0.0, 0.25, 0.0, 0.2])
    cfg = ctl.TransparentConfig()
    state = closed_loop(
        model,
        lambda s, tau: ctl.transparent_control(model, s, tau, cfg),
        ticks=500,
        state=dyn.settled_state(model, q0),
        tau_e_fn=lambda t, s: np.zeros(4),
    )
    assert np.max(np.abs(state.q - q0)) < 1e-4


def test_transparent_backdrivability(model):
    """Wearer sustains 10 deg/s on joint 2; required torque < 0.7 N m."""
    cfg = ctl.TransparentConfig()
    Kh, Ch = np.full(4, 20.0), np.full(4, 5.0)
    q0 = np.array([0.0, 0.2, 0.0, 0.3])
    rate = math.radians(10.0)

    def tau_fn(t, s):
        q_h = q0 + np.array([0.0, rate * t, 0.0, 0.0])
        qd_h = np.array([0.0, rate, 0.0, 0.0])
        return np.clip(Kh * (q_h - s.q) + Ch * (qd_h - s.qdot), -15.0, 15.0)

    state = dyn.settled_state(model, q0)
    worst = 0.0
    t = 0.0
    for tick in range(400):
        u = ctl.transparent_control(model, state, tau_fn(t, state), cfg)
        for _ in range(10):
            state = dyn.step(model, state, u, tau_fn(t, state), 1e-3)
            t += 1e-3
        if tick >= 100:
            worst = max(worst, np.max(np.abs(tau_fn(t, state))))
    assert worst < 0.7


def test_transparent_matches_reference_terms(model):
    _, S2, _, _ = plant_matrices(model)
    q = np.array([0.1, 0.3, -0.2, 0.4])
    qd = np.array([0.1, 0.2, -0.1, 0.15])
    state = dyn.PlantState(q=q, qdot=qd, theta=S2 @ q + 0.01,
                           thetadot=S2 @ qd + 0.05, payload_mass=0.4)
    cfg = ctl.TransparentConfig()
    tau_e = np.array([0.2, -0.1, 0.05, 0.3])
    u = ctl.transparent_control(model, state, tau_e, cfg)
    M, g, D = plant_terms(model, q, 0.4)
    C = christoffel(D, qd)
    tau_hat = reference_friction(model, state.thetadot, cfg.friction_comp_eps)
    expected = (tau_e / cfg.gamma0 + C @ qd + g - S2.T @ tau_hat - tau_e
                + fast_term(state, cfg.Kv))
    assert np.allclose(u, expected, atol=1e-12)


def test_closed_loop_matches_reference_step(model):
    """2 000 substeps of transparent control under a constant wearer torque:
    the plant step stays on the complex-step reference trajectory."""
    cfg = ctl.TransparentConfig()
    tau_e = np.array([0.02, 0.05, -0.01, 0.03])
    q0 = np.array([0.0, 0.3, 0.0, 0.5])
    fast = ref = dyn.settled_state(model, q0, payload_mass=0.3)
    dq = dqd = 0.0
    for _ in range(200):
        u_fast = ctl.transparent_control(model, fast, tau_e, cfg)
        u_ref = ctl.transparent_control(model, ref, tau_e, cfg)
        for _ in range(10):
            fast = dyn.step(model, fast, u_fast, tau_e, 1e-3)
            ref = reference_step(model, ref, u_ref, tau_e, 1e-3)
            dq = max(dq, np.max(np.abs(fast.q - ref.q)))
            dqd = max(dqd, np.max(np.abs(fast.qdot - ref.qdot)))
    assert np.max(np.abs(fast.q - q0)) > 0.1  # the wearer moved the arm
    assert dq < 1e-9
    assert dqd < 1e-7


# ---------------------------------------------------------------------------
# both controllers against their one-expression form

_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def controller_cases(draw):
    """A plant, a state (payload 0 or not), desired motion and torque, and
    both configs with scalar or per-joint gains, each validated or not."""
    n = draw(st.sampled_from([1, 2, 4, 6]))
    n_c = draw(st.integers(1, n))

    def vec(size, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi, **_FINITE), min_size=size,
                                      max_size=size)))

    def gain(size, lo, hi):
        return vec(size, lo, hi) if draw(st.booleans()) else draw(st.floats(lo, hi))

    model = dyn.PlantModel(n=n, n_c=n_c, link_lengths=vec(n, 0.05, 0.4),
                           link_masses=vec(n, 0.2, 3.0))
    state = dyn.PlantState(q=vec(n, -np.pi, np.pi), qdot=vec(n, -3.0, 3.0),
                           theta=vec(n_c, -np.pi, np.pi), thetadot=vec(n_c, -3.0, 3.0),
                           payload_mass=draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0))))
    desired = [vec(n, -np.pi, np.pi), vec(n, -3.0, 3.0), vec(n, -10.0, 10.0)]
    tau_e = vec(n, -15.0, 15.0)
    friction = dict(friction_scale=draw(st.floats(0.0, 1.5)),
                    friction_comp_eps=draw(st.floats(0.01, 0.5)))
    tcfg = ctl.TransparentConfig(gamma0=draw(st.floats(0.1, 2.0)), Kv=gain(n_c, 0.5, 10.0),
                                 **friction)
    icfg = ctl.ImpedanceConfig(Cd=gain(n, 1.0, 60.0), Kd=gain(n, 1.0, 100.0),
                               w=draw(st.floats(0.2, 3.0)), Mv=gain(n, 0.1, 2.0),
                               Kv=gain(n_c, 0.5, 10.0), **friction)
    if draw(st.booleans()):
        tcfg, icfg = tcfg.validated(n_c), icfg.validated(n, n_c)
    return model, state, desired, tau_e, tcfg, icfg


@settings(max_examples=200, deadline=None)
@given(controller_cases())
def test_controllers_match_one_expression_form_bitwise(case):
    model, state, desired, tau_e, tcfg, icfg = case
    assert np.array_equal(ctl.transparent_control(model, state, tau_e, tcfg),
                          reference_transparent_control(model, state, tau_e, tcfg))
    assert np.array_equal(ctl.impedance_control(model, state, *desired, tau_e, icfg),
                          reference_impedance_control(model, state, *desired, tau_e, icfg))


# ---------------------------------------------------------------------------
# impedance mode


def test_impedance_zero_error_is_feedforward(model):
    _, S2, _, _ = plant_matrices(model)
    q = np.array([0.0, 0.3, 0.0, 0.4])
    qd = np.array([0.1, 0.2, -0.1, 0.15])
    state = dyn.PlantState(q=q, qdot=qd, theta=S2 @ q, thetadot=S2 @ qd)
    cfg = ctl.ImpedanceConfig(w=2.0)
    u = ctl.impedance_control(model, state, q, qd, np.zeros(4), np.zeros(4), cfg)
    M, g, D = plant_terms(model, q, 0.0)
    C = christoffel(D, qd)
    tau_hat = reference_friction(model, state.thetadot, cfg.friction_comp_eps)
    expected = C @ qd + g - S2.T @ tau_hat + fast_term(state, cfg.Kv)
    assert np.allclose(u, expected, atol=1e-12)


def test_impedance_exact_static_solution(model):
    """tau_e = w Kd (q - q_d) solves the target model; error term vanishes."""
    _, S2, _, _ = plant_matrices(model)
    cfg = ctl.ImpedanceConfig(w=0.5)
    q_d = np.array([0.0, 0.4, 0.0, 0.5])
    q = q_d + np.array([0.02, -0.03, 0.01, 0.015])
    state = dyn.PlantState(q=q, qdot=np.zeros(4), theta=S2 @ q, thetadot=np.zeros(2))
    vcfg = cfg.validated(model.n, model.n_c)
    tau_e = cfg.w * vcfg.Kd * (q - q_d)
    u = ctl.impedance_control(model, state, q_d, np.zeros(4), np.zeros(4), tau_e, cfg)
    # with the error term gone, u is feedforward minus the tau_e cancellation
    u_ff = ctl.impedance_control(model, state, q, np.zeros(4), np.zeros(4), np.zeros(4), cfg)
    assert np.allclose(u, u_ff - tau_e, atol=1e-12)


@pytest.mark.parametrize("w", [2.0, 0.5])
def test_impedance_steady_state_deviation(model, w):
    """Constant tau_e: deviation settles to tau_e / (w Kd) per joint."""
    cfg = ctl.ImpedanceConfig(w=w)
    q_d = np.array([0.0, 0.4, 0.0, 0.5])
    tau_c = np.array([0.6, 0.8, 0.4, 0.5])
    state = closed_loop(
        model,
        lambda s, tau: ctl.impedance_control(model, s, q_d, np.zeros(4), np.zeros(4), tau, cfg),
        ticks=600,
        state=dyn.settled_state(model, q_d),
        tau_e_fn=lambda t, s: tau_c,
    )
    dev = state.q - q_d
    pred = tau_c / (w * 50.0)
    assert np.max(np.abs(dev - pred) / np.abs(pred)) < 0.05
    # Eq-16 residual at steady state, relative to the torque term
    vcfg = cfg.validated(model.n, model.n_c)
    resid = vcfg.Cd * (0.0 - state.qdot) + vcfg.Kd * dev - tau_c / w
    assert np.linalg.norm(resid) < 0.05 * np.linalg.norm(tau_c / w)


def test_impedance_halving_w_doubles_deviation(model):
    q_d = np.array([0.0, 0.4, 0.0, 0.5])
    tau_c = np.array([0.5, 0.7, 0.3, 0.4])

    def settle(w):
        cfg = ctl.ImpedanceConfig(w=w)
        state = closed_loop(
            model,
            lambda s, tau: ctl.impedance_control(model, s, q_d, np.zeros(4), np.zeros(4), tau, cfg),
            ticks=600,
            state=dyn.settled_state(model, q_d),
            tau_e_fn=lambda t, s: tau_c,
        )
        return state.q - q_d

    ratio = settle(1.0) / settle(2.0)
    assert np.max(np.abs(ratio - 2.0)) < 0.05 * 2.0


def test_impedance_rejects_nonfinite_trajectory(model):
    state = dyn.settled_state(model, np.zeros(4))
    with pytest.raises(ValueError):
        ctl.impedance_control(model, state, np.array([np.nan, 0, 0, 0]),
                              np.zeros(4), np.zeros(4), np.zeros(4), ctl.ImpedanceConfig())


# ---------------------------------------------------------------------------
# task configuration bits


def test_apply_task_config_table():
    mode, cfg = ctl.apply_task_config((1, 0, 0))
    assert mode == "impedance"
    assert cfg.w == 2.0
    assert cfg.t_f == 5.0
    assert cfg.speed_limit == pytest.approx(math.radians(30.0))

    mode, cfg = ctl.apply_task_config((1, 1, 1))
    assert mode == "impedance"
    assert cfg.w == 0.5
    assert cfg.t_f == 2.0
    assert cfg.speed_limit == pytest.approx(math.radians(70.0))


def test_apply_task_config_transparent_ignores_rest():
    for spd, imp in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mode, cfg = ctl.apply_task_config((0, spd, imp))
        assert mode == "transparent"
        assert cfg.mode == "transparent"


def test_apply_task_config_rejects_bad_bits():
    with pytest.raises(ValueError):
        ctl.apply_task_config((2, 0, 0))
    with pytest.raises(ValueError):
        ctl.apply_task_config((0, 0, 5))
    with pytest.raises(ValueError):
        ctl.apply_task_config(("x", 0, 1))


# ---------------------------------------------------------------------------
# config file


def test_control_config_roundtrip(tmp_path):
    cfg = {
        "transparent": {"gamma0": 0.4, "Kv": 5.0},
        "impedance": {"Cd": 30.0, "Kd": 50.0, "Mv": 0.5},
        "qp": {"horizon": 20, "dt": 0.05, "Q": 1.0, "R": 0.01,
               "accel_limit_deg": 300.0,
               "position_min_deg": [-30.0, -10.0, -60.0, 0.0],
               "position_max_deg": [100.0, 150.0, 60.0, 150.0]},
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(cfg))
    loaded = ctl.load_control_config(path)
    assert loaded.transparent.gamma0 == 0.4
    assert loaded.qp.accel_limit == pytest.approx(math.radians(300.0))
    assert loaded.qp.position_max[1] == pytest.approx(math.radians(150.0))


def test_control_config_rejects_unknown(tmp_path):
    path = tmp_path / "control.json"
    path.write_text(json.dumps({"transparent": {"gamma0": 0.5, "turbo": True}}))
    with pytest.raises(ConfigError, match="turbo"):
        ctl.load_control_config(path)


@pytest.mark.parametrize("field, value, match", [
    ("horizon", 1, "horizon"),
    ("horizon", 20.0, "horizon"),
    ("dt", 0.0, "dt"),
    ("Q", -1.0, "Q"),
    ("R", -1.0, "R"),
    ("accel_limit", 0.0, "accel_limit"),
    ("position_min", [-1.0, float("nan"), 0.0, 0.0], "position_min"),
    ("position_max", [1.0, 1.0, 1.0], "differ in length"),
    ("position_max", [1.0, 1.0, -1.0, 1.0], "below"),
], ids=["horizon-short", "horizon-float", "dt", "Q", "R", "accel_limit",
        "position-nonfinite", "position-lengths", "position-order"])
def test_bad_qp_setting_rejected_at_construction(field, value, match):
    kwargs = {"position_min": [-1.0, -1.0, 0.0, 0.0], "position_max": [1.0, 1.0, 1.0, 1.0],
              field: value}
    with pytest.raises(ConfigError, match=match):
        ctl.QPConfig(**kwargs)



@pytest.mark.parametrize("R", [0.0, [0.01, 0.0, 0.01, 0.01]], ids=["scalar", "per-joint"])
def test_zero_control_weight_rejected(R):
    """R = 0 leaves the last step's accelerations without curvature, and the
    dual active set then fails to settle on moves with a binding speed limit."""
    with pytest.raises(ConfigError, match="qp R"):
        ctl.QPConfig(R=R)
