"""Plant dynamics tests: SPD inertia, Christoffel skew-symmetry, gravity
gradients, friction passivity, integrator energy bookkeeping."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exoassist import dynamics as dyn
from exoassist import planner as pl
from exoassist.config import ConfigError
from oracles import (christoffel, coriolis_matrix, fk, frozen_mass_matrix, geometry, numpy_step,
                     plant_matrices, plant_terms, reference_friction)


@pytest.fixture(scope="module")
def model():
    return dyn.PlantModel()


def rng_states(seed, count, n=4):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(-1.5, 1.5, n), rng.uniform(-2.0, 2.0, n)


def fd_mass_rate(model, q, qdot, h=1e-6):
    """Finite-difference Mdot along the direction qdot (the skew oracle)."""
    return (dyn.mass_matrix(model, q + h * qdot) - dyn.mass_matrix(model, q - h * qdot)) / (2 * h)


def fd_ee_jacobian(model, q, h=1e-7):
    J = np.zeros((3, model.n))
    for i in range(model.n):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        J[:, i] = (dyn._fk(model, qp)[1] - dyn._fk(model, qm)[1]) / (2 * h)
    return J


# ---------------------------------------------------------------------------
# mass matrix


def test_mass_matrix_symmetric_spd(model):
    for q, _ in rng_states(1, 25):
        M = dyn.mass_matrix(model, q)
        assert np.max(np.abs(M - M.T)) < 1e-12
        np.linalg.cholesky(M)  # raises if not SPD
        assert np.min(np.linalg.eigvalsh(M)) > 0


def test_mass_matrix_payload_is_point_mass_term(model):
    q = np.zeros(model.n)
    J = fd_ee_jacobian(model, q)
    dM = dyn.mass_matrix(model, q, payload_mass=1.0) - dyn.mass_matrix(model, q, payload_mass=0.0)
    assert np.max(np.abs(dM - J.T @ J)) < 1e-8


def test_kinetic_energy_matches_link_sum(model):
    """Brute-force oracle: sum per-link 0.5 m|v|^2 + 0.5 w'Iw with FD velocities."""
    rng = np.random.default_rng(7)
    q = rng.uniform(-1.0, 1.0, model.n)
    inertias = geometry(model)[4]
    for basis in range(model.n):
        qdot = np.eye(model.n)[basis]
        h = 1e-7
        com_p = dyn._fk(model, q + h * qdot)[0]
        com_m = dyn._fk(model, q - h * qdot)[0]
        v_com = (com_p - com_m) / (2 * h)

        ke_oracle = 0.0
        for i in range(model.n):
            ke_oracle += 0.5 * model.link_masses[i] * v_com[i] @ v_com[i]
            # angular velocity from FD of the link rotation matrix
            _, Rp, _, _, _ = fk(model, (q + h * qdot)[None, :])
            _, Rm, _, _, _ = fk(model, (q - h * qdot)[None, :])
            Rdot = (Rp[0, i].real - Rm[0, i].real) / (2 * h)
            R0 = fk(model, q[None, :])[1][0, i].real
            W = Rdot @ R0.T  # skew(omega)
            omega = np.array([W[2, 1], W[0, 2], W[1, 0]])
            Iw = R0 @ inertias[i] @ R0.T
            ke_oracle += 0.5 * omega @ Iw @ omega

        ke_mass = 0.5 * qdot @ dyn.mass_matrix(model, q) @ qdot
        assert ke_mass == pytest.approx(ke_oracle, rel=1e-5, abs=1e-10)


@pytest.mark.parametrize("chain", [
    dyn.PlantModel(),
    dyn.PlantModel(n=6, n_c=3, link_lengths=[0.05, 0.3, 0.1, 0.25, 0.2, 0.15],
                   link_masses=[1.5, 2.0, 0.5, 1.2, 0.8, 0.4], link_inertias=[0.01] * 6),
], ids=["default", "six-joint"])
def test_forward_kinematics_matches_rotation_matrices(chain):
    qs = np.random.default_rng(11).uniform(-np.pi, np.pi, (200, chain.n))
    _, _, coms, _, ees = fk(chain, qs)
    for q, c, ee in zip(qs, coms, ees):
        coms_k, ee_k = dyn._fk(chain, q)
        assert np.max(np.abs(coms_k - c)) < 1e-12
        assert np.max(np.abs(ee_k - ee)) < 1e-12
        u = chain.gravity * (chain.link_masses @ c[:, 2])
        assert abs(dyn.potential_energy(chain, q) - u) < 1e-12
        u += chain.gravity * 0.7 * ee[2]
        assert abs(dyn.potential_energy(chain, q, 0.7) - u) < 1e-12


def test_mass_matrix_rejects_nonfinite(model):
    with pytest.raises(ValueError):
        dyn.mass_matrix(model, np.array([np.nan, 0, 0, 0]))


@pytest.mark.parametrize("q", [np.array([np.nan, 0, 0, 0]), np.array([0, np.inf, 0, 0]),
                               np.zeros(3), np.zeros(5)])
def test_energies_reject_bad_q(model, q):
    with pytest.raises(ValueError, match="q must"):
        dyn.potential_energy(model, q)
    n_c = model.n_c
    # a state built without validation, as step builds its results
    state = dyn.PlantState._unchecked(q.astype(float), np.zeros(q.size), np.zeros(n_c),
                                      np.zeros(n_c), 0.0, np.zeros(q.size))
    with pytest.raises(ValueError, match="q must"):
        dyn.total_energy(model, state)


@pytest.mark.parametrize("helper", [dyn.mass_matrix, dyn.gravity_vector, dyn.potential_energy],
                         ids=["mass_matrix", "gravity_vector", "potential_energy"])
def test_helpers_reject_batched_q(model, helper):
    with pytest.raises(ValueError, match="q must"):
        helper(model, np.zeros((2, model.n)))


# ---------------------------------------------------------------------------
# the kernel and the public helpers against the complex-step reference

_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def chain_states(draw):
    n = draw(st.sampled_from([1, 2, 4, 6]))
    n_c = draw(st.integers(1, n))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi, **_FINITE), min_size=n, max_size=n)))

    model = dyn.PlantModel(n=n, n_c=n_c, link_lengths=vec(0.05, 0.4),
                           link_masses=vec(0.2, 3.0))
    payload = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0, **_FINITE)))
    return model, vec(-np.pi, np.pi), vec(-3.0, 3.0), payload


@settings(max_examples=200, deadline=None)
@given(chain_states())
def test_rigid_body_kernel_matches_complex_step(case):
    model, q, qdot, payload = case
    M_ref, g_ref, D = plant_terms(model, q, payload)
    C_ref = christoffel(D, qdot)
    h_ref = C_ref @ qdot + g_ref

    def assert_close(value, ref):
        assert np.max(np.abs(value - ref)) <= 1e-12 * max(1.0, np.linalg.norm(ref))

    M, h = dyn._rigid_body_terms(model, q, qdot, payload)
    assert_close(M, M_ref)
    assert_close(h, h_ref)
    M_none, h_only = dyn._rigid_body_terms(model, q, qdot, payload, with_mass=False)
    assert M_none is None and np.array_equal(h_only, h)
    assert_close(dyn.mass_matrix(model, q, payload), M_ref)
    assert_close(dyn.gravity_vector(model, q, payload), g_ref)
    assert_close(coriolis_matrix(model, q, qdot, payload), C_ref)


@settings(max_examples=200, deadline=None)
@given(chain_states(), st.sampled_from([0.0, -0.0, 1e-12, -np.pi, np.pi]))
def test_mass_matrix_bits_are_frozen(case, edge):
    """The kernel's M has the frozen pass's bits, signed zeros included, on
    drawn chains and on a pose with one joint at an edge value."""
    model, q, qdot, payload = case
    for pose in (q, np.concatenate([[edge], q[1:]])):
        M, _ = dyn._rigid_body_terms(model, pose, qdot, payload)
        assert np.array(M).tobytes() == np.array(frozen_mass_matrix(model, pose, payload)).tobytes()
    assert dyn.mass_matrix(model, q, payload).tobytes() == \
        np.array(frozen_mass_matrix(model, q, payload)).tobytes()


# ---------------------------------------------------------------------------
# Coriolis


def test_coriolis_zero_velocity(model):
    q = np.array([0.2, -0.4, 0.9, 0.3])
    assert np.allclose(coriolis_matrix(model, q, np.zeros(4)), 0.0)


def test_coriolis_single_joint_is_zero():
    m1 = dyn.PlantModel(n=1, n_c=1, link_lengths=[0.3], link_masses=[1.0])
    C = coriolis_matrix(m1, np.array([0.7]), np.array([1.3]))
    assert np.allclose(C, 0.0, atol=1e-14)


def test_skew_symmetry_100_random_states(model):
    worst = 0.0
    for q, qdot in rng_states(42, 100):
        C = coriolis_matrix(model, q, qdot)
        Mdot = fd_mass_rate(model, q, qdot)
        worst = max(worst, abs(qdot @ (Mdot - 2 * C) @ qdot))
    assert worst < 1e-8


def test_coriolis_rejects_nonfinite(model):
    with pytest.raises(ValueError):
        coriolis_matrix(model, np.zeros(4), np.array([np.inf, 0, 0, 0]))


# ---------------------------------------------------------------------------
# gravity


def test_gravity_zero_at_hanging_posture(model):
    assert np.max(np.abs(dyn.gravity_vector(model, np.zeros(model.n)))) < 1e-10


def test_gravity_matches_potential_gradient(model):
    h = 1e-6
    for q, _ in rng_states(3, 10):
        g = dyn.gravity_vector(model, q, payload_mass=0.4)
        g_fd = np.zeros(model.n)
        for i in range(model.n):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            g_fd[i] = (dyn.potential_energy(model, qp, 0.4) - dyn.potential_energy(model, qm, 0.4)) / (2 * h)
        denom = max(1.0, np.max(np.abs(g_fd)))
        assert np.max(np.abs(g - g_fd)) / denom < 1e-6


def test_gravity_payload_moment_arm(model):
    # horizontal reach: flexion joint raised 90 deg puts the arm along -x,
    # so the payload adds m*g*L to the flexion-joint gravity term
    q = np.array([0.0, np.pi / 2, 0.0, 0.0])
    reach = dyn._fk(model, q)[1]
    L = np.hypot(reach[0], reach[1])
    g0 = dyn.gravity_vector(model, q, payload_mass=0.0)
    g1 = dyn.gravity_vector(model, q, payload_mass=1.0)
    assert g1[1] - g0[1] == pytest.approx(model.gravity * L, rel=1e-9)


# ---------------------------------------------------------------------------
# friction


def test_friction_zero_at_rest(model):
    assert np.allclose(dyn._friction(model, np.zeros(model.n_c), model.friction_eps_v), 0.0)


def test_friction_opposes_motion(model):
    for thd in ([0.5, -0.3], [2.0, 0.01], [-4.0, 1.5]):
        tau = dyn._friction(model, np.array(thd), model.friction_eps_v)
        assert np.all(np.sign(tau) == -np.sign(thd))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=2))
def test_friction_passivity(thd):
    model = dyn.PlantModel()
    tau = dyn._friction(model, np.array(thd), model.friction_eps_v)
    assert np.asarray(thd) @ tau <= 1e-12


_VELOCITY_EDGES = (0.0, -0.0, 1e-12, -1e-12, 50.0, -50.0)


@st.composite
def friction_cases(draw):
    """A plant with scalar or per-joint friction coefficients, cable-joint
    velocities with the edge values among them, and a boundary layer."""
    n_c = draw(st.integers(1, 4))

    def coeff():
        value = st.floats(0.0, 1.0, **_FINITE)
        return draw(st.one_of(value, st.lists(value, min_size=n_c, max_size=n_c)))

    model = dyn.PlantModel(n_c=n_c, friction_c0=coeff(), friction_c1=coeff(),
                           friction_c3=coeff())
    speed = st.one_of(st.sampled_from(_VELOCITY_EDGES), st.floats(-50.0, 50.0, **_FINITE))
    drawn = np.array(draw(st.lists(speed, min_size=n_c, max_size=n_c)))
    # uniform draws as well: Python's v**3 and math.tanh differ from numpy's
    # in the last bit on a few percent of them, rarely on hypothesis's picks
    seed = draw(st.integers(0, 2**32 - 1))
    uniform = np.random.default_rng(seed).uniform(-50.0, 50.0, (32, n_c))
    return model, [drawn, *uniform], draw(st.floats(0.01, 1.0, **_FINITE))


@settings(max_examples=200, deadline=None)
@given(friction_cases())
def test_friction_matches_numpy_expression_bitwise(case):
    """The float linear combination around numpy's cube and tanh gives the
    one-expression form's bits, signed zeros included."""
    model, velocities, eps_v = case
    for thd in velocities:
        assert (np.array(dyn._friction(model, thd, eps_v)).tobytes()
                == reference_friction(model, thd, eps_v).tobytes())


# ---------------------------------------------------------------------------
# step / integrator


def test_step_equilibrium_relaxed_spring(model):
    # hanging posture: g(q) = 0, so u = g(q) with theta = S2 q is a rest point
    q = np.zeros(model.n)
    _, S2, _, _ = plant_matrices(model)
    state = dyn.PlantState(q=q, qdot=np.zeros(4), theta=S2 @ q, thetadot=np.zeros(2))
    u = dyn.gravity_vector(model, q)
    for _ in range(200):
        state = dyn.step(model, state, u, np.zeros(model.n), 1e-3)
    assert np.max(np.abs(state.q - q)) < 1e-12
    assert np.max(np.abs(state.qdot)) < 1e-12


def test_step_equilibrium_settled_spring(model):
    # flexed straight arm: gravitationally stable, spring preloaded
    q = np.array([0.0, 0.25, 0.0, 0.0])
    state = dyn.settled_state(model, q)
    u = dyn.gravity_vector(model, q)
    for _ in range(500):
        state = dyn.step(model, state, u, np.zeros(model.n), 1e-3)
    assert np.max(np.abs(state.q - q)) < 1e-9
    assert np.max(np.abs(state.qdot)) < 1e-9


def test_step_energy_drift_conservative():
    model = dyn.PlantModel(gravity=0.0, friction_c0=0.0, friction_c1=0.0, friction_c3=0.0)
    qdot0 = np.array([0.12, 0.16, 0.08, 0.12])
    state = dyn.PlantState(q=np.zeros(4), qdot=qdot0, theta=np.zeros(2), thetadot=qdot0[2:])
    e0 = dyn.total_energy(model, state)
    for _ in range(10_000):
        state = dyn.step(model, state, np.zeros(4), np.zeros(4), 1e-3)
    e1 = dyn.total_energy(model, state)
    assert abs(e1 - e0) / e0 < 1e-3


def test_total_energy_spring_and_motor_terms():
    """Each of the two motor-side terms alone, with gravity and everything
    else zero: a deflection d holds 0.5 sum K d^2, a motor velocity
    0.5 sum B thetadot^2."""
    model = dyn.PlantModel(gravity=0.0, spring_stiffness=[80.0, 120.0],
                           motor_inertia=[0.04, 0.07])
    zeros = np.zeros(model.n)
    d = np.array([0.03, -0.05])
    state = dyn.PlantState(q=zeros, qdot=zeros, theta=d, thetadot=np.zeros(2))
    assert dyn.total_energy(model, state) == pytest.approx(
        0.5 * np.sum(model.spring_stiffness * d**2), rel=1e-12)
    w = np.array([0.7, -1.1])
    state = dyn.PlantState(q=zeros, qdot=zeros, theta=np.zeros(2), thetadot=w)
    assert dyn.total_energy(model, state) == pytest.approx(
        0.5 * np.sum(model.motor_inertia * w**2), rel=1e-12)


def test_step_first_order_convergence(model):
    """Richardson-style check: trajectory error scales ~linearly with dt."""
    q0 = np.array([0.0, 0.4, 0.0, 0.6])
    u = dyn.gravity_vector(model, q0) * 0.9

    def traj(dt, t_end=0.2):
        state = dyn.settled_state(model, q0)
        out = []
        sample_every = int(round(0.02 / dt))
        for i in range(int(round(t_end / dt))):
            state = dyn.step(model, state, u, np.zeros(4), dt)
            if (i + 1) % sample_every == 0:
                out.append(state.q.copy())
        return np.array(out)

    ref = traj(5e-5)
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    errs = [np.sqrt(np.mean((traj(dt) - ref) ** 2)) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.7 < slope < 1.5


def test_step_is_deterministic(model):
    q = np.array([0.2, 0.3, -0.1, 0.4])
    u = dyn.gravity_vector(model, q) + 0.1

    def run():
        state = dyn.settled_state(model, q, payload_mass=0.5)
        out = []
        for _ in range(50):
            state = dyn.step(model, state, u, np.full(4, 0.05), 1e-3)
            out.append(state.q.copy())
        return np.array(out)

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_step_rejects_bad_dt_and_nonfinite(model):
    state = dyn.settled_state(model, np.zeros(4))
    with pytest.raises(ValueError):
        dyn.step(model, state, np.zeros(4), np.zeros(4), 0.01)
    with pytest.raises(ValueError):
        dyn.step(model, state, np.zeros(4), np.zeros(4), 0.0)
    with pytest.raises(dyn.SimulationFault):
        dyn.step(model, state, np.array([np.nan, 0, 0, 0]), np.zeros(4), 1e-3)
    with pytest.raises(dyn.SimulationFault, match="tau_e"):
        dyn.step(model, state, np.zeros(4), np.array([np.inf, 0, 0, 0]), 1e-3)


_TORQUE_EDGES = (0.0, -0.0, 1e-12, -1e-12)


@st.composite
def step_cases(draw):
    """A chain with scalar or per-joint spring stiffness and motor inertia and
    a payload of 0 or more; a state and torques with the edge values among
    them, then uniform draws on the same plant; a step length."""
    n = draw(st.sampled_from([1, 2, 4, 6]))
    n_c = draw(st.integers(1, n))

    def vec(lo, hi, size, edges=()):
        value = st.floats(lo, hi, **_FINITE)
        value = st.one_of(st.sampled_from(edges), value) if edges else value
        return np.array(draw(st.lists(value, min_size=size, max_size=size)))

    def per_joint(lo, hi):
        return vec(lo, hi, n_c) if draw(st.booleans()) else draw(st.floats(lo, hi, **_FINITE))

    model = dyn.PlantModel(n=n, n_c=n_c, link_lengths=vec(0.05, 0.4, n),
                           link_masses=vec(0.2, 3.0, n), spring_stiffness=per_joint(10.0, 300.0),
                           motor_inertia=per_joint(0.01, 0.2))
    payload = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0, **_FINITE)))
    # (bound, size, edges) of q, qdot, theta, thetadot, u and tau_e
    layout = ((np.pi, n, ()), (3.0, n, ()), (2.0, n_c, ()), (3.0, n_c, ()),
              (20.0, n, _TORQUE_EDGES), (10.0, n, _TORQUE_EDGES))
    drawn = tuple(vec(-b, b, size, edges) for b, size, edges in layout)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = [tuple(rng.uniform(-b, b, size) for b, size, _ in layout) for _ in range(8)]
    return model, payload, [drawn, *uniform], draw(st.floats(1e-4, 5e-3, **_FINITE))


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_matches_numpy_oracle_bitwise(case):
    """The float step gives the array step's bits on all five arrays of the
    new state, signed zeros included."""
    model, payload, draws, dt = case
    for q, qdot, theta, thetadot, u, tau_e in draws:
        state = dyn.PlantState(q=q, qdot=qdot, theta=theta, thetadot=thetadot,
                               payload_mass=payload)
        got, want = dyn.step(model, state, u, tau_e, dt), numpy_step(model, state, u, tau_e, dt)
        for name in ("q", "qdot", "theta", "thetadot", "tau_e"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.payload_mass == want.payload_mass


@pytest.mark.parametrize("u, tau_e", [
    ([np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]),  # u is checked first
    ([0.0, 0.0, 0.0, 0.0], [0.0, -np.inf, 0.0, 0.0]),
    ([0.0, 0.0, 0.0, 1e308], [0.0, 0.0, 0.0, 0.0]),  # the motor acceleration overflows
], ids=["u", "tau_e", "integration"])
def test_step_faults_match_numpy_oracle(model, u, tau_e):
    state = dyn.settled_state(model, np.zeros(4))
    with pytest.raises(dyn.SimulationFault) as got:
        dyn.step(model, state, np.array(u), np.array(tau_e), 1e-3)
    # the array step overflows in numpy, which warns
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(dyn.SimulationFault) as want:
        numpy_step(model, state, np.array(u), np.array(tau_e), 1e-3)
    assert str(got.value) == str(want.value)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10, a passive plant: the motor-side "
                   "friction acts on the link equation, where it can feed energy in")
def test_unactuated_plant_never_gains_energy(model):
    """Passivity: with u = tau_e = 0 the default plant, friction on, holds or
    loses its energy over 1.5 s."""
    state = dyn.settled_state(model, (0.1, 0.3, 0.0, 0.5))
    zero = np.zeros(model.n)
    e0 = dyn.total_energy(model, state)
    for _ in range(1500):
        state = dyn.step(model, state, zero, zero, 1e-3)
        assert dyn.total_energy(model, state) <= e0 + 1e-3 * abs(e0)


def test_step_stores_tau_e(model):
    state = dyn.settled_state(model, np.zeros(4))
    tau_e = np.array([0.1, -0.2, 0.05, 0.0])
    out = dyn.step(model, state, np.zeros(4), tau_e, 1e-3)
    assert np.array_equal(out.tau_e, tau_e)


# ---------------------------------------------------------------------------
# types / config


def test_plant_state_validation():
    with pytest.raises(ValueError):
        dyn.PlantState(q=[np.nan, 0, 0, 0], qdot=np.zeros(4), theta=np.zeros(2), thetadot=np.zeros(2))
    with pytest.raises(ValueError):
        dyn.PlantState(q=np.zeros(4), qdot=np.zeros(4), theta=np.zeros(2),
                       thetadot=np.zeros(2), payload_mass=-1.0)


def test_model_invariant_validation():
    with pytest.raises(ConfigError):
        dyn.PlantModel(link_masses=[1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ConfigError):
        dyn.PlantModel(n=2, n_c=3, link_lengths=[0.2, 0.2], link_masses=[1, 1])
    with pytest.raises(ConfigError):
        dyn.PlantModel(spring_stiffness=0.0)


def test_plant_config_roundtrip(tmp_path):
    cfg = {
        "n": 4,
        "n_c": 2,
        "link_lengths": [0.05, 0.28, 0.05, 0.25],
        "link_masses": [1.5, 2.0, 0.5, 1.2],
        "spring_stiffness": [100.0, 100.0],
        "motor_inertia": 0.05,
        "friction_coeffs": {"c0": 0.3, "c1": 0.5, "c3": 0.1, "eps_v": 0.01},
        "gravity": 9.81,
    }
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(cfg))
    model = dyn.load_plant_config(path)
    assert model.n == 4
    assert np.allclose(model.spring_stiffness, 100.0)


def test_plant_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"n": 4, "wing_span": 2.0}))
    with pytest.raises(ConfigError, match="wing_span"):
        dyn.load_plant_config(path)


@pytest.mark.parametrize("fields, name", [
    ({"gravity": True}, "plant gravity"),
    ({"gravity": "9.81"}, "plant gravity"),
    ({"motor_inertia": "0.05"}, "plant motor_inertia"),
    ({"link_lengths": [0.05, 0.28, True, 0.25]}, "plant link_lengths"),
    ({"friction_coeffs": {"eps_v": "0.1"}}, "plant friction_coeffs eps_v"),
    ({"friction_coeffs": {"c0": "x"}}, "plant friction_coeffs c0"),
    ({"n_c": True}, "plant n_c"),
], ids=["boolean-gravity", "string-gravity", "string-motor-inertia", "boolean-link-length",
        "string-eps-v", "string-c0", "boolean-n-c"])
def test_plant_config_takes_only_numbers_as_numbers(tmp_path, fields, name):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({**json.loads(pl.data_path("plant.json").read_text()), **fields}))
    with pytest.raises(ConfigError, match=re.escape(name)):
        dyn.load_plant_config(path)
