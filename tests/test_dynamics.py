"""Plant dynamics tests: SPD inertia, Christoffel skew-symmetry, gravity
gradients, friction passivity, integrator energy bookkeeping."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exoassist import dynamics as dyn


@pytest.fixture(scope="module")
def model():
    return dyn.default_model()


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
        J[:, i] = (dyn.end_effector_position(model, qp) - dyn.end_effector_position(model, qm)) / (2 * h)
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
    for basis in range(model.n):
        qdot = np.eye(model.n)[basis]
        h = 1e-7
        com_p = dyn.link_com_positions(model, q + h * qdot)
        com_m = dyn.link_com_positions(model, q - h * qdot)
        v_com = (com_p - com_m) / (2 * h)

        ke_oracle = 0.0
        for i in range(model.n):
            ke_oracle += 0.5 * model.link_masses[i] * v_com[i] @ v_com[i]
            # angular velocity from FD of the link rotation matrix
            _, Rp, _, _, _ = dyn._fk(model, (q + h * qdot)[None, :])
            _, Rm, _, _, _ = dyn._fk(model, (q - h * qdot)[None, :])
            Rdot = (Rp[0, i].real - Rm[0, i].real) / (2 * h)
            R0 = dyn._fk(model, q[None, :])[1][0, i].real
            W = Rdot @ R0.T  # skew(omega)
            omega = np.array([W[2, 1], W[0, 2], W[1, 0]])
            Iw = R0 @ model.inertia_local[i] @ R0.T
            ke_oracle += 0.5 * omega @ Iw @ omega

        ke_mass = 0.5 * qdot @ dyn.mass_matrix(model, q) @ qdot
        assert ke_mass == pytest.approx(ke_oracle, rel=1e-5, abs=1e-10)


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


def test_potential_energy_rejects_batched_q(model):
    with pytest.raises(ValueError, match="q must"):
        dyn.potential_energy(model, np.zeros((2, model.n)))


# ---------------------------------------------------------------------------
# single-state kernel against the complex-step reference

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
    M_ref, g, D = dyn._plant_terms(model, q, payload)
    h_ref = dyn._christoffel(D, qdot) @ qdot + g
    M, h = dyn._rigid_body_terms(model, q, qdot, payload)
    assert np.max(np.abs(M - M_ref)) <= 1e-12 * max(1.0, np.linalg.norm(M_ref))
    assert np.max(np.abs(h - h_ref)) <= 1e-12 * max(1.0, np.linalg.norm(h_ref))
    M_none, h_only = dyn._rigid_body_terms(model, q, qdot, payload, with_mass=False)
    assert M_none is None and np.array_equal(h_only, h)


# ---------------------------------------------------------------------------
# Coriolis


def test_coriolis_zero_velocity(model):
    q = np.array([0.2, -0.4, 0.9, 0.3])
    assert np.allclose(dyn.coriolis_matrix(model, q, np.zeros(4)), 0.0)


def test_coriolis_single_joint_is_zero():
    m1 = dyn.PlantModel(n=1, n_c=1, link_lengths=[0.3], link_masses=[1.0])
    C = dyn.coriolis_matrix(m1, np.array([0.7]), np.array([1.3]))
    assert np.allclose(C, 0.0, atol=1e-14)


def test_skew_symmetry_100_random_states(model):
    worst = 0.0
    for q, qdot in rng_states(42, 100):
        C = dyn.coriolis_matrix(model, q, qdot)
        Mdot = fd_mass_rate(model, q, qdot)
        worst = max(worst, abs(qdot @ (Mdot - 2 * C) @ qdot))
    assert worst < 1e-8


def test_coriolis_rejects_nonfinite(model):
    with pytest.raises(ValueError):
        dyn.coriolis_matrix(model, np.zeros(4), np.array([np.inf, 0, 0, 0]))


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
    reach = dyn.end_effector_position(model, q)
    L = np.hypot(reach[0], reach[1])
    g0 = dyn.gravity_vector(model, q, payload_mass=0.0)
    g1 = dyn.gravity_vector(model, q, payload_mass=1.0)
    assert g1[1] - g0[1] == pytest.approx(model.gravity * L, rel=1e-9)


# ---------------------------------------------------------------------------
# friction


def test_friction_zero_at_rest(model):
    assert np.allclose(dyn.friction_torque(model, np.zeros(model.n_c)), 0.0)


def test_friction_opposes_motion(model):
    for thd in ([0.5, -0.3], [2.0, 0.01], [-4.0, 1.5]):
        tau = dyn.friction_torque(model, np.array(thd))
        assert np.all(np.sign(tau) == -np.sign(thd))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=2))
def test_friction_passivity(thd):
    model = dyn.default_model()
    tau = dyn.friction_torque(model, np.array(thd))
    assert np.asarray(thd) @ tau <= 1e-12


# ---------------------------------------------------------------------------
# step / integrator


def test_step_equilibrium_relaxed_spring(model):
    # hanging posture: g(q) = 0, so u = g(q) with theta = S2 q is a rest point
    q = np.zeros(model.n)
    state = dyn.PlantState(q=q, qdot=np.zeros(4), theta=model.S2 @ q, thetadot=np.zeros(2))
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


def test_step_stores_tau_e(model):
    state = dyn.settled_state(model, np.zeros(4))
    tau_e = np.array([0.1, -0.2, 0.05, 0.0])
    out = dyn.step(model, state, np.zeros(4), tau_e, 1e-3)
    assert np.array_equal(out.tau_e, tau_e)


# ---------------------------------------------------------------------------
# types / config


def test_selection_matrices_structure(model):
    diag = np.diag(model.S1)
    assert np.array_equal(diag, [1, 1, 0, 0])
    assert np.allclose(model.S2 @ model.S2.T, np.eye(model.n_c))
    assert np.allclose(model.S1 + model.S2.T @ model.S2, np.eye(model.n))


def test_plant_state_validation():
    with pytest.raises(ValueError):
        dyn.PlantState(q=[np.nan, 0, 0, 0], qdot=np.zeros(4), theta=np.zeros(2), thetadot=np.zeros(2))
    with pytest.raises(ValueError):
        dyn.PlantState(q=np.zeros(4), qdot=np.zeros(4), theta=np.zeros(2),
                       thetadot=np.zeros(2), payload_mass=-1.0)


def test_model_invariant_validation():
    with pytest.raises(dyn.ConfigError):
        dyn.PlantModel(link_masses=[1.0, -1.0, 1.0, 1.0])
    with pytest.raises(dyn.ConfigError):
        dyn.PlantModel(n=2, n_c=3, link_lengths=[0.2, 0.2], link_masses=[1, 1])
    with pytest.raises(dyn.ConfigError):
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
    assert np.allclose(np.diag(model.K), 100.0)


def test_plant_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"n": 4, "wing_span": 2.0}))
    with pytest.raises(dyn.ConfigError, match="wing_span"):
        dyn.load_plant_config(path)
