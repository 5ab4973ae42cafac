"""Shared oracles: brute-force QP for the QP and trajectory tests, the
complex-step plant step for the dynamics and control tests, and the
controllers as first written (one expression each, S2' as a matrix
product) for the control tests."""
import itertools

import numpy as np

from exoassist import dynamics as dyn
from exoassist.control import _friction_estimate, fast_term
from exoassist.dynamics import _rigid_body_terms


def brute_force_qp(H, f, A_in, b_in, tol=1e-9):
    """Enumerate active subsets of size <= n and pick the best KKT point.

    For a strictly convex QP the optimum is determined by at most n
    linearly independent active rows; degenerate extra actives carry zero
    multipliers, so some subset of size <= n is also a KKT point.
    """
    n = f.size
    m = A_in.shape[0]
    best, best_obj = None, np.inf
    for k in range(0, n + 1):
        for subset in itertools.combinations(range(m), k):
            S = list(subset)
            if S:
                KKT = np.block([
                    [H, A_in[S].T],
                    [A_in[S], np.zeros((k, k))],
                ])
                rhs = np.concatenate([-f, b_in[S]])
            else:
                KKT, rhs = H, -f
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:]
            if np.any(lam < -tol):
                continue
            if np.any(A_in @ x - b_in > tol):
                continue
            obj = 0.5 * x @ H @ x + f @ x
            if obj < best_obj - 1e-12:
                best, best_obj = x, obj
    return best, best_obj


def reference_step(model, state, u, tau_e, dt):
    """Semi-implicit Euler plant step on the complex-step reference terms:
    M, g and dM/dq from ``_plant_terms``, C from ``_christoffel``."""
    q, qd = state.q, state.qdot
    th, thd = state.theta, state.thetadot
    M, g, D = dyn._plant_terms(model, q, state.payload_mass)
    C = dyn._christoffel(D, qd)
    tau_f = dyn.friction_torque(model, thd)
    spring = model.K @ (th - model.S2 @ q)

    rhs_link = model.S1 @ u + model.S2.T @ (spring + tau_f) + tau_e - C @ qd - g
    qdd = np.linalg.solve(M, rhs_link)
    thdd = (model.S2 @ u - spring) / np.diag(model.B)

    qd_new = qd + dt * qdd
    thd_new = thd + dt * thdd
    return dyn.PlantState(q=q + dt * qd_new, qdot=qd_new, theta=th + dt * thd_new,
                          thetadot=thd_new, payload_mass=state.payload_mass, tau_e=tau_e)


def reference_transparent_control(model, state, tau_e, cfg):
    """``control.transparent_control`` as one expression."""
    tau_e = np.asarray(tau_e, dtype=float)
    if tau_e.shape != (model.n,) or not np.all(np.isfinite(tau_e)):
        raise ValueError(f"tau_e must be finite with length {model.n}")

    _, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass, with_mass=False)
    tau_f_hat = _friction_estimate(model, state.thetadot, cfg.friction_scale, cfg.friction_comp_eps)
    u_f = fast_term(state, cfg.Kv)
    # (M + B_bar) qdd0 with qdd0 = (1/gamma0)(M + B_bar)^-1 tau_e
    amplified = tau_e / cfg.gamma0
    return amplified + h - model.S2.T @ tau_f_hat - tau_e + u_f


def reference_impedance_control(model, state, q_d, qdot_d, qddot_d, tau_e, cfg):
    """``control.impedance_control`` as one expression."""
    q_d = np.asarray(q_d, dtype=float)
    qdot_d = np.asarray(qdot_d, dtype=float)
    qddot_d = np.asarray(qddot_d, dtype=float)
    tau_e = np.asarray(tau_e, dtype=float)
    for name, arr in (("q_d", q_d), ("qdot_d", qdot_d), ("qddot_d", qddot_d), ("tau_e", tau_e)):
        if arr.shape != (model.n,) or not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite with length {model.n}")

    M, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass)
    tau_f_hat = _friction_estimate(model, state.thetadot, cfg.friction_scale, cfg.friction_comp_eps)
    u_f = fast_term(state, cfg.Kv)
    target = (
        cfg.Cd * (qdot_d - state.qdot)
        + cfg.Kd * (q_d - state.q)
        + tau_e / cfg.w
    )
    a = qddot_d + target / cfg.Mv
    nd = model.n - model.n_c
    M[nd:, nd:] += model.B  # M + B_bar with B_bar = S2' B S2
    return M @ a + h - model.S2.T @ tau_f_hat - tau_e + u_f
