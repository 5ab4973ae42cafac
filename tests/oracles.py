"""Shared oracles: brute-force QP for the QP and trajectory tests, the
complex-step plant step for the dynamics and control tests."""
import itertools

import numpy as np

from exoassist import dynamics as dyn


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
