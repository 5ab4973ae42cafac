"""Shared oracles for the tests.

- ``brute_force_qp``: the QP by enumeration of active sets.
- The plant's rigid-body terms by a route independent of the package's
  Newton-Euler kernel, which is held to them: batched forward kinematics
  in real or complex arithmetic (``fk``), M(q) and g(q) from Jacobians
  (``dynamics_terms``), dM/dq by complex-step differentiation
  (``plant_terms``) and C from Christoffel symbols (``christoffel``).
  ``reference_step`` is the plant step on them.
- The controllers as first written (one expression each, S2' as a matrix
  product).
"""
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


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product for (..., 3) arrays (faster than np.cross here)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def fk(model: dyn.PlantModel, q: np.ndarray):
    """Batched forward kinematics.

    Returns world-frame joint positions ``p`` (B,n,3), link rotations ``R``
    (B,n,3,3), COM positions ``c`` (B,n,3), joint axes ``k`` (B,n,3) and the
    end-effector position (B,3).
    """
    q = np.atleast_2d(q)
    B, n = q.shape
    dtype = complex if np.iscomplexobj(q) else float

    R_parent = np.zeros((B, 3, 3), dtype=dtype)
    R_parent[:] = np.eye(3)
    p_parent = np.zeros((B, 3), dtype=dtype)

    p = np.empty((B, n, 3), dtype=dtype)
    R = np.empty((B, n, 3, 3), dtype=dtype)
    c = np.empty((B, n, 3), dtype=dtype)
    k = np.empty((B, n, 3), dtype=dtype)
    eye3 = np.eye(3)

    for i in range(n):
        p_i = p_parent + R_parent @ model.joint_offsets[i]
        ang = q[:, i]
        s, co = np.sin(ang), np.cos(ang)
        rot = (
            eye3
            + s[:, None, None] * model._axis_skew[i]
            + (1.0 - co)[:, None, None] * model._axis_skew2[i]
        )
        R_i = R_parent @ rot
        p[:, i] = p_i
        R[:, i] = R_i
        k[:, i] = R_parent @ model.axes[i]
        c[:, i] = p_i + R_i @ model.com_offsets[i]
        R_parent, p_parent = R_i, p_i

    ee = p_parent + R_parent @ model.ee_offset
    return p, R, c, k, ee


def dynamics_terms(model: dyn.PlantModel, q: np.ndarray, payload_mass: float):
    """Mass matrix (B,n,n) and gravity vector (B,n) in one kinematic pass."""
    q2 = np.atleast_2d(q)
    B, n = q2.shape
    p, R, c, k, ee = fk(model, q2)
    dtype = p.dtype

    M = np.zeros((B, n, n), dtype=dtype)
    gvec = np.zeros((B, n), dtype=dtype)
    g = model.gravity
    # km holds the joint axes with rows beyond the current link zeroed;
    # links are processed in descending order so the mask grows in place.
    km = k.copy()

    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            km[:, i + 1, :] = 0.0
        # linear part: Jacobian rows cols[j] = k_j x (c_i - p_j) for j <= i
        diff = c[:, i][:, None, :] - p
        cols = cross_rows(km, diff)  # (B,n,3)
        m_i = model.link_masses[i]
        M += m_i * (cols @ np.swapaxes(cols, 1, 2))
        # angular part: Jw rows are the masked world joint axes
        Iw = R[:, i] @ model.inertia_local[i] @ np.swapaxes(R[:, i], 1, 2)
        M += km @ Iw @ np.swapaxes(km, 1, 2)
        gvec += (m_i * g) * cols[:, :, 2]
        if payload_mass > 0.0 and i == n - 1:
            diff = ee[:, None, :] - p
            cols = cross_rows(km, diff)
            M += payload_mass * (cols @ np.swapaxes(cols, 1, 2))
            gvec += (payload_mass * g) * cols[:, :, 2]

    return M, gvec


def plant_terms(model: dyn.PlantModel, q: np.ndarray, payload_mass: float):
    """M(q), g(q) and the derivative stack dM/dq in one complex-step batch."""
    h = 1e-100
    q_batch = q[None, :] + 1j * h * np.eye(model.n)
    M_batch, g_batch = dynamics_terms(model, q_batch, payload_mass)
    return M_batch[0].real, g_batch[0].real, M_batch.imag / h


def christoffel(D: np.ndarray, qdot: np.ndarray) -> np.ndarray:
    """Coriolis matrix from the derivative stack D[k] = dM/dq_k."""
    return 0.5 * (
        np.einsum("kij,k->ij", D, qdot)
        + np.einsum("jik,k->ij", D, qdot)
        - np.einsum("ijk,k->ij", D, qdot)
    )


def reference_step(model, state, u, tau_e, dt):
    """Semi-implicit Euler plant step on the complex-step reference terms:
    M, g and dM/dq from ``plant_terms``, C from ``christoffel``."""
    q, qd = state.q, state.qdot
    th, thd = state.theta, state.thetadot
    M, g, D = plant_terms(model, q, state.payload_mass)
    C = christoffel(D, qd)
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
