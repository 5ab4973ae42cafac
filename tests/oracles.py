"""Shared oracles for the tests.

- ``brute_force_qp``: the QP by enumeration of active sets.
- The plant's rigid-body terms by a route independent of the package's
  Newton-Euler kernel, which is held to them: the chain's rotation-matrix
  geometry built from the model's public fields (``geometry``), batched
  forward kinematics in real or complex arithmetic (``fk``), M(q) and
  g(q) from Jacobians (``dynamics_terms``), dM/dq by complex-step
  differentiation (``plant_terms``) and C from Christoffel symbols
  (``christoffel``).
  ``reference_step`` is the plant step on them.
- ``coriolis_matrix``: C(q, qdot) by polarization of the package kernel's
  own bias torque h, so the skew-symmetry checks test the kernel, not the
  complex-step ``christoffel``.
- ``numpy_step``: the plant step as first written on numpy arrays around
  the package's kernel, which the float step must match bit for bit.
- ``frozen_mass_matrix``: the kernel's composite-rigid-body pass for M,
  frozen as written on Python floats, which pins the bits of M.
- ``reference_friction``: the cable-joint friction law as one numpy
  expression, which the package splits between numpy and floats.
- ``plant_matrices``: the selection matrices S1, S2 and the diagonal
  matrices K, B of the equations, which the package keeps as slices and
  diagonals only.
- The controllers as first written (one expression each, S2' as a matrix
  product, with the fast term in numpy as ``fast_term``), and the
  wearer's interaction torque in numpy.
- ``reference_refine``: the refinement QP rebuilt from scratch on every
  call, as first written (prediction matrices entry by entry in
  ``reference_prediction_matrices``), solved by ``reference_qp_solve``
  (the QP solver with an eigenvalue test of positive definiteness on
  every call).
"""
import itertools
import math

import numpy as np

from exoassist import dynamics as dyn
from exoassist.dynamics import PlantModel, _check_q, _rigid_body_terms
from exoassist.qp import QPResult, _dual_active_set, _inequalities, _residuals
from exoassist.trajectory import QPSetup, RefinedSegment, RefinementError, ReferenceSpline


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


def geometry(model: dyn.PlantModel):
    """The chain as the oracles describe it, from the model's public fields
    alone: per joint the unit axis (in the parent link's frame) and its skew
    matrix, the offset from the parent joint and to the link's centre of
    mass (in the link frame), and the rod-like inertia tensor in the link
    frame; then the end effector's offset from the last joint. Joint axes
    run x, y, z, y (shoulder abduction, flexion, internal rotation, elbow
    flexion), then cycle through x, y, z; every link extends along its
    local -z axis."""
    n = model.n
    letters = ("x", "y", "z", "y") + tuple("xyz"[i % 3] for i in range(4, n))
    axes = np.array([np.eye(3)["xyz".index(a)] for a in letters[:n]])
    skews = np.array([[[0.0, -az, ay], [az, 0.0, -ax], [-ay, ax, 0.0]] for ax, ay, az in axes])
    lengths = np.asarray(model.link_lengths, dtype=float)
    joint_offsets = np.zeros((n, 3))
    joint_offsets[1:, 2] = -lengths[:-1]
    com_offsets = np.zeros((n, 3))
    com_offsets[:, 2] = -np.asarray(model.link_com, dtype=float)
    inertias = np.array([np.diag([it, it, dyn.AXIAL_INERTIA_RATIO * it])
                         for it in np.asarray(model.link_inertias, dtype=float)])
    return axes, skews, joint_offsets, com_offsets, inertias, np.array([0.0, 0.0, -lengths[-1]])


def fk(model: dyn.PlantModel, q: np.ndarray):
    """Batched forward kinematics on rotation matrices (Rodrigues' formula
    per joint), in real or complex arithmetic.

    Returns world-frame joint positions ``p`` (B,n,3), link rotations ``R``
    (B,n,3,3), COM positions ``c`` (B,n,3), joint axes ``k`` (B,n,3) and the
    end-effector position (B,3).
    """
    q = np.atleast_2d(q)
    B, n = q.shape
    dtype = complex if np.iscomplexobj(q) else float
    axes, skews, joint_offsets, com_offsets, _, ee_offset = geometry(model)

    R_parent = np.zeros((B, 3, 3), dtype=dtype)
    R_parent[:] = np.eye(3)
    p_parent = np.zeros((B, 3), dtype=dtype)

    p = np.empty((B, n, 3), dtype=dtype)
    R = np.empty((B, n, 3, 3), dtype=dtype)
    c = np.empty((B, n, 3), dtype=dtype)
    k = np.empty((B, n, 3), dtype=dtype)
    eye3 = np.eye(3)

    for i in range(n):
        p_i = p_parent + R_parent @ joint_offsets[i]
        ang = q[:, i]
        s, co = np.sin(ang), np.cos(ang)
        rot = (
            eye3
            + s[:, None, None] * skews[i]
            + (1.0 - co)[:, None, None] * (skews[i] @ skews[i])
        )
        R_i = R_parent @ rot
        p[:, i] = p_i
        R[:, i] = R_i
        k[:, i] = R_parent @ axes[i]
        c[:, i] = p_i + R_i @ com_offsets[i]
        R_parent, p_parent = R_i, p_i

    ee = p_parent + R_parent @ ee_offset
    return p, R, c, k, ee


def dynamics_terms(model: dyn.PlantModel, q: np.ndarray, payload_mass: float):
    """Mass matrix (B,n,n) and gravity vector (B,n) in one kinematic pass."""
    q2 = np.atleast_2d(q)
    B, n = q2.shape
    p, R, c, k, ee = fk(model, q2)
    inertias = geometry(model)[4]
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
        Iw = R[:, i] @ inertias[i] @ np.swapaxes(R[:, i], 1, 2)
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


def coriolis_matrix(model: PlantModel, q, qdot, payload_mass: float = 0.0) -> np.ndarray:
    """Coriolis matrix from Christoffel symbols, so Mdot - 2C is skew-symmetric.

    G(v) = h(q, v) - g(q) is the quadratic form of the symmetric bilinear
    map B with B(qdot, e_j) = C e_j, so by polarization column j of C is
    [G(qdot + e_j) - G(qdot) - G(e_j)] / 2.
    """
    q = _check_q(model, q)
    qdot = np.asarray(qdot, dtype=float)
    if qdot.shape != (model.n,) or not np.all(np.isfinite(qdot)):
        raise ValueError(f"qdot must be finite with length {model.n}")

    def bias(v):
        return np.array(_rigid_body_terms(model, q, v, payload_mass, with_mass=False)[1])

    # G(qdot + e_j) - G(e_j) = h(qdot + e_j) - h(e_j): their g's cancel
    G_qdot = bias(qdot) - bias(np.zeros(model.n))
    return 0.5 * np.column_stack([bias(qdot + e) - bias(e) - G_qdot for e in np.eye(model.n)])


def plant_matrices(model):
    """(S1, S2, K, B): S1 picks the n - n_c direct-driven joints, S2 the
    last n_c cable-driven ones; K and B hold the spring stiffness and the
    motor inertia on their diagonals."""
    n, n_c = model.n, model.n_c
    S1 = np.diag(np.concatenate([np.ones(n - n_c), np.zeros(n_c)]))
    S2 = np.hstack([np.zeros((n_c, n - n_c)), np.eye(n_c)])
    return S1, S2, np.diag(model.spring_stiffness), np.diag(model.motor_inertia)


def reference_friction(model, thetadot, eps_v):
    """``dynamics._friction`` as one numpy expression, an array."""
    poly = model.friction_c1 * thetadot + model.friction_c3 * thetadot**3
    coulomb = model.friction_c0 * np.tanh(thetadot / eps_v)
    return -(poly + coulomb)


def reference_step(model, state, u, tau_e, dt):
    """Semi-implicit Euler plant step on the complex-step reference terms:
    M, g and dM/dq from ``plant_terms``, C from ``christoffel``."""
    S1, S2, K, B = plant_matrices(model)
    q, qd = state.q, state.qdot
    th, thd = state.theta, state.thetadot
    M, g, D = plant_terms(model, q, state.payload_mass)
    C = christoffel(D, qd)
    tau_f = reference_friction(model, thd, model.friction_eps_v)
    spring = K @ (th - S2 @ q)

    rhs_link = S1 @ u + S2.T @ (spring + tau_f) + tau_e - C @ qd - g
    qdd = np.linalg.solve(M, rhs_link)
    thdd = (S2 @ u - spring) / np.diag(B)

    qd_new = qd + dt * qdd
    thd_new = thd + dt * thdd
    return dyn.PlantState(q=q + dt * qd_new, qdot=qd_new, theta=th + dt * thd_new,
                          thetadot=thd_new, payload_mass=state.payload_mass, tau_e=tau_e)


def frozen_mass_matrix(model, q, payload_mass):
    """M(q) as n lists of n floats: a frozen copy of the frame updates and
    the composite-rigid-body pass of ``dynamics._rigid_body_terms``, every
    float operation in its order, so any change to the bits of M shows."""
    chain = model._chain
    R = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]  # link frame columns
    p0 = p1 = p2 = 0.0  # joint origin
    axes, bodies = [], []
    for qi, (ax, b, d, length, lc, m, it, dit) in zip(q.tolist(), chain):
        k0, k1, k2 = R[ax]  # world joint axis, fixed in the parent frame
        co, si = math.cos(qi), math.sin(qi)
        (b0, b1, b2), (d0, d1, d2) = R[b], R[d]
        R[b] = (co * b0 + si * d0, co * b1 + si * d1, co * b2 + si * d2)
        R[d] = (co * d0 - si * b0, co * d1 - si * b1, co * d2 - si * b2)
        z0, z1, z2 = R[2]
        axes.append((k0, k1, k2, k1 * p2 - k2 * p1, k2 * p0 - k0 * p2, k0 * p1 - k1 * p0))
        bodies.append((m, p0 - lc * z0, p1 - lc * z1, p2 - lc * z2, it, dit, z0, z1, z2))
        p0, p1, p2 = p0 - length * z0, p1 - length * z1, p2 - length * z2

    pm = payload_mass
    bodies.append((pm, p0, p1, p2, 0.0, 0.0, 0.0, 0.0, 0.0))
    mc = mu0 = mu1 = mu2 = -0.0
    xx = yy = zz = xy = xz = yz = 0.0
    n = len(chain)
    M = [[0.0] * n for _ in range(n)]
    for j in range(n, -1, -1):
        m, c0, c1, c2, it, dit, z0, z1, z2 = bodies[j]
        mc += m
        mu0, mu1, mu2 = mu0 + m * c0, mu1 + m * c1, mu2 + m * c2
        iso = it + m * (c0 * c0 + c1 * c1 + c2 * c2)
        d0, d1, d2 = dit * z0, dit * z1, dit * z2
        xx, yy, zz, xy, xz, yz = (
            xx + iso + d0 * z0 - m * c0 * c0, yy + iso + d1 * z1 - m * c1 * c1,
            zz + iso + d2 * z2 - m * c2 * c2, xy + d0 * z1 - m * c0 * c1,
            xz + d0 * z2 - m * c0 * c2, yz + d1 * z2 - m * c1 * c2)
        if j == n:
            continue
        k0, k1, k2, u0, u1, u2 = axes[j]
        n0 = xx * k0 + xy * k1 + xz * k2 + (u1 * mu2 - u2 * mu1)
        n1 = xy * k0 + yy * k1 + yz * k2 + (u2 * mu0 - u0 * mu2)
        n2 = xz * k0 + yz * k1 + zz * k2 + (u0 * mu1 - u1 * mu0)
        f0 = (k1 * mu2 - k2 * mu1) - mc * u0
        f1 = (k2 * mu0 - k0 * mu2) - mc * u1
        f2 = (k0 * mu1 - k1 * mu0) - mc * u2
        row = M[j]
        for l, (a0, a1, a2, b0, b1, b2) in enumerate(axes[:j + 1]):
            row[l] = M[l][j] = a0 * n0 + a1 * n1 + a2 * n2 - b0 * f0 - b1 * f1 - b2 * f2
    return M


def numpy_step(model, state, u, tau_e, dt):
    """``dynamics.step`` as it was written on numpy arrays, every check and
    message included (the friction as ``reference_friction``). The float
    step keeps its operations in this order and must give its bits."""
    if not 0.0 < dt <= 0.005:
        raise ValueError("dt must lie in (0, 5 ms]")
    u = np.asarray(u, dtype=float)
    tau_e = np.array(tau_e, dtype=float)  # stored in the returned state
    if u.shape != (model.n,) or tau_e.shape != (model.n,):
        raise ValueError(f"u and tau_e must have length {model.n}")
    if not np.isfinite(u).all():
        raise dyn.SimulationFault("control torque u is non-finite")
    if not np.isfinite(tau_e).all():
        raise dyn.SimulationFault("interaction torque tau_e is non-finite")

    q, qd = state.q, state.qdot
    th, thd = state.theta, state.thetadot
    nd = model.n - model.n_c  # direct-driven joints come first

    M, h = _rigid_body_terms(model, q, qd, state.payload_mass)
    spring = model.spring_stiffness * (th - q[nd:])  # K (theta - S2 q)

    # S1 u + S2' (spring + tau_f) stacks the direct-joint torques over the
    # cable-joint ones
    tau_f = reference_friction(model, thd, model.friction_eps_v)
    rhs_link = np.concatenate((u[:nd], spring + tau_f)) + tau_e - h
    qdd = np.linalg.solve(M, rhs_link)
    thdd = (u[nd:] - spring) / model.motor_inertia

    qd_new = qd + dt * qdd
    thd_new = thd + dt * thdd
    q_new = q + dt * qd_new
    th_new = th + dt * thd_new

    for name, arr in (("q", q_new), ("qdot", qd_new), ("theta", th_new),
                      ("thetadot", thd_new)):
        if not np.isfinite(arr).all():
            raise dyn.SimulationFault(f"integration produced non-finite {name}")

    return dyn.PlantState(q=q_new, qdot=qd_new, theta=th_new, thetadot=thd_new,
                          payload_mass=state.payload_mass, tau_e=tau_e)


def fast_term(state, Kv) -> np.ndarray:
    """Singular-perturbation damping -S2' Kv (thetadot - S2 qdot).

    S2 selects the last n_c (cable-driven) joints, so both products are
    slices; ``Kv`` is a scalar or a length-n_c array."""
    n_c = state.theta.shape[0]
    out = np.zeros(state.q.shape[0])
    out[-n_c:] = -(Kv * (state.thetadot - state.qdot[-n_c:]))
    return out


def reference_transparent_control(model, state, tau_e, cfg):
    """``control.transparent_control`` as one expression."""
    tau_e = np.asarray(tau_e, dtype=float)
    if tau_e.shape != (model.n,) or not np.all(np.isfinite(tau_e)):
        raise ValueError(f"tau_e must be finite with length {model.n}")

    _, h = _rigid_body_terms(model, state.q, state.qdot, state.payload_mass, with_mass=False)
    tau_f_hat = cfg.friction_scale * reference_friction(model, state.thetadot,
                                                        cfg.friction_comp_eps)
    u_f = fast_term(state, cfg.Kv)
    # (M + B_bar) qdd0 with qdd0 = (1/gamma0)(M + B_bar)^-1 tau_e
    amplified = tau_e / cfg.gamma0
    _, S2, _, _ = plant_matrices(model)
    return amplified + h - S2.T @ tau_f_hat - tau_e + u_f


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
    M = np.array(M)
    tau_f_hat = cfg.friction_scale * reference_friction(model, state.thetadot,
                                                        cfg.friction_comp_eps)
    u_f = fast_term(state, cfg.Kv)
    target = (
        cfg.Cd * (qdot_d - state.qdot)
        + cfg.Kd * (q_d - state.q)
        + tau_e / cfg.w
    )
    a = qddot_d + target / cfg.Mv
    _, S2, _, B = plant_matrices(model)
    nd = model.n - model.n_c
    M[nd:, nd:] += B  # M + B_bar with B_bar = S2' B S2
    return M @ a + h - S2.T @ tau_f_hat - tau_e + u_f


def reference_wearer_torque(params, intent, override, transients, t, state):
    """``harness._Wearer.torque`` in numpy, one expression plus the transients:
    ``intent`` maps t to the wearer's (q, qdot), ``override`` is None or
    {"pose", "until"}, each transient {"amplitude", "decay", "t0"}."""
    q_h, qd_h = intent(t)
    if override is not None and t <= override["until"]:
        q_h, qd_h = override["pose"], np.zeros(state.q.size)
    tau = np.clip(params.K_h * (q_h - state.q) + params.C_h * (qd_h - state.qdot),
                  -params.saturation, params.saturation)
    for tr in transients:
        tau = tau + tr["amplitude"] * math.exp(-(t - tr["t0"]) / tr["decay"])
    return tau


def reference_qp_solve(H, f, A_in=None, b_in=None) -> QPResult:
    """``qp.qp_solve`` with an eigenvalue test of positive definiteness
    (``eigvalsh``) on every call in place of its Cholesky test."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    f = np.atleast_1d(np.asarray(f, dtype=float))
    n = f.size
    if H.shape != (n, n):
        raise ValueError("H and f are dimensionally inconsistent")
    if np.max(np.abs(H - H.T)) > 1e-9 * (1.0 + np.max(np.abs(H))):
        raise ValueError("H must be symmetric")
    H = 0.5 * (H + H.T)

    A, b = _inequalities(n, A_in, b_in)

    scale = max(1.0, float(np.max(np.abs(H))))
    if np.linalg.eigvalsh(H)[0] <= 2e-12 * scale:
        return QPResult(status="not_positive_definite")
    status, x, mu, iters = _dual_active_set(H, f, A, b)
    if status != "optimal":
        return QPResult(status=status, iterations=iters)

    return QPResult(
        status="optimal",
        x=x,
        objective=float(0.5 * x @ H @ x + f @ x),
        iterations=iters,
        ineq_multipliers=mu,
        residuals=_residuals(H, f, A, b, x, mu),
    )


def reference_prediction_matrices(N: int, dt: float):
    """``trajectory._prediction_matrices`` as first written, entry by entry."""
    Lv = np.zeros((N + 1, N))
    Lp = np.zeros((N + 1, N))
    for i in range(1, N + 1):
        Lv[i, :i] = dt
        for j in range(i - 1):
            Lp[i, j] = dt * dt * (i - 1 - j)
    return Lp, Lv


def reference_refine(reference: ReferenceSpline, current_state, setup: QPSetup, t_now: float,
                     anomaly_gradient=None, score_init: float = 0.0) -> RefinedSegment:
    """``trajectory.refine`` as first written: the prediction matrices, the
    kron expansions, the constraint stack and the Hessian rebuilt on every
    call, solved by ``reference_qp_solve``.

    ``current_state`` is the initial (q, qdot) pair and ``t_now`` the time
    on ``reference`` it starts at. ``anomaly_gradient`` (df/dtau_e, frozen
    for the solve; zero when None) and ``score_init`` drive the score
    chain. Raises RefinementError on infeasibility or an uncertified
    solution — constraints are never silently clamped.
    """
    q0, qd0 = (np.asarray(v, dtype=float) for v in current_state)
    n = q0.size
    N, dt = setup.N, setup.dt

    refs = np.stack([reference.sample(t_now + i * dt)[0] for i in range(N + 1)])

    Lp, Lv = reference_prediction_matrices(N, dt)
    # kron expansion over joints: U is (N*n,), samples stacked step-major
    Lp_full = np.kron(Lp, np.eye(n))
    Lv_full = np.kron(Lv, np.eye(n))
    steps = np.arange(N + 1)
    q_base = q0[None, :] + steps[:, None] * dt * qd0[None, :]
    v_base = np.tile(qd0, (N + 1, 1))

    # score chain: s_{i+1} = s_i - w dt g'(Kd qdot_i + Cd u_i)
    g = np.zeros(n) if anomaly_gradient is None else np.asarray(anomaly_gradient, dtype=float)
    gKd = g * setup.Kd
    gCd = g * setup.Cd
    Ls = np.zeros((N + 1, N * n))
    s_base = np.full(N + 1, float(score_init))
    for i in range(1, N + 1):
        Ls[i] = Ls[i - 1] - setup.w * dt * (gKd @ Lv_full[(i - 1) * n:i * n, :])
        Ls[i, (i - 1) * n:i * n] += -setup.w * dt * gCd
        s_base[i] = s_base[i - 1] - setup.w * dt * float(gKd @ v_base[i - 1])

    # objective: sum_i ||q_i - r_i||_Q^2 + ||u_i||_R^2 + s_i^2  (i=0 terms constant)
    Qw = np.tile(setup.Q, N + 1)
    Rw = np.tile(setup.R, N)
    dev_base = (q_base - refs).reshape(-1)
    H = 2.0 * (
        Lp_full.T @ (Qw[:, None] * Lp_full)
        + np.diag(Rw)
        + Ls.T @ Ls
    )
    f = 2.0 * (Lp_full.T @ (Qw * dev_base) + Ls.T @ s_base)

    # constraints on samples i = 1..N (step 0 is the fixed initial state)
    sel = np.arange(n, (N + 1) * n)
    A_rows = []
    b_rows = []
    vlim = np.tile(setup.speed_limit, N)
    A_rows.append(Lv_full[sel])
    b_rows.append(vlim - v_base.reshape(-1)[sel])
    A_rows.append(-Lv_full[sel])
    b_rows.append(vlim + v_base.reshape(-1)[sel])
    qmax = np.tile(setup.q_max, N)
    qmin = np.tile(setup.q_min, N)
    A_rows.append(Lp_full[sel])
    b_rows.append(qmax - q_base.reshape(-1)[sel])
    A_rows.append(-Lp_full[sel])
    b_rows.append(q_base.reshape(-1)[sel] - qmin)
    alim = np.tile(setup.accel_limit, N)  # the box -alim <= U <= alim
    A_rows += [np.eye(N * n), -np.eye(N * n)]
    b_rows += [alim, alim]
    A_in = np.vstack(A_rows)
    b_in = np.concatenate(b_rows)

    result = reference_qp_solve(H / 2.0, f / 2.0, A_in=A_in, b_in=b_in)
    if result.status == "infeasible":
        raise RefinementError(
            f"refinement constraints infeasible: N={N}, dt={dt}, "
            f"speed_limit={setup.speed_limit}, initial qdot={qd0}"
        )
    if result.status != "optimal":
        raise RefinementError(f"QP solver failed: {result.status} after {result.iterations} iterations")
    if not result.certified:
        raise RefinementError(f"KKT certification failed: {result.residuals}")

    U = result.x.reshape(N, n)
    q_d = q_base + (Lp_full @ result.x).reshape(N + 1, n)
    qdot_d = v_base + (Lv_full @ result.x).reshape(N + 1, n)
    score_pred = s_base + Ls @ result.x

    # contract: refined velocity never exceeds the limit beyond tolerance
    overrun = np.max(np.abs(qdot_d[1:]) - setup.speed_limit[None, :])
    if overrun > 1e-9:
        raise RefinementError(f"velocity bound violated by {overrun:.2e}")

    # objective evaluated directly (includes the constant i=0 stage terms)
    track = np.sum(Qw * ((q_d - refs).reshape(-1)) ** 2)
    effort = np.sum(Rw * (U.reshape(-1)) ** 2)
    objective = track + effort + float(score_pred @ score_pred)

    return RefinedSegment(
        t0=t_now,
        dt=dt,
        q_d=q_d,
        qdot_d=qdot_d,
        qddot_d=U,
        score_pred=score_pred,
        objective=objective,
    )
