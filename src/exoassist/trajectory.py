"""Quintic reference generation and receding-horizon QP refinement.

The refinement discretizes each joint as a double integrator over an
N-step horizon and minimizes tracking error, effort and the predicted
anomaly score subject to velocity, acceleration and position constraints.
The anomaly score enters through an affine transition driven by the frozen
input gradient of the detector, so the program stays a convex QP.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import QPConfig
from .qp import qp_solve

__all__ = [
    "ReferenceSpline",
    "QPSetup",
    "RefinedSegment",
    "RefinementError",
    "quintic_reference",
    "refine",
]


class RefinementError(RuntimeError):
    """Raised when the refinement QP is infeasible or uncertified."""


@dataclass(frozen=True)
class ReferenceSpline:
    """Per-joint quintic polynomials with rest-to-rest boundary conditions."""

    coeffs: np.ndarray  # (n, 6), ascending powers
    t_f: float
    q0: np.ndarray
    qf: np.ndarray

    def position(self, t: float) -> np.ndarray:
        """Position at time t; clamped beyond [0, t_f]."""
        if t <= 0.0:
            return self.q0.copy()
        if t >= self.t_f:
            return self.qf.copy()
        return self.coeffs @ np.array([1.0, t, t**2, t**3, t**4, t**5])

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position, velocity, acceleration at time t; clamped beyond [0, t_f]."""
        if t <= 0.0 or t >= self.t_f:
            return self.position(t), np.zeros_like(self.q0), np.zeros_like(self.q0)
        dpowers = np.array([0.0, 1.0, 2 * t, 3 * t**2, 4 * t**3, 5 * t**4])
        ddpowers = np.array([0.0, 0.0, 2.0, 6 * t, 12 * t**2, 20 * t**3])
        return self.position(t), self.coeffs @ dpowers, self.coeffs @ ddpowers


def quintic_reference(q0, qf, t_f: float) -> ReferenceSpline:
    """Rest-to-rest quintic between two joint poses."""
    if not np.isfinite(t_f) or t_f <= 0.0:
        raise ValueError("t_f must be positive")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    qf = np.atleast_1d(np.asarray(qf, dtype=float))
    if q0.shape != qf.shape:
        raise ValueError("q0 and qf must have the same length")
    dq = qf - q0
    # q(t) = q0 + dq (10 s^3 - 15 s^4 + 6 s^5), s = t / t_f
    coeffs = np.zeros((q0.size, 6))
    coeffs[:, 0] = q0
    coeffs[:, 3] = 10.0 * dq / t_f**3
    coeffs[:, 4] = -15.0 * dq / t_f**4
    coeffs[:, 5] = 6.0 * dq / t_f**5
    return ReferenceSpline(coeffs=coeffs, t_f=float(t_f), q0=q0, qf=qf)


@dataclass(frozen=True)
class QPSetup:
    """The refinement problem of one move: horizon, step, weights, limits and
    the impedance gains of the score chain, each per-joint value an array.
    Build it once per move with ``from_config``; ``refine`` takes the
    per-tick inputs (time, anomaly gradient, initial score) as arguments.

    It also holds, read-only, what the QP of every tick shares: the maps
    ``Lp``, ``Lv`` from stacked accelerations to stacked positions and
    velocities, the tiled weights ``Qw``, ``Rw``, ``H0 = Lp'(Qw Lp) +
    diag(Rw)``, and the rows ``A_in = [Lv; -Lv; Lp; -Lp; I; -I]`` on steps
    1..N with their limits ``b_lim`` (box rows for finite bounds only)."""

    N: int
    dt: float
    Q: np.ndarray
    R: np.ndarray
    speed_limit: np.ndarray
    accel_limit: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    Kd: np.ndarray
    Cd: np.ndarray
    w: float
    Lp: np.ndarray = field(init=False, repr=False, compare=False)
    Lv: np.ndarray = field(init=False, repr=False, compare=False)
    Qw: np.ndarray = field(init=False, repr=False, compare=False)
    Rw: np.ndarray = field(init=False, repr=False, compare=False)
    H0: np.ndarray = field(init=False, repr=False, compare=False)
    A_in: np.ndarray = field(init=False, repr=False, compare=False)
    b_lim: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N, n = self.N, self.Q.size
        Lp, Lv = _prediction_matrices(N, self.dt)
        # kron expansion over joints: U is (N*n,), samples stacked step-major
        Lp, Lv = np.kron(Lp, np.eye(n)), np.kron(Lv, np.eye(n))
        Qw, Rw = np.tile(self.Q, N + 1), np.tile(self.R, N)
        vlim, alim = np.tile(self.speed_limit, N), np.tile(self.accel_limit, N)
        box, alim = np.eye(N * n)[np.isfinite(alim)], alim[np.isfinite(alim)]
        consts = dict(
            Lp=Lp, Lv=Lv, Qw=Qw, Rw=Rw, H0=Lp.T @ (Qw[:, None] * Lp) + np.diag(Rw),
            A_in=np.vstack([Lv[n:], -Lv[n:], Lp[n:], -Lp[n:], box, -box]),
            b_lim=np.concatenate([vlim, vlim, np.tile(self.q_max, N),
                                  -np.tile(self.q_min, N), alim, alim]))
        for name, arr in consts.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_config(cls, qp: QPConfig, n: int, speed_limit, Kd, Cd, w: float) -> QPSetup:
        """The setup for an n-joint move from the checked QP config, the
        move's speed limit and the impedance gains the controller uses; a
        scalar stands for the same value on every joint."""
        def vec(v):
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            return np.full(n, float(arr[0])) if arr.size == 1 else arr

        return cls(
            N=qp.horizon, dt=float(qp.dt), Q=vec(qp.Q), R=vec(qp.R),
            speed_limit=vec(speed_limit), accel_limit=vec(qp.accel_limit),
            q_min=vec(qp.position_min), q_max=vec(qp.position_max),
            Kd=vec(Kd), Cd=vec(Cd), w=float(w),
        )


@dataclass
class RefinedSegment:
    """Refined desired trajectory over one horizon plus the score prediction."""

    t0: float
    dt: float
    q_d: np.ndarray      # (N+1, n)
    qdot_d: np.ndarray   # (N+1, n)
    qddot_d: np.ndarray  # (N, n)
    score_pred: np.ndarray  # (N+1,)
    objective: float

    def sample(self, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolate at offset tau from t0, consistent with the discrete
        rows q_{i+1} = q_i + dt qdot_i and qdot_{i+1} = qdot_i + dt u_i."""
        tau = min(max(tau, 0.0), self.dt * (self.q_d.shape[0] - 1))
        i = min(int(tau / self.dt), self.qddot_d.shape[0] - 1)
        local = tau - i * self.dt
        u = self.qddot_d[i]
        q = self.q_d[i] + self.qdot_d[i] * local
        qd = self.qdot_d[i] + u * local
        return q, qd, u


def _prediction_matrices(N: int, dt: float):
    """Affine maps from stacked accelerations U to stacked q and qdot."""
    # qdot_i = qdot_0 + dt * sum_{j<i} u_j ; q_i = q_0 + i dt qdot_0
    #          + dt^2 * sum_{j<=i-2} (i-1-j) u_j
    i, j = np.indices((N + 1, N))
    return np.where(j < i - 1, dt * dt * (i - 1 - j), 0.0), np.where(j < i, dt, 0.0)


def refine(reference: ReferenceSpline, current_state, setup: QPSetup, t_now: float,
           anomaly_gradient=None, score_init: float = 0.0) -> RefinedSegment:
    """Solve one refinement QP from the current desired state.

    ``current_state`` is the initial (q, qdot) pair and ``t_now`` the time
    on ``reference`` it starts at. ``anomaly_gradient`` (df/dtau_e, frozen
    for the solve; zero when None) and ``score_init`` drive the score
    chain. Raises RefinementError on infeasibility or an uncertified
    solution — constraints are never silently clamped.
    """
    q0, qd0 = (np.asarray(v, dtype=float) for v in current_state)
    n = q0.size
    N, dt, Lp, Lv = setup.N, setup.dt, setup.Lp, setup.Lv

    refs = np.stack([reference.position(t_now + i * dt) for i in range(N + 1)])

    q_base = q0[None, :] + np.arange(N + 1)[:, None] * dt * qd0[None, :]
    v_base = np.tile(qd0, (N + 1, 1))

    # score chain: s_{i+1} = s_i - w dt g'(Kd qdot_i + Cd u_i)
    g = np.zeros(n) if anomaly_gradient is None else np.asarray(anomaly_gradient, dtype=float)
    gKd = g * setup.Kd
    gCd = g * setup.Cd
    Ls = np.zeros((N + 1, N * n))
    s_base = np.full(N + 1, float(score_init))
    for i in range(1, N + 1):
        Ls[i] = Ls[i - 1] - setup.w * dt * (gKd @ Lv[(i - 1) * n:i * n, :])
        Ls[i, (i - 1) * n:i * n] += -setup.w * dt * gCd
        s_base[i] = s_base[i - 1] - setup.w * dt * float(gKd @ v_base[i - 1])

    # objective: sum_i ||q_i - r_i||_Q^2 + ||u_i||_R^2 + s_i^2  (i=0 terms constant),
    # halved for qp_solve's 0.5 x'Hx + f'x
    dev_base = (q_base - refs).reshape(-1)
    H = setup.H0 + Ls.T @ Ls
    f = Lp.T @ (setup.Qw * dev_base) + Ls.T @ s_base

    # constraints on samples i = 1..N (step 0 is the fixed initial state):
    # the limits less the response to the initial state, row by row of A_in
    v_sel, q_sel = v_base.reshape(-1)[n:], q_base.reshape(-1)[n:]
    free = np.concatenate([v_sel, -v_sel, q_sel, -q_sel])
    b_in = setup.b_lim - np.concatenate([free, np.zeros(setup.b_lim.size - free.size)])

    result = qp_solve(H, f, A_in=setup.A_in, b_in=b_in)
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
    q_d = q_base + (Lp @ result.x).reshape(N + 1, n)
    qdot_d = v_base + (Lv @ result.x).reshape(N + 1, n)
    score_pred = s_base + Ls @ result.x

    # contract: refined velocity never exceeds the limit beyond tolerance
    overrun = np.max(np.abs(qdot_d[1:]) - setup.speed_limit[None, :])
    if overrun > 1e-9:
        raise RefinementError(f"velocity bound violated by {overrun:.2e}")

    # objective evaluated directly (includes the constant i=0 stage terms)
    track = np.sum(setup.Qw * ((q_d - refs).reshape(-1)) ** 2)
    effort = np.sum(setup.Rw * (U.reshape(-1)) ** 2)
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

