"""Dense convex QP solver: dual active-set method with KKT certification.

Solves  min 0.5 x'Hx + f'x  s.t.  A_in x <= b_in  with a Goldfarb-Idnani
style dual active set (the working set grows from the unconstrained
optimum, so no feasible starting point is needed and infeasibility is
detected directly). A box on x is two blocks of rows, [I; -I] x <= [ub; -lb].

The dual method is defined for a positive-definite H (Goldfarb & Idnani,
1983): a Cholesky factorization of H - 2e-12 max(1, max|H_ij|) I proves it,
and an H that fails is returned as ``not_positive_definite``.

Problems here are small and dense (at most a few hundred variables), so
every iteration re-solves against H instead of maintaining factorization
updates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QPResult", "qp_solve"]

_TOL = 1e-10
_MAX_ITER = 200  # active-set iterations before giving up


@dataclass
class QPResult:
    """Solution record; ``status`` is one of optimal / infeasible /
    not_positive_definite / iteration_limit."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    ineq_multipliers: np.ndarray | None = None  # one per row of A_in
    residuals: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        r = self.residuals
        return (
            self.status == "optimal"
            and r
            and r["stationarity"] < 1e-8
            and r["primal"] < 1e-8
            and r["complementarity"] < 1e-8
        )


def _inequalities(n, A_in, b_in):
    """The rows A x <= b as float arrays (none when ``A_in`` is None)."""
    if A_in is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.atleast_2d(np.asarray(A_in, dtype=float))
    b = np.atleast_1d(np.asarray(b_in, dtype=float))
    if A.shape != (b.size, n):
        raise ValueError("inequality rows are dimensionally inconsistent")
    return A, b


def _dual_active_set(G, a, A, b):
    """min 0.5 v'Gv + a'v s.t. A v <= b with G symmetric positive definite.

    Returns (status, v, multipliers, iterations). Blocking-constraint ties
    break toward the lowest index.
    """
    m = A.shape[0]
    v = -np.linalg.solve(G, a)
    mu = np.zeros(m)
    if m == 0:
        return "optimal", v, mu, 0

    work: list[int] = []
    u = np.zeros(0)
    iters = 0

    while True:
        vals = A @ v - b
        if work:
            vals[work] = 0.0  # active rows are tight by construction
        p = int(np.argmax(vals))
        if vals[p] <= _TOL * (1.0 + np.abs(b[p])):
            mu[:] = 0.0
            mu[work] = u
            return "optimal", v, mu, iters
        n_p = A[p]
        u_plus = np.append(u, 0.0)

        while True:
            iters += 1
            if iters > _MAX_ITER:
                return "iteration_limit", v, None, iters
            Ginp = np.linalg.solve(G, n_p)
            if work:
                Nw = A[work].T  # (n, k)
                GiN = np.linalg.solve(G, Nw)
                S = Nw.T @ GiN
                rhs = Nw.T @ Ginp
                try:
                    r = np.linalg.solve(S, rhs)
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(S, rhs, rcond=None)[0]
                z = Ginp - GiN @ r
            else:
                r = np.zeros(0)
                z = Ginp

            # dual blocking step: first multiplier driven to zero
            t1, blocker = np.inf, -1
            for j in range(len(work)):
                if r[j] > _TOL:
                    tj = u_plus[j] / r[j]
                    if tj < t1 - _TOL:
                        t1, blocker = tj, j
            # primal step to make row p tight
            znp = z @ n_p
            s_p = n_p @ v - b[p]
            t2 = (s_p / znp) if znp > _TOL else np.inf

            t = min(t1, t2)
            if not np.isfinite(t):
                return "infeasible", None, None, iters

            if np.isinf(t2):
                # dual-only step: relax the blocker, stay at v
                u_plus[: len(work)] -= t * r
                u_plus[-1] += t
                del work[blocker]
                u_plus = np.delete(u_plus, blocker)
                u = u_plus[:-1].copy()
                continue

            v = v - t * z
            if len(work):
                u_plus[: len(work)] -= t * r
            u_plus[-1] += t

            if t2 <= t1:
                work.append(p)
                u = u_plus
                break
            del work[blocker]
            u_plus = np.delete(u_plus, blocker)
            u = u_plus[:-1].copy()


def qp_solve(H, f, A_in=None, b_in=None) -> QPResult:
    """Solve the QP; returns a typed result rather than raising on an
    infeasible problem or an H that is not positive definite."""
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
    try:  # every eigenvalue of H above 2e-12 scale
        np.linalg.cholesky(H - (2e-12 * scale) * np.eye(n))
    except np.linalg.LinAlgError:
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


def _residuals(H, f, A, b, x, mu) -> dict:
    grad = H @ x + f
    primal = comp = 0.0
    if A.shape[0]:
        grad = grad + A.T @ mu
        slack = A @ x - b
        primal = float(np.max(np.maximum(slack, 0.0)))
        comp = float(np.max(np.abs(mu * slack)))
    return {
        "stationarity": float(np.max(np.abs(grad))),
        "primal": primal,
        "complementarity": comp,
    }
