"""QP solver contract tests against a brute-force active-set enumeration
oracle, plus typed infeasible/not-positive-definite results and KKT
certification."""
import numpy as np
import pytest
from oracles import brute_force_qp

from exoassist.qp import qp_solve


def box_rows(lb, ub):
    """The box lb <= x <= ub as rows A x <= b: [I; -I] x <= [ub; -lb]."""
    n = len(ub)
    return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([ub, -lb])


def random_spd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return A @ A.T + scale * np.eye(n)


def test_textbook_scalar():
    # min 0.5 x^2 s.t. x >= 1  ->  x = 1
    res = qp_solve(np.array([[1.0]]), np.array([0.0]),
                   A_in=np.array([[-1.0]]), b_in=np.array([-1.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-10)
    assert res.certified


def test_bound_violated_by_1e_8_is_made_active():
    # the unconstrained minimum x0 = 1 + 1e-8 breaks x0 <= 1 by less than the
    # certification tolerance; the solver must still make the row active
    res = qp_solve(np.eye(2), -np.array([1.0 + 1e-8, 0.0]),
                   A_in=np.array([[1.0, 0.0]]), b_in=np.array([1.0]))
    assert res.status == "optimal" and res.certified
    assert res.x[0] - 1.0 <= 1e-12


def test_box_projection():
    rng = np.random.default_rng(3)
    n = 6
    c = rng.uniform(-2.5, 2.5, n)
    A, b = box_rows(-np.ones(n), np.ones(n))
    res = qp_solve(np.eye(n), -c, A_in=A, b_in=b)
    assert res.status == "optimal"
    assert np.allclose(res.x, np.clip(c, -1, 1), atol=1e-9)
    assert res.certified


def test_20_random_instances_match_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        H = random_spd(rng, n)
        f = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        # keep the problem feasible: offset rhs from a random point
        x0 = rng.normal(size=n) * 0.5
        b = A @ x0 + rng.uniform(0.05, 1.0, size=m)
        res = qp_solve(H, f, A_in=A, b_in=b)
        assert res.status == "optimal", f"trial {trial}"
        x_star, obj_star = brute_force_qp(H, f, A, b)
        assert x_star is not None
        assert res.objective == pytest.approx(obj_star, abs=1e-6)
        assert np.allclose(res.x, x_star, atol=1e-6), f"trial {trial}"
        assert res.residuals["stationarity"] < 1e-8
        assert res.residuals["primal"] < 1e-8
        assert res.residuals["complementarity"] < 1e-8


def test_infeasible_returns_typed_result():
    # x <= -1 and x >= 1 cannot hold
    res = qp_solve(np.eye(1), np.zeros(1),
                   A_in=np.array([[1.0], [-1.0]]), b_in=np.array([-1.0, -1.0]))
    assert res.status == "infeasible"
    assert res.x is None


def test_unbounded_returns_typed_result():
    # zero curvature along x2 with a linear term pushing that way: the problem
    # is unbounded below, and its H is not positive definite
    res = qp_solve(np.diag([1.0, 0.0]), np.array([0.0, -1.0]))
    assert res.status == "not_positive_definite"
    assert res.x is None and not res.certified


def test_degenerate_psd_with_consistent_linear_term():
    # a null direction with no linear push has a (non-unique) boxed minimiser,
    # but the dual method is defined for a positive-definite H only
    A, b = box_rows(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    res = qp_solve(np.diag([2.0, 0.0]), np.array([-2.0, 0.0]), A_in=A, b_in=b)
    assert res.status == "not_positive_definite"
    assert res.x is None and not res.certified


@pytest.mark.parametrize("H, f", [
    (np.diag([1.0, 1e-14]), np.array([0.0, -1.0])),  # an eigenvalue below 2e-12 x scale
    (np.diag([1.0, 1e-14]), np.array([-2.0, 0.0])),  # the same, with no push along it
    (np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2)),
    (np.diag([1.0, -1.0]), np.zeros(2)),
], ids=["near-null-push", "near-null", "rank-one", "indefinite"])
def test_near_null_or_indefinite_curvature_is_not_positive_definite(H, f):
    res = qp_solve(H, f)
    assert res.status == "not_positive_definite"
    assert res.x is None and not res.certified


@pytest.mark.parametrize("A_in, b_in", [
    (np.ones((2, 3)), np.ones(2)),  # rows of the wrong width
    (np.ones((2, 2)), np.ones(3)),  # more right-hand sides than rows
    (np.ones((3, 2)), np.ones(2)),  # fewer right-hand sides than rows
], ids=["wide-rows", "extra-rhs", "short-rhs"])
def test_rejects_inconsistent_inequality_rows(A_in, b_in):
    with pytest.raises(ValueError, match="inequality rows"):
        qp_solve(np.eye(2), np.zeros(2), A_in=A_in, b_in=b_in)


def test_rejects_asymmetric_h():
    with pytest.raises(ValueError):
        qp_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

