"""Brute-force oracles and the analysis-inequality verifier."""
import numpy as np
import pytest

from adaptreduce import (BoundCheck, CHECK_NAMES, CompositeObjective,
                         ConfigError, Regularizer, dense_to_dataset,
                         smoothed_value, verify_bound)
from helpers import (ScalarLoss, brute_force_conjugate,
                     brute_force_reg_conjugate, brute_force_smoothed,
                     quadratic_reference)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def test_brute_force_smoothed_hinge_anchors():
    hinge = ScalarLoss("hinge", 1.0)
    assert brute_force_smoothed(hinge, 1.0, 0.0, 1e-5) == pytest.approx(
        0.5, abs=1e-5)
    assert brute_force_smoothed(hinge, 1.0, 2.0, 1e-5) == pytest.approx(
        0.0, abs=1e-5)
    # heavy smoothing flattens the hinge: lam=10 at z=0 leaves only 1/(2*10)
    assert brute_force_smoothed(hinge, 10.0, 0.0, 1e-5) == pytest.approx(
        0.05, abs=1e-5)


def test_brute_force_smoothed_tracks_closed_form():
    rng = np.random.default_rng(100)
    step = 1e-5
    for kind in ("hinge", "logistic", "squared"):
        for _ in range(6):
            b = (0.5 + rng.random()) * (1 if rng.random() < 0.5 else -1)
            lam = 10.0 ** rng.uniform(-1.5, 0.5)
            z = rng.normal() * 2
            loss = ScalarLoss(kind, b)
            grid = brute_force_smoothed(loss, lam, z, step)
            assert abs(grid - smoothed_value(kind, z, b, lam)) <= 2 * step


def test_brute_force_smoothed_validation():
    with pytest.raises(ConfigError):
        brute_force_smoothed(ScalarLoss("hinge", 1.0), 1.0, 0.0, grid_step=-1.0)


def test_brute_force_conjugate_anchor():
    # hinge b=1: f*(beta) = beta on [-1, 0]
    hinge = ScalarLoss("hinge", 1.0)
    assert brute_force_conjugate(hinge, -0.25) == pytest.approx(-0.25, abs=1e-6)
    sq = ScalarLoss("squared", 2.0)
    assert brute_force_conjugate(sq, 1.0) == pytest.approx(2.5, abs=1e-6)


def test_brute_force_reg_conjugate_anchor():
    # psi(x) = 0.5 x^2 per coordinate: psi*(u) = 0.5 |u|^2
    reg = Regularizer(l2=1.0)
    u = np.array([1.0, -2.0])
    assert brute_force_reg_conjugate(reg, u) == pytest.approx(2.5, abs=1e-6)


# ---------------------------------------------------------------------------
# quadratic reference
# ---------------------------------------------------------------------------

def test_quadratic_reference_identity_matrix():
    x, val = quadratic_reference(np.eye(1), np.array([3.0]))
    assert x[0] == pytest.approx(3.0)
    assert val == pytest.approx(-4.5)


def test_quadratic_reference_diagonal_componentwise():
    Q = np.diag([2.0, 5.0])
    b = np.array([4.0, 10.0])
    x, val = quadratic_reference(Q, b)
    np.testing.assert_allclose(x, [2.0, 2.0])
    assert val == pytest.approx(-14.0)


def test_quadratic_reference_residual_random_pd():
    rng = np.random.default_rng(101)
    for d in (3, 17, 50):
        M = rng.normal(size=(d, d))
        Q = M @ M.T + 0.1 * np.eye(d)
        b = rng.normal(size=d)
        x, val = quadratic_reference(Q, b)
        assert float(np.linalg.norm(Q @ x - b)) <= 1e-10 * max(
            1.0, float(np.linalg.norm(b)))
        assert val == pytest.approx(0.5 * x @ Q @ x - b @ x, abs=1e-9)


def test_quadratic_reference_rejects_non_pd():
    with pytest.raises(ConfigError):
        quadratic_reference(np.diag([1.0, 0.0]), np.ones(2))
    with pytest.raises(ConfigError):
        quadratic_reference(np.diag([1.0, -2.0]), np.ones(2))


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------

def smoke_instances(rng):
    n = 30
    A = rng.normal(size=(n, 5)) / np.sqrt(5)
    b = rng.normal(size=n)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    lasso = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(l1=0.03))
    svm = CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l2=0.3))
    l1svm = CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l1=0.03))
    return lasso, svm, l1svm


FAMILY = {
    "adaptreg": 0,     # Case2 instance
    "adaptsmooth": 1,  # Case3 instance
    "joint": 2,        # Case4 instance
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_verify_bound_passes_on_smoke_instances(name):
    rng = np.random.default_rng(102)
    instances = smoke_instances(rng)
    F = instances[FAMILY[name.split("-")[0]]]
    x0 = np.full(F.dim, 0.7)
    report = verify_bound(name, F, x0, T=3)
    assert report.name == name
    assert report.passed, report.summary()
    assert "PASS" in report.summary()
    assert all(c.slack >= -c.tol for c in report.checks)


def test_verify_bound_check_counts():
    rng = np.random.default_rng(103)
    lasso, svm, _ = smoke_instances(rng)
    x0 = np.full(5, 0.7)
    assert len(verify_bound("adaptreg-final-bound", lasso, x0, 4).checks) == 1
    assert len(verify_bound("adaptreg-recursion", lasso, x0, 4).checks) == 3
    assert len(verify_bound("adaptreg-distance", lasso, x0, 4).checks) == 4
    assert len(verify_bound("adaptsmooth-d0", svm, x0, 2).checks) == 1


def test_verify_bound_epoch_gaps_are_nonnegative():
    # the lhs of these checks is D_t = F_t(warm start) - F_t(x_t*), which
    # the exact oracle's minimizer keeps >= 0 up to rounding
    rng = np.random.default_rng(79)
    lasso, svm, _ = smoke_instances(rng)
    x0 = rng.normal(size=5)
    for name, F in (("adaptreg-recursion", lasso), ("adaptsmooth-d0", svm)):
        checks = verify_bound(name, F, x0, 4).checks
        assert checks and all(c.lhs >= -1e-12 for c in checks)


def test_verify_bound_degenerate_and_invalid():
    rng = np.random.default_rng(104)
    lasso, _, _ = smoke_instances(rng)
    x0 = np.full(5, 0.7)
    report = verify_bound("adaptreg-final-bound", lasso, x0, T=0)
    assert report.passed
    with pytest.raises(ConfigError, match="unknown bound check"):
        verify_bound("adaptreg-3.3", lasso, x0, 2)
    with pytest.raises(ConfigError):
        verify_bound("adaptreg-final-bound", lasso, x0, -1)
    # lam0 is underivable for squared losses (G = inf)
    with pytest.raises(ConfigError, match="lam0"):
        verify_bound("adaptsmooth-d0", lasso, x0, 2)


def test_bound_check_semantics():
    ok = BoundCheck("x", lhs=1.0, rhs=2.0, tol=0.0)
    assert ok.passed and ok.slack == 1.0
    borderline = BoundCheck("x", lhs=2.0 + 5e-8, rhs=2.0, tol=1e-7)
    assert borderline.passed
    bad = BoundCheck("x", lhs=3.0, rhs=2.0, tol=1e-7)
    assert not bad.passed and bad.slack == -1.0
