"""Composite objective F(x) = (1/n) sum f_i(<a_i,x>) + psi(x): case taxonomy,
constants, gradients, duality gap, and the regularize/smooth transforms."""
import numpy as np
import pytest

from adaptreduce import (Case, CompositeObjective, ConfigError, Regularizer,
                         dense_to_dataset)
from adaptreduce import data as data_mod
from helpers import quadratic_reference


def random_objective(rng, loss, reg, n=8, d=5, smoothing=None):
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n) if loss == "squared" else np.where(
        rng.random(n) < 0.5, 1.0, -1.0)
    return CompositeObjective(dense_to_dataset(A, b), loss, reg, smoothing)


# ---------------------------------------------------------------------------
# case taxonomy and constants
# ---------------------------------------------------------------------------

def test_case_classification_table():
    rng = np.random.default_rng(30)
    sc = Regularizer(l2=0.5)
    flat = Regularizer(l1=0.1)
    assert random_objective(rng, "squared", sc).classify_case() is Case.Case1
    assert random_objective(rng, "squared", flat).classify_case() is Case.Case2
    assert random_objective(rng, "hinge", sc).classify_case() is Case.Case3
    assert random_objective(rng, "hinge", flat).classify_case() is Case.Case4
    # smoothing a hinge moves it to the smooth column
    assert random_objective(rng, "hinge", sc, smoothing=0.1).classify_case() \
        is Case.Case1
    assert random_objective(rng, "hinge", flat, smoothing=0.1).classify_case() \
        is Case.Case2


def test_strong_convexity_comes_from_reg_only():
    rng = np.random.default_rng(31)
    F = random_objective(rng, "squared", Regularizer(l1=0.3))
    assert F.strong_convexity == 0.0  # squared losses never contribute
    F2 = random_objective(rng, "squared", Regularizer(l2=0.7))
    assert F2.strong_convexity == 0.7


def test_smoothness_constant_formula():
    A = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
    b = np.array([1.0, -1.0, 1.0])
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer())
    assert F.smoothness == pytest.approx(9.0)  # max |a_i|^2 * 1, zero row drops out
    Flog = CompositeObjective(dense_to_dataset(A, 2 * b), "logistic", Regularizer())
    assert Flog.smoothness == pytest.approx(9.0 * 4 / 4)  # b^2/4 with b=2
    Fh = CompositeObjective(dense_to_dataset(A, b), "hinge", Regularizer())
    assert np.isinf(Fh.smoothness)
    assert Fh.smooth(0.5).smoothness == pytest.approx(9.0 / 0.5)


def test_lipschitz_G():
    A = np.ones((2, 2))
    F = CompositeObjective(dense_to_dataset(A, np.array([1.0, -3.0])), "hinge",
                           Regularizer())
    assert F.lipschitz_G == 3.0
    Fsq = CompositeObjective(dense_to_dataset(A, np.array([1.0, -3.0])), "squared",
                             Regularizer())
    assert np.isinf(Fsq.lipschitz_G)


def test_value_hand_anchor():
    # one row a=(1,), b=3, squared loss, psi = 0.5 |x|^2
    F = CompositeObjective(dense_to_dataset(np.array([[1.0]]), np.array([3.0])),
                           "squared", Regularizer(l2=1.0))
    assert F.full_value(np.array([1.0])) == pytest.approx(2.0 + 0.5)
    assert F.f_value(np.array([3.0])) == 0.0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_full_gradient_matches_central_difference():
    rng = np.random.default_rng(32)
    h = 1e-6
    cases = [("squared", None), ("logistic", None), ("hinge", 0.3),
             ("logistic", 0.2)]
    for loss, lam in cases:
        F = random_objective(rng, loss, Regularizer(l2=0.4), smoothing=lam)
        for _ in range(5):
            x = rng.normal(size=F.dim)
            g = F.full_gradient(x, include_quadratic_reg=True)
            for j in range(F.dim):
                e = np.zeros(F.dim)
                e[j] = h
                num = (F.full_value(x + e) - F.full_value(x - e)) / (2 * h)
                assert g[j] == pytest.approx(num, rel=1e-5, abs=1e-7), (loss, lam)


def test_gradient_without_reg_part():
    rng = np.random.default_rng(33)
    F = random_objective(rng, "squared", Regularizer(l2=2.0))
    x = rng.normal(size=F.dim)
    g_f = F.full_gradient(x)
    g_all = F.full_gradient(x, include_quadratic_reg=True)
    np.testing.assert_allclose(g_all - g_f, 2.0 * x, atol=1e-12)
    assert F.grad_norm(x) == pytest.approx(float(np.linalg.norm(g_f)))


def test_nonsmooth_gradient_requires_opt_in():
    rng = np.random.default_rng(34)
    F = random_objective(rng, "hinge", Regularizer(l2=0.1))
    x = rng.normal(size=F.dim)
    with pytest.raises(ConfigError, match="gradient unavailable"):
        F.full_gradient(x)
    g = F.loss_derivs(F.margins(x), allow_subgradient=True)
    assert g.shape == (F.n,)
    # smoothing lifts the restriction
    F.smooth(0.1).full_gradient(x)


# ---------------------------------------------------------------------------
# duality gap
# ---------------------------------------------------------------------------

def test_duality_gap_nonnegative_and_bounds_suboptimality():
    rng = np.random.default_rng(37)
    for loss, lam in (("squared", None), ("logistic", None), ("hinge", 0.2)):
        F = random_objective(rng, loss, Regularizer(l2=0.5, l1=0.05), n=10, d=4,
                             smoothing=lam)
        # reference by fine prox descent: cheap at this size
        x = np.zeros(F.dim)
        L = F.smoothness + 1e-12
        for _ in range(4000):
            x = F.prox(x - F.full_gradient(x) / L, 1.0 / L)
        F_star = F.full_value(x)
        for _ in range(10):
            y = rng.normal(size=F.dim)
            gap = F.duality_gap(y)
            assert gap >= -1e-10
            assert gap >= F.full_value(y) - F_star - 1e-8


def test_duality_gap_zero_at_ridge_minimizer():
    rng = np.random.default_rng(38)
    A = rng.normal(size=(6, 3))
    b = rng.normal(size=6)
    l2 = 0.7
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(l2=l2))
    x_star, _ = quadratic_reference(A.T @ A / 6 + l2 * np.eye(3), A.T @ b / 6)
    assert F.duality_gap(x_star) == pytest.approx(0.0, abs=1e-10)
    assert F.duality_gap(x_star + 0.1) > 1e-4


def test_duality_gap_takes_one_matvec(monkeypatch):
    # the primal value and the dual point share one set of margins, and
    # the gap is still the float full_value(x) - dual_value(f'(Ax)) gives
    rng = np.random.default_rng(40)
    for loss, lam in (("squared", None), ("logistic", None), ("hinge", 0.2)):
        F = random_objective(rng, loss, Regularizer(l2=0.5, l1=0.05), n=10,
                             d=4, smoothing=lam)
        x = rng.normal(size=F.dim)
        alpha = F.loss_derivs(F.margins(x), allow_subgradient=True)
        want = F.full_value(x) - F.dual_value(alpha)
        calls = []
        real = data_mod.matvec
        monkeypatch.setattr(data_mod, "matvec",
                            lambda ds, v: calls.append(1) or real(ds, v))
        assert F.duality_gap(x).hex() == want.hex()
        assert len(calls) == 1
        monkeypatch.undo()


def test_duality_gap_requires_strong_convexity():
    rng = np.random.default_rng(39)
    F = random_objective(rng, "squared", Regularizer(l1=0.1))
    with pytest.raises(ConfigError, match="gap unavailable"):
        F.duality_gap(np.zeros(F.dim))


# ---------------------------------------------------------------------------
# transforms and identity
# ---------------------------------------------------------------------------

def test_regularize_adds_shifted_quadratic():
    rng = np.random.default_rng(40)
    F = random_objective(rng, "squared", Regularizer(l1=0.1))
    assert F.classify_case() is Case.Case2
    c = rng.normal(size=F.dim)
    G = F.regularize(0.5, c)
    assert G.classify_case() is Case.Case1
    assert G.strong_convexity == pytest.approx(0.5)
    x = rng.normal(size=F.dim)
    want = F.full_value(x) + 0.25 * float((x - c) @ (x - c))
    assert G.full_value(x) == pytest.approx(want, rel=1e-14)
    # original untouched
    assert F.reg.shift_weight == 0.0
    with pytest.raises(ConfigError):
        F.regularize(0.0, c)


def test_smooth_transform_contract():
    rng = np.random.default_rng(41)
    F = random_objective(rng, "hinge", Regularizer(l2=0.2))
    S = F.smooth(0.5)
    assert S.smoothing == 0.5
    x = rng.normal(size=F.dim)
    assert S.full_value(x) <= F.full_value(x) + 1e-12
    with pytest.raises(ConfigError, match="already smoothed"):
        S.smooth(0.1)
    with pytest.raises(ConfigError):
        F.smooth(-1.0)


def test_content_hash_sensitivity():
    rng = np.random.default_rng(42)
    F = random_objective(rng, "squared", Regularizer(l2=0.5))
    assert F.content_hash() == F.content_hash()
    seen = {F.content_hash()}
    variants = [
        CompositeObjective(F.data, "logistic", F.reg),
        CompositeObjective(F.data, F.loss, Regularizer(l2=0.6)),
        F.smooth(0.5),
        F.regularize(0.1, np.zeros(F.dim)),
    ]
    for v in variants:
        assert v.content_hash() not in seen
        seen.add(v.content_hash())
    assert len(seen) == 5
