"""Separable regularizer algebra: prox, conjugates, exact quadratic merging.

Oracles: per-coordinate grid maximization (brute_force_reg_conjugate), direct
optimality perturbation checks, and hand-computed closed forms.
"""
import numpy as np
import pytest

from adaptreduce import ConfigError, Regularizer, soft_threshold
from adaptreduce.regularizers import _shrink
from helpers import brute_force_reg_conjugate


def random_reg(rng, with_l1=True, with_l2=True, with_shift=True, d=5):
    l1 = float(rng.random() * 0.5) if with_l1 else 0.0
    l2 = float(rng.random()) if with_l2 else 0.0
    sw = float(rng.random()) if with_shift else 0.0
    c = rng.normal(size=d) if sw > 0 else None
    return Regularizer(l1, l2, sw, c, const=float(rng.normal() * 0.1))


def test_soft_threshold_hand_anchors():
    v = np.array([3.0, -2.0, 0.5, 0.0])
    np.testing.assert_allclose(soft_threshold(v, 1.0), [2.0, -1.0, 0.0, 0.0])
    np.testing.assert_allclose(soft_threshold(v, 0.0), v)


def test_soft_threshold_at_zero_keeps_the_general_formulas_bits():
    v = np.array([-0.0, 0.0, -2.5, 1e-310, -np.inf, 3.0])
    want = np.sign(v) * np.maximum(np.abs(v) - 0.0, 0.0)
    assert soft_threshold(v, 0.0).tobytes() == want.tobytes()


def test_soft_threshold_in_place_matches_the_formula_at_the_edges():
    # the in-place kernel against sign(v) * max(|v| - tau, 0) at signed
    # zeros, at +-tau and at their float neighbours, with tau = 0 too, and
    # with tau and 0 as floats or as arrays, as the step loops pass them
    for tau in (0.0, 0.75, 5e-324):
        edges = [0.0, tau, np.nextafter(tau, 0.0), np.nextafter(tau, 1.0),
                 np.nextafter(0.0, 1.0), 3.5]
        v = np.array([s * e for e in edges for s in (1.0, -1.0)])
        want = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        assert soft_threshold(v, tau).tobytes() == want.tobytes()
        for t, zero in ((tau, 0.0), (np.full_like(v, tau), np.zeros_like(v))):
            got = v.copy()
            assert _shrink(got, t if tau else None, zero,
                           np.empty_like(v), got) is got
            assert got.tobytes() == want.tobytes()


def test_value_hand_anchor():
    reg = Regularizer(l1=2.0, l2=4.0, shift_weight=1.0,
                      shift_center=np.array([1.0, 0.0]), const=0.25)
    x = np.array([1.0, -1.0])
    # 2*(1+1) + 2*(1+1) + 0.5*(0+1) + 0.25
    assert reg.value(x) == pytest.approx(8.75, abs=1e-15)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        Regularizer(l1=-0.1)
    with pytest.raises(ConfigError):
        Regularizer(shift_weight=1.0)  # missing center
    # zero shift weight drops the center
    assert Regularizer(shift_weight=0.0, shift_center=np.ones(2)).shift_center is None


def test_strong_convexity_and_is_zero():
    assert Regularizer(l1=0.5).strong_convexity == 0.0
    reg = Regularizer(l2=0.3, shift_weight=0.2, shift_center=np.zeros(3))
    assert reg.strong_convexity == pytest.approx(0.5)


def test_prox_closed_form_anchors():
    v = np.array([3.0, -0.4, 1.0])
    # pure l1: soft threshold
    np.testing.assert_allclose(Regularizer(l1=0.5).prox(v, 1.0),
                               soft_threshold(v, 0.5))
    # pure l2: shrink toward 0
    np.testing.assert_allclose(Regularizer(l2=1.0).prox(v, 1.0), v / 2.0)
    # pure shifted quadratic: move toward the center
    c = np.array([1.0, 1.0, 1.0])
    reg = Regularizer(shift_weight=2.0, shift_center=c)
    np.testing.assert_allclose(reg.prox(v, 0.5), (v + c) / 2.0)


def test_prox_eta_zero_and_validation():
    reg = Regularizer(l1=1.0)
    v = np.array([1.0, 2.0])
    out = reg.prox(v, 0.0)
    np.testing.assert_array_equal(out, v)
    out[0] = 9.0
    assert v[0] == 1.0  # prox returned a copy
    with pytest.raises(ConfigError):
        reg.prox(v, -1e-3)


def test_prox_is_the_minimizer_under_perturbation():
    rng = np.random.default_rng(10)
    for _ in range(30):
        reg = random_reg(rng)
        v = rng.normal(size=5) * 2
        eta = 10.0 ** rng.uniform(-2, 1)
        x_hat = reg.prox(v, eta)

        def obj(x):
            return eta * reg.value(x) + 0.5 * float((x - v) @ (x - v))

        base = obj(x_hat)
        for _ in range(20):
            pert = x_hat + rng.normal(size=5) * 10.0 ** rng.uniform(-6, -1)
            assert base <= obj(pert) + 1e-12


def test_prox_subgradient_optimality():
    # 0 must lie in eta*dpsi(x) + (x - v) componentwise
    rng = np.random.default_rng(11)
    for _ in range(30):
        reg = random_reg(rng)
        v = rng.normal(size=5) * 2
        eta = 10.0 ** rng.uniform(-2, 1)
        x = reg.prox(v, eta)
        r = x - v + eta * reg.differentiable_gradient(x)
        for j in range(5):
            if x[j] > 1e-12:
                assert r[j] + eta * reg.l1 == pytest.approx(0.0, abs=1e-10)
            elif x[j] < -1e-12:
                assert r[j] - eta * reg.l1 == pytest.approx(0.0, abs=1e-10)
            else:
                assert abs(r[j]) <= eta * reg.l1 + 1e-10


def test_differentiable_gradient_matches_central_difference():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(20):
        reg = random_reg(rng, with_l1=False)
        x = rng.normal(size=5)
        g = reg.differentiable_gradient(x)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            num = (reg.value(x + e) - reg.value(x - e)) / (2 * h)
            assert g[j] == pytest.approx(num, abs=1e-6)


def test_conjugate_argmax_attains_the_supremum():
    rng = np.random.default_rng(13)
    for _ in range(30):
        reg = random_reg(rng)
        if reg.strong_convexity <= 0:
            continue
        u = rng.normal(size=5) * 2
        x_star = reg.conjugate_argmax(u)
        val = float(u @ x_star) - reg.value(x_star)
        assert reg.conjugate_value(u) == pytest.approx(val, abs=1e-12)
        for _ in range(20):
            pert = x_star + rng.normal(size=5) * 10.0 ** rng.uniform(-6, -1)
            assert float(u @ pert) - reg.value(pert) <= val + 1e-12


def test_conjugate_value_matches_grid():
    rng = np.random.default_rng(14)
    for _ in range(8):
        reg = random_reg(rng, d=3)
        u = rng.normal(size=3)
        grid = brute_force_reg_conjugate(reg, u)
        assert reg.conjugate_value(u) == pytest.approx(grid, abs=1e-6)


def test_conjugate_argmax_requires_strong_convexity():
    with pytest.raises(ConfigError):
        Regularizer(l1=1.0).conjugate_argmax(np.zeros(2))


def test_pure_l1_conjugate_is_ball_indicator():
    reg = Regularizer(l1=0.5, const=0.25)
    assert reg.conjugate_value(np.array([0.5, -0.5])) == -0.25
    assert reg.conjugate_value(np.array([0.2, 0.0])) == -0.25
    assert np.isinf(reg.conjugate_value(np.array([0.51, 0.0])))


def test_fenchel_young_inequality():
    rng = np.random.default_rng(15)
    for _ in range(50):
        reg = random_reg(rng)
        x = rng.normal(size=5)
        u = rng.normal(size=5)
        star = reg.conjugate_value(u)
        if np.isinf(star):
            continue
        assert reg.value(x) + star >= float(u @ x) - 1e-10


def test_with_shifted_value_identity():
    rng = np.random.default_rng(16)
    for _ in range(30):
        reg = random_reg(rng)
        w = float(rng.random()) + 0.1
        c = rng.normal(size=5)
        merged = reg.with_shifted(w, c)
        for _ in range(10):
            x = rng.normal(size=5) * 3
            want = reg.value(x) + 0.5 * w * float((x - c) @ (x - c))
            assert merged.value(x) == pytest.approx(want, rel=1e-13, abs=1e-12)


def test_with_shifted_merges_into_single_term():
    reg = Regularizer(l1=0.1)
    a = reg.with_shifted(1.0, np.array([1.0, 0.0]))
    b = a.with_shifted(3.0, np.array([0.0, 2.0]))
    assert b.shift_weight == pytest.approx(4.0)
    np.testing.assert_allclose(b.shift_center, [0.25, 1.5])
    assert b.strong_convexity == pytest.approx(4.0)


def test_with_shifted_zero_weight_is_identity():
    reg = Regularizer(l1=0.1, l2=0.2)
    assert reg.with_shifted(0.0, np.ones(3)) is reg
    with pytest.raises(ConfigError):
        reg.with_shifted(-0.5, np.ones(3))


def test_shift_center_is_read_only():
    reg = Regularizer(shift_weight=1.0, shift_center=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        reg.shift_center[0] = 5.0
