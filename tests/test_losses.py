"""Scalar loss algebra: values, derivatives, conjugates, smoothing.

Checks run against independent oracles: grid maximization over the conjugate
domain (brute_force_smoothed / brute_force_conjugate, which never touch the
closed forms) and hand-derived literals frozen below.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from adaptreduce import (ConfigError, conjugate_domain, loss_conjugate,
                         loss_deriv, loss_lipschitz, loss_smoothness,
                         loss_value, smoothed_conjugate, smoothed_deriv,
                         smoothed_value)
from adaptreduce.losses import (_smoothed_value_and_deriv, flat_room,
                                scalar_deriv)
from helpers import ScalarLoss, brute_force_conjugate, brute_force_smoothed

KINDS = ("squared", "logistic", "hinge")


# ---------------------------------------------------------------------------
# values and derivatives
# ---------------------------------------------------------------------------

def test_loss_values_hand_anchors():
    assert loss_value("hinge", 0.0, 1.0) == 1.0
    assert loss_value("hinge", 2.0, 1.0) == 0.0
    assert loss_value("hinge", 1.0, -2.0) == 3.0
    assert loss_value("squared", 0.0, 3.0) == 4.5
    assert loss_value("logistic", 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert loss_value("logistic", 1.0, -2.0) == pytest.approx(
        2.1269280110429727, abs=1e-14)


def test_loss_value_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    z = rng.normal(size=40) * 3
    b = rng.normal(size=40)
    for kind in KINDS:
        vec = loss_value(kind, z, b)
        sc = np.array([loss_value(kind, zi, bi) for zi, bi in zip(z, b)])
        assert np.allclose(vec, sc, atol=0.0), kind


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(1)
    h = 1e-6
    for kind in KINDS:
        for _ in range(60):
            b = rng.normal() * 2 or 1.0
            z = rng.normal() * 3
            if kind == "hinge" and abs(b * z - 1.0) < 1e-3:
                continue  # kink
            num = (loss_value(kind, z + h, b) - loss_value(kind, z - h, b)) / (2 * h)
            assert loss_deriv(kind, z, b) == pytest.approx(num, abs=5e-6), (kind, z, b)


def test_hinge_kink_subgradient_choice():
    # at the kink the reported subgradient is the steep side, -b
    assert loss_deriv("hinge", 1.0, 1.0) == -1.0
    assert loss_deriv("hinge", -0.5, -2.0) == 2.0


def test_lipschitz_and_smoothness_constants():
    assert loss_lipschitz("hinge", 3.0) == 3.0
    assert loss_lipschitz("logistic", -2.0) == 2.0
    assert math.isinf(loss_lipschitz("squared", 1.0))
    assert loss_smoothness("squared", 7.0) == 1.0
    assert loss_smoothness("logistic", 2.0) == 1.0  # b^2/4 = 1
    assert math.isinf(loss_smoothness("hinge", 1.0))


def test_losses_are_convex_on_random_chords():
    rng = np.random.default_rng(2)
    for kind in KINDS:
        for _ in range(200):
            b = rng.normal() * 2
            z1, z2 = rng.normal(size=2) * 4
            t = rng.random()
            mid = loss_value(kind, t * z1 + (1 - t) * z2, b)
            chord = t * loss_value(kind, z1, b) + (1 - t) * loss_value(kind, z2, b)
            assert mid <= chord + 1e-12


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

def test_conjugate_hand_anchors():
    # hinge (unit label): f*(beta) = beta on [-1, 0]
    assert loss_conjugate("hinge", -0.5, 1.0) == -0.5
    assert loss_conjugate("hinge", 0.0, 1.0) == 0.0
    assert math.isinf(loss_conjugate("hinge", 0.1, 1.0))
    # squared: f*(beta) = beta^2/2 + b beta
    assert loss_conjugate("squared", 2.0, 3.0) == pytest.approx(8.0)
    # logistic entropy at beta=-1/2 is -log 2
    assert loss_conjugate("logistic", -0.5, 1.0) == pytest.approx(
        -math.log(2.0), abs=1e-15)
    # endpoints of the logistic domain carry zero entropy
    assert loss_conjugate("logistic", 0.0, 1.0) == 0.0
    assert loss_conjugate("logistic", -1.0, 1.0) == 0.0


def test_conjugate_domain_general_labels():
    assert conjugate_domain("hinge", 1.0) == (-1.0, 0.0)
    assert conjugate_domain("hinge", -2.0) == (0.0, 2.0)
    assert conjugate_domain("logistic", 3.0) == (-3.0, 0.0)
    lo, hi = conjugate_domain("squared", 5.0)
    assert math.isinf(lo) and math.isinf(hi)
    assert conjugate_domain("hinge", 0.0) == (0.0, 0.0)


def test_conjugate_agrees_with_grid_supremum():
    rng = np.random.default_rng(3)
    for kind in KINDS:
        for _ in range(12):
            b = (1.0 + rng.random() * 2) * (1 if rng.random() < 0.5 else -1)
            lo, hi = conjugate_domain(kind, b)
            if math.isinf(lo):
                lo, hi = -4.0, 4.0
            beta = lo + (hi - lo) * (0.1 + 0.8 * rng.random())
            loss = ScalarLoss(kind, b)
            grid = brute_force_conjugate(loss, beta)
            assert loss_conjugate(kind, beta, b) == pytest.approx(
                grid, abs=1e-6), (kind, b, beta)


def test_fenchel_young_equality_at_gradient_points():
    # f(z) + f*(f'(z)) = z f'(z) for differentiable losses
    rng = np.random.default_rng(4)
    for kind in ("squared", "logistic"):
        for _ in range(100):
            b = rng.normal() * 2 or 1.0
            z = rng.normal() * 3
            beta = loss_deriv(kind, z, b)
            lhs = loss_value(kind, z, b) + loss_conjugate(kind, beta, b)
            assert lhs == pytest.approx(z * beta, abs=1e-9), (kind, z, b)


def test_zero_label_conjugate_is_point_mass():
    # constant losses: conjugate finite only at beta = 0
    assert loss_conjugate("hinge", 0.0, 0.0) == -1.0
    assert loss_conjugate("logistic", 0.0, 0.0) == pytest.approx(-math.log(2.0))
    assert math.isinf(loss_conjugate("hinge", 0.05, 0.0))
    assert math.isinf(loss_conjugate("logistic", -0.05, 0.0))


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smoothed_value_hand_and_grid_anchors():
    # hand-derived
    assert smoothed_value("hinge", 0.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert smoothed_value("hinge", 2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert smoothed_value("hinge", 0.8, 1.0, 0.5) == pytest.approx(0.04, abs=1e-12)
    assert smoothed_value("squared", 0.0, 3.0, 1.0) == pytest.approx(2.25, abs=1e-12)
    # frozen from a 4e6-point grid over the conjugate domain
    assert smoothed_value("logistic", 0.0, 1.0, 1.0) == pytest.approx(
        0.5930145580865562, abs=1e-6)
    assert smoothed_value("logistic", 2.0, 1.0, 0.5) == pytest.approx(
        0.12355045416500134, abs=1e-6)
    assert smoothed_value("logistic", -3.0, 1.0, 0.1) == pytest.approx(
        3.003427444468355, abs=1e-6)


def test_smoothed_value_matches_brute_force_everywhere():
    rng = np.random.default_rng(5)
    step = 1e-5
    for kind in KINDS:
        for _ in range(10):
            b = (0.5 + rng.random() * 2) * (1 if rng.random() < 0.5 else -1)
            lam = 10.0 ** rng.uniform(-2, 0.5)
            z = rng.normal() * 3
            loss = ScalarLoss(kind, b)
            grid = brute_force_smoothed(loss, lam, z, step)
            closed = smoothed_value(kind, z, b, lam)
            assert abs(closed - grid) <= 2 * step, (kind, b, lam, z)


def test_smoothing_sandwich_and_monotonicity():
    rng = np.random.default_rng(6)
    for kind in ("hinge", "logistic"):
        for _ in range(50):
            b = rng.normal() * 2 or 1.0
            z = rng.normal() * 4
            G = loss_lipschitz(kind, b)
            small, big = sorted(10.0 ** rng.uniform(-2, 0, size=2))
            f = loss_value(kind, z, b)
            fs_small = smoothed_value(kind, z, b, small)
            fs_big = smoothed_value(kind, z, b, big)
            assert f - big * G * G / 2 - 1e-12 <= fs_big <= f + 1e-12
            assert fs_big <= fs_small + 1e-12  # decreasing in lambda


def test_smoothed_derivative_matches_central_difference():
    rng = np.random.default_rng(7)
    h = 1e-6
    for kind in KINDS:
        for _ in range(60):
            b = rng.normal() * 2 or 1.0
            lam = 10.0 ** rng.uniform(-2, 0.5)
            z = rng.normal() * 3
            num = (smoothed_value(kind, z + h, b, lam)
                   - smoothed_value(kind, z - h, b, lam)) / (2 * h)
            assert smoothed_deriv(kind, z, b, lam) == pytest.approx(
                num, rel=1e-5, abs=1e-6), (kind, b, lam, z)


def test_smoothed_deriv_hand_anchor():
    assert smoothed_deriv("hinge", 0.8, 1.0, 0.5) == pytest.approx(-0.4, abs=1e-12)
    assert smoothed_deriv("hinge", 2.0, 1.0, 0.5) == 0.0
    assert smoothed_deriv("hinge", -5.0, 1.0, 0.5) == -1.0


def test_smoothed_deriv_is_the_value_and_deriv_derivative():
    # smoothed_deriv skips the value; its floats must not move
    z = np.linspace(-3.0, 3.0, 61)
    b = np.resize([1.0, -1.0, 0.0, 2.5, -0.3], z.shape)
    t = b * z
    for lam in (0.05, 0.5, 2.0):
        mu = lam * b * b  # z spans all three hinge regions
        assert ((t >= 1.0) & (b != 0.0)).any()
        assert ((t <= 1.0 - mu) & (b != 0.0)).any()
        assert ((t > 1.0 - mu) & (t < 1.0)).any()
    for kind in KINDS:
        for lam in (0.05, 0.5, 2.0):
            want = _smoothed_value_and_deriv(kind, z, b, lam)[1]
            assert np.array_equal(smoothed_deriv(kind, z, b, lam), want)
            for zi, bi in zip(z, b):
                want = _smoothed_value_and_deriv(kind, zi, bi, lam)[1]
                assert smoothed_deriv(kind, zi, bi, lam).tobytes() == want.tobytes()


def test_scalar_deriv_is_bit_equal_to_the_vector_functions():
    # the SVRG step calls scalar_deriv: its floats
    # must be the vector functions' floats, kinks and signed zeros included
    for kind in KINDS:
        for lam in (None, 0.05, 0.5, 2.0):
            deriv = scalar_deriv(kind, lam)
            # at b = 1.7 the order of lam * b * b shows in the last bit
            for b in (1.0, -1.0, 0.0, 2.5, -0.3, 1.7):
                z = [0.0, -0.0, 1e300, -1e300, *np.linspace(-3.0, 3.0, 61)]
                mu = 0.0 if lam is None else lam * b * b
                for t in ((1.0, 1.0 - mu) if b != 0.0 else ()):
                    z += [t / b, np.nextafter(t / b, np.inf),
                          np.nextafter(t / b, -np.inf)]
                z = np.array(z)
                want = (loss_deriv(kind, z, b) if lam is None
                        else smoothed_deriv(kind, z, b, lam))
                got = [deriv(zi, b) for zi in z.tolist()]
                assert all(type(g) is float for g in got)
                assert np.array(got).tobytes() == want.tobytes(), (kind, lam, b)


def test_flat_room_keeps_the_smoothed_hinge_derivative():
    # every float within flat_room's e of a margin z gives the smoothed
    # hinge's scalar derivative z's value: checked, in exact arithmetic, at
    # the floats nearest z +- e, for every float within 40 ulps of either
    # edge of the ramp.  The room is proven a few floats short of the flat
    # piece's end: at most 4 floats with a flat value get none
    for b in (1.0, -1.0, 0.5, -3.0, 1.7):
        for lam in (37.0, 0.2, 1e-3, 1e-6, 1e-8):
            deriv = scalar_deriv("hinge", lam)
            for edge in ((1.0 - lam * b * b) / b, 1.0 / b):
                zs = [edge]
                for _ in range(40):
                    zs = ([math.nextafter(zs[0], -math.inf)] + zs
                          + [math.nextafter(zs[-1], math.inf)])
                room = flat_room("hinge", b, lam)(np.array(zs)).tolist()
                proven = 0
                for z, e in zip(zs, room):
                    if e < 0.0:
                        continue
                    proven += 1
                    for end in (z + e, z - e):
                        if abs(Fraction(end) - Fraction(z)) > Fraction(e):
                            end = math.nextafter(end, z)
                        assert deriv(end, b) == deriv(z, b), (b, lam, z)
                flat = sum(deriv(z, b) in (-b, 0.0) for z in zs)
                assert 0 < flat - proven <= 4, (b, lam, edge)


def test_flat_room_claims_nothing_without_a_flat_piece():
    z = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
    for kind, lam in (("squared", None), ("squared", 0.2),
                      ("logistic", None), ("logistic", 0.2), ("hinge", None)):
        assert np.all(flat_room(kind, 1.0, lam)(z) == -np.inf), (kind, lam)
    # b = 0 makes the smoothed hinge constant, so any move keeps f'
    assert np.all(flat_room("hinge", 0.0, 0.2)(z) == np.inf)
    # on the ramp nothing is proven
    assert np.all(flat_room("hinge", 1.0, 0.2)(np.array([0.85, 0.9, 0.95]))
                  < 0.0)


def test_smoothed_hinge_scalar_deriv_keeps_its_bits_at_the_clamp_edges():
    # the closure clips u = (b z - 1) / (lam b^2) to [-1, 0] by comparisons:
    # at u = -1 and u = 0 exactly and one ulp either side, at b = 0 and at
    # b < 0, it must give smoothed_deriv's float, signed zeros included
    lam = 0.5
    deriv = scalar_deriv("hinge", lam)
    edges_met, zero_signs = set(), set()
    for b in (1.0, -1.0, 2.0, -0.5, 0.0):
        z = [0.0, -0.0, 3.0, -3.0]
        if b != 0.0:
            for edge in ((1.0 - lam * b * b) / b, 1.0 / b):  # u = -1, u = 0
                z += [edge, math.nextafter(edge, math.inf),
                      math.nextafter(edge, -math.inf)]
            u = [(b * zi - 1.0) / (lam * b * b) for zi in z]
            edges_met.update(e for e in (-1.0, 0.0) if e in u)
        got = np.array([deriv(zi, b) for zi in z])
        want = smoothed_deriv("hinge", np.array(z), b, lam)
        assert got.tobytes() == want.tobytes(), b
        zero_signs.update(np.signbit(got[got == 0.0]).tolist())
    assert edges_met == {-1.0, 0.0} and zero_signs == {True, False}


def test_smoothed_gradient_is_lipschitz_with_inverse_lambda():
    rng = np.random.default_rng(8)
    for kind in KINDS:
        for _ in range(100):
            b = rng.normal() * 2 or 1.0
            lam = 10.0 ** rng.uniform(-2, 0)
            z1, z2 = rng.normal(size=2) * 4
            d1 = smoothed_deriv(kind, z1, b, lam)
            d2 = smoothed_deriv(kind, z2, b, lam)
            bound = (b * b / lam if kind != "squared" else 1.0 / (1.0 + lam))
            assert abs(d1 - d2) <= bound * abs(z1 - z2) + 1e-10


def test_smoothed_conjugate_adds_quadratic():
    rng = np.random.default_rng(9)
    for kind in KINDS:
        for _ in range(40):
            b = rng.normal() * 2 or 1.0
            lam = 10.0 ** rng.uniform(-2, 0)
            lo, hi = conjugate_domain(kind, b)
            if math.isinf(lo):
                lo, hi = -3.0, 3.0
            beta = lo + (hi - lo) * rng.random()
            want = loss_conjugate(kind, beta, b) + 0.5 * lam * beta * beta
            assert smoothed_conjugate(kind, beta, b, lam) == pytest.approx(
                want, abs=1e-12)


def test_smoothed_zero_label_is_constant():
    for kind, const in (("hinge", 1.0), ("logistic", math.log(2.0))):
        assert smoothed_value(kind, 3.7, 0.0, 0.5) == pytest.approx(const)
        assert smoothed_deriv(kind, 3.7, 0.0, 0.5) == 0.0


# ---------------------------------------------------------------------------
# dataclass wrappers and validation
# ---------------------------------------------------------------------------

def test_scalar_loss_wrapper_roundtrip():
    loss = ScalarLoss("hinge", -2.0)
    assert loss.value(1.0) == 3.0
    assert loss.subgradient(1.0) == 2.0
    assert loss.conjugate_domain() == (0.0, 2.0)
    assert loss.lipschitz == 2.0
    # smoothed at lam = 0.25: t = b z = -2 lies on the linear piece, where
    # the value is f - lam G^2/2 and the derivative is the subgradient
    assert smoothed_value("hinge", 1.0, -2.0, 0.25) == (
        loss.value(1.0) - 0.25 * loss.lipschitz ** 2 / 2) == 2.5
    assert smoothed_deriv("hinge", 1.0, -2.0, 0.25) == loss.subgradient(1.0)
    # f*(beta) = beta/b on the domain, plus lam/2 beta^2
    assert smoothed_conjugate("hinge", 1.0, -2.0, 0.25) == (
        loss.conjugate(1.0) + 0.125) == -0.375


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        loss_value("huber", 0.0, 1.0)
    with pytest.raises(ConfigError):
        ScalarLoss("absolute", 1.0).value(0.0)


def test_brute_force_smoothed_validates_input():
    with pytest.raises(ConfigError):
        brute_force_smoothed(ScalarLoss("hinge", 1.0), 1.0, 0.0, grid_step=0.0)
