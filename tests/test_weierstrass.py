"""Curve model, group law, twists, torsion certification, isomorphism."""

import random
from fractions import Fraction

import pytest

from twistpairs.weierstrass import (
    INFINITY,
    RATIONAL_TORSION_ORDERS,
    Curve,
    WPoint,
    are_isomorphic_over_q,
    certify_nontorsion,
    disc_quantity,
    quadratic_twist,
)

#: y^2 = x^3 + 1 carries the order-6 point (2, 3); multiples by hand:
#: 2P = (0, 1) (tangent slope 2), 3P = (-1, 0), 5P = (2, -3), 6P = infinity.
MORDELL = Curve(0, 1)
ORDER_SIX = WPoint(Fraction(2), Fraction(3))

#: y^2 = x^3 - 6x - 63/4 and the point (12, 81/2); its model scaled by 2 is
#: y^2 = x^3 - 96x - 1008 with image (48, 324), where 324^2 = 104976 does not
#: divide the discriminant -382316544 and the double (10672/729, ...) is not
#: integral, so the point is non-torsion by the integrality of torsion points.
WORKED_MODEL = Curve(Fraction(-6), Fraction(-63, 4))
WORKED_POINT = WPoint(Fraction(12), Fraction(81, 2))


class TestCurveBasics:
    def test_disc_quantity(self):
        assert disc_quantity(1, 1) == 31
        assert disc_quantity(-1, 0) == -4
        assert disc_quantity(0, 0) == 0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Curve(0, 0)
        with pytest.raises(ValueError):
            Curve(-3, 2)  # 4*(-27) + 27*4 = 0

    @pytest.mark.parametrize("a,b,expected", [(0, 5, True), (1, 1, False), (0, -2, True)])
    def test_has_j_zero(self, a, b, expected):
        assert Curve(a, b).has_j_zero is expected

    def test_equal_by_coefficients(self):
        assert Curve(1, 1) == Curve(Fraction(1), 1)
        assert hash(Curve(1, 1)) == hash(Curve(Fraction(1), 1))
        assert Curve(1, 1) != Curve(1, 2)
        assert Curve(1, 1) != (Fraction(1), Fraction(1))
        assert repr(Curve(1, 1)) == "Curve(Fraction(1, 1), Fraction(1, 1))"

    def test_membership(self):
        assert MORDELL.contains(ORDER_SIX)
        assert MORDELL.contains(INFINITY)
        assert not MORDELL.contains(WPoint(Fraction(1), Fraction(1)))


class TestGroupLaw:
    def test_identity(self):
        assert MORDELL.add(ORDER_SIX, INFINITY) == ORDER_SIX
        assert MORDELL.add(INFINITY, ORDER_SIX) == ORDER_SIX

    def test_inverse_pair(self):
        assert MORDELL.add(ORDER_SIX, MORDELL.negate(ORDER_SIX)) == INFINITY

    def test_doubling(self):
        assert MORDELL.add(ORDER_SIX, ORDER_SIX) == WPoint(Fraction(0), Fraction(1))

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            MORDELL.add(WPoint(Fraction(1), Fraction(1)), ORDER_SIX)

    @pytest.mark.parametrize("k,expected", [
        (1, ORDER_SIX),
        (2, WPoint(Fraction(0), Fraction(1))),
        (3, WPoint(Fraction(-1), Fraction(0))),
        (5, WPoint(Fraction(2), Fraction(-3))),
        (6, INFINITY),
        (0, INFINITY),
        (-1, WPoint(Fraction(2), Fraction(-3))),
    ])
    def test_scalar_mul_order_six(self, k, expected):
        assert MORDELL.scalar_mul(k, ORDER_SIX) == expected

    def test_group_axioms_on_multiples(self):
        rng = random.Random(41)
        multiples = [WORKED_MODEL.scalar_mul(k, WORKED_POINT) for k in range(-4, 5)]
        for _ in range(40):
            p, q, r = (rng.choice(multiples) for _ in range(3))
            assert WORKED_MODEL.add(p, q) == WORKED_MODEL.add(q, p)
            assert WORKED_MODEL.add(WORKED_MODEL.add(p, q), r) == WORKED_MODEL.add(
                p, WORKED_MODEL.add(q, r)
            )
            assert WORKED_MODEL.add(p, WORKED_MODEL.negate(p)) == INFINITY

    def test_scalar_mul_composes(self):
        cached = {k: WORKED_MODEL.scalar_mul(k, WORKED_POINT) for k in range(-64, 65)}
        rng = random.Random(43)
        pairs = [(n, m) for n in range(-8, 9) for m in range(-8, 9)]
        for n, m in rng.sample(pairs, 60):
            assert WORKED_MODEL.scalar_mul(n, cached[m]) == cached[n * m]


def _rescaled(point, u):
    """(u^2*x, u^3*y), the point's image on the twist by u^2 (the model rescaled by u)."""
    if point.is_infinity:
        return INFINITY
    return WPoint(u**2 * point.x, u**3 * point.y)


class TestScaleModel:
    """A rescaling by u is the quadratic twist by u^2."""

    def test_examples(self):
        for curve, u, expected in [
            (Curve(1, 1), Fraction(2), (16, 64)),
            (Curve(1, 1), Fraction(1), (1, 1)),
            (Curve(1, 0), Fraction(3), (81, 0)),
        ]:
            scaled = quadratic_twist(curve, u * u)
            assert (scaled.a, scaled.b) == expected

    def test_zero_rejected(self):
        u = Fraction(0)
        with pytest.raises(ValueError):
            quadratic_twist(Curve(1, 1), u * u)

    def test_map_is_group_isomorphism(self):
        u = Fraction(2, 3)
        scaled = quadratic_twist(WORKED_MODEL, u * u)
        assert _rescaled(INFINITY, u) == INFINITY
        multiples = [WORKED_MODEL.scalar_mul(k, WORKED_POINT) for k in range(1, 6)]
        for p in multiples:
            assert scaled.contains(_rescaled(p, u))
            for q in multiples:
                assert _rescaled(WORKED_MODEL.add(p, q), u) == scaled.add(
                    _rescaled(p, u), _rescaled(q, u)
                )


class TestQuadraticTwist:
    def test_model(self):
        twisted = quadratic_twist(Curve(1, 1), Fraction(-1))
        assert (twisted.a, twisted.b) == (1, -1)
        twisted = quadratic_twist(Curve(1, 1), Fraction(1))
        assert (twisted.a, twisted.b) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            quadratic_twist(Curve(1, 1), Fraction(0))

    def test_solution_map(self):
        # (-1, 1) solves -1 * t^2 = x^3 + x + 1, so (D*x, D^2*t) = (1, 1) lies
        # on y^2 = x^3 + x - 1
        twisted = quadratic_twist(Curve(1, 1), Fraction(-1))
        assert twisted.contains(WPoint(Fraction(1), Fraction(1)))

    def test_bad_solution_rejected(self):
        # (2, 1) does not solve -1 * t^2 = x^3 + x + 1: its point (-2, 1) is
        # off the twist model, and the non-torsion chain refuses it
        twisted = quadratic_twist(Curve(1, 1), Fraction(-1))
        with pytest.raises(ValueError, match="is not on"):
            certify_nontorsion(twisted, WPoint(Fraction(-2), Fraction(1)))

    def test_map_lands_on_twist(self):
        rng = random.Random(47)
        for _ in range(50):
            curve = _random_curve(rng)
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
            value = curve.rhs(x)
            if value == 0:
                continue
            twisted = quadratic_twist(curve, value)
            assert twisted.contains(WPoint(value * x, value * value))


def _random_curve(rng):
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if disc_quantity(a, b) != 0:
            return Curve(a, b)


class TestNonTorsionCertificate:
    def test_order_six_rejected(self):
        assert certify_nontorsion(MORDELL, ORDER_SIX) is False

    def test_order_two_rejected(self):
        assert certify_nontorsion(MORDELL, WPoint(Fraction(-1), Fraction(0))) is False

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            certify_nontorsion(MORDELL, INFINITY)

    def test_worked_point_witness(self):
        # independent justification: see the module-level note on the scaled
        # integral model, frozen here
        u = Fraction(2)
        scaled = quadratic_twist(WORKED_MODEL, u * u)
        image = _rescaled(WORKED_POINT, u)
        assert (scaled.a, scaled.b) == (-96, -1008)
        assert image == WPoint(Fraction(48), Fraction(324))
        disc = -16 * disc_quantity(scaled.a, scaled.b)
        assert disc == -382316544
        assert int(disc) % (324**2) != 0
        double = scaled.scalar_mul(2, image)
        assert double.x.denominator != 1

        assert certify_nontorsion(WORKED_MODEL, WORKED_POINT) is True

    def test_matches_brute_force_on_known_torsion(self):
        # every small rational point of y^2 = x^3 + 1 is torsion
        for point in [
            WPoint(Fraction(2), Fraction(3)),
            WPoint(Fraction(2), Fraction(-3)),
            WPoint(Fraction(0), Fraction(1)),
            WPoint(Fraction(0), Fraction(-1)),
            WPoint(Fraction(-1), Fraction(0)),
        ]:
            order = _brute_force_order(MORDELL, point, 13)
            assert order is not None
            assert certify_nontorsion(MORDELL, point) is False

    def test_witness_multiples_match_scalar_mul(self):
        # the test against double-and-add at every checked order, on torsion
        # and non-torsion points of both curves
        for curve, point in [
            (WORKED_MODEL, WORKED_POINT),
            (MORDELL, ORDER_SIX),
            (MORDELL, WPoint(Fraction(-1), Fraction(0))),
        ]:
            expected = all(
                not curve.scalar_mul(n, point).is_infinity for n in RATIONAL_TORSION_ORDERS
            )
            assert certify_nontorsion(curve, point) is expected


def _brute_force_order(curve, point, bound):
    current = point
    for n in range(2, bound + 1):
        current = curve.add(current, point)
        if current == INFINITY:
            return n
    return None


class TestIsomorphism:
    def test_examples(self):
        assert are_isomorphic_over_q(Curve(1, 1), Curve(16, 64)) == 2
        assert are_isomorphic_over_q(Curve(1, 1), Curve(2, 2)) is None
        assert are_isomorphic_over_q(Curve(1, 1), Curve(1, 1)) == 1

    def test_j_zero_cases(self):
        assert are_isomorphic_over_q(Curve(0, 1), Curve(0, 64)) == 2
        assert are_isomorphic_over_q(Curve(0, 1), Curve(0, 2)) is None
        assert are_isomorphic_over_q(Curve(0, 1), Curve(0, -1)) is None
        assert are_isomorphic_over_q(Curve(0, 64), Curve(0, 1)) == Fraction(1, 2)

    def test_b_zero_cases(self):
        assert are_isomorphic_over_q(Curve(1, 0), Curve(16, 0)) == 2
        assert are_isomorphic_over_q(Curve(1, 0), Curve(2, 0)) is None
        # a negative square twist of a b=0 curve is the same curve
        assert are_isomorphic_over_q(Curve(1, 0), Curve(1, 0)) == 1

    def test_mixed_zero_patterns(self):
        assert are_isomorphic_over_q(Curve(0, 1), Curve(1, 1)) is None
        assert are_isomorphic_over_q(Curve(1, 0), Curve(1, 1)) is None

    def test_round_trip_with_scale_model(self):
        rng = random.Random(53)
        for _ in range(40):
            curve = _random_curve(rng)
            u = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            scaled = quadratic_twist(curve, u * u)
            recovered = are_isomorphic_over_q(curve, scaled)
            assert recovered is not None
            assert recovered**4 * curve.a == scaled.a
            assert recovered**6 * curve.b == scaled.b
