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
    scale_model,
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


class TestScaleModel:
    def test_examples(self):
        scaled, _ = scale_model(Curve(1, 1), Fraction(2))
        assert (scaled.a, scaled.b) == (16, 64)
        scaled, point_map = scale_model(Curve(1, 1), Fraction(1))
        assert (scaled.a, scaled.b) == (1, 1)
        scaled, _ = scale_model(Curve(1, 0), Fraction(3))
        assert (scaled.a, scaled.b) == (81, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scale_model(Curve(1, 1), Fraction(0))

    def test_map_is_group_isomorphism(self):
        scaled, point_map = scale_model(WORKED_MODEL, Fraction(2, 3))
        assert point_map(INFINITY) == INFINITY
        multiples = [WORKED_MODEL.scalar_mul(k, WORKED_POINT) for k in range(1, 6)]
        for p in multiples:
            assert scaled.contains(point_map(p))
            for q in multiples:
                assert point_map(WORKED_MODEL.add(p, q)) == scaled.add(
                    point_map(p), point_map(q)
                )


class TestQuadraticTwist:
    def test_model(self):
        twisted, _ = quadratic_twist(Curve(1, 1), Fraction(-1))
        assert (twisted.a, twisted.b) == (1, -1)
        twisted, _ = quadratic_twist(Curve(1, 1), Fraction(1))
        assert (twisted.a, twisted.b) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            quadratic_twist(Curve(1, 1), Fraction(0))

    def test_solution_map(self):
        # (-1, 1) solves -1 * t^2 = x^3 + x + 1 and lands on y^2 = x^3 + x - 1
        twisted, to_twist = quadratic_twist(Curve(1, 1), Fraction(-1))
        point = to_twist(Fraction(-1), Fraction(1))
        assert point == WPoint(Fraction(1), Fraction(1))
        assert twisted.contains(point)

    def test_bad_solution_rejected(self):
        _, to_twist = quadratic_twist(Curve(1, 1), Fraction(-1))
        with pytest.raises(ValueError):
            to_twist(Fraction(2), Fraction(1))

    def test_map_lands_on_twist(self):
        rng = random.Random(47)
        for _ in range(50):
            curve = _random_curve(rng)
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
            value = curve.rhs(x)
            if value == 0:
                continue
            twisted, to_twist = quadratic_twist(curve, value)
            assert twisted.contains(to_twist(x, Fraction(1)))


def _random_curve(rng):
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if disc_quantity(a, b) != 0:
            return Curve(a, b)


class TestNonTorsionCertificate:
    def test_order_six_rejected(self):
        assert certify_nontorsion(MORDELL, ORDER_SIX) is None

    def test_order_two_rejected(self):
        assert certify_nontorsion(MORDELL, WPoint(Fraction(-1), Fraction(0))) is None

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            certify_nontorsion(MORDELL, INFINITY)

    def test_worked_point_witness(self):
        # independent justification: see the module-level note on the scaled
        # integral model, frozen here
        scaled, point_map = scale_model(WORKED_MODEL, Fraction(2))
        image = point_map(WORKED_POINT)
        assert (scaled.a, scaled.b) == (-96, -1008)
        assert image == WPoint(Fraction(48), Fraction(324))
        disc = -16 * disc_quantity(scaled.a, scaled.b)
        assert disc == -382316544
        assert int(disc) % (324**2) != 0
        double = scaled.scalar_mul(2, image)
        assert double.x.denominator != 1

        witness = certify_nontorsion(WORKED_MODEL, WORKED_POINT)
        assert witness is not None
        assert tuple(order for order, _ in witness) == RATIONAL_TORSION_ORDERS
        assert len(witness) == len(RATIONAL_TORSION_ORDERS)
        assert all(not pt.is_infinity for _, pt in witness)

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
            assert certify_nontorsion(MORDELL, point) is None

    def test_witness_multiples_match_scalar_mul(self):
        witness = certify_nontorsion(WORKED_MODEL, WORKED_POINT)
        for order, recorded in witness:
            assert WORKED_MODEL.scalar_mul(order, WORKED_POINT) == recorded


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
            scaled, _ = scale_model(curve, u)
            recovered = are_isomorphic_over_q(curve, scaled)
            assert recovered is not None
            assert recovered**4 * curve.a == scaled.a
            assert recovered**6 * curve.b == scaled.b
