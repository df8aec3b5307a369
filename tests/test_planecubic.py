"""Plane cubic: construction, chord-tangent law, Weierstrass crossing."""

import random
from fractions import Fraction

import pytest

from twistpairs.exactnum import is_perfect_square
from twistpairs.planecubic import (
    BASE_POINT,
    PlaneCubic,
    ProjPoint,
    smoothness_quantity,
    tangent_image_numerators,
)
from twistpairs.weierstrass import WPoint, certify_nontorsion

#: The worked pair: x^3 + x + 1 = y^3 + 2y + 2, tangent point (-1, -1).
WORKED = PlaneCubic(1, 1, 2, 2)


def affine(x, y):
    return ProjPoint(Fraction(x), Fraction(y), Fraction(1))


def tangent_image(cubic):
    """The tangent point's Weierstrass image, from its closed-form numerators."""
    x_num, y_num = tangent_image_numerators(cubic.a, cubic.b, cubic.c, cubic.d)
    return WPoint(x_num / (cubic.a - cubic.c) ** 2, y_num / (cubic.a - cubic.c) ** 3)


class TestConstruction:
    def test_worked_pair_smoothness(self):
        # 108*8 - 27*(4 + 32 + 27)^2/16 = 864 - 27*3969/16
        assert smoothness_quantity(1, 1, 2, 2) == Fraction(-93339, 16)
        PlaneCubic(1, 1, 2, 2)

    def test_identical_j_zero_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            PlaneCubic(0, 1, 0, 1)

    def test_j_zero_distinct_ok(self):
        assert smoothness_quantity(0, 1, 0, 2) == Fraction(-27 * 729, 16)
        PlaneCubic(0, 1, 0, 2)


class TestProjPoint:
    def test_affine_normalization(self):
        assert ProjPoint(Fraction(-2), Fraction(4), Fraction(2)) == affine(-1, 2)

    def test_infinite_normalization(self):
        assert ProjPoint(Fraction(-3), Fraction(-3), Fraction(0)) == BASE_POINT

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint(Fraction(0), Fraction(0), Fraction(0))

    def test_affine_coords(self):
        assert affine(2, 3).affine() == (2, 3)
        with pytest.raises(ValueError):
            BASE_POINT.affine()


class TestNamedPoints:
    def test_base_point_on_every_cubic(self):
        assert WORKED.contains(BASE_POINT)
        assert PlaneCubic(0, 1, 0, 2).contains(BASE_POINT)

    def test_non_members(self):
        assert not WORKED.contains(ProjPoint(Fraction(1), Fraction(0), Fraction(0)))

    def test_tangent_point_worked(self):
        point = WORKED.tangent_point()
        assert point == affine(-1, -1)
        assert WORKED.contains(point)

    def test_tangent_point_needs_distinct_leading(self):
        with pytest.raises(ValueError):
            PlaneCubic(0, 1, 0, 2).tangent_point()

    def test_tangent_point_equal_constants(self):
        # b == d puts the tangent point at the affine origin
        cubic = PlaneCubic(1, 5, 2, 5)
        assert cubic.tangent_point() == affine(0, 0)


class TestThirdIntersection:
    def test_tangent_at_base_gives_tangent_point(self):
        assert WORKED.third_intersection(BASE_POINT, BASE_POINT) == WORKED.tangent_point()

    def test_inflection_base_for_j_zero(self):
        cubic = PlaneCubic(0, 1, 0, 2)
        assert cubic.third_intersection(BASE_POINT, BASE_POINT) == BASE_POINT

    def test_collinearity(self):
        seed = WORKED.tangent_point()
        points = [WORKED.scalar_mul(k, seed) for k in range(1, 5)]
        for p in points:
            for q in points:
                t = WORKED.third_intersection(p, q)
                assert WORKED.contains(t)
                assert WORKED.third_intersection(p, t) == q

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            WORKED.third_intersection(affine(0, 0), BASE_POINT)


class TestGroupLaw:
    def test_identity(self):
        seed = WORKED.tangent_point()
        assert WORKED.add(seed, BASE_POINT) == seed
        assert WORKED.add(BASE_POINT, seed) == seed

    def test_inverse(self):
        seed = WORKED.tangent_point()
        assert WORKED.add(seed, WORKED.negate(seed)) == BASE_POINT

    def test_double_satisfies_relation(self):
        double = WORKED.scalar_mul(2, WORKED.tangent_point())
        x, y = double.affine()
        assert x**3 + x + 1 == y**3 + 2 * y + 2

    def test_scalar_mul_signs(self):
        seed = WORKED.tangent_point()
        assert WORKED.scalar_mul(0, seed) == BASE_POINT
        assert WORKED.scalar_mul(-3, seed) == WORKED.negate(WORKED.scalar_mul(3, seed))

    def test_scalar_matches_repeated_addition(self):
        seed = WORKED.tangent_point()
        current = seed
        for k in range(2, 7):
            current = WORKED.add(current, seed)
            assert WORKED.scalar_mul(k, seed) == current

    def test_axioms_on_random_multiples(self):
        rng = random.Random(59)
        seed = WORKED.tangent_point()
        multiples = [WORKED.scalar_mul(k, seed) for k in (-3, -2, -1, 1, 2, 3)]
        for _ in range(25):
            p, q, r = (rng.choice(multiples) for _ in range(3))
            assert WORKED.add(p, q) == WORKED.add(q, p)
            assert WORKED.add(WORKED.add(p, q), r) == WORKED.add(p, WORKED.add(q, r))


class TestNonTorsionOnCubic:
    def test_worked_seed_certified(self):
        seed = WORKED.tangent_point()
        witness = WORKED.certify_nontorsion(seed)
        assert witness is not None
        assert [order for order, _ in witness] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
        assert all(point != BASE_POINT for _, point in witness)
        # the chain agrees with double-and-add, and the change of variables,
        # a group isomorphism, carries it onto the Weierstrass witness
        image_witness = certify_nontorsion(
            WORKED.to_weierstrass(), WORKED.transform_point(seed)
        )
        image_multiples = dict(image_witness)
        for order, multiple in witness:
            assert WORKED.scalar_mul(order, seed) == multiple
            assert WORKED.transform_point(multiple) == image_multiples[order]

    def test_two_torsion_detected(self):
        # b == d forces the tangent point's image onto the x-axis of the
        # Weierstrass model, so it has order 2
        cubic = PlaneCubic(1, 5, 2, 5)
        assert cubic.certify_nontorsion(cubic.tangent_point()) is None

    def test_base_point_rejected(self):
        with pytest.raises(ValueError):
            WORKED.certify_nontorsion(BASE_POINT)


class TestWeierstrassCrossing:
    @pytest.mark.parametrize("coeffs,expected", [
        ((1, 1, 2, 2), (Fraction(-6), Fraction(-63, 4))),
        ((0, 1, 0, 2), (Fraction(0), Fraction(-27, 4))),
        ((1, 0, -1, 0), (Fraction(3), Fraction(0))),
    ])
    def test_to_weierstrass(self, coeffs, expected):
        model = PlaneCubic(*coeffs).to_weierstrass()
        assert (model.a, model.b) == expected

    def test_transform_worked_seed(self):
        assert WORKED.transform_point(affine(-1, -1)) == WPoint(Fraction(12), Fraction(81, 2))

    def test_transform_rejects_infinite(self):
        with pytest.raises(ValueError):
            WORKED.transform_point(BASE_POINT)

    def test_transform_lands_on_model(self):
        model = WORKED.to_weierstrass()
        seed = WORKED.tangent_point()
        for k in range(1, 7):
            image = WORKED.transform_point(WORKED.scalar_mul(k, seed))
            assert model.contains(image)

    def test_tangent_point_image_closed_form(self):
        assert tangent_image(WORKED) == WPoint(Fraction(12), Fraction(81, 2))
        # b == d: first coordinate collapses to a + c, second to 0
        assert tangent_image(PlaneCubic(1, 5, 2, 5)) == WPoint(Fraction(3), Fraction(0))

    def test_transform_matches_closed_form_randomized(self):
        rng = random.Random(61)
        found = 0
        while found < 25:
            a, b, c, d = (Fraction(rng.randint(-6, 6)) for _ in range(4))
            if a == c or smoothness_quantity(a, b, c, d) == 0:
                continue
            cubic = PlaneCubic(a, b, c, d)
            assert cubic.transform_point(cubic.tangent_point()) == tangent_image(cubic)
            found += 1


class TestCommonValue:
    def test_worked_examples(self):
        assert WORKED.common_value(affine(-1, -1)) == -1
        assert PlaneCubic(1, 5, 2, 5).common_value(affine(0, 0)) == 5

    def test_matches_both_sides_along_multiples(self):
        seed = WORKED.tangent_point()
        for k in range(1, 8):
            point = WORKED.scalar_mul(k, seed)
            x, y = point.affine()
            value = WORKED.common_value(point)
            assert value == x**3 + x + 1 == y**3 + 2 * y + 2


class TestInfinitySlice:
    def test_only_one_rational_point_at_infinity(self):
        # z = 0 slice is x^3 = y^3; over Q the only projective root is x = y
        # ([1:1:0]) because t^2 + t + 1 has discriminant -3, not a square
        assert is_perfect_square(Fraction(-3)) is None
        for t in (Fraction(1), Fraction(-1), Fraction(2)):
            if t != 1:
                assert t**3 != 1
        candidates = [ProjPoint(Fraction(1), Fraction(t), Fraction(0)) for t in (1, -1, 2)]
        on_curve = [p for p in candidates if WORKED.contains(p)]
        assert on_curve == [BASE_POINT]


def _general_cubics(seed, count):
    """Glued cubics of random pairs, rescaled as the lambda search does."""
    rng = random.Random(seed)
    cubics = []
    while len(cubics) < count:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        scale = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
        c, d = scale**4 * c, scale**6 * d
        if a != c and smoothness_quantity(a, b, c, d) != 0:
            cubics.append(PlaneCubic(a, b, c, d))
    return cubics


def _jzero_cubics():
    """Cubics of the jzero route (a == c == 0), each with its recipe seed."""
    out = []
    for prime, (b, d) in ((5, (1, 2)), (7, (1, -3)), (11, (-2, 5))):
        scale = Fraction((prime + 1) ** 3 - 1, d - b)
        out.append((PlaneCubic(0, scale * b, 0, scale * d), affine(prime + 1, 1)))
    return out


TWO_TORSION = PlaneCubic(1, 5, 2, 5)

DIFFERENTIAL_CASES = (
    [(cubic, cubic.tangent_point()) for cubic in _general_cubics(67, 8)]
    + [(TWO_TORSION, TWO_TORSION.tangent_point())]
    + _jzero_cubics()
)


class TestIntegerLawDifferential:
    """The integer group law against the Weierstrass law and itself."""

    @pytest.mark.parametrize("cubic, seed", DIFFERENTIAL_CASES)
    def test_transform_is_a_homomorphism(self, cubic, seed):
        model = cubic.to_weierstrass()
        multiples = [seed]
        for _ in range(5):
            multiples.append(cubic.add(multiples[-1], seed))
        for i, first in enumerate(multiples):
            for second in multiples[i:]:
                if first.is_infinite or second.is_infinite:
                    continue
                total = cubic.add(first, second)
                expected = model.add(cubic.transform_point(first), cubic.transform_point(second))
                if total.is_infinite:
                    assert total == BASE_POINT and expected.is_infinity
                else:
                    assert cubic.transform_point(total) == expected
            if not first.is_infinite:
                negative = cubic.negate(first)
                assert cubic.transform_point(negative) == model.negate(cubic.transform_point(first))

    @pytest.mark.parametrize("cubic, seed", DIFFERENTIAL_CASES)
    def test_witness_matches_repeated_addition(self, cubic, seed):
        chain = {1: seed}
        for n in range(2, 13):
            chain[n] = cubic.add(chain[n - 1], seed)
        witness = cubic.certify_nontorsion(seed)
        orders = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
        if witness is None:
            assert any(chain[n] == BASE_POINT for n in orders)
        else:
            assert witness == tuple((n, chain[n]) for n in orders)

    def test_line_through_base_tangent_at_base(self):
        # the tangent point is the only affine point with x == y; the line
        # through it and [1:1:0] is x == y, tangent to the curve at [1:1:0]
        seed = WORKED.tangent_point()
        assert seed.x == seed.y
        assert WORKED.third_intersection(BASE_POINT, seed) == BASE_POINT
        assert WORKED.third_intersection(seed, BASE_POINT) == BASE_POINT
        assert WORKED.add(seed, WORKED.negate(seed)) == BASE_POINT
        double = WORKED.add(seed, seed)
        assert WORKED.add(double, WORKED.negate(seed)) == seed

    @pytest.mark.parametrize("cubic, seed", DIFFERENTIAL_CASES[:2] + DIFFERENTIAL_CASES[-2:])
    def test_base_point_is_the_identity(self, cubic, seed):
        assert cubic.add(seed, BASE_POINT) == seed
        assert cubic.add(BASE_POINT, seed) == seed
        assert cubic.add(BASE_POINT, BASE_POINT) == BASE_POINT
        assert cubic.negate(BASE_POINT) == BASE_POINT

    def test_tangent_at_base(self):
        assert WORKED.third_intersection(BASE_POINT, BASE_POINT) == affine(-1, -1)
        # a == c: [1:1:0] is a flex, so its tangent meets the curve nowhere else
        cubic, seed = _jzero_cubics()[0]
        assert cubic.third_intersection(BASE_POINT, BASE_POINT) == BASE_POINT
        assert cubic.add(seed, cubic.negate(seed)) == BASE_POINT
        assert cubic.negate(cubic.negate(seed)) == seed

    def test_canonical_integer_triples(self):
        point = ProjPoint(Fraction(-2, 3), Fraction(4, 9), Fraction(-1, 6))
        assert point.coords == (12, -8, 3)
        assert (point.x, point.y, point.z) == (Fraction(4), Fraction(-8, 3), Fraction(1))
        assert ProjPoint(Fraction(-3), Fraction(-3), Fraction(0)).coords == (1, 1, 0)
        assert ProjPoint(Fraction(0), Fraction(-2), Fraction(0)).coords == (0, 1, 0)
        assert repr(WORKED.tangent_point()) == "[-1:-1:1]"

    def test_off_curve_inputs_rejected(self):
        seed = WORKED.tangent_point()
        off = affine(1, 1)
        for operation in (WORKED.add, WORKED.third_intersection):
            with pytest.raises(ValueError, match="not on"):
                operation(seed, off)
            with pytest.raises(ValueError, match="not on"):
                operation(off, off)
        with pytest.raises(ValueError, match="not on"):
            WORKED.certify_nontorsion(off)
