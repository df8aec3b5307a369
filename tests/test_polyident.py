"""The symbolic identities, proved on a degree-bounded grid."""

import random
from fractions import Fraction
from inspect import signature
from itertools import product
from math import prod

import pytest

from twistpairs import planecubic
from twistpairs.polyident import (
    counterexample,
    degree_bounds,
    disc_defect,
    point_defect,
    weierstrass_defect,
)

DEFECTS = [weierstrass_defect, point_defect, disc_defect]


def random_rational(rng, span=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, 6))


def model_values(a, b, c, d, x, y):
    """(Y^2, X^3 + A*X + B) for the image (X, Y) of (x, y) and the model's (A, B)."""
    big_x, big_y = planecubic.change_of_variables(a, b, c, d, x, y)
    coeff_a, coeff_b = planecubic.weierstrass_coefficients(a, b, c, d)
    return big_y**2, big_x**3 + coeff_a * big_x + coeff_b


def discriminant(a, b, c, d):
    coeff_a, coeff_b = planecubic.weierstrass_coefficients(a, b, c, d)
    return -4 * coeff_a**3 - 27 * coeff_b**2


class TestIdentities:
    def test_weierstrass_identity(self):
        assert counterexample(weierstrass_defect) is None

    def test_point_identity(self):
        assert counterexample(point_defect) is None

    def test_disc_identity(self):
        assert counterexample(disc_defect) is None

    def test_weierstrass_identity_randomized_on_variety(self):
        # sample the relation variety by solving for b, then compare both
        # sides of the model equation numerically
        rng = random.Random(89)
        for _ in range(220):
            a, c, d, x, y = (random_rational(rng) for _ in range(5))
            b = y**3 + c * y + d - x**3 - a * x
            lhs, rhs = model_values(a, b, c, d, x, y)
            assert lhs == rhs

    def test_disc_identity_randomized(self):
        rng = random.Random(97)
        for _ in range(220):
            a, b, c, d = (random_rational(rng) for _ in range(4))
            closed = (
                108 * a**3 * c**3
                - Fraction(27, 16) * (4 * a**3 + 4 * c**3 + 27 * (b - d) ** 2) ** 2
            )
            assert discriminant(a, b, c, d) == closed
            assert planecubic.smoothness_quantity(a, b, c, d) == closed

    def test_point_identity_spot_checks(self):
        # (a, b, c, d) = (1, 1, 2, 2): substituted at x = y = (b-d)/(c-a) = -1
        one, two = Fraction(1), Fraction(2)
        assert planecubic.change_of_variables(one, one, two, two, -one, -one) == (
            12, Fraction(81, 2)
        )
        # the closed form's numerators over (a-c)^2 = 1 and (a-c)^3 = -1
        assert planecubic.tangent_image_numerators(one, one, two, two) == (
            12, Fraction(-81, 2)
        )

    def test_disc_spot_checks(self):
        assert discriminant(Fraction(1), Fraction(1), Fraction(2), Fraction(2)) == Fraction(
            -93339, 16
        )
        assert discriminant(Fraction(0), Fraction(1), Fraction(0), Fraction(0)) == Fraction(
            -27 * 729, 16
        )

    def test_mutation_detected(self, monkeypatch):
        # flip one coefficient sign in the first transform coordinate: the
        # 3xy term becomes -3xy, and the proof must fail at a printed point
        original = planecubic.change_of_variables

        def mutated(a, b, c, d, x, y):
            big_x, big_y = original(a, b, c, d, x, y)
            return big_x - 6 * x * y, big_y

        monkeypatch.setattr(planecubic, "change_of_variables", mutated)
        point = counterexample(weierstrass_defect)
        assert any(weierstrass_defect(**point))


class TestGrid:
    """The grid check is a proof: its size follows the expression, not a sample."""

    def test_degree_bounds(self):
        assert degree_bounds(weierstrass_defect) == (3, 2, 3, 6, 6)
        assert degree_bounds(point_defect) == (4, 3, 4, 3)
        assert degree_bounds(disc_defect) == (6, 4, 6, 4)

    def test_bounds_follow_the_expression(self):
        def expression(x, y):
            return [(x + y) ** 2 - x * x, 3 * y - Fraction(1, 2)]

        assert degree_bounds(expression) == (2, 2)
        assert degree_bounds(lambda x, y: [-(x**3) * y + 7]) == (3, 1)

    def test_mutation_vanishing_on_the_old_grid_fails(self, monkeypatch):
        # x(x-1)...(x-6) is zero at every x of the unmutated grid 0..6, so a
        # check on that fixed grid would pass; the bounds grow with the term
        bounds = degree_bounds(weierstrass_defect)
        original = planecubic.change_of_variables

        def mutated(a, b, c, d, x, y):
            big_x, big_y = original(a, b, c, d, x, y)
            return big_x + prod(x - root for root in range(7)), big_y

        monkeypatch.setattr(planecubic, "change_of_variables", mutated)
        old_grid = product(*(range(n + 1) for n in bounds))
        assert not any(any(weierstrass_defect(*point)) for point in old_grid)
        assert degree_bounds(weierstrass_defect)[3] == 21
        assert any(weierstrass_defect(**counterexample(weierstrass_defect)))

    @pytest.mark.parametrize("mutated", [
        # equal to the closed form wherever x != 0, but not a polynomial
        lambda big_x, big_y, x: ((big_x * x) / x, big_y),
        # a float constant
        lambda big_x, big_y, x: (big_x, big_y + 0.5 * x - Fraction(1, 2) * x),
        lambda big_x, big_y, x: (big_x * 1.0, big_y),
        # a branch on the variables
        lambda big_x, big_y, x: (big_x if x == x else big_x + 1, big_y),
    ], ids=["division", "float-term", "float-factor", "comparison"])
    def test_non_polynomial_closed_form_raises(self, monkeypatch, mutated):
        original = planecubic.change_of_variables

        def patched(a, b, c, d, x, y):
            return mutated(*original(a, b, c, d, x, y), x)

        monkeypatch.setattr(planecubic, "change_of_variables", patched)
        with pytest.raises(TypeError):
            counterexample(weierstrass_defect)
        with pytest.raises(TypeError):
            counterexample(point_defect)


class TestSympyOracle:
    """Each expression, expanded by sympy, is the zero polynomial."""

    @pytest.mark.parametrize("defect", DEFECTS, ids=lambda f: f.__name__)
    def test_expands_to_zero(self, defect):
        sympy = pytest.importorskip("sympy")
        values = defect(*sympy.symbols(list(signature(defect).parameters)))
        assert [sympy.expand(value) for value in values] == [0] * len(values)
