"""Polynomial ring and the machine-checked symbolic identities."""

import random
from fractions import Fraction

from twistpairs.polyident import (
    MPoly,
    VARIABLES,
    curve_relation,
    divmod_by_relation,
    generators,
    model_coeff_polys,
    reduce_mod_relation,
    transform_polys,
    verify_disc_identity,
    verify_point_identity,
    verify_weierstrass_identity,
    weierstrass_identity_defect,
)

A, B, C, D, X, Y = generators()


def random_poly(rng, max_terms=5, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponents = tuple(rng.randint(0, max_exp) for _ in VARIABLES)
        terms[exponents] = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 4))
    return MPoly(terms)


def random_assignment(rng, span=20):
    return {
        name: Fraction(rng.randint(-span, span), rng.randint(1, 6))
        for name in VARIABLES
    }


class TestRing:
    def test_square_expands(self):
        assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2

    def test_mul_by_zero(self):
        assert (X + A) * MPoly() == MPoly()
        assert MPoly().is_zero

    def test_axioms_randomized(self):
        rng = random.Random(67)
        for _ in range(40):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_evaluation_is_ring_hom(self):
        rng = random.Random(71)
        for _ in range(40):
            p, q = random_poly(rng), random_poly(rng)
            point = random_assignment(rng)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


class TestReduction:
    def test_relation_reduces_to_zero(self):
        assert reduce_mod_relation(curve_relation()).is_zero

    def test_single_rewrite(self):
        assert reduce_mod_relation(X**3) == Y**3 + C * Y + D - A * X - B

    def test_two_step_rewrite(self):
        # x^4 -> x*(y^3 + cy + d - ax - b) -> second pass clears the x^2 term? no:
        # the substituted form already has x-degree 2, so one expansion suffices
        tail = Y**3 + C * Y + D - A * X - B
        assert reduce_mod_relation(X**4) == reduce_mod_relation(X * tail)
        assert reduce_mod_relation(X**4) == X * (Y**3 + C * Y + D - B) - A * X**2

    def test_idempotent_and_linear(self):
        rng = random.Random(79)
        for _ in range(25):
            p, q = random_poly(rng), random_poly(rng)
            rp = reduce_mod_relation(p)
            assert reduce_mod_relation(rp) == rp
            assert rp.degree_in("x") <= 2
            scalar = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert reduce_mod_relation(p + q * scalar) == rp + reduce_mod_relation(q) * scalar

    def test_division_reconstructs(self):
        rng = random.Random(83)
        relation = curve_relation()
        for _ in range(25):
            p = random_poly(rng, max_exp=4)
            quotient, remainder = divmod_by_relation(p)
            assert quotient * relation + remainder == p


class TestIdentities:
    def test_weierstrass_identity(self):
        assert verify_weierstrass_identity()
        assert weierstrass_identity_defect().is_zero

    def test_point_identity(self):
        assert verify_point_identity()

    def test_disc_identity(self):
        assert verify_disc_identity()

    def test_weierstrass_identity_randomized_on_variety(self):
        # sample the relation variety by solving for b, then compare both
        # sides of the model equation numerically
        rng = random.Random(89)
        big_x, big_y = transform_polys()
        coeff_a, coeff_b = model_coeff_polys()
        for _ in range(220):
            point = random_assignment(rng, span=12)
            point["b"] = (
                point["y"] ** 3 + point["c"] * point["y"] + point["d"]
                - point["x"] ** 3 - point["a"] * point["x"]
            )
            lhs = big_y.evaluate(point) ** 2
            rhs = (
                big_x.evaluate(point) ** 3
                + coeff_a.evaluate(point) * big_x.evaluate(point)
                + coeff_b.evaluate(point)
            )
            assert lhs == rhs

    def test_disc_identity_randomized(self):
        rng = random.Random(97)
        coeff_a, coeff_b = model_coeff_polys()
        for _ in range(220):
            point = random_assignment(rng, span=12)
            p_val, q_val = coeff_a.evaluate(point), coeff_b.evaluate(point)
            closed = (
                108 * point["a"] ** 3 * point["c"] ** 3
                - Fraction(27, 16)
                * (4 * point["a"] ** 3 + 4 * point["c"] ** 3 + 27 * (point["b"] - point["d"]) ** 2) ** 2
            )
            assert -4 * p_val**3 - 27 * q_val**2 == closed

    def test_point_identity_spot_checks(self):
        big_x, big_y = transform_polys()
        # (a, b, c, d) = (1, 1, 2, 2): substituted at x = y = (b-d)/(c-a) = -1
        point = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(2), "d": Fraction(2),
                 "x": Fraction(-1), "y": Fraction(-1)}
        assert big_x.evaluate(point) == 12
        assert big_y.evaluate(point) == Fraction(81, 2)

    def test_disc_spot_checks(self):
        coeff_a, coeff_b = model_coeff_polys()
        point = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(2), "d": Fraction(2),
                 "x": Fraction(0), "y": Fraction(0)}
        p_val, q_val = coeff_a.evaluate(point), coeff_b.evaluate(point)
        assert -4 * p_val**3 - 27 * q_val**2 == Fraction(-93339, 16)
        point.update({"a": Fraction(0), "c": Fraction(0), "b": Fraction(1), "d": Fraction(0)})
        p_val, q_val = coeff_a.evaluate(point), coeff_b.evaluate(point)
        assert -4 * p_val**3 - 27 * q_val**2 == Fraction(-27 * 729, 16)

    def test_mutation_detected(self):
        # flip one coefficient sign in the first transform coordinate and the
        # reduced defect must become nonzero
        big_x, big_y = transform_polys()
        coeff_a, coeff_b = model_coeff_polys()
        mutated = big_x - 6 * X * Y  # 3xy term becomes -3xy
        defect = big_y * big_y - (mutated**3 + coeff_a * mutated + coeff_b)
        assert not reduce_mod_relation(defect).is_zero
