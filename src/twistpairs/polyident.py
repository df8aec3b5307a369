"""Sparse multivariate polynomials over Q and the symbolic identity suite.

The change of variables from the plane cubic to its Weierstrass model, the
closed form of the tangent point's image, and the discriminant formula are
all machine-generated identities.  This module proves them exactly, on the
very functions of ``planecubic`` that the generator runs (looked up through
that module and evaluated on polynomials): the polynomial ring
Q[a, b, c, d, x, y] is implemented directly (dict from exponent vectors to
nonzero rational coefficients) and each identity is checked by exact
expansion, with reduction modulo the curve relation

    x^3 + a*x + b - y^3 - c*y - d

where the identity only holds on the curve.  The relation is monic of
degree 3 in x, so rewriting x^3 repeatedly is a well-defined normal form;
no general ideal machinery is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from . import planecubic

VARIABLES = ("a", "b", "c", "d", "x", "y")
_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXP = (0,) * len(VARIABLES)


class MPoly:
    """Polynomial in Q[a, b, c, d, x, y] with exact coefficients.

    Terms map exponent tuples (one slot per variable, fixed order) to
    nonzero Fractions.  Instances are immutable in use: no method mutates
    the term dict after construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[tuple[int, ...], Fraction]] = None):
        cleaned: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exponents, coefficient in terms.items():
                coefficient = Fraction(coefficient)
                if coefficient != 0:
                    cleaned[tuple(exponents)] = coefficient
        self._terms = cleaned

    # -------------------------------------------------------- constructors

    @classmethod
    def constant(cls, value) -> "MPoly":
        return cls({_ZERO_EXP: Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        exponents = [0] * len(VARIABLES)
        exponents[_INDEX[name]] = 1
        return cls({tuple(exponents): Fraction(1)})

    # ------------------------------------------------------------- queries

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def degree_in(self, name: str) -> int:
        idx = _INDEX[name]
        return max((e[idx] for e in self._terms), default=0)

    def coefficients_in(self, name: str) -> dict[int, "MPoly"]:
        """Split into {degree: coefficient} along one variable."""
        idx = _INDEX[name]
        buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exponents, coefficient in self._terms.items():
            degree = exponents[idx]
            stripped = list(exponents)
            stripped[idx] = 0
            buckets.setdefault(degree, {})[tuple(stripped)] = coefficient
        return {degree: MPoly(t) for degree, t in buckets.items()}

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in VARIABLES if v not in assignment and self.degree_in(v)]
        if missing:
            raise ValueError(f"no value for variable(s) {missing}")
        total = Fraction(0)
        for exponents, coefficient in self._terms.items():
            term = coefficient
            for name, power in zip(VARIABLES, exponents):
                if power:
                    term *= Fraction(assignment[name]) ** power
            total += term
        return total

    # ---------------------------------------------------------------- ring

    def __add__(self, other) -> "MPoly":
        other = _coerce(other)
        combined = dict(self._terms)
        for exponents, coefficient in other._terms.items():
            combined[exponents] = combined.get(exponents, Fraction(0)) + coefficient
        return MPoly(combined)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        other = _coerce(other)
        product: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                product[key] = product.get(key, Fraction(0)) + c1 * c2
        return MPoly(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers")
        result = MPoly.constant(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, (MPoly, int, Fraction)):
            return NotImplemented
        return self._terms == _coerce(other)._terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for exponents, coefficient in sorted(self._terms.items(), reverse=True):
            monomial = "*".join(
                f"{v}^{p}" if p > 1 else v
                for v, p in zip(VARIABLES, exponents)
                if p
            )
            pieces.append(f"{coefficient}" + (f"*{monomial}" if monomial else ""))
        return " + ".join(pieces)


def _coerce(value) -> MPoly:
    if isinstance(value, MPoly):
        return value
    return MPoly.constant(value)


def generators() -> tuple[MPoly, ...]:
    """The six variables as polynomials, in fixed order a, b, c, d, x, y."""
    return tuple(MPoly.variable(name) for name in VARIABLES)


def curve_relation() -> MPoly:
    """x^3 + a*x + b - y^3 - c*y - d, the defining relation of the cubic."""
    a, b, c, d, x, y = generators()
    return x**3 + a * x + b - y**3 - c * y - d


def transform_polys() -> tuple[MPoly, MPoly]:
    """The change of variables onto the Weierstrass model, as polynomials."""
    return planecubic.change_of_variables(*generators())


def model_coeff_polys() -> tuple[MPoly, MPoly]:
    """Weierstrass coefficients of the target model: (-3ac, -(a^3+c^3+27(b-d)^2/4))."""
    return planecubic.weierstrass_coefficients(*generators()[:4])


def divmod_by_relation(poly: MPoly) -> tuple[MPoly, MPoly]:
    """Quotient and remainder of division by the curve relation in x.

    The relation is monic of x-degree 3, so the remainder has x-degree at
    most 2 and poly == quotient * relation + remainder identically.
    """
    relation = curve_relation()
    x = MPoly.variable("x")
    quotient = MPoly()
    remainder = poly
    while remainder.degree_in("x") >= 3:
        top = remainder.degree_in("x")
        lead = remainder.coefficients_in("x")[top]
        shift = lead * x ** (top - 3)
        quotient = quotient + shift
        remainder = remainder - shift * relation
    return quotient, remainder


def reduce_mod_relation(poly: MPoly) -> MPoly:
    """Normal form of poly modulo the curve relation (x-degree <= 2)."""
    return divmod_by_relation(poly)[1]


def weierstrass_identity_defect() -> MPoly:
    """Reduced remainder of Y^2 - (X^3 + p*X + q) modulo the curve relation.

    (p, q) are the model coefficients; the change of variables lands on the
    Weierstrass model exactly when this is the zero polynomial.
    """
    big_x, big_y = transform_polys()
    coeff_a, coeff_b = model_coeff_polys()
    defect = big_y * big_y - (big_x**3 + coeff_a * big_x + coeff_b)
    return reduce_mod_relation(defect)


def verify_weierstrass_identity() -> bool:
    """The change of variables lands on the Weierstrass model, identically."""
    return weierstrass_identity_defect().is_zero


def _diagonal_cleared(poly: MPoly, numerator: MPoly, denominator: MPoly, degree: int) -> MPoly:
    """Substitute x = y = numerator/denominator and clear denominator^degree.

    Valid when every monomial has combined (x, y)-degree at most ``degree``.
    """
    x_idx, y_idx = _INDEX["x"], _INDEX["y"]
    result = MPoly()
    for exponents, coefficient in poly.terms().items():
        xy_degree = exponents[x_idx] + exponents[y_idx]
        if xy_degree > degree:
            raise ValueError("clearing degree too small for this polynomial")
        stripped = list(exponents)
        stripped[x_idx] = 0
        stripped[y_idx] = 0
        term = MPoly({tuple(stripped): coefficient})
        result = result + term * numerator**xy_degree * denominator ** (
            degree - xy_degree
        )
    return result


def verify_point_identity() -> bool:
    """The tangent point lands on its closed-form Weierstrass image.

    Substitutes x = y = (d-b)/(a-c), the tangent point, into the change of
    variables, clearing (a-c)^2 for the first coordinate and (a-c)^3 for the
    second, and compares against the closed form's numerators.
    """
    a, b, c, d, _, _ = generators()
    big_x, big_y = transform_polys()
    x_target, y_target = planecubic.tangent_image_numerators(a, b, c, d)
    return (
        _diagonal_cleared(big_x, d - b, a - c, 2) == x_target
        and _diagonal_cleared(big_y, d - b, a - c, 3) == y_target
    )


def verify_disc_identity() -> bool:
    """The closed-form discriminant matches -4p^3 - 27q^2 for the model."""
    coeff_a, coeff_b = model_coeff_polys()
    standard = -4 * coeff_a**3 - 27 * coeff_b**2
    return standard == planecubic.smoothness_quantity(*generators()[:4])
