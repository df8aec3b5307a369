"""The symbolic identity suite: proofs of ``planecubic``'s closed forms.

Each identity is one expression, a function returning values that must
vanish identically, built from the very functions of ``planecubic`` and
``weierstrass`` that the generator runs (looked up at call time).  A
polynomial of degree at most n_v in each variable v that vanishes on a grid
of n_v + 1 values per variable is zero (Alon, "Combinatorial
Nullstellensatz", Combin. Probab. Comput. 8 (1999), Lemma 2.1).  So each
expression runs once on ``_Degree`` to bound its degrees, then exactly on
the integer grid 0..n_v.  Where an identity holds only on the cubic
x^3 + a*x + b = y^3 + c*y + d, the relation, monic of degree 1 in d, is
solved for d and substituted: that is the normal form modulo it.  At the
tangent point x = y = t = (b-d)/(c-a) it reads d = b + t*(a-c).
"""

from __future__ import annotations

from fractions import Fraction
from inspect import signature
from itertools import product
from operator import add
from typing import Callable, Optional

from . import planecubic, weierstrass


class _Degree:
    """Bounds on a polynomial's degree in each variable, one slot per variable.

    Constants are ints and Fractions.  A float, a division or a comparison
    raises TypeError, since a grid proves only a polynomial zero.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds) -> None:
        self.bounds = tuple(bounds)

    def _join(self, other, join) -> "_Degree":
        if isinstance(other, (int, Fraction)):
            return self
        if not isinstance(other, _Degree):
            return NotImplemented
        return _Degree(map(join, self.bounds, other.bounds))

    def __add__(self, other) -> "_Degree":
        return self._join(other, max)

    def __mul__(self, other) -> "_Degree":
        return self._join(other, add)

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> "_Degree":
        return self

    def __pow__(self, exponent) -> "_Degree":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return _Degree(n * exponent for n in self.bounds)

    def _refuse(self, *_):
        raise TypeError("a closed form may not compare or branch on its variables")

    # != falls back to __eq__, and objects have no order to fall back to
    __bool__ = __eq__ = _refuse


def weierstrass_defect(a, b, c, x, y):
    """Y^2 - (X^3 + A*X + B) at a point (x, y) of the cubic, for the model's (A, B)."""
    d = x**3 + a * x + b - y**3 - c * y
    big_x, big_y = planecubic.change_of_variables(a, b, c, d, x, y)
    coeff_a, coeff_b = planecubic.weierstrass_coefficients(a, b, c, d)
    return (big_y * big_y - (big_x**3 + coeff_a * big_x + coeff_b),)


def point_defect(a, b, c, t):
    """The tangent point's image, scaled by (a-c)^2 and (a-c)^3, less its closed form."""
    d = b + t * (a - c)
    big_x, big_y = planecubic.change_of_variables(a, b, c, d, t, t)
    x_target, y_target = planecubic.tangent_image_numerators(a, b, c, d)
    return (big_x * (a - c) ** 2 - x_target, big_y * (a - c) ** 3 - y_target)


def disc_defect(a, b, c, d):
    """-disc_quantity(A, B) = -4A^3 - 27B^2 for the model's (A, B), less the closed form."""
    coeff_a, coeff_b = planecubic.weierstrass_coefficients(a, b, c, d)
    standard = -weierstrass.disc_quantity(coeff_a, coeff_b)
    return (standard - planecubic.smoothness_quantity(a, b, c, d),)


def degree_bounds(expression: Callable) -> tuple[int, ...]:
    """Per-variable bounds on the degree of every value the expression returns."""
    arity = len(signature(expression).parameters)
    variables = [_Degree(int(i == j) for j in range(arity)) for i in range(arity)]
    values = expression(*variables)
    return tuple(max(column) for column in zip(*(value.bounds for value in values)))


def counterexample(expression: Callable) -> Optional[dict[str, int]]:
    """The first grid point where a value is nonzero; None proves every value zero."""
    grid = product(*(range(n + 1) for n in degree_bounds(expression)))
    point = next((point for point in grid if any(expression(*point))), None)
    return None if point is None else dict(zip(signature(expression).parameters, point))


def verify_weierstrass_identity() -> bool:
    """The change of variables lands on the Weierstrass model, identically."""
    return counterexample(weierstrass_defect) is None


def verify_point_identity() -> bool:
    """The tangent point lands on its closed-form Weierstrass image."""
    return counterexample(point_defect) is None


def verify_disc_identity() -> bool:
    """The closed-form discriminant matches -4A^3 - 27B^2 for the model."""
    return counterexample(disc_defect) is None
