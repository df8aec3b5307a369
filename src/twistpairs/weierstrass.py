"""Short Weierstrass curves y^2 = x^3 + a*x + b over Q, exactly.

Chord-tangent group law, scalar multiples, quadratic twists (a rescaling by
u is the twist by u^2), Q-isomorphism testing, and a non-torsion test.
Torsion is decided by the complete list of orders a rational torsion point
can have over Q (1..10 and 12), so a point has infinite order exactly when
none of its multiples at those orders is the point at infinity: a yes/no test.

Every function is pure: none changes the curves or points it is given.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, TypeVar

from .exactnum import ValueObject, excerpt, is_perfect_square, rational_cube_root

#: Orders a nontrivial rational torsion point can have over Q.
RATIONAL_TORSION_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)

PointT = TypeVar("PointT")


def disc_quantity(a: Fraction, b: Fraction) -> Fraction:
    """4a^3 + 27b^2; the curve is smooth iff this is nonzero."""
    return 4 * a**3 + 27 * b**2


class WPoint(NamedTuple):
    """A rational point: affine (x, y), or the point at infinity (x = y = None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "WPoint(infinity)"
        return f"WPoint({self.x}, {self.y})"


INFINITY = WPoint(None, None)


class Curve(ValueObject):
    _fields = __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        self.a, self.b = Fraction(a), Fraction(b)
        if disc_quantity(self.a, self.b) == 0:
            raise ValueError(
                f"singular curve: 4a^3 + 27b^2 = 0 for a={excerpt(str(self.a))}, "
                f"b={excerpt(str(self.b))}"
            )

    def rhs(self, x: Fraction) -> Fraction:
        return x**3 + self.a * x + self.b

    def contains(self, point: WPoint) -> bool:
        if point.is_infinity:
            return True
        return point.y * point.y == self.rhs(point.x)

    @property
    def has_j_zero(self) -> bool:
        return self.a == 0

    def _require(self, point: WPoint) -> None:
        if not self.contains(point):
            raise ValueError(f"{point!r} is not on {self}")

    def negate(self, point: WPoint) -> WPoint:
        if point.is_infinity:
            return INFINITY
        return WPoint(point.x, -point.y)

    def add(self, first: WPoint, second: WPoint) -> WPoint:
        self._require(first)
        self._require(second)
        return self._add_raw(first, second)

    def _add_raw(self, first: WPoint, second: WPoint) -> WPoint:
        if first.is_infinity:
            return second
        if second.is_infinity:
            return first
        x1, y1, x2, y2 = first.x, first.y, second.x, second.y
        if x1 == x2 and y1 == -y2:
            return INFINITY
        if first == second:
            slope = (3 * x1 * x1 + self.a) / (2 * y1)
        else:
            slope = (y2 - y1) / (x2 - x1)
        x3 = slope * slope - x1 - x2
        return WPoint(x3, slope * (x1 - x3) - y1)

    def scalar_mul(self, k: int, point: WPoint) -> WPoint:
        """k-fold sum by double-and-add; negative k negates."""
        self._require(point)
        if k < 0:
            k, point = -k, self.negate(point)
        result, addend = INFINITY, point
        while k:
            if k & 1:
                result = self._add_raw(result, addend)
            addend = self._add_raw(addend, addend)
            k >>= 1
        return result

    def __str__(self) -> str:
        return f"y^2 = {format_cubic(self.a, self.b)}"


def format_cubic(a: Fraction, b: Fraction) -> str:
    """Readable ``x^3 + a*x + b`` with signs and unit factors folded in."""
    text = "x^3"
    if a != 0:
        sign, mag = (" - ", -a) if a < 0 else (" + ", a)
        text += sign + ("x" if mag == 1 else f"{mag}*x")
    if b != 0:
        text += f" - {-b}" if b < 0 else f" + {b}"
    return text


def quadratic_twist(curve: Curve, twist_value: Fraction) -> Curve:
    """The standard twist model (a*D^2, b*D^3) for D = twist_value.

    A solution (x, t) of D*t^2 = x^3 + a*x + b gives the point (D*x, D^2*t)
    on it.  The twist by D = u^2 is the rescaled model (u^4*a, u^6*b), which
    is Q-isomorphic to the curve through (x, y) -> (u^2*x, u^3*y).
    """
    d = Fraction(twist_value)
    if d == 0:
        raise ValueError("quadratic twist needs a nonzero value")
    return Curve(curve.a * d**2, curve.b * d**3)


def has_torsion_order(
    add: Callable[[PointT, PointT], PointT],
    is_identity: Callable[[PointT], bool],
    point: PointT,
) -> bool:
    """Whether nP is the identity under ``add`` for some n in RATIONAL_TORSION_ORDERS.

    Each nP is mP + (n - m)P, with m the previous order, so the chain makes
    one addition per order: 2P..10P, then 12P = 10P + 2P.  It serves any
    group law on the rational points of an elliptic curve over Q, since the
    candidate torsion orders are the same for all of them.
    """
    multiples, previous = {1: point}, 1
    for order in RATIONAL_TORSION_ORDERS:
        multiples[order] = add(multiples[previous], multiples[order - previous])
        if is_identity(multiples[order]):
            return True
        previous = order
    return False


def certify_nontorsion(curve: Curve, point: WPoint) -> bool:
    """Whether an affine point has infinite order.

    False exactly when some nP with n in the checked range is the point at
    infinity, i.e. when the point is rational torsion.
    """
    if point.is_infinity:
        raise ValueError("non-torsion certification needs an affine point")
    curve._require(point)
    return not has_torsion_order(curve._add_raw, lambda p: p.is_infinity, point)


def are_isomorphic_over_q(first: Curve, second: Curve) -> Optional[Fraction]:
    """A scaling u with (u^4*a, u^6*b) == (c, d), or None.

    Two short Weierstrass curves are Q-isomorphic exactly when such a u
    exists; degenerate coefficient patterns (a=0 or b=0) reduce to a single
    root extraction plus a check that the other coefficient matches.
    """
    a, b, c, d = first.a, first.b, second.a, second.b
    if a == 0:
        if c != 0:
            return None
        # u^6 = d/b: a rational sixth root is a square root of a cube root
        squared = rational_cube_root(d / b)
    elif b == 0:
        if d != 0:
            return None
        # u^4 = c/a
        squared = is_perfect_square(c / a)
    else:
        if c == 0 or d == 0:
            return None
        # u^2 = (d/b)/(c/a), then verify both coefficient equations
        squared = a * d / (b * c)
    if squared is None:
        return None
    u = is_perfect_square(squared)
    if u is None or u == 0:
        return None
    if quadratic_twist(first, u * u) == second:
        return u
    return None
