"""Short Weierstrass curves y^2 = x^3 + a*x + b over Q, exactly.

Chord-tangent group law, scalar multiples, model rescaling, quadratic
twists, Q-isomorphism testing, and non-torsion certification.  Torsion is
decided by the complete list of orders a rational torsion point can have
over Q (1..10 and 12), so checking that no multiple in that range hits the
point at infinity is a sound and complete non-torsion certificate.

Everything is a pure function over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from .exactnum import is_perfect_square, rational_cube_root

#: Orders a nontrivial rational torsion point can have over Q.
RATIONAL_TORSION_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)

PointT = TypeVar("PointT")


def disc_quantity(a: Fraction, b: Fraction) -> Fraction:
    """4a^3 + 27b^2; the curve is smooth iff this is nonzero."""
    a, b = Fraction(a), Fraction(b)
    return 4 * a**3 + 27 * b**2


@dataclass(frozen=True)
class WPoint:
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


@dataclass(frozen=True)
class Curve:
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if disc_quantity(self.a, self.b) == 0:
            raise ValueError(
                f"singular curve: 4a^3 + 27b^2 = 0 for a={self.a}, b={self.b}"
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


def scale_model(curve: Curve, scale: Fraction) -> tuple[Curve, Callable[[WPoint], WPoint]]:
    """The Q-isomorphic model (scale^4*a, scale^6*b) and its point bijection."""
    scale = Fraction(scale)
    if scale == 0:
        raise ValueError("model scaling needs a nonzero factor")
    scaled = Curve(scale**4 * curve.a, scale**6 * curve.b)

    def point_map(point: WPoint) -> WPoint:
        if point.is_infinity:
            return INFINITY
        return WPoint(scale**2 * point.x, scale**3 * point.y)

    return scaled, point_map


def quadratic_twist(
    curve: Curve, twist_value: Fraction
) -> tuple[Curve, Callable[[Fraction, Fraction], WPoint]]:
    """The standard twist model (a*D^2, b*D^3) for D = twist_value.

    The returned map sends a solution (x, t) of D*t^2 = x^3 + a*x + b to the
    point (D*x, D^2*t) on the twist model.
    """
    d = Fraction(twist_value)
    if d == 0:
        raise ValueError("quadratic twist needs a nonzero value")
    twisted = Curve(curve.a * d**2, curve.b * d**3)

    def solution_map(x: Fraction, t: Fraction) -> WPoint:
        point = WPoint(d * Fraction(x), d * d * Fraction(t))
        if not twisted.contains(point):
            raise ValueError(
                f"({x}, {t}) does not solve {d}*t^2 = {format_cubic(curve.a, curve.b)}"
            )
        return point

    return twisted, solution_map


def torsion_order_multiples(
    add: Callable[[PointT, PointT], PointT],
    is_identity: Callable[[PointT], bool],
    point: PointT,
) -> Optional[tuple[tuple[int, PointT], ...]]:
    """The multiples 2P..10P and 12P = 10P + 2P under ``add``, or None.

    Returns None as soon as one of them is the identity.  The chain serves
    any group law on the rational points of an elliptic curve over Q, since
    the candidate torsion orders are the same for all of them.
    """
    multiples = []
    current = point
    for order in range(2, 11):
        current = add(current, point)
        if is_identity(current):
            return None
        multiples.append((order, current))
    order_twelve = add(current, multiples[0][1])
    if is_identity(order_twelve):
        return None
    multiples.append((12, order_twelve))
    return tuple(multiples)


def certify_nontorsion(
    curve: Curve, point: WPoint
) -> Optional[tuple[tuple[int, WPoint], ...]]:
    """The multiples (order, nP) for n in 2..10 and 12, or None.

    Returns None exactly when some multiple in the checked range is the
    point at infinity, i.e. when the point is rational torsion.
    """
    if point.is_infinity:
        raise ValueError("non-torsion certification needs an affine point")
    curve._require(point)
    return torsion_order_multiples(curve._add_raw, lambda p: p.is_infinity, point)


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
    if u**4 * a == c and u**6 * b == d:
        return u
    return None
