"""The projective plane cubic tying a pair of curve models together.

For coefficient pairs (a, b) and (c, d) this is the locus where the two
depressed cubics agree: x^3 + a*x + b = y^3 + c*y + d, homogenized to

    F(x, y, z) = x^3 - y^3 + a*x*z^2 - c*y*z^2 + (b - d)*z^3 = 0.

It always contains the base point [1:1:0]; the chord-tangent construction
with that base point makes the rational points an abelian group.  The group
law lives here directly, on primitive integer triples (rationals appear only
in ``affine``, ``common_value`` and ``transform_point``), and a closed-form
change of variables carries the curve onto a short Weierstrass model.

The closed forms are module-level functions written with ring operations
and rational constants only, so ``polyident`` runs these same functions to
bound their degrees and then proves them exactly on an integer grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import ValueObject
from .weierstrass import Curve, WPoint, format_cubic, has_torsion_order

Coords = tuple[int, int, int]


def smoothness_quantity(a, b, c, d):
    """108*a^3*c^3 - 27*(4a^3 + 4c^3 + 27(b-d)^2)^2 / 16.

    This is the discriminant of the cubic on the Weierstrass side; the plane
    cubic is an elliptic curve exactly when it is nonzero.
    """
    return 108 * a**3 * c**3 - Fraction(27, 16) * (
        4 * a**3 + 4 * c**3 + 27 * (b - d) ** 2
    ) ** 2


def weierstrass_coefficients(a, b, c, d):
    """(A, B) of the model Y^2 = X^3 + A*X + B that the plane cubic maps onto."""
    return -3 * a * c, -(a**3 + c**3 + Fraction(27, 4) * (b - d) ** 2)


def change_of_variables(a, b, c, d, x, y):
    """(X, Y) for a point (x, y) of the plane cubic, on the model above."""
    square_sum = x * x + x * y + y * y
    big_x = 3 * square_sum + a + c
    big_y = (3 * c * (y - x) - 3 * a * (y + 2 * x) - 9 * x * square_sum
             - Fraction(9, 2) * (b - d))
    return big_x, big_y


def tangent_image_numerators(a, b, c, d):
    """(X*(a-c)^2, Y*(a-c)^3) for the image (X, Y) of the tangent point."""
    shear = (a - c) ** 2 * (a + c)
    return (9 * (b - d) ** 2 + shear,
            Fraction(9, 2) * (b - d) * (6 * (b - d) ** 2 + shear))


class ProjPoint(ValueObject):
    """Projective point (x : y : z) from integers, held as a canonical primitive triple.

    ``coords`` is the triple divided by its content and signed so that z, or
    else the first nonzero coordinate, is positive; so equality is tuple
    equality.  ``x``, ``y`` and ``z`` are the point scaled to z == 1 (affine
    points) or else to a first nonzero coordinate of 1.
    """

    _fields = __slots__ = ("coords",)

    def __init__(self, x: int, y: int, z: int) -> None:
        g = gcd(x, y, z)
        if g == 0:
            raise ValueError("[0:0:0] is not a projective point")
        if (z or x or y) < 0:
            g = -g
        self.coords: Coords = (x // g, y // g, z // g)

    def _scaled(self, index: int) -> Fraction:
        x, y, z = self.coords
        return Fraction(self.coords[index], z or x or y)

    x = property(lambda self: self._scaled(0))
    y = property(lambda self: self._scaled(1))
    z = property(lambda self: self._scaled(2))

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    def affine(self) -> tuple[Fraction, Fraction]:
        if self.is_infinite:
            raise ValueError(f"{self} has no affine coordinates")
        return self.x, self.y

    def __repr__(self) -> str:
        return f"[{self.x}:{self.y}:{self.z}]"


#: The distinguished rational point at infinity, identity of the group law.
BASE_POINT = ProjPoint(1, 1, 0)


class PlaneCubic(ValueObject):
    _fields = ("a", "b", "c", "d")
    __slots__ = _fields + ("_scaled_form",)

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> None:
        self.a, self.b, self.c, self.d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        if smoothness_quantity(self.a, self.b, self.c, self.d) == 0:
            raise ValueError(
                "singular configuration: 108*a^3*c^3 - 27*(4a^3+4c^3+27(b-d)^2)^2/16 "
                f"vanishes for (a, b, c, d) = ({self.a}, {self.b}, {self.c}, {self.d})"
            )
        e = self.b - self.d
        scale = lcm(self.a.denominator, self.c.denominator, e.denominator)
        # (L, A, C, E), left out of _fields as a, b, c and d fix it: L*F = L*x^3 - L*y^3
        # + A*x*z^2 - C*y*z^2 + E*z^3 has integer coefficients, L = lcm of den(a, c, b - d)
        self._scaled_form = (scale, int(self.a * scale), int(self.c * scale), int(e * scale))

    # ------------------------------------------------------------------ form

    def _value(self, x: int, y: int, z: int) -> int:
        scale, a, c, e = self._scaled_form
        return scale * (x * x * x - y * y * y) + (a * x - c * y + e * z) * z * z

    def contains(self, point: ProjPoint) -> bool:
        return self._value(*point.coords) == 0

    def _require(self, point: ProjPoint) -> None:
        if not self.contains(point):
            raise ValueError(f"{point} is not on {self}")

    def _tangent_partner(self, p: Coords) -> Coords:
        """A second point of the tangent line at P, from the integer gradient."""
        scale, a, c, e = self._scaled_form
        x, y, z = p
        gx = 3 * scale * x * x + a * z * z
        gy = -3 * scale * y * y - c * z * z
        gz = (2 * a * x - 2 * c * y + 3 * e * z) * z
        if not (gx or gy or gz):
            raise ArithmeticError(f"singular point {ProjPoint(*p)} on {self}")
        # the gradient crossed with each coordinate axis lies on the tangent
        return next(r for r in ((0, gz, -gy), (-gz, 0, gx), (gy, -gx, 0))
                    if any(r) and ProjPoint(*r).coords != p)

    # ---------------------------------------------------------- named points

    def tangent_point(self) -> ProjPoint:
        """Third intersection of the tangent line at the base point.

        Closed form [b-d : b-d : c-a], from ``_through_base``; degenerates
        back to the base point itself when a == c, which is rejected so
        callers route that case elsewhere.
        """
        if self.a == self.c:
            raise ValueError("tangent point degenerates to the base point when a == c")
        return self._through_base(BASE_POINT.coords)

    # ------------------------------------------------------------- group law

    def third_intersection(self, first: ProjPoint, second: ProjPoint) -> ProjPoint:
        """Remaining intersection of the line through the two points.

        The line is rational, so the parameter cubic splits off the two known
        roots and leaves a rational third one.  For equal points the line is
        the tangent, taken through a second point of it.
        """
        self._require(first)
        self._require(second)
        chord = first != second
        p = first.coords
        q = second.coords if chord else self._tangent_partner(p)
        # F(s*P + t*Q) = h*s^2*t + g*s*t^2 + k*t^3, as P is on the curve;
        # plus and minus are its values at (1, 1) and (1, -1)
        plus = self._value(p[0] + q[0], p[1] + q[1], p[2] + q[2])
        minus = self._value(p[0] - q[0], p[1] - q[1], p[2] - q[2])
        g, h_plus_k = (plus + minus) // 2, (plus - minus) // 2
        if g == 0 and h_plus_k == 0:
            raise ArithmeticError("line lies on the cubic; the curve is singular")
        # a chord has k == 0 and the third root (g : -h); a tangent has
        # h == 0, from contact of order 2 at P, and the third root (k : -g)
        s, t = (g, -h_plus_k) if chord else (h_plus_k, -g)
        return ProjPoint(s * p[0] + t * q[0], s * p[1] + t * q[1], s * p[2] + t * q[2])

    def _through_base(self, r: Coords) -> ProjPoint:
        """Third intersection of the line through R and the base point.

        For R = (x : y : z), F(s*R + t*[1:1:0]) = s*t*(M*t + N*s), which
        leaves (x*M - N : y*M - N : z*M); M == 0 gives the base point.  The
        base point, the only point at infinity, goes to (E : E : C - A),
        which is the base point again when a == c.
        """
        scale, a, c, e = self._scaled_form
        x, y, z = r
        if z == 0:
            return ProjPoint(e, e, c - a)
        m = 3 * scale * (x - y)
        n = 3 * scale * (x * x - y * y) + (a - c) * z * z
        return ProjPoint(x * m - n, y * m - n, z * m)

    def add(self, first: ProjPoint, second: ProjPoint) -> ProjPoint:
        """Chord-tangent sum with the base point as identity."""
        return self._through_base(self.third_intersection(first, second).coords)

    def negate(self, point: ProjPoint) -> ProjPoint:
        return self.third_intersection(self._through_base(BASE_POINT.coords), point)

    def scalar_mul(self, k: int, point: ProjPoint) -> ProjPoint:
        """Double-and-add from the base point, the identity."""
        self._require(point)
        if k < 0:
            return self.negate(self.scalar_mul(-k, point))
        result = BASE_POINT
        for bit in bin(k)[2:]:
            result = self.add(result, result)
            if bit == "1":
                result = self.add(result, point)
        return result

    def certify_nontorsion(self, point: ProjPoint) -> bool:
        """Whether a point other than the base point has infinite order.

        The group here is isomorphic to the rational points of the
        Weierstrass model, so the candidate orders are the same 1..10, 12.
        """
        if point == BASE_POINT:
            raise ValueError("non-torsion certification needs a point other than the base")
        self._require(point)
        return not has_torsion_order(self.add, lambda p: p == BASE_POINT, point)

    # -------------------------------------------------- Weierstrass crossing

    def to_weierstrass(self) -> Curve:
        """The short Weierstrass model the change of variables lands on."""
        return Curve(*weierstrass_coefficients(self.a, self.b, self.c, self.d))

    def transform_point(self, point: ProjPoint) -> WPoint:
        """Image of an affine point under the change of variables, exactly."""
        self._require(point)
        return WPoint(*change_of_variables(self.a, self.b, self.c, self.d, *point.affine()))

    def common_value(self, point: ProjPoint) -> Fraction:
        """The shared cubic value at an affine point of the curve."""
        self._require(point)
        x, _ = point.affine()
        return x**3 + self.a * x + self.b

    def __str__(self) -> str:
        return f"{format_cubic(self.a, self.b)} = {format_cubic(self.c, self.d).replace('x', 'y')}"
