"""The projective plane cubic tying a pair of curve models together.

For coefficient pairs (a, b) and (c, d) this is the locus where the two
depressed cubics agree: x^3 + a*x + b = y^3 + c*y + d, homogenized to

    F(x, y, z) = x^3 - y^3 + a*x*z^2 - c*y*z^2 + (b - d)*z^3 = 0.

It always contains the base point [1:1:0]; the chord-tangent construction
with that base point makes the rational points an abelian group.  The group
law lives here directly (lines, third intersections, exact division of the
parameter cubic), and a closed-form change of variables carries the curve
onto a short Weierstrass model for cross-validation and torsion reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .weierstrass import Curve, WPoint, format_cubic, torsion_order_multiples

Triple = tuple[Fraction, Fraction, Fraction]


def smoothness_quantity(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """108*a^3*c^3 - 27*(4a^3 + 4c^3 + 27(b-d)^2)^2 / 16.

    This is the discriminant of the cubic on the Weierstrass side; the plane
    cubic is an elliptic curve exactly when it is nonzero.
    """
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    return 108 * a**3 * c**3 - Fraction(27, 16) * (
        4 * a**3 + 4 * c**3 + 27 * (b - d) ** 2
    ) ** 2


@dataclass(frozen=True)
class ProjPoint:
    """Projective point [x:y:z], canonically scaled.

    Canonical form: z == 1 (affine points), or z == 0 with the first nonzero
    coordinate scaled to 1.  Equality is then plain field equality.
    """

    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self) -> None:
        x, y, z = Fraction(self.x), Fraction(self.y), Fraction(self.z)
        if x == 0 and y == 0 and z == 0:
            raise ValueError("[0:0:0] is not a projective point")
        pivot = z if z != 0 else (x if x != 0 else y)
        object.__setattr__(self, "x", x / pivot)
        object.__setattr__(self, "y", y / pivot)
        object.__setattr__(self, "z", z / pivot)

    @property
    def is_infinite(self) -> bool:
        return self.z == 0

    def affine(self) -> tuple[Fraction, Fraction]:
        if self.is_infinite:
            raise ValueError(f"{self} has no affine coordinates")
        return self.x, self.y

    def __repr__(self) -> str:
        return f"[{self.x}:{self.y}:{self.z}]"


#: The distinguished rational point at infinity, identity of the group law.
BASE_POINT = ProjPoint(Fraction(1), Fraction(1), Fraction(0))


def parse_proj_point(text: str) -> ProjPoint:
    """Parse ``[x:y:z]``, or the affine shorthand ``(x,y)`` meaning [x:y:1]."""
    from .exactnum import parse_rational

    stripped = text.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        parts = stripped[1:-1].split(":")
        if len(parts) != 3:
            raise ValueError(f"projective point needs three coordinates: {text!r}")
        x, y, z = (parse_rational(p.strip()) for p in parts)
        return ProjPoint(x, y, z)
    if stripped.startswith("(") and stripped.endswith(")"):
        parts = stripped[1:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"affine shorthand needs two coordinates: {text!r}")
        x, y = (parse_rational(p.strip()) for p in parts)
        return ProjPoint(x, y, Fraction(1))
    raise ValueError(f"not a projective point: {text!r}")


def _lincomb(s: Fraction, p: Triple, t: Fraction, q: Triple) -> Triple:
    return tuple(s * p[i] + t * q[i] for i in range(3))  # type: ignore[return-value]


def _cross(u: Triple, v: Triple) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


@dataclass(frozen=True)
class PlaneCubic:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if smoothness_quantity(self.a, self.b, self.c, self.d) == 0:
            raise ValueError(
                "singular configuration: 108*a^3*c^3 - 27*(4a^3+4c^3+27(b-d)^2)^2/16 "
                f"vanishes for (a, b, c, d) = ({self.a}, {self.b}, {self.c}, {self.d})"
            )

    # ------------------------------------------------------------------ form

    def form_value(self, point: ProjPoint) -> Fraction:
        return self._form(point.x, point.y, point.z)

    def _form(self, x: Fraction, y: Fraction, z: Fraction) -> Fraction:
        return (
            x**3
            - y**3
            + self.a * x * z**2
            - self.c * y * z**2
            + (self.b - self.d) * z**3
        )

    def _gradient(self, point: ProjPoint) -> Triple:
        x, y, z = point.x, point.y, point.z
        return (
            3 * x**2 + self.a * z**2,
            -3 * y**2 - self.c * z**2,
            2 * self.a * x * z - 2 * self.c * y * z + 3 * (self.b - self.d) * z**2,
        )

    def contains(self, point: ProjPoint) -> bool:
        return self.form_value(point) == 0

    def _require(self, point: ProjPoint) -> None:
        if not self.contains(point):
            raise ValueError(f"{point} is not on {self}")

    # ---------------------------------------------------------- named points

    def tangent_point(self) -> ProjPoint:
        """Third intersection of the tangent line at the base point.

        Closed form [b-d : b-d : c-a]; degenerates back to the base point
        itself when a == c, which is rejected so callers route that case
        elsewhere.
        """
        if self.a == self.c:
            raise ValueError(
                "tangent point degenerates to the base point when a == c"
            )
        return ProjPoint(self.b - self.d, self.b - self.d, self.c - self.a)

    # ------------------------------------------------------------- group law

    def third_intersection(self, first: ProjPoint, second: ProjPoint) -> ProjPoint:
        """Remaining intersection of the line through the two points.

        The line is rational, so the parameter cubic splits off the two known
        roots and leaves a rational third one; repeated roots (tangency,
        flexes) come out of the same division with no special cases.
        """
        self._require(first)
        self._require(second)
        p = (first.x, first.y, first.z)
        if first == second:
            return self._tangent_third(first)
        q = (second.x, second.y, second.z)
        # F(s*P + t*Q) = c2*s^2*t + c1*s*t^2 once the known roots are removed
        plus = self._form(*_lincomb(Fraction(1), p, Fraction(1), q))
        minus = self._form(*_lincomb(Fraction(1), p, Fraction(-1), q))
        c2 = (plus - minus) / 2
        c1 = (plus + minus) / 2
        if c1 == 0 and c2 == 0:
            raise ArithmeticError("line lies on the cubic; the curve is singular")
        x, y, z = _lincomb(c1, p, -c2, q)
        return ProjPoint(x, y, z)

    def _tangent_third(self, point: ProjPoint) -> ProjPoint:
        gradient = self._gradient(point)
        if not any(gradient):
            raise ArithmeticError(f"singular point {point} on {self}")
        p = (point.x, point.y, point.z)
        helper = None
        basis = (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )
        for axis in basis:
            candidate = _cross(gradient, axis)
            if any(candidate) and ProjPoint(*candidate) != point:
                helper = candidate
                break
        assert helper is not None
        # F(s*P + t*R) = c1*s*t^2 + c0*t^3: contact of order >= 2 at P
        plus = self._form(*_lincomb(Fraction(1), p, Fraction(1), helper))
        minus = self._form(*_lincomb(Fraction(1), p, Fraction(-1), helper))
        c1 = (plus + minus) / 2
        c0 = (plus - minus) / 2
        if c1 == 0 and c0 == 0:
            raise ArithmeticError("tangent line lies on the cubic")
        x, y, z = _lincomb(c0, p, -c1, helper)
        return ProjPoint(x, y, z)

    def add(self, first: ProjPoint, second: ProjPoint) -> ProjPoint:
        """Chord-tangent sum with the base point as identity."""
        return self.third_intersection(
            BASE_POINT, self.third_intersection(first, second)
        )

    def negate(self, point: ProjPoint) -> ProjPoint:
        tangential = self.third_intersection(BASE_POINT, BASE_POINT)
        return self.third_intersection(tangential, point)

    def scalar_mul(self, k: int, point: ProjPoint) -> ProjPoint:
        self._require(point)
        if k == 0:
            return BASE_POINT
        if k < 0:
            return self.negate(self.scalar_mul(-k, point))
        result = None
        addend = point
        while k:
            if k & 1:
                result = addend if result is None else self.add(result, addend)
            k >>= 1
            if k:
                addend = self.add(addend, addend)
        return result

    def certify_nontorsion(self, point: ProjPoint) -> Optional[tuple[tuple[int, ProjPoint], ...]]:
        """Multiples at every candidate torsion order, none equal to the base point.

        The group here is isomorphic to the rational points of the
        Weierstrass model, so the candidate orders are the same 1..10, 12.
        Returns None when some checked multiple hits the base point.
        """
        if point == BASE_POINT:
            raise ValueError("non-torsion certification needs a point other than the base")
        self._require(point)
        return torsion_order_multiples(self.add, lambda p: p == BASE_POINT, point)

    # -------------------------------------------------- Weierstrass crossing

    def to_weierstrass(self) -> Curve:
        """The short Weierstrass model the change of variables lands on."""
        return Curve(
            -3 * self.a * self.c,
            -(self.a**3 + self.c**3 + Fraction(27, 4) * (self.b - self.d) ** 2),
        )

    def transform_point(self, point: ProjPoint) -> WPoint:
        """Image of an affine point under the change of variables, exactly."""
        if point.is_infinite:
            raise ValueError("the change of variables is applied to affine points only")
        self._require(point)
        x, y = point.affine()
        a, b, c, d = self.a, self.b, self.c, self.d
        big_x = 3 * x**2 + a + 3 * y * x + 3 * y**2 + c
        big_y = (
            -3 * y * a
            - 6 * a * x
            - 3 * c * x
            - Fraction(9, 2) * b
            + 3 * c * y
            + Fraction(9, 2) * d
            - 9 * y * x**2
            - 9 * y**2 * x
            - 9 * x**3
        )
        image = WPoint(big_x, big_y)
        if not self.to_weierstrass().contains(image):
            raise ArithmeticError(
                f"transformed point {image!r} left the Weierstrass model; "
                "plane cubic data is corrupted"
            )
        return image

    def tangent_point_image(self) -> WPoint:
        """Closed-form Weierstrass image of the tangent point (a != c)."""
        if self.a == self.c:
            raise ValueError("undefined when a == c")
        a, b, c, d = self.a, self.b, self.c, self.d
        shear = (a - c) ** 2 * (a + c)
        big_x = (9 * (b - d) ** 2 + shear) / (a - c) ** 2
        big_y = 9 * (b - d) * (6 * (b - d) ** 2 + shear) / (2 * (a - c) ** 3)
        return WPoint(big_x, big_y)

    def common_value(self, point: ProjPoint) -> Fraction:
        """The shared cubic value at an affine point of the curve."""
        x, y = point.affine()
        left = x**3 + self.a * x + self.b
        right = y**3 + self.c * y + self.d
        if left != right:
            raise ArithmeticError(
                f"cubic values disagree at {point}: {left} != {right}; "
                "plane cubic data is corrupted"
            )
        return left

    def __str__(self) -> str:
        return f"{format_cubic(self.a, self.b)} = {format_cubic(self.c, self.d).replace('x', 'y')}"
