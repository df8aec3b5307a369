"""A torsion point of every order a rational point can have over Q.

Mazur's list is 1..10 and 12.  Orders 2 and 3 have one-line forms.  Every
curve with a rational point of order n >= 4 is a Tate normal form E(b, c):
y^2 + (1 - c)*x*y - b*y = x^3 - b*x^2 with P = (0, 0), where b and c are
rational functions of one parameter t (Kubert, "Universal bounds on the
torsion of elliptic curves", Proc. LMS 33, 1976).  The c4, c6 change of
variables carries E(b, c) to the short model y^2 = x^3 - 27*c4*x - 54*c6.

Each point is checked to have exactly its order, so a wrong parametrization
fails here instead of testing nothing.  Twisted by any D, the point is a
solution the verifier must refuse with ``torsion-point``.
"""

import json
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from twistpairs.cli import main
from twistpairs.exactnum import format_rational
from twistpairs.twistgen import TwistCertificate, verify_certificate
from twistpairs.weierstrass import Curve, WPoint


def _tate_parameters(order: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """(b, c) of the Tate normal form whose point (0, 0) has order ``order``."""
    if order == 4:
        return t, Fraction(0)
    if order == 5:
        return t, t
    if order == 6:
        return t + t * t, t
    if order == 7:
        return t**3 - t**2, t**2 - t
    if order == 8:
        b = (2 * t - 1) * (t - 1)
        return b, b / t
    if order == 9:
        c = t * t * (t - 1)
        return c * (t * t - t + 1), c
    if order == 10:
        d = t * t / (t - (t - 1) ** 2)
        c = t * d - t
        return c * d, c
    if order == 12:
        m = (3 * t - 3 * t * t - 1) / (t - 1)
        f = m / (1 - t)
        d = m + t
        c = f * d - f
        return c * d, c
    raise ValueError(f"no Tate normal form for order {order}")


def _short_model(b: Fraction, c: Fraction) -> tuple[Curve, WPoint]:
    """y^2 = x^3 - 27*c4*x - 54*c6 for E(b, c), and the image of (0, 0)."""
    a1, a3 = 1 - c, -b
    b2 = a1 * a1 - 4 * b  # a2 = -b
    b4 = a1 * a3
    b6 = a3 * a3
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return Curve(-27 * c4, -54 * c6), WPoint(3 * b2, 108 * a3)


def _exact_order(curve: Curve, point: WPoint) -> int:
    multiple, order = point, 1
    while not multiple.is_infinity and order <= 12:
        multiple, order = curve._add_raw(multiple, point), order + 1
    return order


def torsion_point(order: int, t: Fraction) -> tuple[Curve, WPoint]:
    """A curve over Q and a rational point on it of exactly ``order``.

    Raises ZeroDivisionError or ValueError for a parameter t at which the
    family degenerates.
    """
    t = Fraction(t)
    if order == 2:
        # (t, 0) on y^2 = x^3 + x - t^3 - t
        curve, point = Curve(1, -t**3 - t), WPoint(t, Fraction(0))
    elif order == 3:
        # (0, t) on y^2 = x^3 + t^2: the tangent there is horizontal
        curve, point = Curve(0, t * t), WPoint(Fraction(0), t)
    else:
        curve, point = _short_model(*_tate_parameters(order, t))
    assert curve.contains(point)
    assert _exact_order(curve, point) == order, (order, t)
    return curve, point


def twisted_certificate(
    curve: Curve, point: WPoint, value: Fraction
) -> tuple[Curve, TwistCertificate]:
    """The pair curve (A/D^2, B/D^3) and a certificate whose solution is the point.

    (X/D, Y/D^2) solves D*t^2 = x^3 + (A/D^2)*x + B/D^3, and its point on the
    twist model by D is (X, Y) on (A, B) again, of the same order.  The
    certificate stores x = X/D; the verifier derives t = |Y/D^2| from it.
    """
    pair_curve = Curve(curve.a / value**2, curve.b / value**3)
    # s = 1 makes the label numerator * denominator, in the square class of D
    return pair_curve, TwistCertificate(value=value, solutions=(point.x / value,),
                                        square=1, complete=True)


def _nonintegral_denominator_test(curve: Curve, x: Fraction) -> bool:
    """Whether 12*u^2*x is not an integer, u = lcm(den a, den b).

    The twist point of a solution x is then non-torsion for every D, so a
    torsion point must never pass this test.
    """
    u = lcm(curve.a.denominator, curve.b.denominator)
    return (12 * u * u * x).denominator != 1


# Mazur's list, written out rather than read from the code under test
ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("t", [Fraction(2), Fraction(3), Fraction(5, 3), Fraction(-7, 2)])
def test_every_order_is_reached(order, t):
    curve, point = torsion_point(order, t)
    pair_curve, cert = twisted_certificate(curve, point, Fraction(-5, 7))
    assert verify_certificate(cert, [pair_curve]) == (False, "torsion-point")


parameters = st.fractions(min_value=-30, max_value=30, max_denominator=30)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(order=st.sampled_from(ORDERS), t=parameters,
       value=parameters.filter(lambda v: v != 0))
def test_twisted_torsion_point_is_refused(order, t, value):
    try:
        curve, point = torsion_point(order, t)
    except (ZeroDivisionError, ValueError):
        assume(False)
    pair_curve, cert = twisted_certificate(curve, point, value)
    x, = cert.solutions
    assert value * (point.y / value**2) ** 2 == pair_curve.rhs(x)
    assert verify_certificate(cert, [pair_curve]) == (False, "torsion-point")
    assert not _nonintegral_denominator_test(pair_curve, x)


def test_order_seven_bundle_fails(capsys, tmp_path):
    curve, point = torsion_point(7, Fraction(2))
    pair_curve, cert = twisted_certificate(curve, point, Fraction(3))
    x, = cert.solutions
    # the bundle's D is the curve's value at x, 3*t^2 for the t of D = 3, and
    # its label 3 has the square cofactor s = num(t)*den(t)
    value = pair_curve.rhs(x)
    t = point.y / 9
    assert value == 3 * t**2
    bundle = {
        "version": 10,
        "pair": [f"{format_rational(pair_curve.a)},{format_rational(pair_curve.b)}"],
        "certificates": [{
            "x": format_rational(x),
            "square": str(abs(t.numerator) * t.denominator),
            "complete": True,
        }],
    }
    out_file = tmp_path / "bundle.json"
    out_file.write_text(json.dumps(bundle))
    assert main(["verify", "--input", str(out_file)]) == 1
    assert f"certificate k=1 D={format_rational(value)}: FAILED (torsion-point)" in (
        capsys.readouterr().out)
