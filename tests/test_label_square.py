"""The label's square cofactor s: num*den/s^2 is the label of squarefree parts.

A certificate stores s with num(D)*den(D) = V*s^2, not the label V itself;
V must be the product of the squarefree parts of D's numerator and
denominator, with the same completeness, whatever the factorization budget.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from twistpairs.exactnum import squarefree_part
from twistpairs.twistgen import TwistCertificate, _label_reason, _label_square

nonzero = st.integers(min_value=-10**30, max_value=10**30).filter(bool)
positive = st.integers(min_value=1, max_value=10**30)
squares = st.integers(min_value=1, max_value=10**4).map(lambda n: n * n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(num=nonzero, den=positive, num_square=squares, den_square=squares,
       effort=st.sampled_from([1, 2000]))
def test_label_is_the_product_of_the_squarefree_parts(num, den, num_square, den_square,
                                                      effort):
    value = Fraction(num * num_square, den * den_square)
    square, complete = _label_square(value, effort)
    product = value.numerator * value.denominator
    num_part, num_complete = squarefree_part(value.numerator, effort)
    den_part, den_complete = squarefree_part(value.denominator, effort)
    assert square >= 1
    assert product % square**2 == 0
    assert product // square**2 == num_part * den_part
    assert complete == (num_complete and den_complete)


@pytest.mark.parametrize("value, square", [
    # the worked pair's k=2: D = 907559/61^3 has the label 907559 * 61
    (Fraction(907559, 226981), 61),
    (Fraction(-1), 1),
    (Fraction(-72, 25), 30),
])
def test_square_of_a_known_value(value, square):
    assert _label_square(value, 2000) == (square, True)


@pytest.mark.parametrize("value, square, holds", [
    # s = 61 comes from the denominator 61^3, s = 1 always divides
    (Fraction(907559, 226981), 61, True),
    (Fraction(907559, 226981), 1, True),
    (Fraction(907559, 226981), 2, False),
    (Fraction(-72, 25), 30, True),
    (Fraction(-72, 25), 60, False),
    (Fraction(-1), 0, False),
    (Fraction(-1), -1, False),
])
def test_label_holds_when_the_square_divides(value, square, holds):
    cert = TwistCertificate(value=value, solutions=(), square=square, complete=True)
    assert _label_reason(cert) == (None if holds else "label-class-mismatch")
