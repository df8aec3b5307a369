"""Exact rational arithmetic and the integer number theory used by every other module.

Rationals are plain ``fractions.Fraction`` values (arbitrary-precision,
canonical form: positive denominator, reduced, zero is 0/1).  Integers are
plain Python ints.  This module adds the pieces the rest of the package
needs on top of those: square tests, square-class comparison, budgeted
factorization with squarefree-part extraction, a deterministic
strong-pseudoprime test, p-adic valuations, and a filtered prime stream.

All functions are pure and all values immutable, so everything here is safe
to use from concurrent contexts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from typing import Iterator, Optional, Sequence

#: Default iteration budget for the rho stage of ``factorize``.  Chosen so
#: inputs with no prime-square factor beyond ~20 digits usually complete.
DEFAULT_FACTOR_EFFORT = 200_000

_TRIAL_BOUND = 10_000

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")

# Strong-pseudoprime witnesses.  The first set is a known deterministic
# witness schedule for every n below the bound; above it we run the first 40
# prime bases, which keeps the composite-acceptance probability below 2^-80
# while staying fully deterministic.
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_LARGE_WITNESSES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173,
)


def make_rational(num: int, den: int = 1) -> Fraction:
    """Canonical rational num/den; raises ZeroDivisionError when den is 0."""
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse the text format ``n`` or ``n/m`` (optional leading minus)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational in n or n/m form: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: ``n`` for integers, else ``n/m``."""
    return str(Fraction(value))


def is_perfect_square(value: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of ``value``, or None.

    Needs no factorization: a reduced fraction is a square exactly when
    numerator and denominator both are.
    """
    value = Fraction(value)
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    root_num, root_den = isqrt(num), isqrt(den)
    if root_num * root_num == num and root_den * root_den == den:
        return Fraction(root_num, root_den)
    return None


def same_square_class(first: Fraction, second: Fraction) -> bool:
    """Whether two nonzero rationals differ by a square factor.

    Equivalent to their product being a perfect square, so no factorization
    is involved.
    """
    if first == 0 or second == 0:
        raise ValueError("square classes are defined for nonzero values only")
    return is_perfect_square(Fraction(first) * Fraction(second)) is not None


@dataclass(frozen=True)
class PartialFactorization:
    """Factorization of |n| into certified primes plus an unfactored cofactor.

    Invariant: prod(p**e) * cofactor == |n|, and complete iff cofactor == 1.
    Every listed prime passes is_probable_prime.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int
    complete: bool

    def reconstruct(self) -> int:
        total = self.cofactor
        for prime, exponent in self.factors:
            total *= prime**exponent
        return total


def _strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    two_adic = 0
    while d % 2 == 0:
        d //= 2
        two_adic += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(two_adic - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Deterministic-schedule strong-pseudoprime test (error < 2^-80)."""
    if n < 2:
        raise ValueError(f"primality is tested for n >= 2 only, got {n}")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    witnesses = (
        _DETERMINISTIC_WITNESSES if n < _DETERMINISTIC_BOUND else _LARGE_WITNESSES
    )
    return all(_strong_probable_prime(n, base) for base in witnesses)


def _brent_rho(n: int, budget: int) -> tuple[Optional[int], int]:
    """Brent-cycle rho on an odd composite n.  Deterministic parameters.

    Returns (factor, budget_left); factor is None when the budget ran out.
    """
    for increment in count(1):
        y, r, q = 2, 1, 1
        g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + increment) % n
            k = 0
            while k < r and g == 1:
                ys = y
                stretch = min(128, r - k)
                if budget < stretch:
                    return None, 0
                budget -= stretch
                for _ in range(stretch):
                    y = (y * y + increment) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += stretch
            r *= 2
        if g == n:
            # backtrack one step at a time to recover the factor
            g = 1
            while g == 1:
                ys = (ys * ys + increment) % n
                g = gcd(abs(x - ys), n)
                budget -= 1
                if budget <= 0 and g == 1:
                    return None, 0
        if g != n:
            return g, budget
        # cycle degenerated for this increment; retry with the next one


def _split_perfect_power(n: int) -> Optional[tuple[int, int]]:
    for k in (2, 3):
        root = integer_nth_root(n, k)
        if root**k == n and root > 1:
            return root, k
    return None


def factorize(n: int, effort: int = DEFAULT_FACTOR_EFFORT) -> PartialFactorization:
    """Trial division to a fixed bound, then budgeted Brent rho.

    Deterministic for a fixed effort value.  Incomplete results are reported
    through the cofactor, never raised.
    """
    magnitude = abs(n)
    if magnitude < 1:
        raise ValueError("factorize needs |n| >= 1")
    found: dict[int, int] = {}

    candidate = 2
    while candidate <= _TRIAL_BOUND and candidate * candidate <= magnitude:
        while magnitude % candidate == 0:
            found[candidate] = found.get(candidate, 0) + 1
            magnitude //= candidate
        candidate += 1 if candidate == 2 else 2

    budget = effort
    pending = [magnitude] if magnitude > 1 else []
    unresolved: list[int] = []
    while pending:
        value = pending.pop()
        if value == 1:
            continue
        if value <= _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(value):
            # below the trial bound squared everything left is prime
            found[value] = found.get(value, 0) + 1
            continue
        power = _split_perfect_power(value)
        if power is not None:
            root, k = power
            pending.extend([root] * k)
            continue
        factor, budget = _brent_rho(value, budget)
        if factor is None:
            unresolved.append(value)
        else:
            pending.extend([factor, value // factor])

    cofactor = 1
    for value in unresolved:
        cofactor *= value
    return PartialFactorization(
        factors=tuple(sorted(found.items())),
        cofactor=cofactor,
        complete=cofactor == 1,
    )


def squarefree_part(n: int, effort: int = DEFAULT_FACTOR_EFFORT) -> tuple[int, bool]:
    """Representative s with n/s a perfect square; sign(s) = sign(n).

    The boolean reports whether s is certified squarefree.  When the
    factorization budget runs out, the unfactored cofactor is kept inside s
    (unless it is itself a perfect square, which contributes nothing).
    """
    if n == 0:
        raise ValueError("squarefree part needs n != 0")
    sign = -1 if n < 0 else 1
    decomposition = factorize(abs(n), effort)
    part = 1
    for prime, exponent in decomposition.factors:
        if exponent % 2:
            part *= prime
    cofactor = decomposition.cofactor
    if cofactor == 1:
        return sign * part, True
    root = isqrt(cofactor)
    if root * root == cofactor:
        return sign * part, True
    return sign * part * cofactor, False


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n nonzero, p prime)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2 or not is_probable_prime(p):
        raise ValueError(f"valuation needs a prime modulus, got {p}")
    exponent = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        exponent += 1
    return exponent


def primes_avoiding(exclusions: Sequence[int], start: int = 2) -> Iterator[int]:
    """Increasing primes >= start dividing none of the exclusions."""
    bounds = [abs(int(e)) for e in exclusions]
    if any(e == 0 for e in bounds):
        raise ValueError("exclusions must be nonzero (every prime divides 0)")
    candidate = max(2, start)
    while True:
        if is_probable_prime(candidate) and all(e % candidate for e in bounds):
            yield candidate
        candidate += 1


def integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exactly (no floats)."""
    if n < 0 or k < 1:
        raise ValueError("integer_nth_root needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    high = 1 << (n.bit_length() // k + 1)
    low = 0
    while low < high - 1:
        mid = (low + high) // 2
        if mid**k <= n:
            low = mid
        else:
            high = mid
    return low


def rational_cube_root(value: Fraction) -> Optional[Fraction]:
    """Exact rational cube root when it exists (sign-aware)."""
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    root_num = integer_nth_root(abs(num), 3)
    root_den = integer_nth_root(den, 3)
    if root_num**3 != abs(num) or root_den**3 != den:
        return None
    if num < 0:
        root_num = -root_num
    return Fraction(root_num, root_den)
