"""Exact rational arithmetic and the integer number theory used by every other module.

Rationals are plain ``fractions.Fraction`` values (arbitrary-precision,
canonical form: positive denominator, reduced, zero is 0/1).  Integers are
plain Python ints.  This module adds the pieces the rest of the package
needs on top of those: square tests, square-class comparison, budgeted
factorization with squarefree-part extraction, a deterministic
strong-pseudoprime test, p-adic valuations, and a filtered prime stream.

Factorization runs trial division, then a short Brent-rho prefix, then
elliptic-curve factorization (ECM) on Montgomery curves for what rho leaves
unsplit (Lenstra, Ann. Math. 126 (1987); Montgomery, Math. Comp. 48 (1987)).
Every stage has fixed parameters, so results depend only on n and the effort.

All functions are pure and all values immutable, so everything here is safe
to use from concurrent contexts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt
from typing import Iterator, Optional, Sequence

#: Default work budget of ``factorize``: the first ``_RHO_EFFORT`` units are
#: Brent-rho iterations, and every ``_ECM_CURVE_EFFORT`` after them buy one ECM
#: curve, so the default runs 14 curves.  They find most prime factors up to
#: 10-20 digits, where rho alone stalls.
DEFAULT_FACTOR_EFFORT = 200_000

_TRIAL_BOUND = 10_000
_RHO_EFFORT = 2_000
_ECM_CURVE_EFFORT = 14_000
_ECM_B1 = 1_000
_ECM_B2 = 50_000
_ECM_WHEEL = 210
_ECM_FIRST_SIGMA = 6

_INTEGER_RE = re.compile(r"-?\d+", re.ASCII)
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?", re.ASCII)

# Strong-pseudoprime witnesses: the first 40 prime bases.  The first 12 of
# them are a known deterministic witness schedule for every n below the
# bound; above it we run all 40, which keeps the composite-acceptance
# probability below 2^-80 while staying fully deterministic.
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_LARGE_WITNESSES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173,
)
_DETERMINISTIC_WITNESSES = _LARGE_WITNESSES[:12]


def parse_integer(text: str) -> int:
    """Parse the text format ``n``: ASCII digits, optional leading minus."""
    if not isinstance(text, str) or not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer in n form: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse the text format ``n`` or ``n/m``: ASCII digits, optional leading minus."""
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
    for p in _DETERMINISTIC_WITNESSES:
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


@cache
def _sieve(limit: int) -> bytes:
    """sieve[n] == 1 exactly when n < limit is prime."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return bytes(sieve)


@cache
def _trial_primes() -> tuple[int, ...]:
    """The primes up to the trial bound, sieved on first use."""
    return tuple(p for p, flag in enumerate(_sieve(_TRIAL_BOUND + 1)) if flag)


@cache
def _ecm_tables() -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Stage-1 multiplier and stage-2 schedule.

    The multiplier is the product of the largest power of each prime that is
    at most B1.  Every prime p in (B1, B2] is m*W + j or m*W - j for a baby
    step j < W/2 coprime to the wheel W = 210; the schedule lists, for each
    giant step m, the j that hit a prime.  Built on first use, not on import.
    """
    sieve = _sieve(_ECM_B2 + _ECM_WHEEL)
    multiplier = 1
    for p in range(2, _ECM_B1 + 1):
        if sieve[p]:
            power = p
            while power * p <= _ECM_B1:
                power *= p
            multiplier *= power
    babies = tuple(j for j in range(1, _ECM_WHEEL // 2) if gcd(j, _ECM_WHEEL) == 1)

    def in_range_prime(q: int) -> bool:
        return _ECM_B1 < q <= _ECM_B2 and sieve[q]

    schedule = []
    for m in range(_ECM_B1 // _ECM_WHEEL, _ECM_B2 // _ECM_WHEEL + 2):
        centre = m * _ECM_WHEEL
        hits = tuple(j for j in babies if in_range_prime(centre - j) or in_range_prime(centre + j))
        if hits:
            schedule.append((m, hits))
    return multiplier, tuple(schedule)


def _ecm_curve(n: int, sigma: int) -> Optional[int]:
    """One ECM curve on an odd composite n with no factor below the trial bound.

    The Montgomery curve and its start point come from Suyama's
    parametrization at sigma.  Stage 1 multiplies by every prime power up to
    B1 on an x-only ladder; stage 2 covers each single prime in (B1, B2] by
    baby and giant steps over the 210-wheel.  Returns a proper factor of n,
    or None when this curve finds none.
    """
    multiplier, schedule = _ecm_tables()
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    denominator = 16 * pow(u, 3, n) * v % n
    g = gcd(denominator, n)
    if g != 1:
        return g if g < n else None
    # (A + 2) / 4 for the curve y^2 = x^3 + A*x^2 + x
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(denominator, -1, n) % n

    def double(x: int, z: int) -> tuple[int, int]:
        plus = (x + z) * (x + z) % n
        minus = (x - z) * (x - z) % n
        diff = plus - minus
        return plus * minus % n, diff * (minus + a24 * diff) % n

    def add(x1: int, z1: int, x2: int, z2: int, xd: int, zd: int) -> tuple[int, int]:
        # x-only P1 + P2, given x(P1 - P2) = xd/zd
        cross1 = (x1 - z1) * (x2 + z2) % n
        cross2 = (x1 + z1) * (x2 - z2) % n
        total, delta = cross1 + cross2, cross1 - cross2
        return zd * total * total % n, xd * delta * delta % n

    def multiply(k: int, x: int, z: int) -> tuple[int, int]:
        # Montgomery ladder: the two registers always differ by (x : z)
        x0, z0 = x, z
        x1, z1 = double(x, z)
        for bit in bin(k)[3:]:
            if bit == "1":
                x0, z0 = add(x1, z1, x0, z0, x, z)
                x1, z1 = double(x1, z1)
            else:
                x1, z1 = add(x0, z0, x1, z1, x, z)
                x0, z0 = double(x0, z0)
        return x0, z0

    x, z = multiply(multiplier, pow(u, 3, n), pow(v, 3, n))
    g = gcd(z, n)
    if g != 1:
        return g if g < n else None

    # baby steps: x(jQ) for odd j, each from the previous by adding 2Q
    x2, z2 = double(x, z)
    steps = {1: (x, z)}
    previous, current = (x, z), add(x2, z2, x, z, x, z)
    for j in range(3, _ECM_WHEEL // 2, 2):
        steps[j] = current
        previous, current = current, add(*current, x2, z2, *previous)

    # giant steps: x(m*W*Q) for consecutive m, by differential addition
    wx, wz = multiply(_ECM_WHEEL, x, z)
    m = schedule[0][0]
    previous, current = multiply(m - 1, wx, wz), multiply(m, wx, wz)
    product = 1
    for giant, hits in schedule:
        while m < giant:
            previous, current = current, add(*current, wx, wz, *previous)
            m += 1
        gx, gz = current
        for j in hits:
            bx, bz = steps[j]
            product = product * (gx * bz - bx * gz) % n
    g = gcd(product, n)
    return g if 1 < g < n else None


def factorize(n: int, effort: int = DEFAULT_FACTOR_EFFORT) -> PartialFactorization:
    """Trial division to a fixed bound, a short Brent-rho prefix, then ECM.

    ``effort`` buys up to ``min(effort, 2000)`` rho iterations, shared by
    every value rho tries, and then one ECM curve per further 14,000 units,
    shared the same way; an effort of 2000 or less runs no curve.  Curves
    use sigma = 6, 7, 8, ... in order.  A perfect power is split once into
    its root and multiplicity.  Deterministic for a fixed effort value.
    Incomplete results are reported through the cofactor, never raised.
    """
    magnitude = abs(n)
    if magnitude < 1:
        raise ValueError("factorize needs |n| >= 1")
    found: dict[int, int] = {}

    for prime in _trial_primes():
        if prime * prime > magnitude:
            break
        while magnitude % prime == 0:
            found[prime] = found.get(prime, 0) + 1
            magnitude //= prime

    budget = min(effort, _RHO_EFFORT)
    end_sigma = _ECM_FIRST_SIGMA + max(0, effort - _RHO_EFFORT) // _ECM_CURVE_EFFORT
    sigma = _ECM_FIRST_SIGMA
    # (value, multiplicity) pairs still to split
    pending = [(magnitude, 1)] if magnitude > 1 else []
    cofactor = 1
    while pending:
        value, multiplicity = pending.pop()
        if value <= _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(value):
            # below the trial bound squared everything left is prime
            found[value] = found.get(value, 0) + multiplicity
            continue
        power = _split_perfect_power(value)
        if power is not None:
            root, k = power
            pending.append((root, multiplicity * k))
            continue
        factor, budget = _brent_rho(value, budget)
        while factor is None and sigma < end_sigma:
            factor = _ecm_curve(value, sigma)
            sigma += 1
        if factor is None:
            cofactor *= value**multiplicity
        else:
            pending.extend([(factor, multiplicity), (value // factor, multiplicity)])

    return PartialFactorization(
        factors=tuple(sorted(found.items())),
        cofactor=cofactor,
        complete=cofactor == 1,
    )


def squarefree_part(n: int, effort: int = DEFAULT_FACTOR_EFFORT) -> tuple[int, bool]:
    """Representative s with n/s a perfect square; sign(s) = sign(n).

    The boolean reports whether s is certified squarefree.  When the
    factorization budget runs out, the unfactored cofactor is kept inside s,
    except that a perfect-square cofactor contributes nothing and a perfect
    cube contributes its root.
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
    # an unsplit square contributes nothing, an unsplit cube its root once
    while (power := _split_perfect_power(cofactor)) is not None:
        root, k = power
        cofactor = root if k % 2 else 1
    return sign * part * cofactor, cofactor == 1


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
