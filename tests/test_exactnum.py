"""Rational plumbing and integer number theory."""

import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from twistpairs import exactnum
from twistpairs.exactnum import (
    factorize,
    format_rational,
    integer_nth_root,
    is_perfect_square,
    is_probable_prime,
    parse_rational,
    primes_avoiding,
    rational_cube_root,
    same_square_class,
    squarefree_part,
    valuation,
)


def take(iterator, n):
    return [next(iterator) for _ in range(n)]


def next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


# two primes of about 40 bits: far beyond 2,000 rho iterations, found by ECM
HARD_SEMIPRIME = next_prime(2**39 + 10**9) * next_prime(2**40 - 10**9)


class TestTextFormat:
    @pytest.mark.parametrize("text,expected", [
        ("5", Fraction(5)),
        ("-3/2", Fraction(-3, 2)),
        ("0", Fraction(0)),
        ("10/4", Fraction(5, 2)),
    ])
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", ["1.5", "", " 1", "1/", "/2", "1/0", "+3", "a"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            assert parse_rational(format_rational(q)) == q


class TestPerfectSquare:
    def test_square_fraction(self):
        assert is_perfect_square(Fraction(49, 9)) == Fraction(7, 3)

    def test_irrational(self):
        assert is_perfect_square(Fraction(2)) is None

    def test_negative(self):
        assert is_perfect_square(Fraction(-4)) is None

    def test_root_of_square_is_abs(self):
        rng = random.Random(13)
        for _ in range(300):
            r = Fraction(rng.randint(-10**5, 10**5), rng.randint(1, 10**5))
            assert is_perfect_square(r * r) == abs(r)


class TestSquareClass:
    def test_examples(self):
        assert same_square_class(Fraction(2), Fraction(18))
        assert not same_square_class(Fraction(2), Fraction(3))
        assert same_square_class(Fraction(-1), Fraction(-4))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            same_square_class(Fraction(0), Fraction(3))

    def test_equivalence_relation(self):
        rng = random.Random(17)
        values = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 500), rng.randint(1, 500))
            for _ in range(12)
        ]
        for q in values:
            assert same_square_class(q, q)
        for q1 in values:
            for q2 in values:
                assert same_square_class(q1, q2) == same_square_class(q2, q1)
                for q3 in values:
                    if same_square_class(q1, q2) and same_square_class(q2, q3):
                        assert same_square_class(q1, q3)

    def test_square_scaling_invariance(self):
        rng = random.Random(19)
        for _ in range(200):
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(1, 10**4))
            r = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
            assert same_square_class(q, q * r * r)


class TestFactorize:
    def test_215(self):
        result = factorize(215)
        assert result.factors == ((5, 1), (43, 1))
        assert result.complete

    def test_one(self):
        result = factorize(1)
        assert result.factors == () and result.cofactor == 1 and result.complete

    def test_budget_exhaustion(self):
        # product of two Mersenne primes far beyond a tiny rho budget
        semiprime = (2**89 - 1) * (2**107 - 1)
        result = factorize(semiprime, effort=200)
        assert not result.complete
        assert result.cofactor > 1
        assert result.reconstruct() == semiprime

    def test_reconstruction_and_primality(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 10**12)
            result = factorize(n)
            assert result.reconstruct() == n
            for prime, exponent in result.factors:
                assert exponent >= 1 and is_probable_prime(prime)

    def test_deterministic(self):
        n = 2**4 * 3 * 10_000_019 * 10_000_079
        assert factorize(n) == factorize(n)

    def test_trial_primes_match_odd_candidate_loop(self, monkeypatch):
        # the reference divides by 2 and every odd number up to the trial
        # bound; a composite never divides once its primes are removed, so
        # dividing by the primes alone must give the same factorizations,
        # including across the value <= bound**2 shortcut
        primes = exactnum._trial_primes()
        assert len(primes) == 1229 and primes[-1] == 9973
        rng = random.Random(73)
        values = [9973**2, 9973 * 10007, 10007**2, 10007 * 10009, 9973**3 * 2**7,
                  99_999_989, 10**8 - 1, 10**8, 10**8 + 7, 3 * 9973 * 9967 * 10007]
        values += [rng.randint(2, 10**8) for _ in range(300)]
        values += [rng.getrandbits(rng.randint(30, 300)) for _ in range(60)]
        values += [prod(rng.choices(primes, k=rng.randint(1, 6))) * rng.randint(1, 10**9)
                   for _ in range(60)]
        for effort in (1, 2000):
            actual = [factorize(v, effort) for v in values]
            with monkeypatch.context() as patch:
                patch.setattr(exactnum, "_trial_primes",
                              lambda: (2, *range(3, exactnum._TRIAL_BOUND + 1, 2)))
                assert [factorize(v, effort) for v in values] == actual

    def test_ecm_splits_what_rho_cannot(self):
        assert not factorize(HARD_SEMIPRIME, effort=2000).complete
        result = factorize(HARD_SEMIPRIME)
        assert result.complete
        assert [e for _, e in result.factors] == [1, 1]
        assert result.reconstruct() == HARD_SEMIPRIME

    def test_ecm_stage_two_finds_the_single_large_prime(self):
        # Mod p, the sigma = 6 Suyama curve B*y^2 = x^3 + A*x^2 + x through
        # its start point has 8 * 3 * 1259 points: B1-smooth but for one prime
        # in (B1, B2], so stage 1 leaves a point of order 1259 for stage 2.
        p, q, sigma = 30059, 2**61 - 1, 6
        u, v = sigma * sigma - 5, 4 * sigma
        a24 = pow(v - u, 3, p) * (3 * u + v) * pow(16 * u**3 * v, -1, p) % p
        a = (4 * a24 - 2) % p
        x0 = u**3 * pow(v**3, -1, p) % p

        def legendre(t):
            return 0 if t % p == 0 else 1 if pow(t, (p - 1) // 2, p) == 1 else -1

        def rhs(x):
            return x**3 + a * x * x + x

        trace = sum(legendre(rhs(x)) for x in range(p))
        assert p + 1 + legendre(rhs(x0)) * trace == 8 * 3 * 1259
        assert exactnum._ecm_curve(p * q, sigma) == p

    def test_no_curve_runs_within_the_rho_prefix(self, monkeypatch):
        def no_curves(n, sigma):
            raise AssertionError("an ECM curve ran")

        monkeypatch.setattr(exactnum, "_ecm_curve", no_curves)
        for effort in (2000, 1):
            part, complete = squarefree_part(HARD_SEMIPRIME, effort=effort)
            assert part == HARD_SEMIPRIME and not complete

    def test_perfect_power_multiplicity(self, monkeypatch):
        # the cube root goes back on the stack once, so rho splits it once
        rho_inputs = []
        brent_rho = exactnum._brent_rho

        def counting_rho(n, budget):
            rho_inputs.append(n)
            return brent_rho(n, budget)

        monkeypatch.setattr(exactnum, "_brent_rho", counting_rho)
        p, q = next_prime(10**9), next_prime(3 * 10**9)
        result = factorize((p * q) ** 3)
        assert result.factors == ((p, 3), (q, 3)) and result.complete
        assert rho_inputs == [p * q]

    def test_against_sympy(self):
        # The oracle is the known prime multiset, each prime certified by
        # sympy.isprime: by unique factorization it equals sympy.factorint(n),
        # which itself takes about 10 s on these 40 inputs.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(37)
        for _ in range(40):
            primes = Counter(
                next_prime(rng.getrandbits(rng.randint(20, 45)) | 1 << 19)
                for _ in range(rng.choice([2, 3]))
            )
            assert all(sympy.isprime(p) for p in primes)
            n = prod(p**e for p, e in primes.items())
            result = factorize(n)
            assert result.reconstruct() == n
            if result.complete:
                assert dict(result.factors) == primes
            part, _ = squarefree_part(n)
            assert is_perfect_square(Fraction(n, part)) is not None


class TestSquarefreePart:
    @pytest.mark.parametrize("n,expected", [(72, 2), (-12, -3), (1, 1), (49, 1)])
    def test_examples(self, n, expected):
        assert squarefree_part(n) == (expected, True)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_quotient_is_square_and_part_squarefree(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.choice([-1, 1]) * rng.randint(1, 10**10)
            part, complete = squarefree_part(n)
            assert complete
            quotient = Fraction(n, part)
            assert is_perfect_square(quotient) is not None
            refactored = factorize(abs(part))
            assert all(e == 1 for _, e in refactored.factors)

    def test_incomplete_budget_still_square_quotient(self):
        n = 9 * (2**89 - 1) * (2**107 - 1)
        part, complete = squarefree_part(n, effort=200)
        assert not complete
        assert is_perfect_square(Fraction(n, part)) is not None


class TestPrimality:
    def test_examples(self):
        assert is_probable_prime(43)
        assert not is_probable_prime(215)
        assert is_probable_prime(2)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_probable_prime(1)

    def test_against_sieve(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for n in range(2, limit):
            assert is_probable_prime(n) == sieve[n]

    def test_large_known_values(self):
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime((2**127 - 1) * (2**61 - 1))


class TestValuation:
    @pytest.mark.parametrize("n,p,expected", [(72, 2, 3), (215, 5, 1), (7, 3, 0)])
    def test_examples(self, n, p, expected):
        assert valuation(n, p) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            valuation(0, 2)
        with pytest.raises(ValueError):
            valuation(10, 4)

    def test_additive_under_scaling(self):
        rng = random.Random(31)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            n = rng.randint(1, 10**6)
            k = rng.randint(0, 8)
            assert valuation(n * p**k, p) == valuation(n, p) + k


class TestPrimesAvoiding:
    def test_examples(self):
        assert take(primes_avoiding([3], 2), 4) == [2, 5, 7, 11]
        assert take(primes_avoiding([2, 3], 2), 3) == [5, 7, 11]
        assert take(primes_avoiding([215], 2), 6) == [2, 3, 7, 11, 13, 17]

    def test_start_respected(self):
        assert take(primes_avoiding([1], 10), 3) == [11, 13, 17]

    def test_zero_exclusion_rejected(self):
        with pytest.raises(ValueError):
            next(primes_avoiding([0], 2))


class TestRoots:
    def test_integer_nth_root(self):
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(0, 10**30)
            k = rng.randint(1, 7)
            r = integer_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k

    def test_rational_cube_root(self):
        assert rational_cube_root(Fraction(-27, 8)) == Fraction(-3, 2)
        assert rational_cube_root(Fraction(2)) is None
        assert rational_cube_root(Fraction(64)) == 4
