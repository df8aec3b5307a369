"""Seeded inputs for the benchmark workloads.

A workload is an endless stream of rounds.  A round is a list of jobs; a job
is the argv of one certificate-producing CLI call plus the number of
certificates it requests.  The same seed gives the same stream.  Every curve
has integer coefficients in [-9, 9] and is non-singular.

Curve arguments are passed as ``--curve1=-5,9``: argparse reads a separate
``-5,9`` as an unknown option and the CLI exits 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import log2
from typing import Iterator, Optional

COEFFICIENTS = tuple(range(-9, 10))
# positive non-squares: the corollary partner is then never Q-isomorphic to
# the curve, so the j = 1728 curves (b = 0) always take the general route
NON_SQUARE_DELTAS = (2, 3, 5, 6, 7, 8)

SMALL_JOBS = "small-jobs"
LABELS = "labels"
DEEP_WALK = "deep-walk"
WORKLOADS = (SMALL_JOBS, LABELS, DEEP_WALK)

# The middle half of walk_height over every general-route pair in the box.
# Cost grows steeply with it (the tallest tenth costs up to ten times the
# median), so the pair workloads keep to this band: a run holds too few of
# the tallest pairs for their cost to average out.
TYPICAL_WALK_HEIGHT = (85.0, 151.0)
CANDIDATES_PER_STRATUM = 4
LABELS_COUNT, LABELS_STRATA = 3, 4
DEEP_COUNT, DEEP_STRATA = 4, 4


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    requested: int


def nonsingular(a: int, b: int) -> bool:
    return 4 * a**3 + 27 * b**2 != 0


def _curve(rng: random.Random, a: Optional[int] = None, b: Optional[int] = None,
           nonzero_a: bool = False) -> tuple[int, int]:
    while True:
        ca = rng.choice(COEFFICIENTS) if a is None else a
        cb = rng.choice(COEFFICIENTS) if b is None else b
        if nonsingular(ca, cb) and not (nonzero_a and ca == 0):
            return ca, cb


def _general_pair(rng: random.Random) -> tuple[int, int, int, int]:
    """A pair the CLI routes the general way: not both j = 0, not equal."""
    while True:
        (a, b), (c, d) = _curve(rng), _curve(rng)
        if not (a == 0 and c == 0) and (a, b) != (c, d):
            return a, b, c, d


def walk_height(a: int, b: int, c: int, d: int) -> float:
    """Bit height of x(4P), P the seed point of the glued cubic.

    P is the image of the tangent point on the short Weierstrass model
    Y^2 = X^3 - 3ac*X - (a^3 + c^3 + 27(b-d)^2/4), under the first small
    rescaling of (c, d) the general route can use.  Heights of kP grow like
    k^2 times that of P, so this orders pairs by the cost of their walk.
    Returns 0.0 when no small rescaling gives a usable point.
    """
    for scale in (1, 2, Fraction(1, 2), 3, Fraction(1, 3)):
        c2, d2 = scale**4 * c, scale**6 * d
        e, s = b - d2, (a - c2) ** 2 * (a + c2)
        big_a = -3 * a * c2
        big_b = -(a**3 + c2**3 + Fraction(27, 4) * e**2)
        if a != c2 and e != 0 and 4 * big_a**3 + 27 * big_b**2 != 0:
            break
    else:
        return 0.0
    x = Fraction(9 * e**2 + s, (a - c2) ** 2)
    y = 9 * e * (6 * e**2 + s) / (2 * Fraction(a - c2) ** 3)
    for _ in range(2):
        if y == 0:
            return 0.0
        slope = (3 * x * x + big_a) / (2 * y)
        x, y = slope * slope - 2 * x, slope * (3 * x - slope * slope) - y
    return log2(max(abs(x.numerator), x.denominator))


def _typical_pair(rng: random.Random) -> tuple[tuple[int, int, int, int], float]:
    lo, hi = TYPICAL_WALK_HEIGHT
    while True:
        pair = _general_pair(rng)
        height = walk_height(*pair)
        if lo <= height <= hi:
            return pair, height


def _stratified_pairs(rng: random.Random, strata: int) -> list[tuple[int, int, int, int]]:
    """One round of typical general-route pairs, one per walk-height stratum.

    The candidates are uniform draws from the band, so every pair in it is
    as likely as under plain sampling; taking one per stratum keeps the
    round's total cost nearly the same from seed to seed.
    """
    pool = sorted(
        (_typical_pair(rng) for _ in range(strata * CANDIDATES_PER_STRATUM)),
        key=lambda drawn: drawn[1],
    )
    chosen = [
        pool[i * CANDIDATES_PER_STRATUM + rng.randrange(CANDIDATES_PER_STRATUM)][0]
        for i in range(strata)
    ]
    rng.shuffle(chosen)
    return chosen


def _pair_job(pair: tuple[int, int, int, int], count: int, *extra: str) -> Job:
    a, b, c, d = pair
    return Job(
        ("generate", f"--curve1={a},{b}", f"--curve2={c},{d}",
         f"--count={count}", *extra),
        count,
    )


def _small_round(rng: random.Random) -> list[Job]:
    jobs = []
    # every b but 0 once per round; b = 0 and pairs of two b = 0 curves are
    # j = 1728 jobs whose lambda search runs out (see untimed_jobs)
    bs = [b for b in COEFFICIENTS if b != 0]
    rng.shuffle(bs)
    for b in bs:
        a, _ = _curve(rng, b=b, nonzero_a=True)
        delta = rng.choice(NON_SQUARE_DELTAS)
        jobs.append(Job(("corollary", f"--curve={a},{b}", f"--delta={delta}"), 1))
    for _ in COEFFICIENTS:
        (a, b), (c, d) = _curve(rng), _curve(rng)
        while b == d == 0:
            (a, b), (c, d) = _curve(rng), _curve(rng)
        jobs.append(Job(("generate", f"--curve1={a},{b}", f"--curve2={c},{d}"), 1))
        _, b = _curve(rng, a=0)
        _, d = _curve(rng, a=0)
        while d == b:
            _, d = _curve(rng, a=0)
        jobs.append(Job(("jzero", f"--curve1=0,{b}", f"--curve2=0,{d}"), 1))
        a, b = _curve(rng)
        jobs.append(Job(("elementary", f"--curve={a},{b}"), 1))
    rng.shuffle(jobs)
    return jobs


def untimed_jobs(workload: str, seed: int) -> list[Job]:
    """Jobs a run makes once, outside the timed rounds.

    On small-jobs this is one corollary job on a j = 1728 curve (b = 0): its
    lambda search runs out after about 2 s and it exits 2 with no
    certificate.  It is counted in ``attempted`` and ``failed`` so that gap
    stays visible, but kept out of the time metrics, where one such job
    would outweigh the rest of a round.
    """
    if workload != SMALL_JOBS:
        return []
    rng = random.Random(f"{workload}:{seed}:untimed")
    a, _ = _curve(rng, b=0, nonzero_a=True)
    delta = rng.choice(NON_SQUARE_DELTAS)
    return [Job(("corollary", f"--curve={a},0", f"--delta={delta}"), 1)]


def rounds(workload: str, seed: int) -> Iterator[list[Job]]:
    """The endless round stream of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == SMALL_JOBS:
            # count 1 at default knobs keeps heights tiny, so per-call cost
            # (Fraction construction, dataclass checks, argparse, routing,
            # small JSON) dominates: where a big-integer rewrite could regress
            yield _small_round(rng)
        elif workload == LABELS:
            # count 3 at the default effort: rho for the optional squarefree
            # labels dominates, with complete and budget-exhausted labels mixed
            yield [_pair_job(p, LABELS_COUNT)
                   for p in _stratified_pairs(rng, LABELS_STRATA)]
        elif workload == DEEP_WALK:
            # --effort=1 bypasses the labels, leaving the big-integer group
            # law, the witnesses, large JSON and the verifier's scalar_mul
            yield [_pair_job(p, DEEP_COUNT, "--effort=1")
                   for p in _stratified_pairs(rng, DEEP_STRATA)]
        else:
            raise ValueError(f"unknown workload {workload!r}")
