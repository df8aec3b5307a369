"""Search orchestration: routes a curve pair, generates twist values, certifies.

Given two smooth curve models, the pair is routed one of three ways:

* ``general``  - the models are glued into a plane cubic whose tangent point
  P is certified non-torsion (rescaling the second model by a searched factor
  until every condition holds), and the common cubic value at each of P, -P,
  2P, -2P, ... is a candidate twist value for both curves at once;
* ``isomorphic`` - the curves are the same over Q, so scanning integer
  inputs of the cubic itself already produces twist values;
* ``jzero``    - both curves have j-invariant zero; a prime-driven recipe
  picks a sextic twist factor lambda that plants a rational seed point on the
  cubic of (0, lambda*b) and (0, lambda*d), of infinite order by a theorem
  rather than a search, and these sextic twists replace the given curves as
  the pair: every claim is about them.

On the general and isomorphic routes the second solution is found on a model
Q-isomorphic to curve 2 and carried onto curve 2 itself.  Every emitted value
D comes with a certificate that states the claim only: per pair curve, the x
of a solution (x, t) of D*t^2 = x^3 + a*x + b on that curve, and is emitted
only when the verifier, which recomputes everything, accepts it.  The first
solution has t = 1, so D is curve 1's value at its x, and each further t is
the square root of the value at x over D.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, islice
from math import gcd, isqrt
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactnum import (
    DEFAULT_FACTOR_EFFORT,
    ValueObject,
    excerpt,
    format_rational,
    format_rationals,
    is_perfect_square,
    parse_integer,
    parse_rationals,
    primes_avoiding,
    same_square_class,
    squarefree_part,
)
from .planecubic import PlaneCubic, ProjPoint
from .weierstrass import (
    Curve,
    WPoint,
    are_isomorphic_over_q,
    certify_nontorsion,
    format_cubic,
    quadratic_twist,
)

ROUTE_GENERAL = "general"
ROUTE_ISOMORPHIC = "isomorphic"
ROUTE_JZERO = "jzero"

SKIP_ZERO_VALUE = "zero-twist-value"
SKIP_CLASS_COLLISION = "class-collision"
SOLUTION_MISMATCH = "solution-mismatch"

REJECT_SINGULAR = "singular-cubic"
REJECT_EQUAL_LEADING = "a-equals-scaled-c"
REJECT_TORSION_SEED = "torsion-seed"
ACCEPTED = "accepted"

BUNDLE_VERSION = 10

#: Height bound of the rescaling search.
LAMBDA_SEARCH_BOUND = 40
#: Steps of a walk, and so certificates in a bundle: 64 steps reach +-32P.
MAX_ITERATIONS = 64


class Config(ValueObject):
    """Certificates to emit, at most MAX_ITERATIONS, and each label's factorization budget."""

    _fields = __slots__ = ("target_count", "factor_effort")

    def __init__(self, target_count: int = 1, factor_effort: int = DEFAULT_FACTOR_EFFORT) -> None:
        self.target_count, self.factor_effort = target_count, factor_effort
        if not 1 <= self.target_count <= MAX_ITERATIONS:
            raise ValueError(f"target_count must be from 1 to {MAX_ITERATIONS}: "
                             "no walk writes more")
        if self.factor_effort < 1:
            raise ValueError("factor_effort must be positive")


class SearchExhausted(Exception):
    """A bounded search ran out without success; carries its trial log."""

    def __init__(self, message: str, trials: tuple):
        super().__init__(message)
        self.trials = trials


class LambdaTrial(NamedTuple):
    scale: Fraction
    outcome: str


class PreparedPair(NamedTuple):
    """A routed pair, ready for generation.

    On cubic-backed routes the seed point lies on the cubic and has infinite
    order; the general route's pair is what ``lambda_search`` returns, and
    ``trials`` logs its scales, ending with the accepted one (the other
    routes search nothing and log nothing).  On the jzero route the curves
    are the sextic twists by ``scale`` of the given curves, and the seed is
    the recipe point (p+1, 1), so the recipe's prime is ``seed.x - 1``.
    """

    route: str
    curve1: Curve
    curve2: Curve
    scale: Fraction
    # index 4, read as lambda_search(...)[4] by the benchmark's tracer
    trials: tuple[LambdaTrial, ...] = ()
    cubic: Optional[PlaneCubic] = None
    seed: Optional[ProjPoint] = None


class TwistCertificate(NamedTuple):
    """The claim for one D: the x of a solution (x, t) per pair curve, in pair order.

    ``square`` is the s >= 1 with num(D)*den(D) = V*s^2 for the label V, an
    integer in the square class of D, squarefree when ``complete`` is true.
    """

    value: Fraction
    solutions: tuple[Fraction, ...]
    square: int
    complete: bool


def format_pair(curves: Sequence[Curve]) -> str:
    return "pair: " + "  |  ".join(map(str, curves))


def _distinct_square_classes(values: Sequence[Fraction]) -> bool:
    """No two nonzero values share a square class; zeros are left out."""
    return all(
        not same_square_class(v1, v2)
        for v1, v2 in combinations(values, 2)
        if v1 != 0 and v2 != 0
    )


class RunReport:
    """What happened during a generation run, k by k.

    ``pair`` is the routed pair the run walked; the single-curve scan has
    none and reports the isomorphic route.
    """

    def __init__(self, pair: Optional[PreparedPair] = None) -> None:
        self.pair = pair
        self.accepted: list[tuple[int, Fraction]] = []
        self.skipped: list[tuple[int, str]] = []
        self.iterations_used = 0
        self.budget_exhausted = False
        self.notes: list[str] = []

    @property
    def route(self) -> str:
        return ROUTE_ISOMORPHIC if self.pair is None else self.pair.route

    def _route_lines(self) -> list[str]:
        pp = self.pair
        if pp is None:
            return [f"route: {self.route}"]
        out = [f"route: {pp.route} (lambda = {format_rational(pp.scale)})"]
        if pp.cubic is not None:
            model = pp.cubic.to_weierstrass()
            seed_x, seed_y = pp.seed.affine()
            image = pp.cubic.transform_point(pp.seed)
            out += [
                format_pair((pp.curve1, pp.curve2)),
                f"plane cubic: {pp.cubic}",
                "weierstrass model: Y^2 = "
                + format_cubic(model.a, model.b).replace("x", "X"),
                f"seed point: ({format_rational(seed_x)}, {format_rational(seed_y)})"
                f" maps to ({format_rational(image.x)}, {format_rational(image.y)})",
            ]
        if pp.route == ROUTE_JZERO:
            out += [
                f"prime: {pp.seed.x - 1}, seed value t: {pp.curve2.b - pp.curve1.b}",
                "sextic twist factor normalized as t/(d-b) so the recipe point "
                "(p+1, 1) lies on the cubic directly",
                "the pair above is the sextic twists by lambda of the given curves: "
                "the certificates are about it, not the given curves",
            ]
        return out

    def lines(self) -> list[str]:
        out = self._route_lines()
        # each k is either accepted or skipped; print them in walk order
        steps = [(k, f"accepted D = {format_rational(value)}") for k, value in self.accepted]
        steps += [(k, f"skipped ({reason})") for k, reason in self.skipped]
        out += [f"  k={k}: {outcome}" for k, outcome in sorted(steps)]
        out.append(
            f"iterations used: {self.iterations_used}"
            + (", budget exhausted" if self.budget_exhausted else "")
        )
        out.extend(self.notes)
        return out


# --------------------------------------------------------------- preparation


def enumerate_scales(bound: int) -> Iterator[Fraction]:
    """Positive candidate scaling factors by increasing height.

    Height h contributes h/1, h/2, ..., then 1/h, 2/h, ... (reduced forms
    only): 1, 2, 1/2, 3, 3/2, 1/3, 2/3, ...  A negative scale would give the
    same cubic as its absolute value, since only L^4 and L^6 enter it.
    """
    for height in range(1, bound + 1):
        yield from (
            Fraction(height, den)
            for den in range(1, height + 1)
            if gcd(height, den) == 1
        )
        yield from (
            Fraction(num, height)
            for num in range(1, height)
            if gcd(num, height) == 1
        )


def lambda_search(curve1: Curve, curve2: Curve) -> PreparedPair:
    """The general route of the pair, from the first rescaling that yields a seed.

    A candidate scale L replaces (c, d) by its twist by L^2, (L^4*c, L^6*d);
    it is accepted when the glued cubic is smooth, its tangent point is
    defined (a differs from the rescaled c), and that point has infinite
    order.  The result carries every trial up to the accepted one.  Raises
    SearchExhausted with the full trial log when LAMBDA_SEARCH_BOUND runs out.
    """
    a, b = curve1.a, curve1.b
    trials: list[LambdaTrial] = []
    for scale in enumerate_scales(LAMBDA_SEARCH_BOUND):
        model2 = quadratic_twist(curve2, scale * scale)
        try:
            cubic = PlaneCubic(a, b, model2.a, model2.b)
        except ValueError:
            trials.append(LambdaTrial(scale, REJECT_SINGULAR))
            continue
        if a == cubic.c:
            trials.append(LambdaTrial(scale, REJECT_EQUAL_LEADING))
            continue
        seed = cubic.tangent_point()
        if not cubic.certify_nontorsion(seed):
            trials.append(LambdaTrial(scale, REJECT_TORSION_SEED))
            continue
        trials.append(LambdaTrial(scale, ACCEPTED))
        return PreparedPair(ROUTE_GENERAL, curve1, curve2, scale, tuple(trials), cubic, seed)
    raise SearchExhausted(
        f"no usable rescaling up to height {LAMBDA_SEARCH_BOUND} "
        f"for the pair ({curve1}) / ({curve2})",
        tuple(trials),
    )


def _prepare_jzero(curve1: Curve, curve2: Curve) -> PreparedPair:
    """The jzero route, built from the first prime; the seed's infinite order is a theorem."""
    b, d = curve1.b, curve2.b
    diff = d - b
    # p avoids 2, 3 and the primes of d - b, so t = (p+1)^3 - 1 = p*(p^2 + 3p + 3)
    # is divisible by p exactly once (p^2 + 3p + 3 is 3 mod p) and fresh with
    # respect to the pair; lambda = t/(d - b) puts the recipe point (p+1, 1) on
    # x^3 + lambda*b = y^3 + lambda*d, as (p+1)^3 - 1 = lambda*(d - b)
    prime = next(primes_avoiding([6, diff.numerator, diff.denominator]))
    t = (prime + 1) ** 3 - 1
    scale = Fraction(t) / diff
    # the cubic's model Y^2 = X^3 - 27t^2/4 scales by u = 2 to y^2 = x^3 + k, k = -432t^2;
    # a sixth-power-free k has torsion only for k = 1, -432, a square or a cube (Silverman,
    # AEC, Exercise 10.19), and v_p(k) = 2 for p >= 5 rules out all four (k < 0, 3 does
    # not divide 2, v_p(-432) = 0): every affine point, the seed included, has infinite order
    return PreparedPair(
        route=ROUTE_JZERO,
        curve1=Curve(0, scale * b),
        curve2=Curve(0, scale * d),
        scale=scale,
        cubic=PlaneCubic(0, scale * b, 0, scale * d),
        seed=ProjPoint(prime + 1, 1, 1),
    )


def prepare_pair(curve1: Curve, curve2: Curve) -> PreparedPair:
    """Route a pair and build everything generation needs.

    A Q-isomorphic pair takes the isomorphic route; otherwise both curves
    with a == 0 go the jzero way.  Everything else gets a rescaling search
    and the general route.
    """
    iso_scale = are_isomorphic_over_q(curve1, curve2)
    if iso_scale is not None:
        return PreparedPair(
            route=ROUTE_ISOMORPHIC,
            curve1=curve1,
            curve2=curve2,
            scale=iso_scale,
        )
    if curve1.has_j_zero and curve2.has_j_zero:
        return _prepare_jzero(curve1, curve2)
    return lambda_search(curve1, curve2)


# ---------------------------------------------------------------- generation


def _label_square(value: Fraction, effort: int) -> tuple[int, bool]:
    # numerator and denominator are coprime, so the product of their
    # squarefree parts is the squarefree part of numerator*denominator; each
    # quotient by its part is a square, and s is the product of their roots
    num, den = value.numerator, value.denominator
    num_part, num_complete = squarefree_part(num, effort)
    den_part, den_complete = squarefree_part(den, effort)
    return isqrt(num // num_part) * isqrt(den // den_part), num_complete and den_complete


#: One step of a generation stream: the x of a solution per curve, the first
#: with t = 1, so the candidate D is the first curve's value at its x.
Candidate = tuple[Fraction, ...]


def _seed_multiples(pp: PreparedPair) -> Iterator[Candidate]:
    """kP, then -kP, for k = 1, 2, 3, ... of the seed P, as its coordinates (x, y).

    D, the common cubic value, at -kP is far shorter than at kP or (k+1)P; -kP
    is computed only when read.  P is non-torsion, so no +-kP is the base
    point, the only rational point at infinity.
    """
    cubic, seed = pp.cubic, pp.seed
    assert cubic is not None and seed is not None
    current = point = seed
    while True:
        yield point.affine()
        if point is current:
            point = cubic.negate(current)
        else:
            current = point = cubic.add(current, seed)


def _integer_inputs(copies: int = 1) -> Iterator[Candidate]:
    """Inputs x = 1, 2, 3, ... of the cubic, once per copy."""
    for n in count(1):
        yield (Fraction(n),) * copies


def _carried(candidates: Iterator[Candidate], u: Fraction) -> Iterator[Candidate]:
    """Carry second solutions (x, t) on (a, b) to (u^2*x, u^3*t) on its twist by u^2, curve 2."""
    for first, x in candidates:
        yield first, u * u * x


def _run_generation(
    candidates: Iterator[Candidate],
    curves: tuple[Curve, ...],
    cfg: Config,
    report: RunReport,
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Certify candidates in order until the target count or the budget.

    A candidate is kept only when it passes ``verify_certificate``'s checks,
    the label last, as building it costs a factorization; otherwise k is
    skipped with the verifier's reason code.  Returns the certificates, the
    ``curves`` their solutions lie on, and the report, whose ``accepted``
    keeps each accepted (k, D) once.
    """
    certificates: list[TwistCertificate] = []
    steps = islice(candidates, MAX_ITERATIONS)
    for k, xs in enumerate(steps, start=1):
        report.iterations_used = k
        value = curves[0].rhs(xs[0])
        if value == 0:
            reason = SKIP_ZERO_VALUE
        elif any(same_square_class(value, seen) for _, seen in report.accepted):
            reason = SKIP_CLASS_COLLISION
        else:
            solutions = _solutions(value, xs, curves)
            reason = (SOLUTION_MISMATCH if solutions is None
                      else _torsion_reason(value, solutions, curves))
        if reason is None:
            cert = TwistCertificate(value, xs, *_label_square(value, cfg.factor_effort))
            reason = _label_reason(cert)
        if reason is not None:
            report.skipped.append((k, reason))
            continue
        report.accepted.append((k, value))
        certificates.append(cert)
        if len(certificates) >= cfg.target_count:
            break
    report.budget_exhausted = len(certificates) < cfg.target_count
    return certificates, curves, report


def generate(
    pp: PreparedPair, cfg: Config
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Run the generation loop on the candidate stream of the prepared route.

    Only the jzero cubic glues the pair's own curves; the other streams carry
    their second solution onto curve 2.
    """
    if pp.route == ROUTE_ISOMORPHIC:
        candidates = _carried(_integer_inputs(copies=2), pp.scale)
    elif pp.route == ROUTE_GENERAL:
        candidates = _carried(_seed_multiples(pp), 1 / pp.scale)
    else:
        candidates = _seed_multiples(pp)
    return _run_generation(candidates, (pp.curve1, pp.curve2), cfg, RunReport(pair=pp))


def elementary_generate(
    curve: Curve, cfg: Config
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Single-curve mode: certificates with one solution each."""
    return _run_generation(_integer_inputs(), (curve,), cfg, RunReport())


def jzero_generate(
    curve1: Curve, curve2: Curve, cfg: Config
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Direct j-invariant-zero mode on the sextic twists by report.pair.scale."""
    if not (curve1.has_j_zero and curve2.has_j_zero):
        raise ValueError("jzero mode needs both curves with a == 0")
    if are_isomorphic_over_q(curve1, curve2) is not None:
        raise ValueError("Q-isomorphic curves; use generate or elementary instead of jzero")
    return generate(_prepare_jzero(curve1, curve2), cfg)


def corollary_mode(
    curve: Curve, delta: Fraction, cfg: Config
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Pair a curve with its own quadratic twist by delta (``report.pair``).

    A certificate for D claims positive rank for the twists by D of both
    curves of the pair; the twist by D of the delta-twisted curve is the
    twist by D*delta of the original curve.  A square delta makes the two
    curves Q-isomorphic, so the pair routes through the isomorphic path.
    The pair ((a, b), (a*delta^2, b*delta^3)) gives delta back: a*b'/(b*a')
    if b != 0, else +-sqrt(a'/a), and either sign gives the same twists.
    """
    if curve.has_j_zero:
        raise ValueError("this mode needs a curve with nonzero j-invariant")
    twisted = quadratic_twist(curve, delta)
    certificates, pair, report = generate(prepare_pair(curve, twisted), cfg)
    report.notes.append(
        "each certified D for the twisted partner certifies D*delta for the "
        "original curve"
    )
    return certificates, pair, report


# -------------------------------------------------------------- verification


def verify_certificate(
    cert: TwistCertificate, pair: Sequence[Curve]
) -> tuple[bool, Optional[str]]:
    """Recompute every claim in a certificate from scratch, on the curves of ``pair``.

    Returns (True, None) or (False, reason) with a stable reason code.  The
    cheap checks come first: the identities, where a wrong x shows as a t that
    is no rational (a bundle's D makes t = 1 at the first x by construction),
    then the label's divisibility test, and the torsion chain last.
    """
    if cert.value == 0:
        return False, SKIP_ZERO_VALUE
    if not cert.solutions:
        return False, "no-curve-entries"
    if len(cert.solutions) != len(pair):
        return False, "entry-count-mismatch"
    solutions = _solutions(cert.value, cert.solutions, pair)
    if solutions is None:
        return False, SOLUTION_MISMATCH
    reason = _label_reason(cert) or _torsion_reason(cert.value, solutions, pair)
    return reason is None, reason


def _label_reason(cert: TwistCertificate) -> Optional[str]:
    # the label num*den/s^2 is an integer in the class of D exactly when s^2
    # divides num*den; a division, not a refactorization: `complete` is not rechecked
    value = cert.value
    if cert.square < 1 or value.numerator * value.denominator % cert.square**2:
        return "label-class-mismatch"
    return None


def _solutions(
    value: Fraction, xs: Sequence[Fraction], pair: Sequence[Curve]
) -> Optional[tuple[tuple[Fraction, Fraction], ...]]:
    """Each x with the t >= 0 of D*t^2 = x^3 + a*x + b on its curve, or None if a t is irrational.

    x and D fix t up to sign, and -t gives the negated point, of the same order.
    """
    ts = [is_perfect_square(curve.rhs(x) / value) for curve, x in zip(pair, xs)]
    return None if None in ts else tuple(zip(xs, ts))


def _torsion_reason(value: Fraction, solutions: tuple, pair: Sequence[Curve]) -> Optional[str]:
    for curve, (x, t) in zip(pair, solutions):
        # (D*x, D^2*t) is the solution's point on the twist model by D; t = 0
        # gives a point of order 2
        point = WPoint(value * x, value * value * t)
        if not certify_nontorsion(quadratic_twist(curve, value), point):
            return "torsion-point"
    return None


def verify_bundle(
    pair: Sequence[Curve], certs: Sequence[TwistCertificate]
) -> tuple[bool, list[tuple[bool, Optional[str]]], bool]:
    """Per-certificate results plus a pairwise square-class recheck."""
    results = [verify_certificate(cert, pair) for cert in certs]
    ledger_ok = _distinct_square_classes([cert.value for cert in certs])
    overall = all(ok for ok, _ in results) and ledger_ok
    return overall, results, ledger_ok


# ------------------------------------------------------------- serialization


def parse_curve(text: str) -> Curve:
    """The curve of the text ``a,b``, as the CLI takes it and a bundle's pair writes it."""
    if text.count(",") != 1:
        raise ValueError(f"curve format is a,b with rational entries: {excerpt(repr(text))}")
    return Curve(*parse_rationals(text))


#: The JSON kind of each type that json.load produces.
_JSON_KINDS = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _json_value(value, kind: type):
    """``value`` if its JSON type is exactly ``kind``: JSON true is no integer.

    The error names the kind received, not the value, which may be any size.
    """
    if type(value) is not kind:
        got = _JSON_KINDS.get(type(value), type(value).__name__)
        raise ValueError(f"expected a JSON {_JSON_KINDS[kind]}, got a JSON {got}")
    return value


def _fixed_fields(data: dict, names: tuple[str, ...], what: str) -> dict:
    """``data`` if it is a JSON object with exactly the keys ``names``."""
    _json_value(data, dict)
    for name in names:
        if name not in data:
            raise ValueError(f"malformed {what}: missing field {name!r}")
    for key in data:
        if key not in names:
            raise ValueError(f"malformed {what}: unexpected field {excerpt(repr(key))}")
    return data


def certificate_to_dict(cert: TwistCertificate) -> dict:
    return {
        "x": format_rationals(cert.solutions),
        "square": str(cert.square),
        "complete": cert.complete,
    }


def certificate_from_dict(data: dict, curve1: Curve) -> TwistCertificate:
    """Parse one certificate of a bundle whose pair starts with ``curve1``.

    Neither D, any t nor the label is stored: ``x`` is the text ``x1,x2,...``,
    one x per pair curve, and x1 fixes D as curve1.rhs(x1).  A malformed
    certificate raises ValueError.  Every object has a fixed set of keys: a
    missing one is named, and one outside the set is rejected, so no claim the
    verifier does not check can ride along.
    """
    _fixed_fields(data, ("x", "square", "complete"), "certificate")
    xs = parse_rationals(_json_value(data["x"], str))
    return TwistCertificate(
        value=curve1.rhs(xs[0]),
        solutions=xs,
        square=parse_integer(data["square"]),
        complete=_json_value(data["complete"], bool),
    )


def bundle_to_dict(pair: Sequence[Curve], certs: Sequence[TwistCertificate]) -> dict:
    return {
        "version": BUNDLE_VERSION,
        "pair": [format_rationals((curve.a, curve.b)) for curve in pair],
        "certificates": [certificate_to_dict(cert) for cert in certs],
    }


def bundle_from_dict(data: dict) -> tuple[list[Curve], list[TwistCertificate]]:
    """Parse a bundle into its pair and certificates; a malformed one raises ValueError.

    The pair's first curve fixes every certificate's D, so an empty pair is malformed.
    """
    _fixed_fields(data, ("version", "pair", "certificates"), "bundle")
    if _json_value(data["version"], int) != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version: {excerpt(repr(data['version']))}")
    pair = [parse_curve(_json_value(c, str)) for c in _json_value(data["pair"], list)]
    if not pair:
        raise ValueError("malformed bundle: empty pair")
    entries = _json_value(data["certificates"], list)
    if len(entries) > MAX_ITERATIONS:  # no run writes more; bounds verify_bundle's pairwise check
        raise ValueError(f"malformed bundle: {len(entries)} certificates; "
                         f"a run writes at most {MAX_ITERATIONS}")
    certs = [certificate_from_dict(c, pair[0]) for c in entries]
    return pair, certs
