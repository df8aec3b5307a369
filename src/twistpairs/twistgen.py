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
  cubic of (0, lambda*b) and (0, lambda*d), and these sextic twists replace
  the given curves as the pair: every claim is about them.

On the general and isomorphic routes the second solution is found on a model
Q-isomorphic to curve 2 and carried onto curve 2 itself.  Every emitted value
D comes with a certificate that states the claim only: per pair curve, a
solution (x, t) of D*t^2 = x^3 + a*x + b on that curve, and is emitted only
when the verifier, which recomputes everything, accepts it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, islice
from math import gcd
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactnum import (
    DEFAULT_FACTOR_EFFORT,
    ValueObject,
    excerpt,
    format_rational,
    parse_integer,
    parse_rational,
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

REJECT_SINGULAR = "singular-cubic"
REJECT_EQUAL_LEADING = "a-equals-scaled-c"
REJECT_TORSION_SEED = "torsion-seed"
ACCEPTED = "accepted"

BUNDLE_VERSION = 6

#: Height bound of the rescaling search, and the number of primes the jzero
#: recipe tries.
LAMBDA_SEARCH_BOUND = 40


class Config(ValueObject):
    """Knobs for the search loops; every bound is finite and explicit."""

    _fields = __slots__ = ("target_count", "max_iterations", "factor_effort")

    def __init__(self, target_count: int = 1, max_iterations: int = 64,
                 factor_effort: int = DEFAULT_FACTOR_EFFORT) -> None:
        self.target_count, self.max_iterations, self.factor_effort = (
            target_count, max_iterations, factor_effort)
        if self.target_count < 1:
            raise ValueError("target_count must be at least 1")
        for name in ("max_iterations", "factor_effort"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


class SearchExhausted(Exception):
    """A bounded search ran out without success; carries its trial log."""

    def __init__(self, message: str, trials: tuple = ()):
        super().__init__(message)
        self.trials = trials


class LambdaTrial(NamedTuple):
    scale: Fraction
    outcome: str


class PreparedPair(NamedTuple):
    """A routed pair, ready for generation.

    On cubic-backed routes the seed point lies on the cubic and has infinite
    order; the general route's pair is what ``lambda_search`` returns, and
    ``trials`` logs its scales (the jzero route's, its primes), ending with
    the accepted one.  On the jzero route the curves are the sextic twists by
    ``scale`` of the given curves, and the recipe's prime is ``trials[-1].scale``.
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
    """The claim for one D: a solution (x, t) per pair curve, in pair order."""

    k: int
    value: Fraction
    squarefree_rep: tuple[int, bool]
    solutions: tuple[tuple[Fraction, Fraction], ...]


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
                f"prime: {pp.trials[-1].scale}, seed value t: {pp.curve2.b - pp.curve1.b}",
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


def lambda_search(curve1: Curve, curve2: Curve, bound: int) -> PreparedPair:
    """The general route of the pair, from the first rescaling that yields a seed.

    A candidate scale L replaces (c, d) by its twist by L^2, (L^4*c, L^6*d);
    it is accepted when the glued cubic is smooth, its tangent point is
    defined (a differs from the rescaled c), and that point has infinite
    order.  The result carries every trial up to the accepted one.  Raises
    SearchExhausted with the full trial log when the bound runs out.
    """
    a, b = curve1.a, curve1.b
    trials: list[LambdaTrial] = []
    for scale in enumerate_scales(bound):
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
        f"no usable rescaling up to height {bound} "
        f"for the pair ({curve1}) / ({curve2})",
        tuple(trials),
    )


def _prepare_jzero(curve1: Curve, curve2: Curve) -> PreparedPair:
    b, d = curve1.b, curve2.b
    diff = d - b
    # p avoids 2, 3 and the primes of d - b, so t = (p+1)^3 - 1 = p*(p^2 + 3p + 3)
    # is divisible by p exactly once (p^2 + 3p + 3 is 3 mod p) and fresh with
    # respect to the pair; lambda = t/(d - b) puts the recipe point (p+1, 1) on
    # x^3 + lambda*b = y^3 + lambda*d, as (p+1)^3 - 1 = lambda*(d - b)
    exclusions = [6, diff.numerator, diff.denominator]
    attempts: list[LambdaTrial] = []
    prime_stream = primes_avoiding(exclusions)
    for _ in range(LAMBDA_SEARCH_BOUND):
        prime = next(prime_stream)
        t = (prime + 1) ** 3 - 1
        scale = Fraction(t) / diff
        cubic = PlaneCubic(0, scale * b, 0, scale * d)
        seed = ProjPoint(prime + 1, 1, 1)
        if not cubic.certify_nontorsion(seed):
            attempts.append(LambdaTrial(Fraction(prime), REJECT_TORSION_SEED))
            continue
        attempts.append(LambdaTrial(Fraction(prime), ACCEPTED))
        return PreparedPair(
            route=ROUTE_JZERO,
            curve1=Curve(0, scale * b),
            curve2=Curve(0, scale * d),
            scale=scale,
            cubic=cubic,
            seed=seed,
            trials=tuple(attempts),
        )
    raise SearchExhausted(
        f"no usable prime among the first {LAMBDA_SEARCH_BOUND} candidates",
        tuple(attempts),
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
    return lambda_search(curve1, curve2, LAMBDA_SEARCH_BOUND)


# ---------------------------------------------------------------- generation


def _squarefree_rep(value: Fraction, effort: int) -> tuple[int, bool]:
    # numerator and denominator are coprime, so the product of their
    # squarefree parts is the squarefree part of numerator*denominator, an
    # integer in the square class of the value
    num_part, num_complete = squarefree_part(value.numerator, effort)
    den_part, den_complete = squarefree_part(value.denominator, effort)
    return num_part * den_part, num_complete and den_complete


#: One step of a generation stream: a candidate twist value D with one
#: (x, t) solution of D*t^2 = x^3 + a*x + b per curve.
Candidate = tuple[Fraction, tuple[tuple[Fraction, Fraction], ...]]


def _seed_multiples(pp: PreparedPair) -> Iterator[Candidate]:
    """kP, then -kP, for k = 1, 2, 3, ... of the seed P; D is the common cubic value.

    D at -kP is far shorter than at kP or (k+1)P; -kP is computed only when read.
    P is non-torsion, so no +-kP is the base point, the only rational point at infinity.
    """
    cubic, seed = pp.cubic, pp.seed
    assert cubic is not None and seed is not None
    current = point = seed
    while True:
        x_coord, y_coord = point.affine()
        yield cubic.common_value(point), (
            (x_coord, Fraction(1)),
            (y_coord, Fraction(1)),
        )
        if point is current:
            point = cubic.negate(current)
        else:
            current = point = cubic.add(current, seed)


def _integer_inputs(curve: Curve, copies: int = 1) -> Iterator[Candidate]:
    """Inputs x = 1, 2, 3, ... of the cubic; D is its value at x, solved by (x, 1) per copy."""
    for n in count(1):
        x_input = Fraction(n)
        yield curve.rhs(x_input), ((x_input, Fraction(1)),) * copies


def _carried(candidates: Iterator[Candidate], u: Fraction) -> Iterator[Candidate]:
    """Carry second solutions (x, t) on (a, b) to (u^2*x, u^3*t) on its twist by u^2, curve 2."""
    for value, (first, (x, t)) in candidates:
        yield value, (first, (u**2 * x, u**3 * t))


def _run_generation(
    candidates: Iterator[Candidate],
    curves: tuple[Curve, ...],
    cfg: Config,
    report: RunReport,
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Certify candidates in order until the target count or the budget.

    A candidate is kept only when it passes ``verify_certificate``'s checks,
    solutions before label; otherwise k is skipped with the verifier's reason
    code.  Returns the certificates, the ``curves`` their solutions lie on,
    and the report, whose ``accepted`` keeps each accepted (k, D) once.
    """
    certificates: list[TwistCertificate] = []
    steps = islice(candidates, cfg.max_iterations)
    for k, (value, solutions) in enumerate(steps, start=1):
        report.iterations_used = k
        if value == 0:
            reason = SKIP_ZERO_VALUE
        elif any(same_square_class(value, seen) for _, seen in report.accepted):
            reason = SKIP_CLASS_COLLISION
        else:
            reason = _solutions_reason(value, solutions, curves)
        if reason is None:
            cert = TwistCertificate(
                k=k,
                value=value,
                squarefree_rep=_squarefree_rep(value, cfg.factor_effort),
                solutions=solutions,
            )
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
        candidates = _carried(_integer_inputs(pp.curve1, copies=2), pp.scale)
    elif pp.route == ROUTE_GENERAL:
        candidates = _carried(_seed_multiples(pp), 1 / pp.scale)
    else:
        candidates = _seed_multiples(pp)
    return _run_generation(candidates, (pp.curve1, pp.curve2), cfg, RunReport(pair=pp))


def elementary_generate(
    curve: Curve, cfg: Config
) -> tuple[list[TwistCertificate], tuple[Curve, ...], RunReport]:
    """Single-curve mode: certificates with one solution each."""
    return _run_generation(_integer_inputs(curve), (curve,), cfg, RunReport())


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

    Returns (True, None) or (False, reason) with a stable reason code.
    """
    if cert.value == 0:
        return False, SKIP_ZERO_VALUE
    if not cert.solutions:
        return False, "no-curve-entries"
    if len(cert.solutions) != len(pair):
        return False, "entry-count-mismatch"
    reason = _label_reason(cert) or _solutions_reason(cert.value, cert.solutions, pair)
    return reason is None, reason


def _label_reason(cert: TwistCertificate) -> Optional[str]:
    # a square test, not a refactorization: `complete` is not rechecked
    label = cert.squarefree_rep[0]
    if label == 0 or not same_square_class(Fraction(label), cert.value):
        return "label-class-mismatch"
    return None


def _solutions_reason(value: Fraction, solutions: tuple, pair: Sequence[Curve]) -> Optional[str]:
    for curve, (x, t) in zip(pair, solutions):
        if value * t * t != curve.rhs(x):
            return "solution-mismatch"
        # (D*x, D^2*t) is the solution's point on the twist model by D
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


def curve_to_dict(curve: Curve) -> dict:
    return {"a": format_rational(curve.a), "b": format_rational(curve.b)}


def curve_from_dict(data: dict) -> Curve:
    data = _fixed_fields(data, ("a", "b"), "pair curve")
    return Curve(parse_rational(data["a"]), parse_rational(data["b"]))


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
        "k": cert.k,
        "D": format_rational(cert.value),
        "squarefree_D": {
            "value": str(cert.squarefree_rep[0]),
            "complete": cert.squarefree_rep[1],
        },
        "solutions": [
            {"x": format_rational(x), "t": format_rational(t)} for x, t in cert.solutions
        ],
    }


def certificate_from_dict(data: dict) -> TwistCertificate:
    """Parse one certificate; a malformed one raises ValueError.

    Every object has a fixed set of keys: a missing one is named, and one
    outside the set is rejected, so no claim the verifier does not check can
    ride along.
    """
    _fixed_fields(data, ("k", "D", "squarefree_D", "solutions"), "certificate")
    label = _fixed_fields(data["squarefree_D"], ("value", "complete"), "certificate")
    solutions = [_fixed_fields(s, ("x", "t"), "certificate")
                 for s in _json_value(data["solutions"], list)]
    return TwistCertificate(
        k=_json_value(data["k"], int),
        value=parse_rational(data["D"]),
        squarefree_rep=(parse_integer(label["value"]), _json_value(label["complete"], bool)),
        solutions=tuple((parse_rational(s["x"]), parse_rational(s["t"])) for s in solutions),
    )


def bundle_to_dict(pair: Sequence[Curve], certs: Sequence[TwistCertificate]) -> dict:
    return {
        "version": BUNDLE_VERSION,
        "pair": [curve_to_dict(curve) for curve in pair],
        "certificates": [certificate_to_dict(cert) for cert in certs],
    }


def bundle_from_dict(data: dict) -> tuple[list[Curve], list[TwistCertificate]]:
    """Parse a bundle into its pair and certificates; a malformed one raises ValueError."""
    _fixed_fields(data, ("version", "pair", "certificates"), "bundle")
    if _json_value(data["version"], int) != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version: {excerpt(repr(data['version']))}")
    pair = [curve_from_dict(c) for c in _json_value(data["pair"], list)]
    return pair, [certificate_from_dict(c) for c in _json_value(data["certificates"], list)]
