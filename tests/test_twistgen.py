"""Routing, searches, generation loops, certificates, verification."""

import json
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from twistpairs.exactnum import (
    DEFAULT_FACTOR_EFFORT,
    is_probable_prime,
    primes_avoiding,
    same_square_class,
    squarefree_part,
)
from twistpairs.planecubic import PlaneCubic, ProjPoint
from twistpairs.twistgen import (
    ACCEPTED,
    LAMBDA_SEARCH_BOUND,
    MAX_ITERATIONS,
    Config,
    REJECT_EQUAL_LEADING,
    REJECT_SINGULAR,
    REJECT_TORSION_SEED,
    ROUTE_GENERAL,
    ROUTE_ISOMORPHIC,
    ROUTE_JZERO,
    SKIP_CLASS_COLLISION,
    SKIP_ZERO_VALUE,
    RunReport,
    SearchExhausted,
    TwistCertificate,
    _label_square,
    _seed_multiples,
    _solutions,
    bundle_from_dict,
    bundle_to_dict,
    certificate_from_dict,
    certificate_to_dict,
    corollary_mode,
    elementary_generate,
    enumerate_scales,
    generate,
    jzero_generate,
    lambda_search,
    parse_curve,
    prepare_pair,
    verify_bundle,
    verify_certificate,
)
from twistpairs.weierstrass import Curve, WPoint, quadratic_twist

CFG = Config(target_count=5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Config(target_count=0)
        with pytest.raises(ValueError):
            Config(factor_effort=0)

    def test_no_count_beyond_the_walk(self):
        # a walk of MAX_ITERATIONS steps writes at most that many certificates
        assert Config(MAX_ITERATIONS).target_count == 64
        with pytest.raises(ValueError, match="target_count must be from 1 to 64"):
            Config(MAX_ITERATIONS + 1)

    def test_equal_by_fields(self):
        assert Config(target_count=2) == Config(2, DEFAULT_FACTOR_EFFORT)
        assert hash(Config(2)) == hash(Config(2))
        assert Config(target_count=2) != Config(target_count=3)
        # the walk's step budget is the constant MAX_ITERATIONS, no field
        assert Config._fields == ("target_count", "factor_effort")


class TestParseCurve:
    def test_curve_text(self):
        assert parse_curve("1,1") == Curve(1, 1)
        assert parse_curve("-5/2,9") == Curve(Fraction(-5, 2), 9)

    @pytest.mark.parametrize("text", ["1", "1,2,3", ""])
    def test_two_entries(self, text):
        with pytest.raises(ValueError, match="curve format is a,b"):
            parse_curve(text)


class TestScaleEnumeration:
    def test_order(self):
        assert list(enumerate_scales(3)) == [
            Fraction(1),
            Fraction(2), Fraction(1, 2),
            Fraction(3), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3),
        ]

    def test_reduced_and_distinct(self):
        scales = list(enumerate_scales(12))
        assert len(scales) == len(set(scales))
        assert all(q > 0 for q in scales)


class TestRouting:
    def test_jzero_pair(self):
        pp = prepare_pair(Curve(0, 1), Curve(0, 2))
        assert pp.route == ROUTE_JZERO

    def test_isomorphic_pair(self):
        pp = prepare_pair(Curve(1, 1), Curve(16, 64))
        assert pp.route == ROUTE_ISOMORPHIC
        assert pp.scale == 2

    def test_general_pair(self):
        pp = prepare_pair(Curve(1, 1), Curve(2, 2))
        assert pp.route == ROUTE_GENERAL
        assert pp.scale == 1
        assert pp.seed.affine() == (-1, -1)
        assert pp.cubic.certify_nontorsion(pp.seed) is True

    def test_isomorphic_j_zero_pair_goes_isomorphic(self):
        # 64 = 2^6, so u = 2 maps y^2 = x^3 + 1 onto y^2 = x^3 + 64
        cfg = Config(target_count=3)
        pp = prepare_pair(Curve(0, 1), Curve(0, 64))
        assert pp.route == ROUTE_ISOMORPHIC
        assert pp.scale == 2
        certs, pair, _ = generate(pp, cfg)
        assert len(certs) == 3
        assert pair == (Curve(0, 1), Curve(0, 64))
        overall, _, _ = verify_bundle(pair, certs)
        assert overall

    def test_identical_j_zero_goes_isomorphic(self):
        pp = prepare_pair(Curve(0, 1), Curve(0, 1))
        assert pp.route == ROUTE_ISOMORPHIC
        assert pp.scale == 1

    def test_general_working_model_is_isomorphic_rescale(self):
        from twistpairs.weierstrass import are_isomorphic_over_q

        pp = prepare_pair(Curve(2, 3), Curve(1, 1))
        assert pp.route == ROUTE_GENERAL
        model2 = quadratic_twist(pp.curve2, pp.scale * pp.scale)
        assert model2.a == pp.scale**4 * 1
        assert model2.b == pp.scale**6 * 1
        assert are_isomorphic_over_q(pp.curve2, model2) is not None
        assert (pp.cubic.c, pp.cubic.d) == (model2.a, model2.b)

    def test_route_totality_randomized(self, monkeypatch):
        import random

        import twistpairs.twistgen as twistgen
        from twistpairs.weierstrass import are_isomorphic_over_q, disc_quantity

        # a lower bound only makes the pairs that exhaust give up sooner
        monkeypatch.setattr(twistgen, "LAMBDA_SEARCH_BOUND", 20)
        rng = random.Random(103)
        routes = {ROUTE_GENERAL, ROUTE_ISOMORPHIC, ROUTE_JZERO}
        for _ in range(30):
            coeffs = [rng.randint(-5, 5) for _ in range(4)]
            if disc_quantity(coeffs[0], coeffs[1]) == 0 or disc_quantity(coeffs[2], coeffs[3]) == 0:
                continue
            first, second = Curve(coeffs[0], coeffs[1]), Curve(coeffs[2], coeffs[3])
            try:
                pp = prepare_pair(first, second)
            except SearchExhausted:
                continue
            assert pp.route in routes
            jzero_pair = (
                first.has_j_zero and second.has_j_zero and first.b != second.b
                and are_isomorphic_over_q(first, second) is None
            )
            assert (pp.route == ROUTE_JZERO) == jzero_pair


class TestLambdaSearch:
    def test_worked_pair_accepts_one(self):
        pp = lambda_search(Curve(1, 1), Curve(2, 2))
        assert pp.scale == 1
        assert pp.seed.affine() == (-1, -1)
        assert pp.trials[-1].outcome == ACCEPTED
        # the search's result is the general route itself, and the
        # benchmark's tracer counts trials as its item 4
        assert pp == prepare_pair(Curve(1, 1), Curve(2, 2))
        assert pp.route == ROUTE_GENERAL
        assert pp[4] is pp.trials

    def test_equal_leading_rejection(self):
        pp = lambda_search(Curve(1, 1), Curve(1, 2))
        assert [(t.scale, t.outcome) for t in pp.trials[:1]] == [
            (Fraction(1), REJECT_EQUAL_LEADING),
        ]
        assert pp.scale == 2

    def test_two_torsion_seed_rejection(self):
        # b equals the rescaled d at scale 1 (and -1, which is never tried),
        # putting the seed at order two; the search must move past it
        pp = lambda_search(Curve(1, 5), Curve(2, 5))
        assert pp.trials[0] == pp.trials[0].__class__(Fraction(1), REJECT_TORSION_SEED)
        assert pp.scale not in (1, -1)

    @pytest.mark.parametrize("curve1, curve2", [
        (Curve(-3, -6), Curve(0, -4)),
        # at scale 1 the leading coefficients are also equal; the singular
        # cubic is reported, as smoothness is checked first
        (Curve(-3, -4), Curve(-3, 0)),
    ], ids=["singular", "singular-and-equal-leading"])
    def test_singular_cubic_rejection(self, curve1, curve2):
        pp = lambda_search(curve1, curve2)
        assert [(t.scale, t.outcome) for t in pp.trials] == [
            (Fraction(1), REJECT_SINGULAR),
            (Fraction(2), ACCEPTED),
        ]
        assert pp.scale == 2
        assert (pp.cubic.c, pp.cubic.d) == (16 * curve2.a, 64 * curve2.b)

    def test_bound_exhaustion(self):
        # a j = 1728 pair: the tangent point has order 2 at every scale
        with pytest.raises(SearchExhausted) as info:
            lambda_search(Curve(1, 0), Curve(2, 0))
        assert [t.scale for t in info.value.trials] == list(enumerate_scales(LAMBDA_SEARCH_BOUND))
        assert len(info.value.trials) == 979
        assert {t.outcome for t in info.value.trials} == {REJECT_TORSION_SEED}


@pytest.fixture(scope="module")
def run(request):
    pp = prepare_pair(Curve(1, 1), Curve(2, 2))
    certs, pair, report = generate(pp, CFG)
    return pp, certs, pair, report


class TestGenerateWorkedPair:
    def test_first_certificate(self, run):
        pp, certs, _, _ = run
        first = certs[0]
        assert first.value == -1
        assert first.solutions == (-1, -1)
        assert _solutions(first.value, first.solutions, PAIR) == ((-1, 1), (-1, 1))
        twist_model = quadratic_twist(pp.curve1, first.value)
        assert (twist_model.a, twist_model.b) == (1, -1)
        # (D*x, D^2*t) for the solution (-1, 1) and D = -1
        assert twist_model.contains(WPoint(Fraction(1), Fraction(1)))

    def test_five_distinct_classes(self, run):
        _, certs, _, _ = run
        assert len(certs) == 5
        values = [c.value for c in certs]
        for i, v1 in enumerate(values):
            for v2 in values[i + 1:]:
                assert not same_square_class(v1, v2)

    def test_all_verify(self, run):
        pp, certs, pair, _ = run
        assert pair == (pp.curve1, pp.curve2)
        for cert in certs:
            ok, reason = verify_certificate(cert, pair)
            assert ok, reason

    def test_monotone_progress_and_reasons(self, run):
        _, _, _, report = run
        ks = [k for k, _ in report.accepted]
        assert ks == sorted(ks)
        # a generated certificate can fail the verifier only on its torsion check
        valid = {SKIP_ZERO_VALUE, SKIP_CLASS_COLLISION, "torsion-point"}
        assert all(reason in valid for _, reason in report.skipped)
        assert not report.budget_exhausted

    def test_budget_exhaustion_is_partial_not_error(self):
        certs, _, report = elementary_generate(Curve(-1, 0), Config(64, 1))
        assert report.budget_exhausted
        assert report.iterations_used == MAX_ITERATIONS == 64
        assert len(certs) == 59


class TestSeedStream:
    """The general and jzero routes walk P, -P, 2P, -2P, ... of the seed P."""

    @pytest.fixture(scope="class")
    def worked(self):
        return prepare_pair(Curve(1, 1), Curve(2, 2))

    def test_plus_then_minus_multiples(self, worked):
        cubic, seed = worked.cubic, worked.seed
        points = [cubic.scalar_mul(sign * k, seed) for k in range(1, 5) for sign in (1, -1)]
        assert list(islice(_seed_multiples(worked), 8)) == [p.affine() for p in points]

    def test_bit_lengths_of_the_first_steps(self, worked):
        # the kP-only walk reached 1, 37, 93, 181, 289 in five steps
        bits = [worked.curve1.rhs(x).numerator.bit_length()
                for x, _ in islice(_seed_multiples(worked), 9)]
        assert bits == [1, 20, 37, 74, 93, 146, 181, 252, 289]

    def test_k_is_the_stream_index(self, worked):
        certs, _, report = generate(worked, Config(target_count=3, factor_effort=1))
        assert [k for k, _ in report.accepted] == [1, 2, 3] and not report.skipped
        negative = worked.cubic.negate(worked.seed)
        assert certs[1].value == worked.cubic.common_value(negative)

    def test_count_one_never_negates(self, worked, monkeypatch):
        calls = []
        negate = PlaneCubic.negate

        def counted(self, point):
            calls.append(point)
            return negate(self, point)

        monkeypatch.setattr(PlaneCubic, "negate", counted)
        generate(worked, Config(target_count=1))
        assert calls == []
        generate(worked, Config(target_count=2, factor_effort=1))
        assert calls == [worked.seed]


class TestGeneralTransport:
    def test_second_solution_lies_on_curve_two(self):
        # lambda = 2: the cubic glues y^2 = x^3 + 16*x + 128, and its input
        # -127/15 is carried to curve 2 by (x, t) -> (x/4, t/8)
        cfg = Config(target_count=1)
        pp = prepare_pair(Curve(1, 1), Curve(1, 2))
        assert (pp.route, pp.scale) == (ROUTE_GENERAL, 2)
        certs, _, _ = generate(pp, cfg)
        assert certs[0].solutions == (Fraction(-127, 15), Fraction(-127, 60))
        assert certs[0].value * Fraction(1, 8) ** 2 == Curve(1, 2).rhs(Fraction(-127, 60))
        assert verify_certificate(certs[0], [Curve(1, 1), Curve(1, 2)]) == (True, None)


class TestElementary:
    def test_first_value(self):
        certs, pair, report = elementary_generate(Curve(1, 1), Config(target_count=3))
        assert report.accepted[0] == (1, Fraction(3))
        twist_model = quadratic_twist(Curve(1, 1), certs[0].value)
        assert (twist_model.a, twist_model.b) == (9, 27)
        # (D*x, D^2*t) for the solution (1, 1) and D = 3
        assert certs[0].solutions == (1,)
        assert twist_model.contains(WPoint(Fraction(3), Fraction(9)))
        assert pair == (Curve(1, 1),)
        assert verify_bundle(pair, certs)[0]

    def test_square_value_collides_with_earlier_square(self):
        # x^3 - x + 1 takes the square values 1 at x=1 and 25 at x=3
        certs, _, report = elementary_generate(Curve(-1, 1), Config(target_count=3))
        assert (1, Fraction(1)) in report.accepted
        assert (3, SKIP_CLASS_COLLISION) in report.skipped

    def test_torsion_candidate_gets_no_label(self, monkeypatch):
        # x = 2 gives D = 9 and the point (18, 81) of order 6 on y^2 = x^3 + 729;
        # the solutions check rejects it before any factoring of 9
        import twistpairs.twistgen as twistgen

        factored = []

        def counted(n, effort):
            factored.append(n)
            return squarefree_part(n, effort)

        monkeypatch.setattr(twistgen, "squarefree_part", counted)
        certs, _, report = elementary_generate(Curve(0, 1), Config(target_count=3))
        assert report.skipped == [(2, "torsion-point")]
        assert [c.value for c in certs] == [2, 28, 65]
        assert 9 not in factored and {2, 28, 65} <= set(factored)

    def test_single_entry_certificates(self):
        certs, _, _ = elementary_generate(Curve(1, 1), Config(target_count=2))
        assert all(len(c.solutions) == 1 for c in certs)


class TestIsomorphicTransport:
    def test_two_entries_with_scaled_solution(self):
        cfg = Config(target_count=3)
        pp = prepare_pair(Curve(1, 1), Curve(16, 64))
        certs, pair, _ = generate(pp, cfg)
        assert len(certs) == 3
        for cert in certs:
            first, second = cert.solutions
            # the scaling u=2 sends x to 4x and the unit t to 8
            assert _solutions(cert.value, cert.solutions, pair) == ((first, 1), (4 * first, 8))
            ok, reason = verify_certificate(cert, pair)
            assert ok, reason
        assert verify_bundle(pair, certs)[0]


@pytest.fixture(scope="module")
def jzero_run():
    return jzero_generate(Curve(0, 1), Curve(0, 2), Config(target_count=3))


class TestJZero:
    def test_recipe_values(self, jzero_run):
        _, _, report = jzero_run
        # the recipe's prime is 5: the seed is its point (p+1, 1)
        assert report.pair.seed == ProjPoint(6, 1, 1)
        # the seed value t is the gap between the sextic twists' constants
        assert report.pair.curve2.b - report.pair.curve1.b == 215
        assert "prime: 5, seed value t: 215" in report.lines()
        assert 215 % 5 == 0 and 215 % 25 != 0
        assert report.pair.scale == 215

    def test_recipe_algebra(self):
        # t = (p+1)^3 - 1 = p*(p^2 + 3p + 3) holds p exactly once for p > 3,
        # and the cubic x^3 = y^3 + t of a pair with lambda*(d - b) = t has the
        # model Y^2 = X^3 - 27t^2/4, the premises of the seed's infinite order
        primes = list(filter(is_probable_prime, range(5, 10_000)))
        assert len(primes) == 1227
        for p in primes:
            t = (p + 1) ** 3 - 1
            assert t % p == 0 and t % (p * p) != 0
            assert PlaneCubic(0, 0, 0, t).to_weierstrass() == Curve(0, Fraction(-27 * t * t, 4))
        # the reference chain agrees that the recipe point has infinite order
        small = [p for p in primes if p < 1000]
        assert len(small) == 166
        for p in small:
            t = (p + 1) ** 3 - 1
            assert PlaneCubic(0, 0, 0, t).certify_nontorsion(ProjPoint(p + 1, 1, 1)) is True
        pairs = [(b, d) for b in range(-9, 10) for d in range(-9, 10) if b and d and b != d]
        assert len(pairs) == 306
        for b, d in pairs:
            pp = prepare_pair(Curve(0, b), Curve(0, d))
            assert pp.route == ROUTE_JZERO
            prime = next(primes_avoiding([6, d - b]))
            # the seed (p+1, 1) of the first prime lies on the cubic by
            # construction, and nothing is searched, so nothing is logged
            assert pp.cubic.contains(pp.seed) and pp.seed == ProjPoint(prime + 1, 1, 1)
            assert pp.trials == ()
            t = pp.curve2.b - pp.curve1.b
            assert t == (prime + 1) ** 3 - 1
            assert pp.cubic.to_weierstrass() == Curve(0, Fraction(-27 * t * t, 4))

    def test_seed_and_first_value(self, jzero_run):
        _, pair, report = jzero_run
        # seed (6, 1): 216 + 215 = 431 = 1 + 430
        assert report.accepted[0] == (1, Fraction(431))
        assert pair == (report.pair.curve1, report.pair.curve2) == (Curve(0, 215), Curve(0, 430))

    def test_certificates_verify_distinct(self, jzero_run):
        certs, pair, _ = jzero_run
        assert len(certs) >= 3
        assert verify_bundle(pair, certs)[0]
        # 215 is no rational cube, so y^2 = x^3 + 215 is no quadratic twist
        # of y^2 = x^3 + 1; (6, 1) solves 431*t^2 = x^3 + 215 only
        given = [Curve(0, 1), Curve(0, 2)]
        assert verify_certificate(certs[0], given) == (False, "solution-mismatch")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            jzero_generate(Curve(1, 1), Curve(0, 2), Config())
        with pytest.raises(ValueError):
            jzero_generate(Curve(0, 1), Curve(0, 1), Config())
        # 64 = 2^6: Q-isomorphic, so no sextic twist stands in for the pair
        with pytest.raises(ValueError, match="Q-isomorphic"):
            jzero_generate(Curve(0, 1), Curve(0, 64), Config())

    def test_rational_coefficients(self):
        certs, pair, report = jzero_generate(
            Curve(0, Fraction(1, 2)), Curve(0, Fraction(1, 3)), Config(target_count=1)
        )
        assert certs and verify_certificate(certs[0], pair)[0]
        # lambda * (d - b) recovers the seed value t exactly
        t_value = report.pair.curve2.b - report.pair.curve1.b
        assert report.pair.scale * Fraction(-1, 6) == t_value == 215


class TestRunReport:
    def test_reads_the_walked_pair(self):
        cfg = Config(target_count=1)
        pp = prepare_pair(Curve(0, 1), Curve(0, 2))
        _, _, report = generate(pp, cfg)
        assert report.pair is pp
        t_value = report.pair.curve2.b - report.pair.curve1.b
        assert (report.route, report.pair.seed, t_value) == (ROUTE_JZERO, ProjPoint(6, 1, 1), 215)

    def test_stores_no_copy_of_the_pair(self):
        names = set(vars(RunReport()))
        assert not names & {"route", "prime", "t_value"}

    def test_elementary_has_no_pair(self):
        _, _, report = elementary_generate(Curve(1, 1), Config(target_count=1))
        assert report.pair is None
        assert (report.route, report.pair) == (ROUTE_ISOMORPHIC, None)
        assert report.lines()[0] == "route: isomorphic"

    def test_header_comes_from_the_pair(self):
        cfg = Config(target_count=1)
        _, _, report = generate(prepare_pair(Curve(1, 1), Curve(2, 2)), cfg)
        assert report.lines()[:5] == [
            "route: general (lambda = 1)",
            "pair: y^2 = x^3 + x + 1  |  y^2 = x^3 + 2*x + 2",
            "plane cubic: x^3 + x + 1 = y^3 + 2*y + 2",
            "weierstrass model: Y^2 = X^3 - 6*X - 63/4",
            "seed point: (-1, -1) maps to (12, 81/2)",
        ]
        assert not any("sextic twists" in line for line in report.lines())

    def test_jzero_names_the_sextic_twists(self, jzero_run):
        lines = jzero_run[2].lines()
        assert lines[1] == "pair: y^2 = x^3 + 215  |  y^2 = x^3 + 430"
        assert lines[7] == (
            "the pair above is the sextic twists by lambda of the given curves: "
            "the certificates are about it, not the given curves"
        )


class TestCorollary:
    def test_certificates_are_about_the_pair(self):
        from twistpairs.weierstrass import are_isomorphic_over_q

        # the twist by D of (4, 8) is the twist by 2*D of (1, 1), so the pair's
        # claim already covers D*delta and the certificate states nothing more
        certs, pair, _ = corollary_mode(Curve(1, 1), Fraction(2), Config(target_count=2))
        assert pair == (Curve(1, 1), Curve(4, 8))
        assert list(TwistCertificate._fields) == [
            "value", "solutions", "square", "complete",
        ]
        for cert in certs:
            assert verify_certificate(cert, pair) == (True, None)
            assert are_isomorphic_over_q(
                quadratic_twist(pair[1], cert.value),
                quadratic_twist(pair[0], 2 * cert.value),
            ) is not None

    def test_square_delta_routes_isomorphic(self):
        certs, _, report = corollary_mode(Curve(1, 1), Fraction(4), Config(target_count=2))
        assert report.pair.route == ROUTE_ISOMORPHIC
        assert all(len(c.solutions) == 2 for c in certs)

    def test_j_zero_rejected(self):
        with pytest.raises(ValueError):
            corollary_mode(Curve(0, 1), Fraction(2), Config())

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            corollary_mode(Curve(1, 1), Fraction(0), Config())


class TestDerivedT:
    """The t the verifier derives at each x is the t of the route's point map, up to sign.

    Every stream writes its first solution with t = 1; a carried second
    solution gets u^3 from the scaling u that carries it.
    """

    @pytest.mark.parametrize("run, carried_t", [
        # lambda = 2 carries the cubic's t = 1 by u = 1/2 to 1/8 on curve 2
        (lambda cfg: generate(prepare_pair(Curve(1, 1), Curve(1, 2)), cfg), Fraction(1, 8)),
        # u = 2 carries t = 1 to 8
        (lambda cfg: generate(prepare_pair(Curve(1, 1), Curve(16, 64)), cfg), Fraction(8)),
        (lambda cfg: jzero_generate(Curve(0, 1), Curve(0, 2), cfg), Fraction(1)),
        (lambda cfg: corollary_mode(Curve(1, 1), Fraction(2), cfg), Fraction(1)),
        (lambda cfg: elementary_generate(Curve(1, 1), cfg), None),
    ], ids=["general", "isomorphic", "jzero", "corollary", "elementary"])
    def test_derived_t_is_the_stream_t(self, run, carried_t):
        certs, pair, _ = run(Config(target_count=3, factor_effort=2000))
        assert len(certs) == 3
        for cert in certs:
            ts = [t for _, t in _solutions(cert.value, cert.solutions, pair)]
            assert ts == ([1] if carried_t is None else [1, abs(carried_t)])
            assert cert.value == pair[0].rhs(cert.solutions[0])


class TestAdmission:
    def test_each_candidate_is_tested_once(self, monkeypatch):
        # each candidate is compared once with each value accepted before it,
        # 0 + 1 + 2 + 3 + 4 calls for five acceptances; the label test divides
        # and compares nothing
        import twistpairs.twistgen as twistgen

        calls = []

        def counted(v1, v2):
            calls.append((v1, v2))
            return same_square_class(v1, v2)

        monkeypatch.setattr(twistgen, "same_square_class", counted)
        cfg = Config(target_count=5, factor_effort=1)
        certs, _, report = generate(prepare_pair(Curve(1, 1), Curve(2, 2)), cfg)
        assert len(certs) == 5 and not report.skipped
        comparisons = [(c.value, e.value) for i, c in enumerate(certs) for e in certs[:i]]
        assert calls == comparisons
        assert len(comparisons) == 10


PAIR = (Curve(1, 1), Curve(2, 2))


@pytest.fixture(scope="module")
def cert():
    pp = prepare_pair(*PAIR)
    certs, _, _ = generate(pp, Config(target_count=1))
    return certs[0]


class TestVerification:
    def test_round_trip(self, cert):
        assert verify_certificate(cert, PAIR) == (True, None)

    def test_rescaled_value_still_verifies(self, cert):
        # D -> 4D halves every derived t: the same square class and a consistent
        # certificate; the verifier accepts it, the pairwise class check flags it
        new_value = 4 * cert.value
        scaled_cert = cert._replace(value=new_value)
        assert _solutions(new_value, cert.solutions, PAIR) == ((-1, Fraction(1, 2)),) * 2
        assert verify_certificate(scaled_cert, PAIR) == (True, None)
        assert same_square_class(cert.value, new_value)

    @pytest.mark.parametrize("square", [7, 0])
    def test_tampered_label_detected(self, cert, square):
        # s^2 must divide num*den of D = -1, so that the label is an integer in
        # its class; `complete` is not rechecked
        bad_cert = cert._replace(square=square)
        assert verify_certificate(bad_cert, PAIR) == (False, "label-class-mismatch")

    def test_corrupted_solution_detected(self, cert):
        # x^3 + x + 1 at x = 0 over D = -1 is -1, no square: no rational t
        x, rest = cert.solutions[0], cert.solutions[1:]
        bad_cert = cert._replace(solutions=(x + 1,) + rest)
        ok, reason = verify_certificate(bad_cert, PAIR)
        assert not ok and reason == "solution-mismatch"

    def test_torsion_point_detected(self, cert):
        # x = 2 and D = 1 give t = 3: (2, 3) has order 6 on y^2 = x^3 + 1
        torsion_cert = cert._replace(
            value=Fraction(1), solutions=(Fraction(2),), square=1,
        )
        assert verify_certificate(torsion_cert, [Curve(0, 1)]) == (False, "torsion-point")

    def test_every_identity_before_any_torsion_test(self, cert):
        # D = 1 gives t = 3 at the first x = 2, the order-6 point (2, 3) on
        # y^2 = x^3 + 1; the second x = 0 has no rational t on y^2 = x^3 + 2,
        # and that is the reason reported, not the torsion point
        tampered = cert._replace(
            value=Fraction(1), solutions=(Fraction(2), Fraction(0)), square=1,
        )
        pair = [Curve(0, 1), Curve(0, 2)]
        assert verify_certificate(tampered, pair) == (False, "solution-mismatch")

    def test_solution_beyond_the_pair_detected(self, cert):
        # two solutions, but a pair of one curve
        assert verify_certificate(cert, PAIR[:1]) == (False, "entry-count-mismatch")

    def test_bundle_level_class_collision(self, cert):
        overall, results, ledger_ok = verify_bundle(PAIR, [cert, cert])
        assert all(ok for ok, _ in results)
        assert not ledger_ok
        assert not overall


class TestSerialization:
    def test_certificate_round_trip(self):
        pp = prepare_pair(Curve(1, 1), Curve(2, 2))
        certs, _, _ = generate(pp, Config(target_count=2))
        for cert in certs:
            data = json.loads(json.dumps(certificate_to_dict(cert)))
            assert certificate_from_dict(data, Curve(1, 1)) == cert

    def test_bundle_round_trip(self):
        cfg = Config(target_count=2)
        pp = prepare_pair(Curve(1, 1), Curve(2, 2))
        certs, run_pair, _ = generate(pp, cfg)
        bundle = bundle_to_dict(run_pair, certs)
        assert list(bundle) == ["version", "pair", "certificates"]
        assert bundle["version"] == 10
        assert bundle["pair"] == ["1,1", "2,2"]
        pair, parsed = bundle_from_dict(json.loads(json.dumps(bundle)))
        assert pair == [Curve(1, 1), Curve(2, 2)]
        assert parsed == certs

    def test_schema_field_names(self):
        pp = prepare_pair(Curve(1, 1), Curve(2, 2))
        certs, _, _ = generate(pp, Config(target_count=1))
        data = certificate_to_dict(certs[0])
        assert list(data) == ["x", "square", "complete"]
        assert data["x"] == "-1,-1"
        assert (data["square"], data["complete"]) == ("1", True)


def test_readme_library_block_runs():
    # the "Library" example of the README, executed as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
