"""Routing, searches, generation loops, certificates, verification."""

import json
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from twistpairs.exactnum import same_square_class, valuation
from twistpairs.twistgen import (
    ACCEPTED,
    Config,
    REJECT_EQUAL_LEADING,
    REJECT_SINGULAR,
    REJECT_TORSION_SEED,
    ROUTE_GENERAL,
    ROUTE_ISOMORPHIC,
    ROUTE_JZERO,
    SKIP_CLASS_COLLISION,
    SKIP_TORSION_TWIST,
    SKIP_ZERO_VALUE,
    RunReport,
    SearchExhausted,
    SquareClassLedger,
    TwistCertificate,
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
    prepare_pair,
    verify_bundle,
    verify_certificate,
)
from twistpairs.weierstrass import Curve, WPoint, quadratic_twist, scale_model

CFG = Config(target_count=5, max_iterations=64)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Config(target_count=0)
        with pytest.raises(ValueError):
            Config(max_iterations=0)


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
        pp = prepare_pair(Curve(0, 1), Curve(0, 2), CFG)
        assert pp.route == ROUTE_JZERO

    def test_isomorphic_pair(self):
        pp = prepare_pair(Curve(1, 1), Curve(16, 64), CFG)
        assert pp.route == ROUTE_ISOMORPHIC
        assert pp.scale == 2

    def test_general_pair(self):
        pp = prepare_pair(Curve(1, 1), Curve(2, 2), CFG)
        assert pp.route == ROUTE_GENERAL
        assert pp.scale == 1
        assert pp.seed.affine() == (-1, -1)
        assert pp.cubic.certify_nontorsion(pp.seed) is not None

    def test_isomorphic_j_zero_pair_goes_isomorphic(self):
        # 64 = 2^6, so u = 2 maps y^2 = x^3 + 1 onto y^2 = x^3 + 64
        cfg = Config(target_count=3)
        pp = prepare_pair(Curve(0, 1), Curve(0, 64), cfg)
        assert pp.route == ROUTE_ISOMORPHIC
        assert pp.scale == 2
        certs, _, _ = generate(pp, cfg)
        assert len(certs) == 3
        assert (pp.curve1, pp.curve2) == (Curve(0, 1), Curve(0, 64))
        overall, _, _ = verify_bundle([pp.curve1, pp.curve2], certs)
        assert overall

    def test_identical_j_zero_goes_isomorphic(self):
        pp = prepare_pair(Curve(0, 1), Curve(0, 1), CFG)
        assert pp.route == ROUTE_ISOMORPHIC
        assert pp.scale == 1

    def test_general_working_model_is_isomorphic_rescale(self):
        from twistpairs.weierstrass import are_isomorphic_over_q

        pp = prepare_pair(Curve(2, 3), Curve(1, 1), CFG)
        assert pp.route == ROUTE_GENERAL
        model2, _ = scale_model(pp.curve2, pp.scale)
        assert model2.a == pp.scale**4 * 1
        assert model2.b == pp.scale**6 * 1
        assert are_isomorphic_over_q(pp.curve2, model2) is not None
        assert (pp.cubic.c, pp.cubic.d) == (model2.a, model2.b)

    def test_route_totality_randomized(self):
        import random

        from twistpairs.weierstrass import are_isomorphic_over_q, disc_quantity

        rng = random.Random(103)
        routes = {ROUTE_GENERAL, ROUTE_ISOMORPHIC, ROUTE_JZERO}
        for _ in range(30):
            coeffs = [rng.randint(-5, 5) for _ in range(4)]
            if disc_quantity(coeffs[0], coeffs[1]) == 0 or disc_quantity(coeffs[2], coeffs[3]) == 0:
                continue
            first, second = Curve(coeffs[0], coeffs[1]), Curve(coeffs[2], coeffs[3])
            try:
                pp = prepare_pair(first, second, Config(lambda_search_bound=20))
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
        scale, cubic, seed, witness, trials = lambda_search(Curve(1, 1), Curve(2, 2), 40)
        assert scale == 1
        assert seed.affine() == (-1, -1)
        assert trials[-1].outcome == ACCEPTED

    def test_equal_leading_rejection(self):
        scale, _, _, _, trials = lambda_search(Curve(1, 1), Curve(1, 2), 40)
        assert [(t.scale, t.outcome) for t in trials[:1]] == [
            (Fraction(1), REJECT_EQUAL_LEADING),
        ]
        assert scale == 2

    def test_two_torsion_seed_rejection(self):
        # b equals the rescaled d at scale 1 (and -1, which is never tried),
        # putting the seed at order two; the search must move past it
        scale, _, _, _, trials = lambda_search(Curve(1, 5), Curve(2, 5), 40)
        assert trials[0] == trials[0].__class__(Fraction(1), REJECT_TORSION_SEED)
        assert scale not in (1, -1)

    @pytest.mark.parametrize("curve1, curve2", [
        (Curve(-3, -6), Curve(0, -4)),
        # at scale 1 the leading coefficients are also equal; the singular
        # cubic is reported, as smoothness is checked first
        (Curve(-3, -4), Curve(-3, 0)),
    ], ids=["singular", "singular-and-equal-leading"])
    def test_singular_cubic_rejection(self, curve1, curve2):
        scale, cubic, _, _, trials = lambda_search(curve1, curve2, 40)
        assert [(t.scale, t.outcome) for t in trials] == [
            (Fraction(1), REJECT_SINGULAR),
            (Fraction(2), ACCEPTED),
        ]
        assert scale == 2
        assert (cubic.c, cubic.d) == (16 * curve2.a, 64 * curve2.b)

    def test_bound_exhaustion(self):
        with pytest.raises(SearchExhausted) as info:
            lambda_search(Curve(1, 1), Curve(1, 2), 1)
        assert len(info.value.trials) == 1


@pytest.fixture(scope="module")
def run(request):
    pp = prepare_pair(Curve(1, 1), Curve(2, 2), CFG)
    certs, ledger, report = generate(pp, CFG)
    return pp, certs, ledger, report


class TestGenerateWorkedPair:
    def test_first_certificate(self, run):
        pp, certs, _, _ = run
        first = certs[0]
        assert first.k == 1
        assert first.value == -1
        assert first.solutions[0] == (-1, 1)
        twist_model, to_twist = quadratic_twist(pp.curve1, first.value)
        assert (twist_model.a, twist_model.b) == (1, -1)
        assert to_twist(*first.solutions[0]) == WPoint(Fraction(1), Fraction(1))

    def test_five_distinct_classes(self, run):
        _, certs, _, _ = run
        assert len(certs) == 5
        values = [c.value for c in certs]
        for i, v1 in enumerate(values):
            for v2 in values[i + 1:]:
                assert not same_square_class(v1, v2)

    def test_all_verify(self, run):
        pp, certs, _, _ = run
        for cert in certs:
            ok, reason = verify_certificate(cert, [pp.curve1, pp.curve2])
            assert ok, reason

    def test_monotone_progress_and_reasons(self, run):
        _, _, _, report = run
        ks = [k for k, _ in report.accepted]
        assert ks == sorted(ks)
        valid = {SKIP_ZERO_VALUE, SKIP_TORSION_TWIST, SKIP_CLASS_COLLISION}
        assert all(reason in valid for _, reason in report.skipped)
        assert not report.budget_exhausted

    def test_budget_exhaustion_is_partial_not_error(self):
        cfg = Config(target_count=50, max_iterations=3)
        pp = prepare_pair(Curve(1, 1), Curve(2, 2), cfg)
        certs, _, report = generate(pp, cfg)
        assert report.budget_exhausted
        assert 0 < len(certs) < 50


class TestGeneralTransport:
    def test_second_solution_lies_on_curve_two(self):
        # lambda = 2: the cubic glues y^2 = x^3 + 16*x + 128, and its input
        # -127/15 is carried to curve 2 by (x, t) -> (x/4, t/8)
        cfg = Config(target_count=1)
        pp = prepare_pair(Curve(1, 1), Curve(1, 2), cfg)
        assert (pp.route, pp.scale) == (ROUTE_GENERAL, 2)
        certs, _, _ = generate(pp, cfg)
        assert certs[0].solutions == (
            (Fraction(-127, 15), Fraction(1)), (Fraction(-127, 60), Fraction(1, 8)),
        )
        x, t = certs[0].solutions[1]
        assert certs[0].value * t * t == Curve(1, 2).rhs(x)
        assert verify_certificate(certs[0], [Curve(1, 1), Curve(1, 2)]) == (True, None)


class TestElementary:
    def test_first_value(self):
        certs, _, report = elementary_generate(Curve(1, 1), Config(target_count=3))
        assert report.accepted[0] == (1, Fraction(3))
        twist_model, to_twist = quadratic_twist(Curve(1, 1), certs[0].value)
        assert (twist_model.a, twist_model.b) == (9, 27)
        assert to_twist(*certs[0].solutions[0]) == WPoint(Fraction(3), Fraction(9))
        assert verify_bundle([Curve(1, 1)], certs)[0]

    def test_square_value_collides_with_earlier_square(self):
        # x^3 - x + 1 takes the square values 1 at x=1 and 25 at x=3
        certs, _, report = elementary_generate(Curve(-1, 1), Config(target_count=3))
        assert (1, Fraction(1)) in report.accepted
        assert (3, SKIP_CLASS_COLLISION) in report.skipped

    def test_single_entry_certificates(self):
        certs, _, _ = elementary_generate(Curve(1, 1), Config(target_count=2))
        assert all(len(c.solutions) == 1 for c in certs)


class TestIsomorphicTransport:
    def test_two_entries_with_scaled_solution(self):
        cfg = Config(target_count=3)
        pp = prepare_pair(Curve(1, 1), Curve(16, 64), cfg)
        certs, _, _ = generate(pp, cfg)
        assert len(certs) == 3
        for cert in certs:
            first, second = cert.solutions
            # the scaling u=2 sends x to 4x and the unit t to 8
            assert second == (4 * first[0], 8)
            ok, reason = verify_certificate(cert, [pp.curve1, pp.curve2])
            assert ok, reason
        assert verify_bundle([pp.curve1, pp.curve2], certs)[0]


@pytest.fixture(scope="module")
def jzero_run():
    return jzero_generate(Curve(0, 1), Curve(0, 2), Config(target_count=3))


class TestJZero:
    def test_recipe_values(self, jzero_run):
        certs, ledger, report = jzero_run
        assert report.pair.prime == 5
        assert report.pair.t_value == 215
        assert valuation(215, 5) == 1
        assert report.pair.scale == 215

    def test_seed_and_first_value(self, jzero_run):
        certs, _, report = jzero_run
        # seed (6, 1): 216 + 215 = 431 = 1 + 430
        assert report.accepted[0] == (1, Fraction(431))
        assert (report.pair.curve1, report.pair.curve2) == (Curve(0, 215), Curve(0, 430))

    def test_certificates_verify_distinct(self, jzero_run):
        certs, _, report = jzero_run
        assert len(certs) >= 3
        pair = [report.pair.curve1, report.pair.curve2]
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
        certs, ledger, report = jzero_generate(
            Curve(0, Fraction(1, 2)), Curve(0, Fraction(1, 3)), Config(target_count=1)
        )
        assert certs and verify_certificate(certs[0], [report.pair.curve1, report.pair.curve2])[0]
        # lambda * (d - b) recovers the seed value t exactly
        assert report.pair.scale * Fraction(-1, 6) == report.pair.t_value


class TestRunReport:
    def test_reads_the_walked_pair(self):
        cfg = Config(target_count=1)
        pp = prepare_pair(Curve(0, 1), Curve(0, 2), cfg)
        _, _, report = generate(pp, cfg)
        assert report.pair is pp
        assert (report.route, report.pair.prime, report.pair.t_value) == (ROUTE_JZERO, 5, 215)

    def test_stores_no_copy_of_the_pair(self):
        names = {f.name for f in fields(RunReport)}
        assert not names & {"route", "prime", "t_value"}

    def test_elementary_has_no_pair(self):
        _, _, report = elementary_generate(Curve(1, 1), Config(target_count=1))
        assert report.pair is None
        assert (report.route, report.pair) == (ROUTE_ISOMORPHIC, None)
        assert report.lines()[0] == "route: isomorphic"

    def test_header_comes_from_the_pair(self):
        cfg = Config(target_count=1)
        _, _, report = generate(prepare_pair(Curve(1, 1), Curve(2, 2), cfg), cfg)
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
        certs, _, report = corollary_mode(Curve(1, 1), Fraction(2), Config(target_count=2))
        pair = [report.pair.curve1, report.pair.curve2]
        assert pair == [Curve(1, 1), Curve(4, 8)]
        assert [f.name for f in fields(TwistCertificate)] == [
            "k", "value", "squarefree_rep", "solutions",
        ]
        for cert in certs:
            assert verify_certificate(cert, pair) == (True, None)
            assert are_isomorphic_over_q(
                quadratic_twist(pair[1], cert.value)[0],
                quadratic_twist(pair[0], 2 * cert.value)[0],
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


class TestLedger:
    def test_invariant_enforced(self):
        ledger = SquareClassLedger()
        ledger.add(1, Fraction(3))
        assert not ledger.admits(Fraction(12))  # 3 * 12 = 36
        ledger.add(2, Fraction(5))
        assert not ledger.admits(Fraction(20))  # 5 * 20 = 100
        assert ledger.accepted == [(1, 3), (2, 5)]

    def test_each_candidate_is_tested_once(self, monkeypatch):
        # add trusts the admits call just made, so each accepted D is compared
        # with the ledger once: 0 + 1 + 2 + 3 + 4 calls for five acceptances
        import twistpairs.twistgen as twistgen

        calls = []

        def counted(v1, v2):
            calls.append((v1, v2))
            return same_square_class(v1, v2)

        monkeypatch.setattr(twistgen, "same_square_class", counted)
        cfg = Config(target_count=5, factor_effort=1)
        certs, _, report = generate(prepare_pair(Curve(1, 1), Curve(2, 2), cfg), cfg)
        assert len(certs) == 5 and not report.skipped
        assert len(calls) == 10


PAIR = (Curve(1, 1), Curve(2, 2))


@pytest.fixture(scope="module")
def cert():
    pp = prepare_pair(*PAIR, Config(target_count=1))
    certs, _, _ = generate(pp, Config(target_count=1))
    return certs[0]


class TestVerification:
    def test_round_trip(self, cert):
        assert verify_certificate(cert, PAIR) == (True, None)

    def test_rescaled_value_still_verifies(self, cert):
        # D -> 4D with t -> t/2 is the same square class and a consistent
        # certificate; the verifier accepts it, the ledger layer flags it
        new_value = 4 * cert.value
        scaled = tuple((x, t / 2) for x, t in cert.solutions)
        scaled_cert = replace(cert, value=new_value, solutions=scaled)
        assert verify_certificate(scaled_cert, PAIR) == (True, None)
        assert same_square_class(cert.value, new_value)

    @pytest.mark.parametrize("label", [7, 0])
    def test_tampered_label_detected(self, cert, label):
        # the label must stay in the square class of D; `complete` is not rechecked
        assert cert.squarefree_rep is not None
        bad_cert = replace(cert, squarefree_rep=(label, cert.squarefree_rep[1]))
        assert verify_certificate(bad_cert, PAIR) == (False, "label-class-mismatch")

    def test_corrupted_solution_detected(self, cert):
        (x, t), rest = cert.solutions[0], cert.solutions[1:]
        bad_cert = replace(cert, solutions=((x + 1, t),) + rest)
        ok, reason = verify_certificate(bad_cert, PAIR)
        assert not ok and reason == "solution-mismatch"

    def test_torsion_point_detected(self, cert):
        # (2, 3) solves 1*t^2 = x^3 + 1 and has order 6 on y^2 = x^3 + 1
        torsion_cert = replace(
            cert, value=Fraction(1), squarefree_rep=(1, True),
            solutions=((Fraction(2), Fraction(3)),),
        )
        assert verify_certificate(torsion_cert, [Curve(0, 1)]) == (False, "torsion-point")

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
        pp = prepare_pair(Curve(1, 1), Curve(2, 2), Config(target_count=2))
        certs, ledger, _ = generate(pp, Config(target_count=2))
        for cert in certs:
            data = json.loads(json.dumps(certificate_to_dict(cert)))
            assert certificate_from_dict(data) == cert

    def test_bundle_round_trip(self):
        cfg = Config(target_count=2)
        pp = prepare_pair(Curve(1, 1), Curve(2, 2), cfg)
        certs, _, _ = generate(pp, cfg)
        bundle = bundle_to_dict([pp.curve1, pp.curve2], certs)
        assert list(bundle) == ["version", "pair", "certificates"]
        assert bundle["version"] == 6
        pair, parsed = bundle_from_dict(json.loads(json.dumps(bundle)))
        assert pair == [Curve(1, 1), Curve(2, 2)]
        assert parsed == certs

    def test_schema_field_names(self):
        pp = prepare_pair(Curve(1, 1), Curve(2, 2), Config(target_count=1))
        certs, _, _ = generate(pp, Config(target_count=1))
        data = certificate_to_dict(certs[0])
        assert list(data) == ["k", "D", "squarefree_D", "solutions"]
        assert len(data["solutions"]) == 2
        assert list(data["solutions"][0]) == ["x", "t"]
        assert isinstance(data["squarefree_D"], dict)
        assert list(data["squarefree_D"]) == ["value", "complete"]
