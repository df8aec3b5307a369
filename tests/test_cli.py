"""Command line behavior: exit codes, schema, determinism, round trips."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from math import prod
from pathlib import Path
from time import perf_counter

import pytest

import twistpairs

from twistpairs import cli, planecubic, polyident, weierstrass
from twistpairs.cli import main
from twistpairs.exactnum import format_rational, primes_avoiding
from twistpairs.twistgen import (
    LAMBDA_SEARCH_BOUND,
    Config,
    bundle_to_dict,
    corollary_mode,
    elementary_generate,
    enumerate_scales,
    generate,
    jzero_generate,
    prepare_pair,
    verify_bundle,
)
from twistpairs.weierstrass import Curve


# the sextic twists by lambda = 215 of y^2 = x^3 + 1 and y^2 = x^3 + 2
JZERO_PAIR = [{"a": "0", "b": "215"}, {"a": "0", "b": "430"}]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_worked_pair(self, capsys, tmp_path):
        out_file = tmp_path / "certs.json"
        code, _, err = run_cli(
            capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
            "--count", "5", "--output", str(out_file),
        )
        assert code == 0
        bundle = json.loads(out_file.read_text())
        assert list(bundle) == ["version", "pair", "certificates"]
        assert bundle["version"] == 6
        assert len(bundle["certificates"]) == 5
        assert bundle["certificates"][0]["D"] == "-1"
        assert "route: general" in err
        assert "weierstrass model: Y^2 = X^3 - 6*X - 63/4" in err
        assert "seed point: (-1, -1) maps to (12, 81/2)" in err

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--curve1", "1,1", "--curve2", "2,2", "--count", "1",
        )
        assert code == 0
        bundle = json.loads(out)
        assert len(bundle["certificates"]) == 1

    def test_partial_budget_exit_two(self, capsys, tmp_path):
        out_file = tmp_path / "partial.json"
        code, _, err = run_cli(
            capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
            "--count", "50", "--max-iterations", "3", "--output", str(out_file),
        )
        assert code == 2
        assert "partial result" in err
        assert json.loads(out_file.read_text())["certificates"]

    @pytest.mark.parametrize("command, values", [
        ("generate", (("--curve1", "-5,9"), ("--curve2", "3,-2"))),
        ("corollary", (("--curve", "-1,1"), ("--delta", "-2/3"))),
        ("elementary", (("--curve", "-1,1"),)),
    ], ids=["generate", "corollary", "elementary"])
    def test_negative_values_as_separate_arguments(self, capsys, command, values):
        spaced = [arg for pair in values for arg in pair]
        joined = [f"{flag}={value}" for flag, value in values]
        code, out, _ = run_cli(capsys, command, *spaced, "--count", "1")
        assert code == 0
        assert run_cli(capsys, command, *joined, "--count", "1")[:2] == (0, out)

    def test_j_zero_pair_routes_automatically(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--curve1", "0,1", "--curve2", "0,2", "--count", "1",
        )
        assert code == 0
        assert "route: jzero" in err
        assert json.loads(out)["pair"] == JZERO_PAIR

    @pytest.mark.parametrize("command", ["generate", "jzero"])
    def test_jzero_prime_reported_once(self, capsys, command):
        code, _, err = run_cli(
            capsys, command, "--curve1", "0,1", "--curve2", "0,2", "--count", "2",
        )
        assert code == 0
        assert err.splitlines().count("prime: 5, seed value t: 215") == 1


class TestRunResult:
    # each entry point returns (certificates, pair, report): the pair verifies
    # the certificates, and the CLI writes both as its bundle for the same run
    @pytest.mark.parametrize("argv, run", [
        (("generate", "--curve1=1,1", "--curve2=2,2"),
         lambda cfg: generate(prepare_pair(Curve(1, 1), Curve(2, 2)), cfg)),
        (("generate", "--curve1=1,1", "--curve2=16,64"),
         lambda cfg: generate(prepare_pair(Curve(1, 1), Curve(16, 64)), cfg)),
        (("jzero", "--curve1=0,1", "--curve2=0,2"),
         lambda cfg: jzero_generate(Curve(0, 1), Curve(0, 2), cfg)),
        (("corollary", "--curve=1,1", "--delta=2"),
         lambda cfg: corollary_mode(Curve(1, 1), Fraction(2), cfg)),
        (("elementary", "--curve=1,1"),
         lambda cfg: elementary_generate(Curve(1, 1), cfg)),
    ], ids=["general", "isomorphic", "jzero", "corollary", "elementary"])
    def test_pair_verifies_and_is_the_bundle_pair(self, capsys, argv, run):
        certs, pair, _ = run(Config(target_count=2, factor_effort=2000))
        assert verify_bundle(pair, certs)[0]
        assert len(pair) == (1 if argv[0] == "elementary" else 2)
        code, out, _ = run_cli(capsys, *argv, "--count", "2", "--effort", "2000")
        assert code == 0
        assert json.loads(out) == bundle_to_dict(pair, certs)


class TestRouteReport:
    @pytest.mark.parametrize("argv", [
        ("generate", "--curve1=1,1", "--curve2=2,2"),
        ("generate", "--curve1=1,1", "--curve2=16,64"),
        ("generate", "--curve1=0,1", "--curve2=0,2"),
        ("jzero", "--curve1=0,1", "--curve2=0,2"),
        ("corollary", "--curve=1,1", "--delta=2"),
        ("corollary", "--curve=1,1", "--delta=4"),
        ("elementary", "--curve=1,1"),
    ], ids=["general", "isomorphic", "generate-jzero", "jzero", "corollary",
            "corollary-isomorphic", "elementary"])
    def test_one_route_line(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--count", "2", "--effort", "2000")
        assert code == 0
        assert [line.startswith("route: ") for line in err.splitlines()].count(True) == 1

    def test_jzero_and_generate_report_alike(self, capsys):
        pair = ("--curve1=0,1", "--curve2=0,2", "--count", "2", "--effort", "2000")
        jzero = run_cli(capsys, "jzero", *pair)
        assert jzero == run_cli(capsys, "generate", *pair)
        assert "weierstrass model: Y^2 = X^3 - 1248075/4" in jzero[2]

    def test_cli_knows_no_routes(self):
        source = inspect.getsource(cli)
        assert not hasattr(cli, "_report_route")
        assert "ROUTE_" not in source
        assert ".route" not in source


class TestErrors:
    def test_singular_curve(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--curve1", "0,0", "--curve2", "1,1")
        assert code == 1
        assert "singular" in err

    def test_malformed_rational(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--curve1", "1.5,1", "--curve2", "1,1")
        assert code == 1
        assert "rational" in err

    def test_malformed_curve(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--curve1", "1", "--curve2", "1,1")
        assert code == 1

    def test_long_curve_gives_a_short_error_line(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--curve1", "1" * 10_000, "--curve2", "1,1")
        assert code == 1
        assert err.startswith("error: curve format is a,b")
        assert len(err) < 300

    def test_exhausted_search_exits_two_with_every_trial(self, capsys):
        # a j = 1728 pair: the tangent point has order 2 at every scale
        code, out, err = run_cli(capsys, "generate", "--curve1=1,0", "--curve2=2,0")
        assert (code, out) == (2, "")
        first, *tried = err.splitlines()
        assert first.startswith("bounded search failed: no usable rescaling up to height 40 ")
        assert tried[0] == "  tried 1: torsion-seed"
        scales = list(enumerate_scales(LAMBDA_SEARCH_BOUND))
        assert len(scales) == 979
        assert tried == [f"  tried {format_rational(s)}: torsion-seed" for s in scales]

    def test_exhausted_prime_search_exits_two_with_every_trial(self, capsys, monkeypatch):
        # with every seed refused, the jzero recipe runs through all its primes
        monkeypatch.setattr(planecubic.PlaneCubic, "certify_nontorsion", lambda self, p: False)
        code, out, err = run_cli(capsys, "jzero", "--curve1=0,1", "--curve2=0,2")
        assert (code, out) == (2, "")
        first, *tried = err.splitlines()
        assert first == ("bounded search failed: no usable prime among the first "
                         f"{LAMBDA_SEARCH_BOUND} candidates")
        # the primes avoiding 2, 3 and d - b = 1
        primes = list(islice(primes_avoiding([6, 1]), LAMBDA_SEARCH_BOUND))
        assert (primes[0], primes[-1], len(primes)) == (5, 181, 40)
        assert tried == [f"  tried {p}: torsion-seed" for p in primes]

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 1

    def test_lambda_bound_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--curve1=1,1", "--curve2=2,2", "--lambda-bound", "5"])
        assert info.value.code == 1
        assert "unrecognized arguments: --lambda-bound 5" in capsys.readouterr().err

    def test_missing_verify_input(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--input", "/does/not/exist.json")
        assert code == 1


class TestParserReuse:
    def test_consecutive_calls_match_fresh_processes(self, capsys, tmp_path):
        bundle = str(tmp_path / "bundle.json")
        sequence = (
            ["generate", "--curve1=1,1", "--curve2=2,2", "--count", "2",
             "--effort", "2000", "--output", bundle],
            ["verify", "--input", bundle],
            ["generate", "--curve1", "1,1"],
            ["elementary", "--curve", "-1,1", "--max-iterations", "2", "--count", "3"],
            ["elementary", "--curve", "-1,1", "--count", "3"],
            ["corollary", "--curve=1,1", "--delta=2", "--count", "1"],
            ["no-such-command"],
            ["identity-check"],
        )
        in_process = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, *capsys.readouterr()))
        env = dict(os.environ, PYTHONPATH=str(Path(twistpairs.__file__).parents[1]))
        fresh = []
        for argv in sequence:
            done = subprocess.run([sys.executable, "-m", "twistpairs.cli", *argv],
                                  capture_output=True, text=True, env=env)
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert [result[0] for result in in_process] == [0, 0, 1, 2, 0, 0, 1, 0]
        assert in_process == fresh


class TestJZeroCommand:
    def test_happy_path(self, capsys, tmp_path):
        out_file = tmp_path / "jz.json"
        code, _, err = run_cli(
            capsys, "jzero", "--curve1", "0,1", "--curve2", "0,2",
            "--count", "3", "--output", str(out_file),
        )
        assert code == 0
        assert "lambda = 215" in err
        bundle = json.loads(out_file.read_text())
        assert len(bundle["certificates"]) == 3
        assert bundle["pair"] == JZERO_PAIR
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 0
        assert out.splitlines()[0] == "pair: y^2 = x^3 + 215  |  y^2 = x^3 + 430"
        assert out.count(": OK") == 4
        # the certificates are about the sextic twists, not the given curves
        bundle["pair"] = [{"a": "0", "b": "1"}, {"a": "0", "b": "2"}]
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert out.splitlines()[:2] == [
            "pair: y^2 = x^3 + 1  |  y^2 = x^3 + 2",
            "certificate k=1 D=431: FAILED (solution-mismatch)",
        ]
        assert out.count("FAILED (solution-mismatch)") == 3

    def test_rejects_nonzero_j(self, capsys):
        code, _, err = run_cli(capsys, "jzero", "--curve1", "1,1", "--curve2", "0,2")
        assert code == 1

    def test_rejects_identical(self, capsys):
        code, _, err = run_cli(capsys, "jzero", "--curve1", "0,2", "--curve2", "0,2")
        assert code == 1
        assert "elementary" in err

    def test_rejects_q_isomorphic(self, capsys):
        # 64 = 2^6: the curves are one curve over Q, and a sextic twist of
        # the pair would certify other curves
        code, _, err = run_cli(capsys, "jzero", "--curve1", "0,1", "--curve2", "0,64")
        assert code == 1
        assert err.startswith("error: ")


class TestCorollaryCommand:
    def test_pair_and_delta(self, capsys, tmp_path):
        # the pair (E, E^delta) gives delta = a*b'/(b*a'), so D*delta can be
        # recomputed; each certificate is a plain claim about the pair
        out_file = tmp_path / "cor.json"
        code, _, _ = run_cli(
            capsys, "corollary", "--curve", "1,1", "--delta", "2",
            "--count", "2", "--output", str(out_file),
        )
        assert code == 0
        bundle = json.loads(out_file.read_text())
        assert list(bundle) == ["version", "pair", "certificates"]
        assert bundle["pair"] == [{"a": "1", "b": "1"}, {"a": "4", "b": "8"}]
        (a, b), (a2, b2) = ([Fraction(v) for v in curve.values()] for curve in bundle["pair"])
        assert a * b2 / (b * a2) == 2
        for cert in bundle["certificates"]:
            assert list(cert) == ["k", "D", "squarefree_D", "solutions"]

    def test_square_delta(self, capsys):
        code, out, err = run_cli(
            capsys, "corollary", "--curve", "1,1", "--delta", "4", "--count", "1",
        )
        assert code == 0
        assert "route: isomorphic" in err

    def test_j_zero_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "corollary", "--curve", "0,1", "--delta", "2")
        assert code == 1

    def test_zero_delta_rejected(self, capsys):
        code, out, err = run_cli(capsys, "corollary", "--curve=1,1", "--delta=0")
        assert (code, out) == (1, "")
        assert err == "error: quadratic twist needs a nonzero value\n"


class TestElementaryCommand:
    def test_single_curve(self, capsys):
        code, out, _ = run_cli(capsys, "elementary", "--curve", "1,1", "--count", "3")
        assert code == 0
        bundle = json.loads(out)
        assert len(bundle["pair"]) == 1
        assert all(len(c["solutions"]) == 1 for c in bundle["certificates"])

    def test_report_lists_k_in_walk_order(self, capsys):
        # x0 = 2 gives (2, 3), of order 6 on y^2 = x^3 + 1: skipped between accepted k
        code, _, err = run_cli(capsys, "elementary", "--curve=0,1", "--count", "3")
        assert code == 0
        steps = [line.split(":", 1) for line in err.splitlines() if line.startswith("  k=")]
        assert [k for k, _ in steps] == ["  k=1", "  k=2", "  k=3", "  k=4"]
        assert steps[1][1] == " skipped (torsion-point)"

    def test_zero_value_and_collision_are_skipped(self, capsys):
        # x^3 - x is 0 at x = 1, and 24 at x = 3 shares the square class of 6
        code, _, err = run_cli(capsys, "elementary", "--curve=-1,0", "--count", "2")
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("  k=")] == [
            "  k=1: skipped (zero-twist-value)",
            "  k=2: accepted D = 6",
            "  k=3: skipped (class-collision)",
            "  k=4: accepted D = 60",
        ]


def _parent(bundle, path):
    *parents, last = path
    for key in parents:
        bundle = bundle[key]
    return bundle, last


def _set_leaf(bundle, path, value):
    node, last = _parent(bundle, path)
    node[last] = value


# tampers of a two-certificate general bundle, each applied to every certificate
def _replace_pair(bundle):
    bundle["pair"] = [{"a": "3", "b": "5"}, {"a": "-2", "b": "7"}]


def _drop_second_solution(bundle):
    for cert in bundle["certificates"]:
        del cert["solutions"][1]


def _duplicate_first_solution(bundle):
    for cert in bundle["certificates"]:
        cert["solutions"][1] = cert["solutions"][0]


class TestVerifyCommand:
    def test_round_trip_every_mode(self, capsys, tmp_path):
        invocations = [
            ("generate", "--curve1", "1,1", "--curve2", "2,2", "--count", "3"),
            ("jzero", "--curve1", "0,1", "--curve2", "0,2", "--count", "2"),
            ("corollary", "--curve", "1,1", "--delta", "2", "--count", "2"),
            ("elementary", "--curve", "1,1", "--count", "2"),
        ]
        for i, argv in enumerate(invocations):
            out_file = tmp_path / f"bundle{i}.json"
            code, _, _ = run_cli(capsys, *argv, "--output", str(out_file))
            assert code == 0
            code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
            assert code == 0
            assert "FAILED" not in out
            assert out.count(": OK") >= 2

    @pytest.mark.parametrize("path, value", [
        ((), [1, 2]),
        (("certificates", 0, "solutions"), 5),
        (("certificates", 0, "D"), 3),
        (("certificates", 0, "k"), float("1e999")),
        (("certificates", 0, "k"), 1.5),
        (("certificates", 0, "k"), True),
        (("certificates", 0, "squarefree_D", "complete"), "no"),
        (("version",), True),
        (("version",), 6.0),
        (("version",), 1),
        # version 2 stored a model per curve, version 3 a route and lambda
        # to derive one from the pair; no reader for either is kept
        (("version",), 2),
        (("version",), 3),
        # version 4 allowed a null label and an unchecked annotation,
        # version 5 an unchecked config and ledger_ok
        (("version",), 4),
        (("version",), 5),
        (("certificates", 0, "squarefree_D"), None),
        (("certificates", 0, "squarefree_D"), "1"),
        (("certificates", 0, "squarefree_D", "value"), " 2"),
        # int("1_0") == 10
        (("certificates", 0, "squarefree_D", "value"), "1_0"),
        (("certificates", 0, "squarefree_D", "value"), 3.0),
        (("certificates", 0, "squarefree_D", "value"), "+3"),
        # D = 3 in Arabic-Indic digits, which int() reads as 3
        (("certificates", 0, "D"), "\u0663"),
    ], ids=["top-level-list", "solutions-int", "D-number", "k-infinite", "k-fraction",
            "k-boolean", "complete-text", "version-boolean", "version-float",
            "version-one", "version-two", "version-three", "version-four", "version-five",
            "label-null",
            "label-text", "multiple-order-space",
            "multiple-order-underscore", "label-float", "label-plus-sign", "D-non-ascii-digit"])
    def test_malformed_bundle_exits_one(self, capsys, tmp_path, path, value):
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        if path:
            _set_leaf(bundle, path, value)
        else:
            bundle = value
        out_file.write_text(json.dumps(bundle))
        code, _, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert err.startswith("error: ")

    # an error line names the JSON kind it got, or quotes a bounded prefix of
    # the value, however large the value is
    @pytest.mark.parametrize("path, value", [
        (("certificates", 0, "solutions", 0), [0] * 200_000),
        (("certificates", 0, "k"), "7" * 100_000),
        (("certificates", 0, "solutions", 0, "x"), "x" * 100_000),
        (("version",), int("7" * 100_000)),
        (("certificates", 0, "D"), "1/" + "0" * 100_000),
        (("certificates", 0, "k" * 100_000), 1),
        # 4a^3 + 27b^2 = 0 for a = -3t^2, b = 2t^3
        (("pair", 0), {"a": str(-3 * 10**40_000), "b": str(2 * 10**60_000)}),
    ], ids=["solution-list", "k-text", "x-letters", "version-digits",
            "D-zero-denominator", "long-key", "singular-pair-curve"])
    def test_error_line_is_bounded(self, capsys, tmp_path, path, value):
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        _set_leaf(bundle, path, value)
        out_file.write_text(json.dumps(bundle))
        code, _, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert err.startswith("error: ")
        assert len(err.encode()) < 1024

    def test_deeply_nested_bundle_exits_one(self, capsys, tmp_path):
        out_file = tmp_path / "nested.json"
        out_file.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert err.startswith("error: ")

    def test_tampered_bundle_fails(self, capsys, tmp_path):
        # a true solution whose point (2, 3) has order 6 on y^2 = x^3 + 1
        out_file = tmp_path / "bundle.json"
        bundle = {
            "version": 6,
            "pair": [{"a": "0", "b": "1"}],
            "certificates": [{
                "k": 1, "D": "1",
                "squarefree_D": {"value": "1", "complete": True},
                "solutions": [{"x": "2", "t": "3"}],
            }],
        }
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert "certificate k=1 D=1: FAILED (torsion-point)" in out

    # each solution is checked on its own curve of the bundle's pair; at k=1
    # the seed (-1, -1) has equal coordinates, so a duplicated first solution
    # still holds there
    @pytest.mark.parametrize("tamper, statuses", [
        (_replace_pair, ["FAILED (solution-mismatch)"] * 2),
        (_drop_second_solution, ["FAILED (entry-count-mismatch)"] * 2),
        (_duplicate_first_solution, ["OK", "FAILED (solution-mismatch)"]),
    ], ids=["pair-replaced", "second-solution-dropped", "first-solution-duplicated"])
    def test_certificates_are_bound_to_the_pair(self, capsys, tmp_path, tamper, statuses):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                             "--count", "2", "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        tamper(bundle)
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("pair: ")
        assert [line.rsplit(": ", 1)[1] for line in lines[1:3]] == statuses
        assert lines[3] == "pairwise square classes: OK"

    # one tamper per certificate field, on the first certificate of a general
    # bundle: at k=1, D = -1, its label is -1 and both solutions are (-1, 1);
    # k and complete are no claims, so the verifier accepts any value of them
    @pytest.mark.parametrize("path, value, status", [
        (("certificates", 0, "D"), "0", "FAILED (zero-twist-value)"),
        (("certificates", 0, "D"), "-2", "FAILED (label-class-mismatch)"),
        # -4 shares the square class of the label, so the solutions catch it
        (("certificates", 0, "D"), "-4", "FAILED (solution-mismatch)"),
        (("certificates", 0, "squarefree_D", "value"), "-7", "FAILED (label-class-mismatch)"),
        (("certificates", 0, "squarefree_D", "value"), "0", "FAILED (label-class-mismatch)"),
        (("certificates", 0, "solutions", 0, "x"), "0", "FAILED (solution-mismatch)"),
        (("certificates", 0, "solutions", 1, "x"), "0", "FAILED (solution-mismatch)"),
        (("certificates", 0, "solutions", 0, "t"), "2", "FAILED (solution-mismatch)"),
        (("certificates", 0, "solutions", 1, "t"), "2", "FAILED (solution-mismatch)"),
        (("pair", 0, "a"), "2", "FAILED (solution-mismatch)"),
        (("pair", 1, "b"), "3", "FAILED (solution-mismatch)"),
        (("certificates", 0, "solutions"), [], "FAILED (no-curve-entries)"),
        (("certificates", 0, "k"), 7, "OK"),
        (("certificates", 0, "squarefree_D", "complete"), False, "OK"),
    ], ids=["D-zero", "D-other-class", "D-same-class", "label-other-class", "label-zero",
            "x-first", "x-second", "t-first", "t-second", "pair-first-a", "pair-second-b",
            "solutions-empty", "k", "complete"])
    def test_every_field_is_checked(self, capsys, tmp_path, path, value, status):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                             "--count", "2", "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        _set_leaf(bundle, path, value)
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == (0 if status == "OK" else 1)
        assert out.splitlines()[1].rsplit(": ", 1)[1] == status

    def test_unchecked_claims_are_rejected(self, capsys, tmp_path):
        # a version 4 corollary bundle carried an annotation the verifier never
        # read, and a version 5 bundle a config and a ledger_ok; a false
        # D*delta, delta or ledger_ok still verified
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "corollary", "--curve=1,1", "--delta=2", "--count", "2",
                             "--effort", "2000", "--output", str(out_file))
        assert code == 0
        generated = json.loads(out_file.read_text())
        for path, value, error in [
            (("certificates", 0, "annotation"), {"D": "-1", "D_delta": "7"},
             "malformed certificate: unexpected field 'annotation'"),
            (("certificates", 1, "version"), 6, "malformed certificate: unexpected field 'version'"),
            (("config",), {"delta": "7"}, "malformed bundle: unexpected field 'config'"),
            (("claim",), "E^7 has rank 5", "malformed bundle: unexpected field 'claim'"),
            (("ledger_ok",), False, "malformed bundle: unexpected field 'ledger_ok'"),
        ]:
            bundle = json.loads(json.dumps(generated))
            _set_leaf(bundle, path, value)
            out_file.write_text(json.dumps(bundle))
            code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
            assert (code, out, err) == (1, "", f"error: {error}\n")
        # the same bundle as version 5 wrote it
        del generated["version"]
        generated["config"] = {"delta": "7"}
        generated["ledger_ok"] = False
        for cert in generated["certificates"]:
            cert["version"] = 5
        out_file.write_text(json.dumps(generated))
        code, _, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, err) == (1, "error: malformed bundle: missing field 'version'\n")

    @pytest.mark.parametrize("path, error", [
        (("version",), "malformed bundle: missing field 'version'"),
        (("pair",), "malformed bundle: missing field 'pair'"),
        (("certificates",), "malformed bundle: missing field 'certificates'"),
        (("pair", 1, "b"), "malformed pair curve: missing field 'b'"),
        (("certificates", 0, "k"), "malformed certificate: missing field 'k'"),
        (("certificates", 0, "squarefree_D"),
         "malformed certificate: missing field 'squarefree_D'"),
        (("certificates", 0, "squarefree_D", "complete"),
         "malformed certificate: missing field 'complete'"),
        (("certificates", 0, "solutions", 1, "t"), "malformed certificate: missing field 't'"),
    ], ids=["version", "pair", "certificates", "pair-b", "k", "label", "complete", "t"])
    def test_missing_field_is_named(self, capsys, tmp_path, path, error):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "corollary", "--curve=1,1", "--delta=2",
                             "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        node, last = _parent(bundle, path)
        del node[last]
        out_file.write_text(json.dumps(bundle))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    # json.load keeps the last of two equal keys, so a reader that keeps the
    # first would see a claim the verifier never checked; at k=1 of the worked
    # pair D = -1 and both solutions are (-1, 1)
    @pytest.mark.parametrize("old, new, key", [
        ('"D": "-1"', '"D": "7", "D": "-1"', "D"),
        ('"certificates": [', '"certificates": [], "certificates": [', "certificates"),
        ('"x": "-1"', '"x": "5", "x": "-1"', "x"),
    ], ids=["D", "certificates", "solution-x"])
    def test_repeated_key_is_refused(self, capsys, tmp_path, old, new, key):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                             "--count", "2", "--effort", "2000", "--output", str(out_file))
        assert code == 0
        text = json.dumps(json.loads(out_file.read_text()))
        assert old in text
        out_file.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: repeated field {key!r}\n")
        assert len(err.encode()) < 1024

    # pair, certificates and solutions are JSON arrays, read like every other
    # value: an object, a string or a number in their place is refused
    @pytest.mark.parametrize("path, value, error", [
        (("certificates",), "", "expected a JSON array, got a JSON string"),
        (("certificates",), {}, "expected a JSON array, got a JSON object"),
        (("pair",), {}, "expected a JSON array, got a JSON object"),
        (("certificates", 0, "solutions"), 5, "expected a JSON array, got a JSON integer"),
        (("certificates", 0, "solutions"), {"x": "-1", "t": "1"},
         "expected a JSON array, got a JSON object"),
        ((), {"version": 6, "pair": {}, "certificates": {}},
         "expected a JSON array, got a JSON object"),
    ], ids=["certificates-text", "certificates-object", "pair-object", "solutions-int",
            "solutions-object", "shapeless"])
    def test_array_of_another_kind_is_refused(self, capsys, tmp_path, path, value, error):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                             "--count", "2", "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        if path:
            _set_leaf(bundle, path, value)
        else:
            bundle = value
        out_file.write_text(json.dumps(bundle))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    # int() of an n-digit literal takes time quadratic in n, so a long JSON
    # integer is refused as the bundle is read
    def test_long_json_integer_is_refused_quickly(self, capsys, tmp_path):
        out_file = tmp_path / "bundle.json"
        out_file.write_text('{"version": ' + "1" * 100_000 + ', "pair": [], "certificates": []}')
        start = perf_counter()
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert perf_counter() - start < 0.05
        assert (code, out) == (1, "")
        assert err == "error: JSON integer of 100000 characters; the limit is 20\n"

    @pytest.mark.parametrize("k, code", [(10**19, 0), (-(10**18), 0), (10**20, 1), (-(10**19), 1)])
    def test_k_is_free_up_to_twenty_characters(self, capsys, tmp_path, k, code):
        out_file = tmp_path / "bundle.json"
        assert run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                       "--effort", "2000", "--output", str(out_file))[0] == 0
        bundle = json.loads(out_file.read_text())
        bundle["certificates"][0]["k"] = k
        out_file.write_text(json.dumps(bundle))
        assert run_cli(capsys, "verify", "--input", str(out_file))[0] == code


class TestStartup:
    def test_cli_import_loads_no_dataclasses(self):
        # dataclasses imports inspect, ast and dis, and each @dataclass runs exec;
        # only modules the import loads count, not those the interpreter's
        # own start-up loaded before it
        code = ("import sys; before = set(sys.modules); import twistpairs.cli; "
                "twistpairs.cli.build_parser(); print(sorted("
                "{'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=str(Path(twistpairs.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout == "[]\n"


class TestClosedStdout:
    # the read end of the child's stdout is closed before the child starts, so
    # its first write to stdout fails; the verify output is small enough to
    # sit in the buffer until the end, the generate bundle is written at once
    @pytest.mark.parametrize("argv", [
        ("verify", "--input", "{bundle}"),
        ("generate", "--curve1=1,1", "--curve2=2,2", "--count", "1"),
    ], ids=["verify", "generate"])
    def test_exits_141_quietly(self, tmp_path, argv):
        bundle = tmp_path / "bundle.json"
        assert main(["elementary", "--curve=1,1", "--output", str(bundle)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(twistpairs.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "twistpairs.cli",
                 *(arg.format(bundle=bundle) for arg in argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert "error" not in done.stderr and "Broken pipe" not in done.stderr
        if argv[0] == "verify":
            assert done.stderr == ""


# one coefficient of a shared closed form is changed by adding a term to one
# of its outputs; the check proving that form must then fail.  The last term
# vanishes at x = 0..6, the whole x range of the unmutated grid.
MUTATIONS = [
    ("change_of_variables", 0, lambda a, b, c, d, x, y: x * y,
     "weierstrass model identity"),
    ("weierstrass_coefficients", 0, lambda a, b, c, d: a * c,
     "weierstrass model identity"),
    ("smoothness_quantity", None, lambda a, b, c, d: a**3 * c**3,
     "discriminant identity"),
    ("tangent_image_numerators", 1, lambda a, b, c, d: (b - d) ** 3,
     "tangent point identity"),
    ("change_of_variables", 0, lambda a, b, c, d, x, y: prod(x - r for r in range(7)),
     "weierstrass model identity"),
]
MUTATION_IDS = ["change-of-variables", "model-coefficients", "smoothness", "tangent-image",
                "grid-vanishing"]

# (proof, expression it proves) by the label identity-check prints
IDENTITIES = {
    "weierstrass model identity": (cli.verify_weierstrass_identity,
                                   polyident.weierstrass_defect),
    "tangent point identity": (cli.verify_point_identity, polyident.point_defect),
    "discriminant identity": (cli.verify_disc_identity, polyident.disc_defect),
}


def _mutate(monkeypatch, name, index, term):
    original = getattr(planecubic, name)

    def mutated(*args):
        value = original(*args)
        if index is None:
            return value + term(*args)
        value = list(value)
        value[index] = value[index] + term(*args)
        return tuple(value)

    monkeypatch.setattr(planecubic, name, mutated)


class TestIdentityCheck:
    def test_all_hold(self, capsys):
        code, out, _ = run_cli(capsys, "identity-check")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("holds") for line in lines)

    def test_proves_the_curves_own_discriminant(self, capsys, monkeypatch):
        # the proof reads the disc_quantity that Curve runs, not a copy of it
        monkeypatch.setattr(weierstrass, "disc_quantity", lambda a, b: 4 * a**3 + 26 * b**2)
        code, out, _ = run_cli(capsys, "identity-check")
        assert code == 1
        assert out.splitlines()[2:] == [
            "discriminant identity: FAILED",
            "  counterexample: (a, b, c, d) = (0, 0, 0, 1)",
        ]

    def test_one_grid_search_per_identity(self, capsys, monkeypatch):
        # the README example: with 3xy flipped to -3xy two proofs fail, and
        # each prints the point its one search found
        calls, search = [], polyident.counterexample

        def counted(expression):
            calls.append(expression.__name__)
            return search(expression)

        monkeypatch.setattr(polyident, "counterexample", counted)
        _mutate(monkeypatch, "change_of_variables", 0, lambda a, b, c, d, x, y: -6 * x * y)
        code, out, _ = run_cli(capsys, "identity-check")
        assert code == 1
        assert out.splitlines() == [
            "weierstrass model identity: FAILED",
            "  counterexample: (a, b, c, x, y) = (0, 0, 0, 1, 1)",
            "tangent point identity: FAILED",
            "  counterexample: (a, b, c, t) = (0, 0, 1, 1)",
            "discriminant identity: holds",
        ]
        assert calls == ["weierstrass_defect", "point_defect", "disc_defect"]

    @pytest.mark.parametrize("name, index, term, failed", MUTATIONS, ids=MUTATION_IDS)
    def test_mutated_shared_formula_fails(self, capsys, monkeypatch, name, index, term, failed):
        check, _ = IDENTITIES[failed]
        assert check() is None
        _mutate(monkeypatch, name, index, term)
        assert check() is not None
        code, out, _ = run_cli(capsys, "identity-check")
        assert code == 1
        assert f"{failed}: FAILED" in out
        # every FAILED line names a grid point where its mutated expression is nonzero
        lines = out.splitlines()
        for at, label in enumerate(lines):
            if label.endswith(": FAILED"):
                names, values = re.fullmatch(
                    r"  counterexample: \((.*)\) = \((.*)\)", lines[at + 1]
                ).groups()
                point = dict(zip(names.split(", "), map(int, values.split(", "))))
                assert any(IDENTITIES[label[: -len(": FAILED")]][1](**point))

    @pytest.mark.parametrize("name, index, term, failed", MUTATIONS, ids=MUTATION_IDS)
    def test_mutation_is_a_nonzero_polynomial(self, monkeypatch, name, index, term, failed):
        sympy = pytest.importorskip("sympy")
        _mutate(monkeypatch, name, index, term)
        defect = IDENTITIES[failed][1]
        values = defect(*sympy.symbols(list(inspect.signature(defect).parameters)))
        assert any(sympy.expand(value) != 0 for value in values)


def _pinned_bundle(capsys, tmp_path, argv):
    """Write the bundle of a pinned scenario (count 3, effort 2000); its path."""
    out_file = tmp_path / "bundle.json"
    code, _, _ = run_cli(capsys, *argv, "--count", "3", "--effort", "2000",
                         "--output", str(out_file))
    assert code == 0
    return out_file


# (argv, SHA-256 of the bundle as written, SHA-256 of it re-encoded with
# indent=2, the layout of version 6 bundles before they were written as one
# line).  The bytes may move only when the certificate format, the search order
# or the layout changes on purpose; a bundle holds only its pair and
# certificates, so corollary --delta 4, whose pair is (1, 1), (16, 64), writes
# the isomorphic route's bytes.
PINNED_BUNDLES = [
    pytest.param(
        ("generate", "--curve1", "1,1", "--curve2", "2,2"),
        "29fd03a3d0f6bcfc71e2347c271ec6a4b97af706325cbc9452dc1e81bf945745",
        "7d5910d39550fa1dcad39d3dd506aa94ddb2457e3bcef20494f5b6012df2ecdb",
        id="general"),
    pytest.param(
        ("generate", "--curve1", "1,1", "--curve2", "16,64"),
        "a4250a670d2ff73815f47ca9efcd54f866341df48091fe78ea0bc1bb54be0693",
        "0e996a00d9323ec445e715c9e6f226d886c74199804e771fcf295d15c9f12911",
        id="isomorphic"),
    pytest.param(
        ("generate", "--curve1", "0,2", "--curve2", "0,2"),
        "607d53f450f810573c2f2141f71a5a5898780fd16bce0a99d801e7a4ba86aacc",
        "50c208354d7136ea8a475ab538e4f7260b506569d13adb0aaf52cdb565edbb35",
        id="identical-jzero"),
    pytest.param(
        ("jzero", "--curve1", "0,1", "--curve2", "0,2"),
        "55f8fbfcbd1289bee2997490af18e2cddd7e732abc17040c4d1f2132908cee56",
        "81c42603c26d32f6aad56ca5846d0fbb2a0b2337a8bd7c8fec8739f5fdca63a2",
        id="jzero"),
    pytest.param(
        ("generate", "--curve1", "0,1", "--curve2", "0,2"),
        "55f8fbfcbd1289bee2997490af18e2cddd7e732abc17040c4d1f2132908cee56",
        "81c42603c26d32f6aad56ca5846d0fbb2a0b2337a8bd7c8fec8739f5fdca63a2",
        id="generate-jzero"),
    pytest.param(
        ("corollary", "--curve", "1,1", "--delta", "2"),
        "c733afb8e7758799e0a5202b2ee1d10b45cacdcece666dd785eaa03b9377777e",
        "ccf07007a9f45f724c6d5f872740f7c859102bd376a5e65a29c74ffded7d010c",
        id="corollary-delta2"),
    pytest.param(
        ("corollary", "--curve", "1,1", "--delta", "4"),
        "a4250a670d2ff73815f47ca9efcd54f866341df48091fe78ea0bc1bb54be0693",
        "0e996a00d9323ec445e715c9e6f226d886c74199804e771fcf295d15c9f12911",
        id="corollary-delta4"),
    pytest.param(
        ("elementary", "--curve", "1,1"),
        "596179d0ccab04875efad7477748d63e4018e09ee515a57b3275526fb9ca828c",
        "6edc064a2d5fc9c8e504fca9d4840a124831e8ebb7f06decb1485274e1f79b48",
        id="elementary"),
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("generate", "--curve1", "1,1", "--curve2", "2,2", "--count", "3"),
        ("jzero", "--curve1", "0,1", "--curve2", "0,2", "--count", "2"),
        ("corollary", "--curve", "1,1", "--delta", "2", "--count", "2"),
    ])
    def test_byte_identical_reruns(self, capsys, tmp_path, argv):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert run_cli(capsys, *argv, "--output", str(first))[0] == 0
        assert run_cli(capsys, *argv, "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("argv, digest, indented", PINNED_BUNDLES)
    def test_bundle_bytes_pinned(self, capsys, tmp_path, argv, digest, indented):
        data = _pinned_bundle(capsys, tmp_path, argv).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest, indented", PINNED_BUNDLES)
    def test_bundle_is_one_line(self, capsys, monkeypatch, tmp_path, argv, digest, indented):
        written = []

        def to_dict(pair, certs):
            written.append(bundle_to_dict(pair, certs))
            return written[-1]

        monkeypatch.setattr(cli, "bundle_to_dict", to_dict)
        data = _pinned_bundle(capsys, tmp_path, argv).read_text(encoding="utf-8")
        assert data == json.dumps(*written) + "\n"
        assert data.count("\n") == 1

    @pytest.mark.parametrize("argv, digest, indented", PINNED_BUNDLES)
    def test_indented_bundle_verifies(self, capsys, tmp_path, argv, digest, indented):
        # whitespace is no part of the format: the bundle re-encoded in the
        # indented layout has that layout's pinned digest, and verifies alike
        bundle = _pinned_bundle(capsys, tmp_path, argv)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(bundle.read_text()), indent=2) + "\n")
        assert hashlib.sha256(pretty.read_bytes()).hexdigest() == indented
        one_line = run_cli(capsys, "verify", "--input", str(bundle))
        assert one_line[0] == 0
        assert run_cli(capsys, "verify", "--input", str(pretty)) == one_line
