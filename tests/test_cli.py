"""Command line behavior: exit codes, schema, determinism, round trips."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from time import perf_counter

import pytest

import twistpairs

from twistpairs import cli, planecubic, polyident, twistgen, weierstrass
from twistpairs.cli import main
from twistpairs.exactnum import _NUMBER_TEXT_LIMIT, format_rational
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
JZERO_PAIR = ["0,215", "0,430"]


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
        assert bundle["version"] == 10
        assert bundle["pair"] == ["1,1", "2,2"]
        assert len(bundle["certificates"]) == 5
        # D is x^3 + x + 1 at the first x, -1: D = -1
        assert bundle["certificates"][0]["x"] == "-1,-1"
        # D = 907559/61^3 at k=2, so num*den = 55361099 * 61^2: the label is
        # 55361099, and its square cofactor s = 61
        assert bundle["certificates"][1]["square"] == "61"
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
        # the walk stops after MAX_ITERATIONS = 64 integer inputs, 5 of them skipped
        out_file = tmp_path / "partial.json"
        code, _, err = run_cli(
            capsys, "elementary", "--curve=-1,0", "--count", "64", "--effort", "1",
            "--output", str(out_file),
        )
        assert code == 2
        assert "iterations used: 64, budget exhausted\n" in err
        assert err.endswith("partial result: 59 of 64 certificates\n")
        assert len(json.loads(out_file.read_text())["certificates"]) == 59

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

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 1

    def test_lambda_bound_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--curve1=1,1", "--curve2=2,2", "--lambda-bound", "5"])
        assert info.value.code == 1
        assert "unrecognized arguments: --lambda-bound 5" in capsys.readouterr().err

    # the walk's step budget is the constant MAX_ITERATIONS
    @pytest.mark.parametrize("argv", [
        ["generate", "--curve1=1,1", "--curve2=2,2"],
        ["jzero", "--curve1=0,1", "--curve2=0,2"],
        ["corollary", "--curve=1,1", "--delta=2"],
        ["elementary", "--curve=1,1"],
    ], ids=["generate", "jzero", "corollary", "elementary"])
    def test_max_iterations_is_no_option(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--max-iterations", "3"])
        assert info.value.code == 1
        assert "unrecognized arguments: --max-iterations 3" in capsys.readouterr().err

    def test_count_no_run_reaches_is_refused_at_once(self, capsys):
        # 65 would walk all 64 steps before its certain partial result
        start = perf_counter()
        code, out, err = run_cli(capsys, "elementary", "--curve=1,1", "--count", "65",
                                 "--effort", "1")
        assert perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert err == "error: target_count must be from 1 to 64: no walk writes more\n"

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
            ["elementary", "--curve=-1,0", "--count", "64", "--effort", "1"],
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
        # the certificates are about the sextic twists, not the given curves:
        # on y^2 = x^3 + 1 the first solution (6, 1) gives D = 6^3 + 1 = 217,
        # not 6^3 + 215 = 431, which the second solution fails, and at k=2
        # the first solution (-1, 1) gives D = 0
        bundle["pair"] = ["0,1", "0,2"]
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert out.splitlines() == [
            "pair: y^2 = x^3 + 1  |  y^2 = x^3 + 2",
            "certificate k=1 D=217: FAILED (solution-mismatch)",
            "certificate k=2 D=0: FAILED (zero-twist-value)",
            "certificate k=3 D=90281304/10218313: FAILED (solution-mismatch)",
            "pairwise square classes: OK",
        ]

    def test_certifies_no_seed(self, capsys, monkeypatch, tmp_path):
        # the recipe seed has infinite order by a theorem, so the route runs
        # no seed check; each solution's twist point is still certified
        def refuse(self, point):
            raise AssertionError("the jzero route certifies no seed")

        monkeypatch.setattr(planecubic.PlaneCubic, "certify_nontorsion", refuse)
        out_file = tmp_path / "jz.json"
        code, _, err = run_cli(
            capsys, "jzero", "--curve1=0,1", "--curve2=0,2", "--count", "3",
            "--effort", "2000", "--output", str(out_file),
        )
        assert code == 0
        assert "prime: 5, seed value t: 215" in err.splitlines()
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 0
        assert out.count(": OK") == 4

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
        assert bundle["pair"] == ["1,1", "4,8"]
        (a, b), (a2, b2) = ([Fraction(v) for v in curve.split(",")] for curve in bundle["pair"])
        assert a * b2 / (b * a2) == 2
        for cert in bundle["certificates"]:
            assert list(cert) == ["x", "square", "complete"]

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
        assert all("," not in c["x"] for c in bundle["certificates"])

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


# a path may end in one entry of a comma text: a pair curve's "a,b", by name,
# or a certificate's "x1,x2", by position
def _set_leaf(bundle, path, value):
    node, last = _parent(bundle, path)
    if isinstance(node, str):
        parts = node.split(",")
        parts[{"a": 0, "b": 1}.get(last, last)] = value
        _set_leaf(bundle, path[:-1], ",".join(parts))
    else:
        node[last] = value


def _drop_leaf(bundle, path):
    node, last = _parent(bundle, path)
    if isinstance(node, str):
        parts = node.split(",")
        del parts[{"a": 0, "b": 1}.get(last, last)]
        _set_leaf(bundle, path[:-1], ",".join(parts))
    else:
        del node[last]


def _first_x(cert) -> Fraction:
    return Fraction(cert["x"].split(",")[0])


def _first_curve(bundle) -> Curve:
    return Curve(*(Fraction(v) for v in bundle["pair"][0].split(",")))


# tampers of a two-certificate general bundle, each applied to every certificate
def _replace_pair(bundle):
    bundle["pair"] = ["3,5", "-2,7"]


def _drop_second_solution(bundle):
    for cert in bundle["certificates"]:
        cert["x"] = cert["x"].split(",")[0]


def _add_third_solution(bundle):
    for cert in bundle["certificates"]:
        cert["x"] += "," + cert["x"].split(",")[0]


def _duplicate_first_solution(bundle):
    for cert in bundle["certificates"]:
        first = cert["x"].split(",")[0]
        cert["x"] = f"{first},{first}"


# bundles that fix no D or store one, from a two-certificate general bundle
def _no_solutions(bundle):
    bundle["certificates"][1]["x"] = ""


def _empty_pair(bundle):
    bundle["pair"] = []


def _empty_bundle(bundle):
    bundle["pair"] = bundle["certificates"] = []


def _with_d(bundle):
    # the D that the first x fixes, stored as version 6 stored it
    curve1 = _first_curve(bundle)
    for cert in bundle["certificates"]:
        cert["D"] = format_rational(curve1.rhs(_first_x(cert)))


def _as_version_nine(bundle):
    # version 9 wrote each pair curve as an object {"a", "b"}, and each
    # certificate with its walk index k and its x values as an array
    bundle["pair"] = [dict(zip("ab", curve.split(","))) for curve in bundle["pair"]]
    for k, cert in enumerate(bundle["certificates"], start=1):
        cert.update(k=k, x=cert["x"].split(","))
    bundle["version"] = 9


def _as_version_eight(bundle):
    # version 8 stored the label num*den/s^2 itself, in an object with its flag
    curve1 = _first_curve(bundle)
    values = [curve1.rhs(_first_x(cert)) for cert in bundle["certificates"]]
    _as_version_nine(bundle)
    for cert, value in zip(bundle["certificates"], values):
        label = value.numerator * value.denominator // int(cert.pop("square")) ** 2
        cert["squarefree_D"] = {"value": str(label), "complete": cert.pop("complete")}
    bundle["version"] = 8


def _as_version_seven(bundle):
    # version 7 stored a solution (x, t) per curve; on the worked pair, whose
    # scale is 1, every t is 1
    _as_version_eight(bundle)
    for cert in bundle["certificates"]:
        cert["solutions"] = [{"x": x, "t": "1"} for x in cert.pop("x")]
    bundle["version"] = 7


def _as_version_six(bundle):
    _with_d(bundle)
    _as_version_seven(bundle)
    bundle["version"] = 6


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
        # the x text holds the solutions
        (("certificates", 0, "x"), 5),
        # version 10 stores no D, in any form, and no k
        (("certificates", 0, "D"), 3),
        (("certificates", 0, "k"), float("1e999")),
        (("certificates", 0, "k"), 1.5),
        (("certificates", 0, "k"), True),
        (("certificates", 0, "complete"), "no"),
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
        (("certificates", 0, "square"), None),
        (("certificates", 0, "square"), "three"),
        (("certificates", 0, "square"), " 2"),
        # int("1_0") == 10
        (("certificates", 0, "square"), "1_0"),
        (("certificates", 0, "square"), 3.0),
        (("certificates", 0, "square"), "+3"),
        (("certificates", 0, "square"), 3),
        # x = 3 in Arabic-Indic digits, which int() reads as 3
        (("certificates", 0, "x", 0), "\u0663"),
    ], ids=["top-level-list", "solutions-int", "D-number", "k-infinite", "k-fraction",
            "k-boolean", "complete-text", "version-boolean", "version-float",
            "version-one", "version-two", "version-three", "version-four", "version-five",
            "label-null",
            "label-text", "multiple-order-space",
            "multiple-order-underscore", "label-float", "label-plus-sign", "label-integer",
            "x-non-ascii-digit"])
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
    # number text meant to reach an error of its own stays within
    # _NUMBER_TEXT_LIMIT; x-over-limit gets the limit's error
    @pytest.mark.parametrize("path, value", [
        (("certificates", 0, "x"), [0] * 200_000),
        (("certificates", 0, "k"), "7" * 100_000),
        (("certificates", 0, "x", 0), "x" * 100_000),
        (("version",), int("7" * 100_000)),
        (("certificates", 0, "x", 0), "1/" + "0" * (_NUMBER_TEXT_LIMIT - 2)),
        (("certificates", 0, "k" * 100_000), 1),
        # 4a^3 + 27b^2 = 0 for a = -3t^2, b = 2t^3
        (("pair", 0), f"{-3 * 10**2_000},{2 * 10**3_000}"),
        (("certificates", 0, "x", 0), "7" * 100_000),
        (("certificates", 0, "square"), "7" * 100_000),
    ], ids=["solution-list", "k-text", "x-letters", "version-digits",
            "x-zero-denominator", "long-key", "singular-pair-curve", "x-over-limit",
            "square-over-limit"])
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
        # x = 2 fixes D = 2^3 + 1 = 9 = 1 * 3^2, in the class of 1, and its point
        # (18, 81) on the twist by 9 is (2, 3), of order 6 on y^2 = x^3 + 1, scaled by 3
        out_file = tmp_path / "bundle.json"
        bundle = {
            "version": 10,
            "pair": ["0,1"],
            "certificates": [{"x": "2", "square": "3", "complete": True}],
        }
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert "certificate k=1 D=9: FAILED (torsion-point)" in out

    # each x is checked on its own curve of the bundle's pair; at k=1 the seed
    # (-1, -1) has equal coordinates, so a duplicated first x still holds there
    @pytest.mark.parametrize("tamper, statuses", [
        (_replace_pair, ["FAILED (solution-mismatch)"] * 2),
        (_drop_second_solution, ["FAILED (entry-count-mismatch)"] * 2),
        (_add_third_solution, ["FAILED (entry-count-mismatch)"] * 2),
        (_duplicate_first_solution, ["OK", "FAILED (solution-mismatch)"]),
    ], ids=["pair-replaced", "second-solution-dropped", "third-solution-added",
            "first-solution-duplicated"])
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
    # bundle: at k=1 both x are -1, so D = (-1)^3 - 1 + 1 = -1, each t is 1,
    # and the square cofactor is 1; complete is no claim, so the verifier
    # accepts either value of it
    @pytest.mark.parametrize("path, value, status", [
        # D = (-1)^3 - 1 + 2 = 0 on y^2 = x^3 + x + 2
        (("pair", 0, "b"), "2", "FAILED (zero-twist-value)"),
        # x = -2 fixes D = -9, in the class of -1: the second t is 1/3, and the
        # certificate holds, as the twists by D and by D/9 are one curve
        (("certificates", 0, "x", 0), "-2", "OK"),
        # s = 2 would make the label -1/4, no integer: 4 does not divide -1
        (("certificates", 0, "square"), "2", "FAILED (label-class-mismatch)"),
        (("certificates", 0, "square"), "0", "FAILED (label-class-mismatch)"),
        (("certificates", 0, "square"), "-1", "FAILED (label-class-mismatch)"),
        # x = 0 fixes D = 1; the identities are checked first, so the second x,
        # where -1/D is no square, names the tamper
        (("certificates", 0, "x", 0), "0", "FAILED (solution-mismatch)"),
        # -2/D = 2 is no square
        (("certificates", 0, "x", 1), "0", "FAILED (solution-mismatch)"),
        (("pair", 0, "a"), "2", "FAILED (solution-mismatch)"),
        # b = 3 puts the second x = -1 at a root of x^3 + 2x + 3: t = 0 there,
        # and (D*x, 0) has order 2
        (("pair", 1, "b"), "3", "FAILED (torsion-point)"),
        (("certificates", 0, "complete"), False, "OK"),
    ], ids=["D-zero", "D-same-class", "label-other-class", "label-zero", "label-negative",
            "x-first", "x-second", "pair-first-a", "pair-second-b",
            "complete"])
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

    def test_label_is_read_before_any_twist_point(self, capsys, monkeypatch, tmp_path):
        # on a one-curve bundle a tampered x fixes a D of its own, which only the
        # label can refuse; its divisibility test runs before the torsion chain,
        # whose cost grows quickly with the height of x (seconds at 400 digits).
        # x is odd, so D = x^3 + x + 1 is odd, and s = 2 does not divide it
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        bundle["certificates"][0]["x"] = "7" * 400
        bundle["certificates"][0]["square"] = "2"
        out_file.write_text(json.dumps(bundle))

        def refuse(curve, point):
            raise AssertionError("the torsion chain ran before the label")

        monkeypatch.setattr(twistgen, "certify_nontorsion", refuse)
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert out.splitlines()[1].endswith(": FAILED (label-class-mismatch)")

    # D is read from the pair's first curve and the first x, so a bundle that
    # cannot fix it is refused, and so is one that stores it or any t
    @pytest.mark.parametrize("tamper, error", [
        (_no_solutions, "not a rational in n or n/m form: ''"),
        (_empty_pair, "malformed bundle: empty pair"),
        (_empty_bundle, "malformed bundle: empty pair"),
        (_with_d, "malformed certificate: unexpected field 'D'"),
        (_as_version_six, "unsupported bundle version: 6"),
        (_as_version_seven, "unsupported bundle version: 7"),
        (_as_version_eight, "unsupported bundle version: 8"),
        (_as_version_nine, "unsupported bundle version: 9"),
    ], ids=["solutions-empty", "pair-empty", "bundle-empty", "stored-D",
            "version-six", "version-seven", "version-eight", "version-nine"])
    def test_bundle_that_fixes_no_d_or_stores_one_is_refused(self, capsys, tmp_path,
                                                              tamper, error):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                             "--count", "2", "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        tamper(bundle)
        out_file.write_text(json.dumps(bundle))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: {error}\n")

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
            # the label as version 8 stored it, which no check would read
            (("certificates", 0, "squarefree_D"), {"value": "-1137", "complete": True},
             "malformed certificate: unexpected field 'squarefree_D'"),
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
        # the pair's second curve "4,8" without its b
        (("pair", 1, "b"), "curve format is a,b with rational entries: '4'"),
        (("certificates", 0, "square"), "malformed certificate: missing field 'square'"),
        (("certificates", 0, "complete"),
         "malformed certificate: missing field 'complete'"),
        (("certificates", 0, "x"), "malformed certificate: missing field 'x'"),
    ], ids=["version", "pair", "certificates", "pair-b", "label", "complete", "x"])
    def test_missing_field_is_named(self, capsys, tmp_path, path, error):
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "corollary", "--curve=1,1", "--delta=2",
                             "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        _drop_leaf(bundle, path)
        out_file.write_text(json.dumps(bundle))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    # json.load keeps the last of two equal keys, so a reader that keeps the
    # first would see a claim the verifier never checked; at k=1 of the worked
    # pair both x are -1, and the square cofactor is 1
    @pytest.mark.parametrize("old, new, key", [
        ('"square": "1"', '"square": "7", "square": "1"', "square"),
        ('"certificates": [', '"certificates": [], "certificates": [', "certificates"),
        ('"x": "-1,-1"', '"x": "5,-1", "x": "-1,-1"', "x"),
    ], ids=["square", "certificates", "solution-x"])
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

    # pair and certificates are JSON arrays, and the x text of the solutions a
    # JSON string, read like every other value: an object, a string or a number
    # in the place of an array is refused, and so is anything but a string in
    # the place of x, a solution object of version 7 and the x array of
    # version 9 included
    @pytest.mark.parametrize("path, value, error", [
        (("certificates",), "", "expected a JSON array, got a JSON string"),
        (("certificates",), {}, "expected a JSON array, got a JSON object"),
        (("pair",), {}, "expected a JSON array, got a JSON object"),
        (("certificates", 0, "x"), 5, "expected a JSON string, got a JSON integer"),
        (("certificates", 0, "x"), {"x": "-1", "t": "1"},
         "expected a JSON string, got a JSON object"),
        ((), {"version": 10, "pair": {}, "certificates": {}},
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

    # a rational's digits are bounded too: the D of a bundle is about three
    # times as long as its first x, and printing a long D is quadratic
    def test_long_x_is_refused_quickly(self, capsys, tmp_path):
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        bundle["certificates"][0]["x"] = "7" * 100_000
        out_file.write_text(json.dumps(bundle))
        start = perf_counter()
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert err == f"error: number of 100000 characters; the limit is {_NUMBER_TEXT_LIMIT}\n"

    # no run writes more than MAX_ITERATIONS = 64 certificates, so a longer list
    # is refused before any entry is read, malformed ones included; the cap
    # bounds the pairwise check, which is quadratic in the certificates
    @pytest.mark.parametrize("entry, copies", [({"k": "one"}, 65), (None, 1_997)],
                             ids=["malformed", "valid"])
    def test_more_certificates_than_a_run_writes_are_refused(self, capsys, tmp_path,
                                                             entry, copies):
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        bundle["certificates"] = [entry or bundle["certificates"][0]] * copies
        out_file.write_text(json.dumps(bundle))
        start = perf_counter()
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert err == f"error: malformed bundle: {copies} certificates; a run writes at most 64\n"

    def test_as_many_certificates_as_a_run_writes_are_read(self, capsys, tmp_path):
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        bundle["certificates"] *= 64
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1 + 64 + 1
        assert all(line.endswith(": OK") for line in lines[1:-1])
        assert lines[-1] == "pairwise square classes: FAILED"

    def test_x_at_the_limit_is_read(self, capsys, tmp_path):
        # D = x^3 + x + 1 of that odd x is odd, so s = 2 does not divide it; with
        # the stored s = 1 the torsion chain would run on it for minutes
        out_file = tmp_path / "bundle.json"
        run_cli(capsys, "elementary", "--curve", "1,1", "--output", str(out_file))
        bundle = json.loads(out_file.read_text())
        bundle["certificates"][0]["x"] = "7" * _NUMBER_TEXT_LIMIT
        bundle["certificates"][0]["square"] = "2"
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert out.splitlines()[1].endswith(": FAILED (label-class-mismatch)")

    def test_second_x_at_a_root_is_a_torsion_point(self, capsys, tmp_path):
        # x^3 - x vanishes at x = 1: there t = 0, and (D, 0) has order 2 on the
        # twist by D of y^2 = x^3 - x; the identities and the label still hold
        out_file = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "-1,0",
                             "--effort", "2000", "--output", str(out_file))
        assert code == 0
        bundle = json.loads(out_file.read_text())
        _set_leaf(bundle, ("certificates", 0, "x", 1), "1")
        out_file.write_text(json.dumps(bundle))
        code, out, _ = run_cli(capsys, "verify", "--input", str(out_file))
        assert code == 1
        assert out.splitlines()[1] == "certificate k=1 D=3/8: FAILED (torsion-point)"

    # version 9 stored each certificate's walk index k, which no check read; a
    # k is now refused like any other unchecked claim, and a JSON integer over
    # 20 characters as the bundle is read, before any key is looked at
    @pytest.mark.parametrize("k, error", [
        (10**19, "malformed certificate: unexpected field 'k'"),
        (-(10**18), "malformed certificate: unexpected field 'k'"),
        (10**20, "JSON integer of 21 characters; the limit is 20"),
        (-(10**19), "JSON integer of 21 characters; the limit is 20"),
    ], ids=["twenty-digits", "negative-nineteen-digits", "twenty-one-digits",
            "negative-twenty-digits"])
    def test_k_is_refused(self, capsys, tmp_path, k, error):
        out_file = tmp_path / "bundle.json"
        assert run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                       "--effort", "2000", "--output", str(out_file))[0] == 0
        bundle = json.loads(out_file.read_text())
        bundle["certificates"][0]["k"] = k
        out_file.write_text(json.dumps(bundle))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    # a pair curve is the text "a,b" and a certificate's x the text "x1,x2";
    # each entry is read as a rational, within the 10,000-character limit, and
    # the shapes version 9 wrote are refused by their JSON kind
    @pytest.mark.parametrize("path, value, error", [
        (("pair", 0), "1", "curve format is a,b with rational entries: '1'"),
        (("pair", 0), "1,2,3", "curve format is a,b with rational entries: '1,2,3'"),
        (("pair", 0), "", "curve format is a,b with rational entries: ''"),
        (("pair", 0), "1" * (_NUMBER_TEXT_LIMIT + 1) + ",1",
         f"number of {_NUMBER_TEXT_LIMIT + 1} characters; the limit is {_NUMBER_TEXT_LIMIT}"),
        (("pair", 0), {"a": "1", "b": "1"}, "expected a JSON string, got a JSON object"),
        (("certificates", 0, "x"), "", "not a rational in n or n/m form: ''"),
        (("certificates", 0, "x"), "1,,2", "not a rational in n or n/m form: ''"),
        (("certificates", 0, "x"), ["-1", "-1"], "expected a JSON string, got a JSON array"),
    ], ids=["pair-one-entry", "pair-three-entries", "pair-empty-text", "pair-over-limit",
            "pair-version-nine", "x-empty-text", "x-empty-entry", "x-version-nine"])
    def test_text_of_another_shape_is_refused(self, capsys, tmp_path, path, value, error):
        out_file = tmp_path / "bundle.json"
        assert run_cli(capsys, "generate", "--curve1", "1,1", "--curve2", "2,2",
                       "--effort", "2000", "--output", str(out_file))[0] == 0
        bundle = json.loads(out_file.read_text())
        _set_leaf(bundle, path, value)
        out_file.write_text(json.dumps(bundle))
        code, out, err = run_cli(capsys, "verify", "--input", str(out_file))
        assert (code, out, err) == (1, "", f"error: {error}\n")


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


# verify's stdout for each pinned scenario, as version 6 bundles gave it with
# D stored: each D the verifier now derives from the first x is the D those
# bundles stored
VERIFIED_GENERAL = [
    "pair: y^2 = x^3 + x + 1  |  y^2 = x^3 + 2*x + 2",
    "certificate k=1 D=-1: OK",
    "certificate k=2 D=907559/226981: OK",
    "certificate k=3 D=118526814199/120627009621: OK",
    "pairwise square classes: OK",
]

VERIFIED_ISOMORPHIC = [
    "pair: y^2 = x^3 + x + 1  |  y^2 = x^3 + 16*x + 64",
    "certificate k=1 D=3: OK",
    "certificate k=2 D=11: OK",
    "certificate k=3 D=31: OK",
    "pairwise square classes: OK",
]

VERIFIED_IDENTICAL_JZERO = [
    "pair: y^2 = x^3 + 2  |  y^2 = x^3 + 2",
    "certificate k=1 D=3: OK",
    "certificate k=2 D=10: OK",
    "certificate k=3 D=29: OK",
    "pairwise square classes: OK",
]

VERIFIED_JZERO = [
    "pair: y^2 = x^3 + 215  |  y^2 = x^3 + 430",
    "certificate k=1 D=431: OK",
    "certificate k=2 D=214: OK",
    "certificate k=3 D=2277000286/10218313: OK",
    "pairwise square classes: OK",
]

VERIFIED_COROLLARY = [
    "pair: y^2 = x^3 + x + 1  |  y^2 = x^3 + 4*x + 8",
    "certificate k=1 D=-379/27: OK",
    "certificate k=2 D=59927361049/2576987811: OK",
    "certificate k=3 D=649180274321951/3718327981528467: OK",
    "pairwise square classes: OK",
]

VERIFIED_ELEMENTARY = [
    "pair: y^2 = x^3 + x + 1",
    "certificate k=1 D=3: OK",
    "certificate k=2 D=11: OK",
    "certificate k=3 D=31: OK",
    "pairwise square classes: OK",
]


# (argv, SHA-256 of the bundle as written, SHA-256 of it re-encoded with
# indent=2, the layout of bundles before they were written as one line,
# verify's stdout).  The bytes may move only when the certificate format, the
# search order or the layout changes on purpose, as version 7 did by dropping
# D, version 8 by dropping t, version 9 by storing the label's square
# cofactor in place of the label and version 10 by writing each pair curve
# and each certificate's x values as comma texts and dropping k; verify's
# stdout did not move, as its k= is the certificate's position, the walk
# step in every pinned scenario; a bundle holds only its pair and
# certificates, so corollary --delta 4, whose pair is (1, 1), (16, 64), writes
# the isomorphic route's bytes.
PINNED_BUNDLES = [
    pytest.param(
        ("generate", "--curve1", "1,1", "--curve2", "2,2"),
        "43b3eefc7c8b7425b47e5a2991ed778f4475fb77b840a662769002c9c9309420",
        "71c70b385621591107199ed39273d4a6ec6d70c44a7a0d67a2d3b553cc240ac6",
        VERIFIED_GENERAL,
        id="general"),
    pytest.param(
        ("generate", "--curve1", "1,1", "--curve2", "16,64"),
        "723fb758566fb5445726a2ab5e51043e332ee4a903bff5594649320f6bbcb0d1",
        "598bd1c8b7a40e82407cfc530616bcc2fe4c36ca118daa2dea10d87b4e7349bd",
        VERIFIED_ISOMORPHIC,
        id="isomorphic"),
    pytest.param(
        ("generate", "--curve1", "0,2", "--curve2", "0,2"),
        "cac7471494117489476102d0a2ccd02d785a5235e178a53151768c54d61ad29c",
        "87b7875d1b83d8eff8eb5ea29c1e37e580baf4154b1a9b487d59e3e7c5a246b6",
        VERIFIED_IDENTICAL_JZERO,
        id="identical-jzero"),
    pytest.param(
        ("jzero", "--curve1", "0,1", "--curve2", "0,2"),
        "7b3ab3ede855676672546d1e9422d7fe670923b59c36798d026d739621074aca",
        "6fb26034def24aab05f830502ae94f227dcaaee283bac6fc6d644cf1d0c808f4",
        VERIFIED_JZERO,
        id="jzero"),
    pytest.param(
        ("generate", "--curve1", "0,1", "--curve2", "0,2"),
        "7b3ab3ede855676672546d1e9422d7fe670923b59c36798d026d739621074aca",
        "6fb26034def24aab05f830502ae94f227dcaaee283bac6fc6d644cf1d0c808f4",
        VERIFIED_JZERO,
        id="generate-jzero"),
    pytest.param(
        ("corollary", "--curve", "1,1", "--delta", "2"),
        "f475a9cd7270402ef9170df98f9208557ad19e56cbc2927b146e8e0f8fecf685",
        "0ea20ebf129c79e64f19004813f7fff02737c92717a9770865d514c5bedb5667",
        VERIFIED_COROLLARY,
        id="corollary-delta2"),
    pytest.param(
        ("corollary", "--curve", "1,1", "--delta", "4"),
        "723fb758566fb5445726a2ab5e51043e332ee4a903bff5594649320f6bbcb0d1",
        "598bd1c8b7a40e82407cfc530616bcc2fe4c36ca118daa2dea10d87b4e7349bd",
        VERIFIED_ISOMORPHIC,
        id="corollary-delta4"),
    pytest.param(
        ("elementary", "--curve", "1,1"),
        "2052185135e97937c6e9c1e075e5596d33df55d2d0ad46f9bb1d50b63683cb03",
        "3d4619a02822f6141c5995e69e27b01b2626783bfb49d45777b65821c01dbfae",
        VERIFIED_ELEMENTARY,
        id="elementary"),
]


# the labels version 8 stored for each pinned scenario's bundle, all complete,
# by its pair line
VERSION_8_LABELS = {
    VERIFIED_GENERAL[0]: [-1, 55361099, 7230135666139],
    VERIFIED_ISOMORPHIC[0]: [3, 11, 31],
    VERIFIED_IDENTICAL_JZERO[0]: [3, 10, 29],
    VERIFIED_JZERO[0]: [431, 214, 494109062062],
    VERIFIED_COROLLARY[0]: [-1137, 82160411998179, 100572955638779614773],
    VERIFIED_ELEMENTARY[0]: [3, 11, 31],
}


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

    @pytest.mark.parametrize("argv, digest, indented, verified", PINNED_BUNDLES)
    def test_bundle_bytes_pinned(self, capsys, tmp_path, argv, digest, indented, verified):
        data = _pinned_bundle(capsys, tmp_path, argv).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest, indented, verified", PINNED_BUNDLES)
    def test_verify_output_pinned(self, capsys, tmp_path, argv, digest, indented, verified):
        bundle = _pinned_bundle(capsys, tmp_path, argv)
        code, out, _ = run_cli(capsys, "verify", "--input", str(bundle))
        assert (code, out.splitlines()) == (0, verified)

    @pytest.mark.parametrize("argv, digest, indented, verified", PINNED_BUNDLES)
    def test_label_is_the_one_version_8_stored(self, capsys, tmp_path, argv, digest,
                                               indented, verified):
        # each D with its square cofactor s gives num*den/s^2, the label version 8
        # stored, and the same complete flag: the claim did not change
        bundle = json.loads(_pinned_bundle(capsys, tmp_path, argv).read_text())
        curve1 = _first_curve(bundle)
        labels = []
        for cert in bundle["certificates"]:
            value = curve1.rhs(_first_x(cert))
            product, square = value.numerator * value.denominator, int(cert["square"])
            assert product % square**2 == 0
            labels.append((product // square**2, cert["complete"]))
        assert labels == [(label, True) for label in VERSION_8_LABELS[verified[0]]]

    @pytest.mark.parametrize("argv, digest, indented, verified", PINNED_BUNDLES)
    def test_bundle_is_one_line(self, capsys, monkeypatch, tmp_path, argv, digest, indented,
                                verified):
        written = []

        def to_dict(pair, certs):
            written.append(bundle_to_dict(pair, certs))
            return written[-1]

        monkeypatch.setattr(cli, "bundle_to_dict", to_dict)
        data = _pinned_bundle(capsys, tmp_path, argv).read_text(encoding="utf-8")
        assert data == json.dumps(*written) + "\n"
        assert data.count("\n") == 1

    @pytest.mark.parametrize("argv, digest, indented, verified", PINNED_BUNDLES)
    def test_indented_bundle_verifies(self, capsys, tmp_path, argv, digest, indented,
                                      verified):
        # whitespace is no part of the format: the bundle re-encoded in the
        # indented layout has that layout's pinned digest, and verifies alike
        bundle = _pinned_bundle(capsys, tmp_path, argv)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(bundle.read_text()), indent=2) + "\n")
        assert hashlib.sha256(pretty.read_bytes()).hexdigest() == indented
        one_line = run_cli(capsys, "verify", "--input", str(bundle))
        assert one_line[0] == 0
        assert run_cli(capsys, "verify", "--input", str(pretty)) == one_line
