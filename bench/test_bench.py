"""Tests of the benchmark's own logic: inputs, span arithmetic, percentiles."""

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first_rounds(workload, seed, count=3):
    return list(itertools.islice(workloads.rounds(workload, seed), count))


def _curves(job):
    for arg in job.argv:
        if arg.startswith(("--curve=", "--curve1=", "--curve2=")):
            a, b = arg.split("=", 1)[1].split(",")
            yield int(a), int(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_curves_are_nonsingular_and_in_range(workload):
    for job in itertools.chain.from_iterable(_first_rounds(workload, 3, count=5)):
        curves = list(_curves(job))
        assert curves
        for a, b in curves:
            assert -9 <= a <= 9 and -9 <= b <= 9
            assert 4 * a**3 + 27 * b**2 != 0
        if job.argv[0] == "jzero":
            assert curves[0][0] == curves[1][0] == 0 and curves[0] != curves[1]


def test_small_jobs_rounds_keep_j1728_out():
    # j = 1728 jobs exhaust their lambda search; the timed rounds avoid them
    (round_,) = _first_rounds(workloads.SMALL_JOBS, 1, count=1)
    bs = sorted(b for job in round_ if job.argv[0] == "corollary"
                for _, b in _curves(job))
    assert bs == [b for b in workloads.COEFFICIENTS if b != 0]
    for job in itertools.chain.from_iterable(_first_rounds(workloads.SMALL_JOBS, 2, count=20)):
        if job.argv[0] == "generate":
            assert [b for _, b in _curves(job)] != [0, 0]


def test_untimed_jobs_hold_the_j1728_corollary_on_small_jobs_only():
    (job,) = workloads.untimed_jobs(workloads.SMALL_JOBS, 5)
    assert job.argv[0] == "corollary" and [b for _, b in _curves(job)] == [0]
    assert workloads.untimed_jobs(workloads.SMALL_JOBS, 5) == [job]
    assert workloads.untimed_jobs(workloads.LABELS, 5) == []
    assert workloads.untimed_jobs(workloads.DEEP_WALK, 5) == []


def test_walk_height_grows_with_the_seed_point():
    # tangent point x = y = (b-d)/(c-a): a larger b - d gives a taller point
    assert workloads.walk_height(1, 1, 2, 2) < workloads.walk_height(1, 9, 2, -9)
    # b == d for every small rescaling leaves no usable seed point
    assert workloads.walk_height(1, 0, 3, 0) == 0.0


def _span(name, start, end, parent=None, info=None):
    return tracing.Span(name, start, end, parent, info)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("twistgen.generate", 1.0, 7.0, parent=0),
        _span("planecubic.add", 2.0, 3.0, parent=1),
        _span("planecubic.add", 4.0, 6.0, parent=1),
        _span("twistgen.bundle_to_dict", 8.0, 9.5, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 3.0, 1.0, 2.0, 1.5])
    layers = tracing.layer_self_times(spans)
    assert layers["cli"] == pytest.approx(2.5)
    assert layers["twistgen"] == pytest.approx(4.5)
    assert layers["planecubic"] == pytest.approx(3.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_jzero_route_excludes_its_walk():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("twistgen.jzero_generate", 1.0, 9.0, parent=0),
        _span("twistgen.generate", 3.0, 8.0, parent=1, info=(4, 2, 30)),
        _span("twistgen.prepare_pair", 9.0, 9.5, parent=0),
    ]
    metrics = tracing.layer_metrics(spans, rounds=1)
    assert metrics["twistgen.route.s"] == pytest.approx(3.0 + 0.5)
    assert metrics["twistgen.walk.self_s"] == pytest.approx(5.0)
    assert metrics["twistgen.accept_ratio"] == pytest.approx(0.5)
    assert metrics["twistgen.d_bits_max"] == 30


def test_wasted_share_counts_incomplete_labels():
    spans = [
        _span("exactnum.squarefree_part", 0.0, 1.0, info=True),
        _span("exactnum.squarefree_part", 1.0, 4.0, info=False),
    ]
    assert tracing.layer_metrics(spans, 1)["exactnum.squarefree_part.wasted_share"] == 0.75


def test_percentile_rule():
    assert harness.highest_percentile(99) == 75
    assert harness.highest_percentile(100) == 90
    assert harness.highest_percentile(1000) == 99
    assert harness.highest_percentile(19) is None
    assert harness.highest_percentile(20) == 50
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([3.0], 90) == 3.0


def test_wrappers_record_and_restore_attributes():
    from twistpairs import cli, exactnum, planecubic, twistgen, weierstrass

    modules = {"cli": cli, "twistgen": twistgen, "planecubic": planecubic,
               "weierstrass": weierstrass, "exactnum": exactnum}
    watched = [(cli, "main"), (cli, "generate"), (twistgen, "generate"),
               (twistgen, "squarefree_part"), (twistgen, "lambda_search"),
               (cli, "verify_disc_identity")]
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr in watched}
    add = planecubic.PlaneCubic.__dict__["add"]
    scalar_mul = weierstrass.Curve.__dict__["scalar_mul"]

    tracer = tracing.Tracer()
    tracing.install_twistpairs(tracer, modules)
    try:
        assert cli.main is not before[(id(cli), "main")]
        assert planecubic.PlaneCubic.__dict__["add"] is not add
        assert cli.main(["elementary", "--curve=1,1"]) == 0
    finally:
        tracer.restore()

    for owner, attr in watched:
        assert getattr(owner, attr) is before[(id(owner), attr)]
    assert planecubic.PlaneCubic.__dict__["add"] is add
    assert weierstrass.Curve.__dict__["scalar_mul"] is scalar_mul
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "twistgen.elementary_generate",
            "weierstrass.certify_nontorsion"} <= names
    assert tracer.spans[0].name == "cli.main" and tracer.spans[0].parent is None


def test_determinism_record(tmp_path):
    store = tmp_path / "digests.json"
    one = workloads.Job(("elementary", "--curve=1,1"), 1)
    two = workloads.Job(("elementary", "--curve=2,1"), 1)
    assert harness.check_determinism(store, "code", [(one, "a"), (two, "b")]) == []
    assert harness.check_determinism(store, "code", [(two, "b"), (one, "a")]) == []
    # other program sources keep their own record
    assert harness.check_determinism(store, "other", [(one, "x")]) == []
    problems = harness.check_determinism(store, "code", [(one, "x")])
    assert len(problems) == 1 and "elementary --curve=1,1" in problems[0]
    assert json.loads(store.read_text())["code"] == {
        "elementary --curve=1,1": "a", "elementary --curve=2,1": "b"}


def test_reported_metrics_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.NOMINAL_ROUND_S) == list(workloads.WORKLOADS)


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert harness.interquartile_mean([5.0, 1.0, 2.0, 3.0, 100.0, 4.0, 0.0, 6.0]) == 3.5
    assert harness.interquartile_mean([2.0, 4.0, 9.0]) == 5.0
