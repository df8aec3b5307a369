"""What the benchmark harness in ``bench/`` relies on, run on the real modules.

``bench/tracing.py`` wraps fixed names of ``cli``, ``twistgen`` and the
group-law classes, and reads fixed positions of their results; the harness
counts ``"complete": true`` in each bundle and parses ``verify``'s output.
One job per subcommand runs here under those wrappers, through the harness's
own job runner, so a renamed name, a reshaped result or a changed output line
fails in the test suite and not only in a traced benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import Job  # noqa: E402

from twistpairs import cli, exactnum, planecubic, twistgen, weierstrass  # noqa: E402

MODULES = {"cli": cli, "twistgen": twistgen, "planecubic": planecubic,
           "weierstrass": weierstrass, "exactnum": exactnum}
OWNERS = (cli, twistgen, planecubic.PlaneCubic, weierstrass.Curve)

# the worked pair at count 2 compares two values; the label test compares none
JOBS = [
    Job(("generate", "--curve1=1,1", "--curve2=2,2", "--count=2", "--effort=2000"), 2),
    Job(("generate", "--curve1=1,1", "--curve2=16,64", "--effort=2000"), 1),
    Job(("jzero", "--curve1=0,1", "--curve2=0,2", "--effort=2000"), 1),
    Job(("corollary", "--curve=1,1", "--delta=2", "--effort=2000"), 1),
    Job(("elementary", "--curve=1,1", "--effort=2000"), 1),
    harness.IDENTITY_CHECK,
]

# every wrapped name but Curve.scalar_mul, which no CLI run calls
SPAN_NAMES = {
    "cli.main", "twistgen.prepare_pair", "twistgen.jzero_generate",
    "twistgen.corollary_mode", "twistgen.lambda_search", "twistgen.generate",
    "twistgen.elementary_generate", "twistgen.bundle_to_dict",
    "twistgen.bundle_from_dict", "twistgen.verify_bundle",
    "exactnum.squarefree_part", "exactnum.same_square_class", "planecubic.add",
    "planecubic.certify_nontorsion", "weierstrass.certify_nontorsion",
    "polyident.identity",
}


def _attributes():
    return [dict(vars(owner)) for owner in OWNERS]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(tracer, job results, attributes before install) of one traced round."""
    bundle = tmp_path_factory.mktemp("bench") / "bundle.json"
    before = _attributes()
    tracer = tracing.Tracer()
    tracing.install_twistpairs(tracer, MODULES)
    try:
        results = [harness.run_job(cli.main, job, bundle) for job in JOBS]
    finally:
        tracer.restore()
    return tracer, results, before


def test_every_job_exits_zero_and_verifies(traced):
    _, results, _ = traced
    for job, result in zip(JOBS, results):
        assert (result.exit_code, result.problems) == (0, []), job.argv
        assert result.verified == job.requested, job.argv
        if result.generating:
            assert result.emitted == job.requested
            assert result.complete == job.requested, job.argv


def test_span_info_has_the_shapes_the_metrics_read(traced):
    tracer, _, _ = traced
    assert {span.name for span in tracer.spans} == SPAN_NAMES
    searches = [s for s in tracer.spans if s.name == "twistgen.lambda_search"]
    assert searches and all(type(s.info) is int for s in searches)
    walks = [s for s in tracer.spans
             if s.name in ("twistgen.generate", "twistgen.elementary_generate")]
    assert walks and all(len(s.info) == 3 for s in walks)
    labels = [s for s in tracer.spans if s.name == "exactnum.squarefree_part"]
    assert labels and all(type(s.info) is bool for s in labels)


def test_restore_puts_every_attribute_back(traced):
    _, _, before = traced
    after = _attributes()
    assert [list(attrs) for attrs in after] == [list(attrs) for attrs in before]
    for old, new in zip(before, after):
        assert all(new[name] is value for name, value in old.items())


# the pinned scenarios of tests/test_cli.py, whose labels are all complete,
# and the worked pair at --count 9 and --effort 1, whose labels are mixed
PINNED = [
    ("generate", "--curve1=1,1", "--curve2=2,2"),
    ("generate", "--curve1=1,1", "--curve2=16,64"),
    ("generate", "--curve1=0,2", "--curve2=0,2"),
    ("jzero", "--curve1=0,1", "--curve2=0,2"),
    ("generate", "--curve1=0,1", "--curve2=0,2"),
    ("corollary", "--curve=1,1", "--delta=2"),
    ("corollary", "--curve=1,1", "--delta=4"),
    ("elementary", "--curve=1,1"),
]


@pytest.mark.parametrize("argv", [
    *((*argv, "--count=3", "--effort=2000") for argv in PINNED),
    ("generate", "--curve1=1,1", "--curve2=2,2", "--count=9", "--effort=1"),
])
def test_complete_flags_are_counted_from_the_bytes(tmp_path, argv):
    # label_complete_ratio counts '"complete": true' in a bundle's bytes: a
    # layout that wrote the flag another way would read 0 there, not fail
    bundle = tmp_path / "bundle.json"
    assert cli.main([*argv, "--output", str(bundle)]) == 0
    data = bundle.read_bytes()
    _, certs = twistgen.bundle_from_dict(json.loads(data))
    assert len(certs) > 1
    assert data.count(harness._COMPLETE) == sum(cert.complete for cert in certs)
