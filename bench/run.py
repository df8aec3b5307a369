"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload small-jobs --seed 1 --seconds 30 --trace 0

The program under test is ``src/twistpairs`` of the checkout this file sits
in.  Every metric is printed by name with its unit; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reruns every round with span wrappers installed, reports the per-layer
metrics, the tracing overhead and how much of the traced time the layers'
self times cover, and writes the spans to ``.bench_state``.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import harness
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import twistpairs.cli as cli; cli.build_parser()"
)
# the layers' self times must cover at least this share of the traced time
MIN_COVERAGE = 0.95
# Seconds one round takes at the commit that defined the benchmark, on a
# 2-vCPU x86-64 host.  A run executes --seconds / this many rounds, so every
# commit runs the same jobs for a seed; a traced run executes half as many,
# each twice.
NOMINAL_ROUND_S = {"small-jobs": 1.45, "labels": 2.95, "deep-walk": 2.25}

END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_s": "s",
    "verify_s": "s",
    "certs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bundle_bytes": "B",
    "label_complete_ratio": "1",
}


def load_program() -> dict:
    """Import the checkout's twistpairs modules, refusing any other copy."""
    if not (SRC / "twistpairs" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"twistpairs.{name}")
        for name in ("cli", "twistgen", "planecubic", "weierstrass", "exactnum")
    }
    if Path(modules["cli"].__file__).resolve().parent != SRC / "twistpairs":
        raise SystemExit(f"error: imported {modules['cli'].__file__}, not {SRC}")
    return modules


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - start


def end_to_end(rounds: list[harness.Round]) -> dict[str, float]:
    jobs = [job for r in rounds for job in r.jobs if job.generating]
    latencies = [job.latency_s for job in jobs]
    tail = harness.highest_percentile(len(latencies))
    print(f"job latency over {len(latencies)} jobs: "
          f"job_p50_s {harness.percentile(latencies, 50):.4g} s, "
          f"job_p90_s {harness.percentile(latencies, 90):.4g} s; highest percentile "
          f"with ten samples beyond: "
          + ("none" if tail is None else f"p{tail:g} = {harness.percentile(latencies, tail):.4g} s"))
    return {
        "generate_s": harness.interquartile_mean(r.generate_s for r in rounds),
        "verify_s": harness.interquartile_mean(r.verify_s for r in rounds),
        "certs_per_s": harness.interquartile_mean(
            r.verified / (r.generate_s + r.verify_s) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bundle_bytes": harness.interquartile_mean(r.bundle_bytes for r in rounds),
        "label_complete_ratio": sum(job.complete for job in jobs)
        / max(1, sum(job.emitted for job in jobs)),
    }


def per_layer(tracer: tracing.Tracer, plain: list[harness.Round],
              traced: list[harness.Round], problems: list[str]) -> dict[str, float]:
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    traced_wall = sum(r.wall_s for r in traced)
    layers = tracing.layer_self_times(tracer.spans)
    metrics["trace.coverage"] = sum(layers.values()) / traced_wall
    metrics["trace.overhead"] = traced_wall / sum(r.wall_s for r in plain)
    for layer, seconds in layers.items():
        print(f"layer {layer}: self {seconds:.3f} s ({seconds / traced_wall:.1%} of traced time)")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"layer self times cover {metrics['trace.coverage']:.1%} "
                        f"of the traced time, below {MIN_COVERAGE:.0%}")
    return metrics


def write_spans(spans: list[tracing.Span], path: Path) -> None:
    """One JSON array per line: name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_program()
    cli = modules["cli"]
    problems: list[str] = []
    setup_times: list[float] = []
    STATE.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        workdir = Path(tmp)

        def traced_round(jobs):
            tracing.install_twistpairs(tracer, modules)
            try:
                return harness.run_round(lambda argv: cli.main(argv), jobs, workdir)
            finally:
                tracer.restore()

        untimed = harness.run_round(
            cli.main, workloads.untimed_jobs(args.workload, args.seed), workdir)
        rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        plain, traced = harness.run_rounds(
            cli.main, workloads.rounds(args.workload, args.seed),
            max(1, rounds // 2) if args.trace else rounds, workdir,
            first=harness.IDENTITY_CHECK if args.workload == workloads.SMALL_JOBS else None,
            traced=traced_round if args.trace else None,
            # one fresh interpreter before each round, so the set-up
            # median spans the whole run as the other figures do
            before=None if args.trace else lambda: setup_times.append(time_setup()),
        )

    if args.trace:
        metrics = per_layer(tracer, plain, traced, problems)
        units = tracing.PER_LAYER_UNITS
        write_spans(tracer.spans, STATE / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # before the digest record is loaded, so peak_rss_mb is the workload's
        metrics = {"setup_s": statistics.median(setup_times), **end_to_end(plain)}
        units = END_TO_END_UNITS

    jobs = [job for r in [untimed, *plain] for job in r.jobs]
    for job in jobs:
        problems.extend(job.problems)
    digests = [job.digest for job in jobs]
    for mismatch in harness.check_determinism(
            STATE / "digests.json", harness.code_digest(SRC),
            [(spec, job.digest)
             for r in [untimed, *plain, *traced]
             for spec, job in zip(r.specs, r.jobs)]):
        problems.append(f"not deterministic: {mismatch}")
    attempted = sum(job.requested for job in jobs)
    failed = sum(job.failed for job in jobs)

    for spec, job in zip(untimed.specs, untimed.jobs):
        print(f"untimed {' '.join(spec.argv)}: exit {job.exit_code}, "
              f"{job.verified} of {job.requested} verified, {job.generate_s:.3f} s")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} rounds, "
          f"{len(jobs)} jobs, {attempted} certificates requested, {failed} not verified "
          f"(fail_ratio {failed / attempted:.4f})")
    print("bundle digest: " + hashlib.sha256("".join(digests).encode()).hexdigest())
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
