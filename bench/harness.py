"""Closed-loop job runner: one client, each job after the previous returns.

A job drives the real CLI in process through ``twistpairs.cli.main(argv)``:
the generating call writes its bundle to an ``--output`` file, and
``main(["verify", "--input", ...])`` rechecks it.  No threads are started.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

from workloads import Job

_CERT_LINE = re.compile(r"^certificate k=\d+ D=\S+: (OK|FAILED.*)$", re.M)
_LEDGER_LINE = re.compile(r"^pairwise square classes: (OK|FAILED)$", re.M)
_COMPLETE = b'"complete": true'

IDENTITY_CHECK = Job(("identity-check",), 1)


@dataclass
class JobResult:
    requested: int
    generating: bool = True
    generate_s: float = 0.0
    verify_s: float = 0.0
    exit_code: Optional[int] = None  # None when main raised
    emitted: int = 0
    verified: int = 0
    complete: int = 0
    bundle_bytes: int = 0
    digest: str = "-"
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.requested - self.verified

    @property
    def latency_s(self) -> float:
        """Generate plus verify; a job with a failed certificate never meets a limit."""
        return self.generate_s + self.verify_s if self.failed == 0 else float("inf")


def call_main(main: Callable, argv: list[str]) -> tuple[Optional[int], float, str]:
    """Run ``main(argv)`` with its output captured: (exit code, seconds, stdout).

    An exception escaping main is reported on stderr and gives exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        code = None
        print(f"exception in {argv}:\n{traceback.format_exc()}", file=sys.stderr)
    return code, perf_counter() - start, out.getvalue()


def run_job(main: Callable, job: Job, bundle: Path) -> JobResult:
    """Generate one bundle, verify it through the CLI, and check the outcome."""
    result = JobResult(requested=job.requested, generating=job is not IDENTITY_CHECK)
    if not result.generating:
        code, seconds, out = call_main(main, list(job.argv))
        result.exit_code, result.generate_s = code, seconds
        holds = out.count(": holds")
        result.verified = 1 if code == 0 and holds == 3 else 0
        if (code == 0) != (holds == 3):
            result.problems.append(f"identity-check exit {code} with {holds}/3 holding")
        return result

    code, result.generate_s, _ = call_main(main, [*job.argv, "--output", str(bundle)])
    result.exit_code = code
    if not bundle.exists():
        if code == 0:
            result.problems.append(f"{job.argv}: exit 0 without a bundle")
        return result
    data = bundle.read_bytes()
    result.bundle_bytes = len(data)
    result.digest = hashlib.sha256(data).hexdigest()[:16]
    result.complete = data.count(_COMPLETE)
    vcode, result.verify_s, out = call_main(main, ["verify", "--input", str(bundle)])
    bundle.unlink()
    lines = _CERT_LINE.findall(out)
    ledger = _LEDGER_LINE.findall(out)
    result.emitted = len(lines)
    if vcode == 0 and ledger == ["OK"] and all(line == "OK" for line in lines):
        result.verified = len(lines)
    else:
        result.problems.append(f"{job.argv}: bundle failed verification (exit {vcode})")
    if code == 0 and result.emitted != job.requested:
        result.problems.append(
            f"{job.argv}: exit 0 with {result.emitted} of {job.requested} certificates")
    if code == 2 and result.emitted >= job.requested:
        result.problems.append(f"{job.argv}: exit 2 with a full bundle")
    return result


@dataclass
class Round:
    specs: list[Job]
    jobs: list[JobResult]
    wall_s: float

    @property
    def generate_s(self) -> float:
        return sum(job.generate_s for job in self.jobs if job.generating)

    @property
    def verify_s(self) -> float:
        return sum(job.verify_s for job in self.jobs)

    @property
    def verified(self) -> int:
        return sum(job.verified for job in self.jobs)

    @property
    def bundle_bytes(self) -> int:
        return sum(job.bundle_bytes for job in self.jobs)


def run_round(main: Callable, jobs: list[Job], workdir: Path) -> Round:
    start = perf_counter()
    results = [run_job(main, job, workdir / f"bundle{i}.json")
               for i, job in enumerate(jobs)]
    return Round(jobs, results, perf_counter() - start)


def run_rounds(main: Callable, stream: Iterator[list[Job]], count: int,
               workdir: Path, first: Optional[Job] = None,
               traced: Optional[Callable[[list[Job]], Round]] = None,
               before: Optional[Callable[[], None]] = None
               ) -> tuple[list[Round], list[Round]]:
    """The next ``count`` rounds of the stream, one job after another.

    ``first`` is prepended to the first round.  With ``traced`` set, each
    round also runs again through it, and both lists are returned.
    ``before`` is called before each round, outside its timing.
    """
    plain: list[Round] = []
    again: list[Round] = []
    for index in range(count):
        jobs = next(stream)
        if first is not None and index == 0:
            jobs = [first, *jobs]
        if before is not None:
            before()
        plain.append(run_round(main, jobs, workdir))
        if traced is not None:
            again.append(traced(jobs))
    return plain, again


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values, dropping a quarter at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return math.fsum(ordered[cut:len(ordered) - cut]) / (len(ordered) - 2 * cut)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def highest_percentile(n: int, candidates=(99.9, 99, 95, 90, 75, 50)) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def code_digest(src: Path) -> str:
    """Digest of the program's sources, keying the determinism record."""
    h = hashlib.sha256()
    for path in sorted((src / "twistpairs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(store: Path, code: str, jobs: list[tuple[Job, str]]) -> list[str]:
    """Compare bundle digests with those earlier runs of the same code recorded.

    The record maps each job's argv to the digest of the bundle it emitted;
    the same argv must give the same bytes.  Returns one line per mismatch.
    """
    record = json.loads(store.read_text()) if store.exists() else {}
    seen = record.setdefault(code, {})
    problems = []
    for job, digest in jobs:
        key = " ".join(job.argv)
        if seen.setdefault(key, digest) != digest:
            problems.append(f"{key}: bundle digest {digest}, earlier run {seen[key]}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    tmp.replace(store)
    return problems
