"""Cross-check of the traced job runner against the ROADMAP baseline.

    python3 bench/sanity.py

Runs the worked pair y^2 = x^3 + x + 1 / y^2 = x^3 + 2x + 2 at --count 5 and
the default effort once through the benchmark's job runner with the span
wrappers installed.  The ROADMAP profile puts about 94% of that generation
in the squarefree labels (exactnum.squarefree_part); this prints the share
the spans measure, and exits 1 when it is below 80% or the job failed.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import harness
import run
import tracing
from workloads import Job

WORKED_PAIR = Job(("generate", "--curve1=1,1", "--curve2=2,2", "--count=5"), 5)


def main() -> int:
    modules = run.load_program()
    cli = modules["cli"]
    tracer = tracing.Tracer()
    run.STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.STATE) as tmp:
        tracing.install_twistpairs(tracer, modules)
        try:
            result = harness.run_job(lambda argv: cli.main(argv), WORKED_PAIR,
                                     Path(tmp) / "worked.json")
        finally:
            tracer.restore()
    generate_span = next(s for s in tracer.spans if s.name == "cli.main")
    labels = sum(s.duration for s in tracer.spans if s.name == "exactnum.squarefree_part")
    share = labels / generate_span.duration
    flags = "".join("T" if s.info else "F" for s in tracer.spans
                    if s.name == "exactnum.squarefree_part")
    print(f"generate (traced main): {generate_span.duration:.3f} s; "
          f"verify: {result.verify_s:.3f} s; bundle {result.bundle_bytes} B")
    print(f"exactnum.squarefree_part: {labels:.3f} s = {share:.1%} of generation; "
          f"complete flags {flags}")
    ok = not result.problems and result.failed == 0 and share >= 0.8
    for problem in result.problems:
        print(f"INCORRECT: {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
