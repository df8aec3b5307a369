"""Spans around the public functions of each twistpairs layer.

The wrappers live here, in the benchmark, and are installed at the attribute
each caller resolves at call time: ``cli`` and ``twistgen`` bind most names
at import, so those module attributes are replaced; ``PlaneCubic.add`` and
``Curve.scalar_mul`` are replaced on the class.  Spans stay in memory until
the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

LAYERS = ("cli", "twistgen", "planecubic", "weierstrass", "exactnum", "polyident")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


class Tracer:
    """Records nested spans for the wrapped callables while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable[[Any], Any]] = None,
             on_error: Optional[Callable[[BaseException], Any]] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                if on_error is not None:
                    span.info = on_error(exc)
                raise
            else:
                span.end = perf_counter()
                if info is not None:
                    span.info = info(result)
                return result
            finally:
                stack.pop()

        return traced

    def install(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``restore``."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _generation_info(result) -> tuple[int, int, int]:
    """(iterations used, accepted, largest numerator bit length of D)."""
    certs, _, report = result[-3:]
    bits = max((cert.value.numerator.bit_length() for cert in certs), default=0)
    return report.iterations_used, len(report.accepted), bits


def install_twistpairs(tracer: Tracer, modules: dict) -> None:
    """Install every layer's wrappers; ``modules`` maps names to modules."""
    cli, twistgen = modules["cli"], modules["twistgen"]
    generation = {"info": _generation_info}
    # route
    tracer.install(cli, "prepare_pair", "twistgen.prepare_pair")
    tracer.install(twistgen, "prepare_pair", "twistgen.prepare_pair")
    tracer.install(cli, "jzero_generate", "twistgen.jzero_generate")
    tracer.install(cli, "corollary_mode", "twistgen.corollary_mode")
    tracer.install(twistgen, "lambda_search", "twistgen.lambda_search",
                   info=lambda r: len(r[4]),
                   on_error=lambda exc: len(getattr(exc, "trials", ())))
    # walk
    tracer.install(cli, "generate", "twistgen.generate", **generation)
    tracer.install(twistgen, "generate", "twistgen.generate", **generation)
    tracer.install(cli, "elementary_generate", "twistgen.elementary_generate",
                   **generation)
    # serialization and verification
    tracer.install(cli, "bundle_to_dict", "twistgen.bundle_to_dict")
    tracer.install(cli, "bundle_from_dict", "twistgen.bundle_from_dict")
    tracer.install(cli, "verify_bundle", "twistgen.verify_bundle")
    # exactnum, through the names twistgen bound
    tracer.install(twistgen, "squarefree_part", "exactnum.squarefree_part",
                   info=lambda r: r[1])
    tracer.install(twistgen, "same_square_class", "exactnum.same_square_class")
    # group laws and witnesses
    tracer.install(modules["planecubic"].PlaneCubic, "add", "planecubic.add")
    tracer.install(modules["planecubic"].PlaneCubic, "certify_nontorsion",
                   "planecubic.certify_nontorsion")
    tracer.install(twistgen, "certify_nontorsion", "weierstrass.certify_nontorsion")
    tracer.install(modules["weierstrass"].Curve, "scalar_mul", "weierstrass.scalar_mul")
    # symbolic identities behind identity-check
    for name in ("verify_weierstrass_identity", "verify_point_identity",
                 "verify_disc_identity"):
        tracer.install(cli, name, "polyident.identity")
    tracer.install(cli, "main", "cli.main")


PER_LAYER_UNITS = {
    "exactnum.squarefree_part.calls": "count",
    "exactnum.squarefree_part.s": "s",
    "exactnum.squarefree_part.wasted_share": "1",
    "exactnum.same_square_class.calls": "count",
    "exactnum.same_square_class.s": "s",
    "planecubic.add.calls": "count",
    "planecubic.add.s": "s",
    "planecubic.certify_nontorsion.s": "s",
    "weierstrass.certify_nontorsion.calls": "count",
    "weierstrass.certify_nontorsion.s": "s",
    "weierstrass.scalar_mul.calls": "count",
    "weierstrass.scalar_mul.s": "s",
    "twistgen.route.s": "s",
    "twistgen.lambda_search.s": "s",
    "twistgen.lambda_trials": "count",
    "twistgen.walk.self_s": "s",
    "twistgen.iterations": "count",
    "twistgen.accept_ratio": "1",
    "twistgen.serialize.s": "s",
    "twistgen.parse.s": "s",
    "twistgen.verify.self_s": "s",
    "twistgen.d_bits_max": "bit",
    "cli.main.self_s": "s",
    "polyident.identity.s": "s",
    "trace.coverage": "1",
    "trace.overhead": "1",
}


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer figures, per traced round unless the name says otherwise.

    ``.s`` is the inclusive time of the named calls and ``.self_s`` their
    self time.  Ratios and ``d_bits_max`` cover the whole traced run.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + own_s
        calls[span.name] = calls.get(span.name, 0) + 1

    # jzero_generate routes, then hands the walk to a generate child
    jzero_walk = sum(
        span.duration for span in spans
        if span.name == "twistgen.generate" and span.parent is not None
        and spans[span.parent].name == "twistgen.jzero_generate"
    )
    wasted = sum(s.duration for s in spans
                 if s.name == "exactnum.squarefree_part" and s.info is False)
    walks = [s.info for s in spans
             if s.name in ("twistgen.generate", "twistgen.elementary_generate")
             and s.info is not None]
    iterations = sum(w[0] for w in walks)
    trials = sum(s.info for s in spans
                 if s.name == "twistgen.lambda_search" and s.info is not None)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    per_round = {
        "exactnum.squarefree_part.calls": calls.get("exactnum.squarefree_part", 0),
        "exactnum.squarefree_part.s": t("exactnum.squarefree_part"),
        "exactnum.same_square_class.calls": calls.get("exactnum.same_square_class", 0),
        "exactnum.same_square_class.s": t("exactnum.same_square_class"),
        "planecubic.add.calls": calls.get("planecubic.add", 0),
        "planecubic.add.s": t("planecubic.add"),
        "planecubic.certify_nontorsion.s": t("planecubic.certify_nontorsion"),
        "weierstrass.certify_nontorsion.calls": calls.get("weierstrass.certify_nontorsion", 0),
        "weierstrass.certify_nontorsion.s": t("weierstrass.certify_nontorsion"),
        "weierstrass.scalar_mul.calls": calls.get("weierstrass.scalar_mul", 0),
        "weierstrass.scalar_mul.s": t("weierstrass.scalar_mul"),
        "twistgen.route.s": t("twistgen.prepare_pair") + t("twistgen.jzero_generate") - jzero_walk,
        "twistgen.lambda_search.s": t("twistgen.lambda_search"),
        "twistgen.lambda_trials": trials,
        "twistgen.walk.self_s": self_total.get("twistgen.generate", 0.0)
        + self_total.get("twistgen.elementary_generate", 0.0),
        "twistgen.iterations": iterations,
        "twistgen.serialize.s": t("twistgen.bundle_to_dict"),
        "twistgen.parse.s": t("twistgen.bundle_from_dict"),
        "twistgen.verify.self_s": self_total.get("twistgen.verify_bundle", 0.0),
        "cli.main.self_s": self_total.get("cli.main", 0.0),
        "polyident.identity.s": t("polyident.identity"),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    squarefree = t("exactnum.squarefree_part")
    metrics["exactnum.squarefree_part.wasted_share"] = wasted / squarefree if squarefree else 0.0
    metrics["twistgen.accept_ratio"] = (
        sum(w[1] for w in walks) / iterations if iterations else 0.0
    )
    metrics["twistgen.d_bits_max"] = max((w[2] for w in walks), default=0)
    return metrics


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed by layer, the layer being the span name's prefix."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, own_s in zip(spans, self_times(spans)):
        out[span.name.split(".", 1)[0]] += own_s
    return out
