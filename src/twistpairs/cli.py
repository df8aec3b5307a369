"""Command line front end.

Subcommands: generate (curve pair), jzero (both j-invariant zero), corollary
(curve against its own quadratic twist), elementary (single curve), verify
(recheck a certificate bundle), identity-check (prove the generator's closed forms).

Human-readable progress goes to stderr; certificate JSON goes to stdout or
the --output file.  Exit codes: 0 full success, 1 usage or validation
errors, 2 partial results (a search or iteration budget ran out while the
underlying statements guarantee more exist), 141 stdout closed by its reader
(128 + SIGPIPE, as a shell reports a process the signal ended).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache, partial
from typing import Optional, Sequence

from .exactnum import excerpt, format_rational, parse_rational
from .twistgen import (
    Config,
    SearchExhausted,
    bundle_from_dict,
    bundle_to_dict,
    corollary_mode,
    elementary_generate,
    format_pair,
    generate,
    jzero_generate,
    prepare_pair,
    verify_bundle,
)
from .weierstrass import Curve


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain numbers such as -5 for negative values;
        # anything else with a leading minus, like the curve -5,9 or the
        # rational -2/3, would be read as an unknown option
        self._negative_number_matcher = re.compile(r"^-\d")

    # argparse exits with 2 on usage errors; 2 is reserved for partial results
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_curve(text: str) -> Curve:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"curve format is a,b with rational entries: {excerpt(repr(text))}")
    return Curve(parse_rational(parts[0]), parse_rational(parts[1]))


def _progress(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _emit(bundle: dict, output: Optional[str]) -> None:
    # one line: whitespace is no part of the format, and json.dumps runs its C
    # encoder only without indent; the default ", " and ": " separators stay,
    # since tools that read bundles search their text for '"complete": true'
    text = json.dumps(bundle) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        _progress(f"wrote {output}")
    else:
        sys.stdout.write(text)


def _config(args: argparse.Namespace) -> Config:
    return Config(**{name: getattr(args, name) for name in Config._fields})


def _finish(args: argparse.Namespace, run: Sequence) -> int:
    """Print the report of a run (certificates, pair, report); write its bundle."""
    certs, pair, report = run
    _progress(*report.lines())
    _emit(bundle_to_dict(pair, certs), args.output)
    if report.budget_exhausted:
        _progress(
            f"partial result: {len(certs)} of {args.target_count} certificates"
        )
        return 2
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    curve1 = _parse_curve(args.curve1)
    curve2 = _parse_curve(args.curve2)
    cfg = _config(args)
    return _finish(args, generate(prepare_pair(curve1, curve2), cfg))


def _cmd_jzero(args: argparse.Namespace) -> int:
    curve1 = _parse_curve(args.curve1)
    curve2 = _parse_curve(args.curve2)
    return _finish(args, jzero_generate(curve1, curve2, _config(args)))


def _cmd_corollary(args: argparse.Namespace) -> int:
    curve = _parse_curve(args.curve)
    delta = parse_rational(args.delta)
    return _finish(args, corollary_mode(curve, delta, _config(args)))


def _cmd_elementary(args: argparse.Namespace) -> int:
    curve = _parse_curve(args.curve)
    return _finish(args, elementary_generate(curve, _config(args)))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; json.load alone keeps the last of two equal keys."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated field {excerpt(repr(key))}")
        data[key] = value
    return data


def _short_int(text: str) -> int:
    """A JSON integer of at most 20 characters: ``version`` is 6 and ``k`` a stream index."""
    if len(text) > 20:  # int() of a longer literal would take time quadratic in its length
        raise ValueError(f"JSON integer of {len(text)} characters; the limit is 20")
    return int(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=_unique_keys, parse_int=_short_int)
        except RecursionError as exc:
            raise ValueError("the bundle nests too deeply to parse") from exc
    pair, certs = bundle_from_dict(data)
    overall, results, ledger_ok = verify_bundle(pair, certs)
    print(format_pair(pair))
    for cert, (ok, reason) in zip(certs, results):
        status = "OK" if ok else f"FAILED ({reason})"
        print(f"certificate k={cert.k} D={format_rational(cert.value)}: {status}")
    print(f"pairwise square classes: {'OK' if ledger_ok else 'FAILED'}")
    return 0 if overall else 1


def _prove(name: str) -> Optional[dict[str, int]]:
    """The proof of ``polyident.<name>``: the first grid point where it fails, or None.

    polyident is imported only when identity-check runs.
    """
    from . import polyident
    return polyident.counterexample(getattr(polyident, name))


verify_weierstrass_identity = partial(_prove, "weierstrass_defect")
verify_point_identity = partial(_prove, "point_defect")
verify_disc_identity = partial(_prove, "disc_defect")


def _cmd_identity_check(args: argparse.Namespace) -> int:
    checks = (
        ("weierstrass model identity", verify_weierstrass_identity),
        ("tangent point identity", verify_point_identity),
        ("discriminant identity", verify_disc_identity),
    )
    all_ok = True
    for label, check in checks:
        point = check()
        all_ok = all_ok and point is None
        print(f"{label}: {'holds' if point is None else 'FAILED'}")
        if point is not None:
            print(f"  counterexample: ({', '.join(point)}) = "
                  f"({', '.join(map(str, point.values()))})")
    return 0 if all_ok else 1


def _add_search_flags(sub: argparse.ArgumentParser) -> None:
    # each flag stores into the Config field of the same name, default included
    defaults = Config()
    sub.add_argument("--count", dest="target_count", type=int,
                     default=defaults.target_count, help="certificates to emit")
    sub.add_argument("--max-iterations", type=int, default=defaults.max_iterations)
    sub.add_argument("--effort", dest="factor_effort", type=int,
                     default=defaults.factor_effort,
                     help="factorization budget for squarefree labels")
    sub.add_argument("--output", help="write the JSON bundle here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistpairs",
        description=(
            "Emit and verify exact certificates of twist values that give "
            "both curves of a pair positive rank."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="run a curve pair")
    gen.add_argument("--curve1", required=True, metavar="a,b")
    gen.add_argument("--curve2", required=True, metavar="a,b")
    _add_search_flags(gen)
    gen.set_defaults(func=_cmd_generate)

    jz = subs.add_parser("jzero", help="both curves with j-invariant zero")
    jz.add_argument("--curve1", required=True, metavar="0,b")
    jz.add_argument("--curve2", required=True, metavar="0,d")
    _add_search_flags(jz)
    jz.set_defaults(func=_cmd_jzero)

    cor = subs.add_parser("corollary", help="curve against its own twist")
    cor.add_argument("--curve", required=True, metavar="a,b")
    cor.add_argument("--delta", required=True, metavar="rational")
    _add_search_flags(cor)
    cor.set_defaults(func=_cmd_corollary)

    ele = subs.add_parser("elementary", help="single-curve scan")
    ele.add_argument("--curve", required=True, metavar="a,b")
    _add_search_flags(ele)
    ele.set_defaults(func=_cmd_elementary)

    ver = subs.add_parser("verify", help="recheck a certificate bundle")
    ver.add_argument("--input", required=True)
    ver.set_defaults(func=_cmd_verify)

    idc = subs.add_parser("identity-check", help="run the symbolic suite")
    idc.set_defaults(func=_cmd_identity_check)

    return parser


# built once per process: building costs about 30 parses, and parse_args
# leaves the parser unchanged
_parser = cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a closed stdout must show here, not in the flush at exit
        sys.stdout.flush()
        return code
    except SearchExhausted as exc:
        _progress(f"bounded search failed: {exc}")
        for trial in exc.trials:
            _progress(f"  tried {format_rational(trial.scale)}: {trial.outcome}")
        return 2
    except BrokenPipeError:
        # the reader has gone, so there is no one to report to; output still
        # buffered goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        _progress(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
