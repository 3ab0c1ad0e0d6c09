"""Command line interface: analyze, generate, stage, compare.

Exit codes: 0 success, 1 invalid model/spec, 2 singular system or
no convergence, 3 erection plan fails, 4 I/O or syntax error: a file
that cannot be read, parsed or written, or a command line that does not
parse. compare reports the first failure in the order parse A, parse B,
analyze A, analyze B.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from dataclasses import replace

from . import catalog
from .errors import (
    DuplicateId,
    InvalidModel,
    InvalidPlan,
    InvalidSpec,
    NoConvergence,
    ParseError,
    SingularSystem,
    UnknownReference,
)
from .erection import run_plan
from .reporting import build_diagram, compare, render_svg, write_compare_report, write_plan_report, write_report
from .solver import analyze
from .textio import parse_model_file, parse_plan_file, serialize_model

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SINGULAR = 2
EXIT_PLAN_FAILS = 3
EXIT_IO = 4


class _FileError(Exception):
    """A file could not be read, parsed or written; the message names it
    and ``__cause__`` is the original error."""


def _read(path: str, parse):
    """``parse`` applied to the text of ``path``."""
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except (ParseError, DuplicateId, UnknownReference) as exc:
        raise _FileError(f"{path}: {exc}") from exc


def _write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` in one step, leaving no temporary
    file. The temporary file is created as ``open`` would create the
    target, 0o666 less the umask, and takes an existing target's
    permission bits (not its setuid, setgid or sticky bit) before the
    rename."""
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode) & 0o777
        except FileNotFoundError:
            mode = None
        tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".ponte-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                if mode is not None:
                    os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # Name the target, not the temporary file the OS error may carry.
        raise _FileError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: str, render, *args) -> None:
    """``_write_atomic`` of the JSON text ``render(*args)``; a value JSON cannot hold fails the write."""
    try:
        text = render(*args)
    except ValueError as exc:
        raise _FileError(f"cannot write {path}: {exc}") from exc
    _write_atomic(path, text)


def _cmd_analyze(args) -> int:
    if args.scale is not None and not (math.isfinite(args.scale) and args.scale > 0):
        raise InvalidSpec(f"scale must be finite and > 0, got {args.scale}")
    model = _read(args.model, parse_model_file)
    result = analyze(model)

    member = result.max_utilization_member
    print(f"model: {len(model.nodes)} nodes, {len(model.beams)} beams, {len(model.cables)} cables")
    print(f"iterations: {result.iterations_used}; taut cables: {len(result.active_cables)}/{len(model.cables)}")
    print(f"max deflection: {result.max_deflection:.6g} m")
    print(f"max utilization: {result.max_utilization:.6g}" + (f" (member {member})" if member is not None else ""))
    print(f"total cable tension: {result.total_cable_tension:.6g} N")

    if args.report:
        _write_json(args.report, write_report, result)
        print(f"wrote {args.report}")
    if args.svg:
        _write_atomic(args.svg, render_svg(build_diagram(result, scale=args.scale)))
        print(f"wrote {args.svg}")
    return EXIT_OK


def _resolve_spec(name: str) -> catalog.BridgeSpec:
    try:
        return catalog.preset(name).spec
    except ValueError:
        pass
    try:
        return catalog.BridgeSpec(catalog.BridgeKind(name))
    except ValueError:
        raise InvalidSpec(
            f"unknown preset or bridge kind {name!r}; presets: "
            + ", ".join(p.id.value for p in catalog.presets())
            + "; kinds: "
            + ", ".join(k.value for k in catalog.BridgeKind)
        ) from None


def _cmd_generate(args) -> int:
    overrides = {
        "pillar_count": args.pillars,
        "wheels": None if args.wheels is None else catalog.Wheels(args.wheels),
        "span": args.span,
        "deck_segments": args.segments,
        "mid_support": args.mid_support or None,
        "crosswise_top_ropes": args.crosswise or None,
    }
    spec = replace(_resolve_spec(args.what), **{k: v for k, v in overrides.items() if v is not None})
    model = catalog.generate(spec)
    _write_atomic(args.output, serialize_model(model))
    print(
        f"wrote {args.output}: {spec.kind.value}, "
        f"{len(model.nodes)} nodes, {len(model.beams)} beams, {len(model.cables)} cables"
    )
    return EXIT_OK


def _cmd_stage(args) -> int:
    report = run_plan(_read(args.plan, parse_plan_file))

    print("".join(
        "stage %d: %-12s factor=%10s util=%.4g defl=%.4g m\n"
        % (s.index, s.verdict.value, "inf" if math.isinf(s.overturning_factor) else "%.6g" % s.overturning_factor,
           s.max_utilization, s.max_deflection)
        for s in report.stages), end="")
    w_min = (f"{report.minimal_counterweight:.6g} N" if report.minimal_verified
             else "none (no counterweight passes every stage)")
    print(f"minimal stable counterweight: {w_min}")

    if args.report:
        _write_json(args.report, write_plan_report, report)
        print(f"wrote {args.report}")

    if not report.stable:
        print(f"FAILS at stage {report.first_failure}")
        return EXIT_PLAN_FAILS
    print("overall: Stable")
    return EXIT_OK


def _cmd_compare(args) -> int:
    model_a = _read(args.model_a, parse_model_file)
    model_b = _read(args.model_b, parse_model_file)
    result_a, result_b = analyze(model_a), analyze(model_b)
    labels = (args.model_a, args.model_b)
    print(compare(result_a, result_b, labels), end="")
    if args.report:
        _write_json(args.report, write_compare_report, result_a, result_b, labels)
        print(f"wrote {args.report}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_IO on a usage error; argparse's own 2 means a
    singular system here. Subparsers are made from the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused: parsing
    leaves it as it was, and building it costs about a millisecond."""
    parser = _Parser(prog="ponte", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a model file")
    p.add_argument("model")
    p.add_argument("--svg", help="write a deflection/utilization diagram")
    p.add_argument("--report", help="write a JSON report")
    p.add_argument("--scale", type=float, default=None, help="deflection display scale (default: auto)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("generate", help="generate a preset or bridge kind")
    p.add_argument("what", metavar="preset|kind")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--pillars", type=int, default=None)
    p.add_argument("--wheels", choices=[w.value for w in catalog.Wheels], default=None)
    p.add_argument("--span", type=float, default=None)
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--mid-support", action="store_true")
    p.add_argument("--crosswise", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stage", help="run a staged-erection plan file")
    p.add_argument("plan")
    p.add_argument("--report", help="write a JSON report")
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("compare", help="compare two analyzed models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--report", help="write a JSON report")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Every error a command raises is turned into its
    exit code and stderr text here, and nowhere else."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidModel as exc:
        for issue in exc.report:
            print(f"{issue.severity}: {issue.code} at {issue.location}: {issue.message}", file=sys.stderr)
        return EXIT_INVALID
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc.__cause__, (DuplicateId, UnknownReference)) else EXIT_IO
    except (InvalidSpec, InvalidPlan) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SingularSystem, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
