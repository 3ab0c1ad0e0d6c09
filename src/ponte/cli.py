"""Command line interface: analyze, generate, stage, compare.

Exit codes: 0 success, 1 invalid model/spec, 2 singular system or
no convergence, 3 erection plan fails, 4 I/O or syntax error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from . import catalog
from .errors import (
    DuplicateId,
    InvalidPlan,
    InvalidSpec,
    NoConvergence,
    ParseError,
    SingularSystem,
    UnknownReference,
)
from .erection import run_plan
from .model import validate
from .reporting import build_diagram, compare, compare_dict, json_text, plan_report_dict, render_svg, write_report
from .solver import tension_only_analyze
from .textio import parse_model_file, parse_plan_file, serialize_model

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SINGULAR = 2
EXIT_PLAN_FAILS = 3
EXIT_IO = 4


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ponte-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _load_model(path: str):
    """Parse and validate, printing problems; returns (model, exit_code)."""
    try:
        text = _read(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    try:
        model = parse_model_file(text)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except (DuplicateId, UnknownReference) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_INVALID
    report = validate(model)
    if not report.ok:
        for issue in report:
            print(f"{issue.severity}: {issue.code} at {issue.location}: {issue.message}", file=sys.stderr)
        return None, EXIT_INVALID
    return model, EXIT_OK


def _analyzed(model):
    try:
        return tension_only_analyze(model), EXIT_OK
    except (SingularSystem, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_SINGULAR


def _cmd_analyze(args) -> int:
    model, code = _load_model(args.model)
    if model is None:
        return code
    result, code = _analyzed(model)
    if result is None:
        return code

    member = result.max_utilization_member
    print(f"model: {len(model.nodes)} nodes, {len(model.beams)} beams, {len(model.cables)} cables")
    print(f"iterations: {result.iterations_used}; taut cables: {len(result.active_cables)}/{len(model.cables)}")
    print(f"max deflection: {result.max_deflection:.6g} m")
    print(f"max utilization: {result.max_utilization:.6g}" + (f" (member {member})" if member is not None else ""))
    print(f"total cable tension: {result.total_cable_tension:.6g} N")

    if args.report:
        _write_atomic(args.report, write_report(result))
        print(f"wrote {args.report}")
    if args.svg:
        _write_atomic(args.svg, render_svg(build_diagram(result, scale=args.scale)))
        print(f"wrote {args.svg}")
    return EXIT_OK


def _resolve_spec(args):
    name = args.what
    try:
        return catalog.preset(name).spec, None
    except ValueError:
        pass
    try:
        kind = catalog.BridgeKind(name)
    except ValueError:
        raise InvalidSpec(
            f"unknown preset or bridge kind {name!r}; presets: "
            + ", ".join(p.id.value for p in catalog.presets())
            + "; kinds: "
            + ", ".join(k.value for k in catalog.BridgeKind)
        ) from None
    return catalog.BridgeSpec(kind), kind


def _cmd_generate(args) -> int:
    from dataclasses import replace

    try:
        spec, _ = _resolve_spec(args)
        overrides = {}
        if args.pillars is not None:
            overrides["pillar_count"] = args.pillars
        if args.wheels is not None:
            overrides["wheels"] = catalog.Wheels(args.wheels)
        if args.span is not None:
            overrides["span"] = args.span
        if args.segments is not None:
            overrides["deck_segments"] = args.segments
        if args.mid_support:
            overrides["mid_support"] = True
        if args.crosswise:
            overrides["crosswise_top_ropes"] = True
        if overrides:
            spec = replace(spec, **overrides)
        model = catalog.generate(spec)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _write_atomic(args.output, serialize_model(model))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"wrote {args.output}: {spec.kind.value}, "
        f"{len(model.nodes)} nodes, {len(model.beams)} beams, {len(model.cables)} cables"
    )
    return EXIT_OK


def _cmd_stage(args) -> int:
    try:
        text = _read(args.plan)
    except OSError as exc:
        print(f"error: cannot read {args.plan}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        plan = parse_plan_file(text)
    except ParseError as exc:
        print(f"error: {args.plan}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        report = run_plan(plan)
    except InvalidPlan as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    for stage in report.stages:
        factor = "inf" if math.isinf(stage.overturning_factor) else f"{stage.overturning_factor:.6g}"
        print(
            f"stage {stage.index}: {stage.verdict.value:<12} factor={factor:>10} "
            f"util={stage.max_utilization:.4g} defl={stage.max_deflection:.4g} m"
        )
    w_min = (f"{report.minimal_counterweight:.6g} N" if report.minimal_verified
             else "none (no counterweight passes every stage)")
    print(f"minimal stable counterweight: {w_min}")

    if args.report:
        _write_atomic(args.report, json_text(plan_report_dict(report)))
        print(f"wrote {args.report}")

    if not report.stable:
        print(f"FAILS at stage {report.first_failure}")
        return EXIT_PLAN_FAILS
    print("overall: Stable")
    return EXIT_OK


def _cmd_compare(args) -> int:
    model_a, code = _load_model(args.model_a)
    if model_a is None:
        return code
    model_b, code = _load_model(args.model_b)
    if model_b is None:
        return code
    result_a, code = _analyzed(model_a)
    if result_a is None:
        return code
    result_b, code = _analyzed(model_b)
    if result_b is None:
        return code
    labels = (os.path.basename(args.model_a), os.path.basename(args.model_b))
    print(compare(result_a, result_b, labels), end="")
    if args.report:
        _write_atomic(args.report, json_text(compare_dict(result_a, result_b, labels)))
        print(f"wrote {args.report}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ponte", description=__doc__)
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
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
