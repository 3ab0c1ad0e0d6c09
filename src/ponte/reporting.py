"""Machine-readable reports, side-by-side comparisons and SVG diagrams.

Utilization is mapped onto four color classes; class_red (>= 1.0) is pure
red, and slack cables are drawn dashed: the picture makes it obvious when
only the deck works while pillars and ropes stay idle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .erection import PlanReport
from .model import StructureModel
from .solver import AnalysisResult

# Utilization classes partition [0, inf): [0,.25) [.25,.5) [.5,1) [1,inf).
CLASS_BOUNDS = (0.25, 0.5, 1.0)
CLASS_NAMES = ("class0", "class1", "class2", "class_red")
CLASS_COLORS = {
    "class0": "#2E8B57",
    "class1": "#DAA520",
    "class2": "#FF8C00",
    "class_red": "#FF0000",
}
ORIGINAL_COLOR = "#B0B0B0"


def color_class(utilization: float) -> str:
    """The color class owning this utilization value."""
    if utilization < 0:
        raise ValueError(f"utilization must be >= 0, got {utilization}")
    for name, bound in zip(CLASS_NAMES, CLASS_BOUNDS):
        if utilization < bound:
            return name
    return CLASS_NAMES[-1]


# ---------------------------------------------------------------------------
# JSON report


def report_dict(result: AnalysisResult) -> dict:
    """The analysis result as one JSON-ready dictionary."""
    model = result.model
    nodes = [
        {"id": nid, "dx": d[0], "dy": d[1], "rz": d[2]}
        for nid, d in sorted(result.node_displacements.items())
    ]
    members = []
    for beam in model.beams:
        f = result.member_forces[beam.id]
        members.append(
            {
                "id": beam.id,
                "type": "beam",
                "axial": f.axial,
                "shear": f.shear,
                "moment_i": f.moment_i,
                "moment_j": f.moment_j,
                "utilization": result.utilization[beam.id],
            }
        )
    for cable in model.cables:
        f = result.member_forces[cable.id]
        members.append(
            {
                "id": cable.id,
                "type": "cable",
                "axial": f.axial,
                "utilization": result.utilization[cable.id],
                "state": "taut" if cable.id in result.active_cables else "slack",
            }
        )
    reactions = [
        {"node": nid, "fx": r[0], "fy": r[1], "mz": r[2]}
        for nid, r in sorted(result.reactions.items())
    ]
    summary = {
        "max_deflection": result.max_deflection,
        "max_utilization": result.max_utilization,
        "max_utilization_member": result.max_utilization_member,
        "total_cable_tension": result.total_cable_tension,
        "iterations": result.iterations_used,
        "active_cable_count": len(result.active_cables),
    }
    return {
        "nodes": nodes,
        "members": members,
        "reactions": reactions,
        "active_cables": sorted(result.active_cables),
        "slack_cables": sorted(c.id for c in model.cables if c.id not in result.active_cables),
        "summary": summary,
    }


# The C encoder, which ``json`` uses only without indent, with a newline
# in its item separator. It escapes every newline inside a string, so each
# raw newline in its output is a separator, and indenting them is safe.
_encode = json.JSONEncoder(separators=(",\n", ": "), allow_nan=False).encode


def _flat(values) -> bool:
    """Whether every value is a JSON scalar. Both encoders write a subclass
    of str, int or float (a numpy float, say) as its base type."""
    return all(v is None or isinstance(v, (str, int, float)) for v in values)


def _indented(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` with every line after the first
    prefixed by ``pad``. Python walks only containers of containers; an
    all-scalar dict or list, or a list of all-scalar dicts (a table of
    records), is one call of the C encoder."""
    inner = pad + "  "
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, (dict, list, tuple)) or _flat(items):
        text = _encode(value)
        if len(text) < 3 or text[0] not in "[{":
            return text  # a scalar, [] or {}
        return text[0] + "\n" + inner + text[1:-1].replace("\n", "\n" + inner) + "\n" + pad + text[-1]
    if not isinstance(value, dict) and all(type(v) is dict and v and _flat(v.values()) for v in items):
        # '[{"a": 1,\n"b": 2},\n{"a": 3}]': a raw newline before "{" starts a record.
        deep = inner + "  "
        body = _encode(value)[2:-2].replace("\n", "\n" + deep)
        body = body.replace("},\n" + deep + "{", "\n" + inner + "},\n" + inner + "{\n" + deep)
        return "[\n" + inner + "{\n" + deep + body + "\n" + inner + "}\n" + pad + "]"
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + pad)
        parts = [_encode(k) + ": " + _indented(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    parts = [_indented(v, inner) for v in value]
    return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"


def json_text(payload: dict) -> str:
    """Deterministic JSON text of a report dictionary: the bytes of
    ``json.dumps(payload, indent=2, allow_nan=False)`` and a newline. A
    non-finite float raises ValueError, so a producer that can hold inf
    maps it first. The indenting encoder is pure Python, so the text is
    built from C-encoded pieces (``_indented``)."""
    return _indented(payload, "") + "\n"


def write_report(result: AnalysisResult, model: StructureModel | None = None) -> str:
    """Serialize the analysis result as deterministic JSON text."""
    if model is not None and model is not result.model:
        raise ValueError("report model does not match the analyzed model")
    return json_text(report_dict(result))


def _finite_or_none(value: float) -> float | None:
    return None if math.isinf(value) else value


def plan_report_dict(report: PlanReport) -> dict:
    """The erection plan report as one JSON-ready dictionary; an infinite
    stage figure or minimal counterweight becomes None."""
    return {
        "stages": [
            {
                "index": s.index,
                "verdict": s.verdict.value,
                "overturning_factor": _finite_or_none(s.overturning_factor),
                "max_utilization": _finite_or_none(s.max_utilization),
                "max_deflection": _finite_or_none(s.max_deflection),
            }
            for s in report.stages
        ],
        "stable": report.stable,
        "minimal_counterweight": _finite_or_none(report.minimal_counterweight),
        "minimal_verified": report.minimal_verified,
    }


# ---------------------------------------------------------------------------
# Comparison tables


def _total_material_volume(model: StructureModel) -> float:
    volume = sum(model.section(b.section).area * model.element_length(b) for b in model.beams)
    volume += sum(c.area * model.element_length(c) for c in model.cables)
    return volume


# (key, label, getter) of every compared metric.
_METRICS = (
    ("max_deflection", "max deflection [m]", lambda r: r.max_deflection),
    ("max_utilization", "max utilization [-]", lambda r: r.max_utilization),
    ("total_cable_tension", "total cable tension [N]", lambda r: r.total_cable_tension),
    ("total_material_volume", "total material volume [m^3]", lambda r: _total_material_volume(r.model)),
)


def _metric_rows(result_a: AnalysisResult, result_b: AnalysisResult):
    """(key, label, A, B, B/A) per metric; the ratio is 1 for equal values
    and None when only A is zero."""
    for key, label, metric in _METRICS:
        va, vb = metric(result_a), metric(result_b)
        ratio = 1.0 if va == vb else (vb / va if va != 0 else None)
        yield key, label, va, vb, ratio


def compare(result_a: AnalysisResult, result_b: AnalysisResult, labels: tuple[str, str] = ("A", "B")) -> str:
    """Side-by-side metric table for two analyses, with B/A ratios."""
    label_a, label_b = labels
    header = f"{'metric':<28} {label_a:>14} {label_b:>14} {'ratio ' + label_b + '/' + label_a:>16}"
    lines = [header, "-" * len(header)]
    for _, name, va, vb, ratio in _metric_rows(result_a, result_b):
        ratio_text = "inf" if ratio is None else f"{ratio:.6g}"
        lines.append(f"{name:<28} {va:>14.6g} {vb:>14.6g} {ratio_text:>16}")
    return "\n".join(lines) + "\n"


def compare_dict(result_a: AnalysisResult, result_b: AnalysisResult, labels: tuple[str, str] = ("A", "B")) -> dict:
    """The comparison as one JSON-ready dictionary; an infinite ratio is None."""
    return {
        "labels": list(labels),
        "metrics": {
            key: {labels[0]: va, labels[1]: vb, "ratio": ratio}
            for key, _, va, vb, ratio in _metric_rows(result_a, result_b)
        },
    }


# ---------------------------------------------------------------------------
# Diagrams


@dataclass(frozen=True)
class MemberView:
    id: int
    kind: str  # "beam" | "cable"
    color_class: str
    original: tuple[tuple[float, float], tuple[float, float]]
    deflected: tuple[tuple[float, float], tuple[float, float]]
    dashed: bool
    label: str | None


@dataclass(frozen=True)
class Diagram:
    members: tuple[MemberView, ...]
    scale: float
    legend: tuple[tuple[str, str], ...]  # (class name, color)


def build_diagram(result: AnalysisResult, scale: float | None = None) -> Diagram:
    """Geometry, deflected shape and color classes, ready to render.

    ``scale`` defaults to auto: the largest displayed deflection is 5% of
    the model's width.
    """
    model = result.model
    if scale is None:
        xs = [n.x for n in model.nodes]
        width = (max(xs) - min(xs)) if xs else 1.0
        peak = max(
            (math.hypot(d[0], d[1]) for d in result.node_displacements.values()),
            default=0.0,
        )
        scale = 0.05 * width / peak if peak > 0 and width > 0 else 1.0

    def displaced(node_id: int) -> tuple[float, float]:
        n = model.node(node_id)
        dx, dy, _ = result.node_displacements[node_id]
        return (n.x + scale * dx, n.y + scale * dy)

    def original(node_id: int) -> tuple[float, float]:
        n = model.node(node_id)
        return (n.x, n.y)

    members = []
    for beam in model.beams:
        members.append(
            MemberView(
                id=beam.id,
                kind="beam",
                color_class=color_class(result.utilization[beam.id]),
                original=(original(beam.node_i), original(beam.node_j)),
                deflected=(displaced(beam.node_i), displaced(beam.node_j)),
                dashed=False,
                label=None,
            )
        )
    for cable in model.cables:
        taut = cable.id in result.active_cables
        force = result.member_forces[cable.id].axial
        members.append(
            MemberView(
                id=cable.id,
                kind="cable",
                color_class=color_class(result.utilization[cable.id]),
                original=(original(cable.node_i), original(cable.node_j)),
                deflected=(displaced(cable.node_i), displaced(cable.node_j)),
                dashed=not taut,
                label=f"taut:{force:.4g}" if taut else "slack",
            )
        )
    legend = tuple(
        (name, CLASS_COLORS[name]) for name in CLASS_NAMES
    )
    return Diagram(tuple(members), scale, legend)


def _svg_num(v: float) -> str:
    return f"{v:.6g}"


def render_svg(diagram: Diagram) -> str:
    """Valid SVG 1.1 text; deterministic for identical inputs."""
    pts = [p for m in diagram.members for p in (*m.original, *m.deflected)]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xs = [p[0] for p in pts]
    ys = [-p[1] for p in pts]  # SVG y points down
    margin = 0.08 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, y0 = min(xs) - margin, min(ys) - margin
    w, h = (max(xs) - min(xs)) + 2 * margin, (max(ys) - min(ys)) + 2 * margin
    legend_h = 0.16 * max(w, 1.0)
    stroke = max(w, h) / 220.0
    font = 2.6 * stroke

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_svg_num(x0)} {_svg_num(y0)} {_svg_num(w)} {_svg_num(h + legend_h)}">',
        f'<g id="original" stroke="{ORIGINAL_COLOR}" stroke-width="{_svg_num(0.6 * stroke)}" fill="none">',
    ]
    for m in diagram.members:
        (xa, ya), (xb, yb) = m.original
        lines.append(
            f'<line x1="{_svg_num(xa)}" y1="{_svg_num(-ya)}" x2="{_svg_num(xb)}" y2="{_svg_num(-yb)}"/>'
        )
    lines.append("</g>")
    lines.append(f'<g id="deflected" fill="none" stroke-width="{_svg_num(stroke)}">')
    for m in diagram.members:
        (xa, ya), (xb, yb) = m.deflected
        dash = f' stroke-dasharray="{_svg_num(2.5 * stroke)} {_svg_num(2.5 * stroke)}"' if m.dashed else ""
        color = CLASS_COLORS[m.color_class]
        lines.append(
            f'<polyline data-member="{m.id}" data-kind="{m.kind}" data-class="{m.color_class}" '
            f'stroke="{color}"{dash} points="{_svg_num(xa)},{_svg_num(-ya)} {_svg_num(xb)},{_svg_num(-yb)}"/>'
        )
        if m.label:
            mx, my = (xa + xb) / 2.0, -(ya + yb) / 2.0
            lines.append(
                f'<text x="{_svg_num(mx)}" y="{_svg_num(my)}" font-size="{_svg_num(font)}" '
                f'fill="#404040">{m.label}</text>'
            )
    lines.append("</g>")

    # Legend strip below the drawing.
    ly = y0 + h + 0.35 * legend_h
    lines.append('<g id="legend">')
    box = 0.06 * w
    for k, (name, color) in enumerate(diagram.legend):
        lx = x0 + margin / 2 + k * 0.24 * w
        lines.append(
            f'<rect x="{_svg_num(lx)}" y="{_svg_num(ly)}" width="{_svg_num(box)}" '
            f'height="{_svg_num(0.3 * legend_h)}" fill="{color}"/>'
        )
        bounds = ("&lt;0.25", "&lt;0.5", "&lt;1.0", "&gt;=1.0")
        lines.append(
            f'<text x="{_svg_num(lx + 1.15 * box)}" y="{_svg_num(ly + 0.25 * legend_h)}" '
            f'font-size="{_svg_num(font)}" fill="#404040">{name} {bounds[k]}</text>'
        )
    lines.append(
        f'<text x="{_svg_num(x0 + margin / 2)}" y="{_svg_num(ly + 0.62 * legend_h)}" '
        f'font-size="{_svg_num(font)}" fill="#404040">dashed = slack cable; '
        f"deflection scale x{_svg_num(diagram.scale)}</text>"
    )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
