"""Machine-readable reports, side-by-side comparisons and SVG diagrams.

Utilization is mapped onto four color classes; class_red (>= 1.0) is pure
red, and slack cables are drawn dashed: the picture makes it obvious when
only the deck works while pillars and ropes stay idle.

Each output has one writer. The analysis report and the SVG are written
from the result's and the model's arrays, each kind of record by one
%-template filled over ``.tolist()`` columns, the erection plan report by
one per stage, and the comparison report by ``json.dumps`` of
``compare_dict``. Their bytes are fixed by record-by-record oracles in
``tests/oracles.py``: a report is ``json.dumps(..., indent=2)`` of its
oracle dictionary (``report_dict``, ``plan_report_dict``) and a newline,
the SVG what its per-member ``build_diagram`` and ``render_svg`` write. A
value JSON cannot hold raises the C encoder's ValueError in every writer.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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
    return CLASS_NAMES[bisect_right(CLASS_BOUNDS, utilization)]


# ---------------------------------------------------------------------------
# JSON report


# What the C encoder raises for inf or NaN. ``json.dumps(indent=2)`` encodes
# in Python, whose error ends in the value; every writer checks first.
_NOT_FINITE = "Out of range float values are not JSON compliant"


def _finite(*values) -> None:
    """Raise the C encoder's ValueError unless every value, a float or an
    array of them, is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(_NOT_FINITE)


def _fill(template: str, *columns: list) -> list[str]:
    """``template % row`` for each row of the columns, which hold plain
    Python values: ``%r`` of a numpy float is ``np.float64(x)``, not x."""
    return list(map(template.__mod__, zip(*columns)))


def _json_list(items: list[str]) -> str:
    """A JSON list of encoded items, indented as a top-level value of the
    report (``json.dumps(indent=2)`` writes an empty list as ``[]``)."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


# Each kind of record in the reports as json.dumps(indent=2) writes it, ints
# and floats by their repr, which %r gives for plain Python ones (a plan
# report's stage takes its figures as JSON text, the summary its member).
_NODE = '{\n      "id": %r,\n      "dx": %r,\n      "dy": %r,\n      "rz": %r\n    }'
_BEAM = ('{\n      "id": %r,\n      "type": "beam",\n      "axial": %r,\n      "shear": %r,\n'
         '      "moment_i": %r,\n      "moment_j": %r,\n      "utilization": %r\n    }')
_CABLE = '{\n      "id": %r,\n      "type": "cable",\n      "axial": %r,\n      "utilization": %r,\n      "state": "%s"\n    }'
_REACTION = '{\n      "node": %r,\n      "fx": %r,\n      "fy": %r,\n      "mz": %r\n    }'
_SUMMARY = ('{\n    "max_deflection": %r,\n    "max_utilization": %r,\n    "max_utilization_member": %s,\n'
            '    "total_cable_tension": %r,\n    "iterations": %r,\n    "active_cable_count": %r\n  }')
_STAGE = ('{\n      "index": %d,\n      "verdict": "%s",\n      "overturning_factor": %s,\n'
          '      "max_utilization": %s,\n      "max_deflection": %s\n    }')


def write_report(result: AnalysisResult) -> str:
    """The analysis result as deterministic JSON text (see the module
    docstring); a non-finite value raises ValueError, as ``json`` does."""
    view, done = result.model.arrays, result._recovered
    u = result._node_u[view.by_id]
    reactions = np.array(list(result.reactions.values()), dtype=float).reshape(-1, 3)
    total = result.total_cable_tension
    _finite(u, done.beam, done.cable, done.utilization, reactions, result.max_deflection, result.max_utilization, total)
    nb = len(done.beam)
    ids = view.member_ids.tolist()
    util = done.utilization.tolist()
    active = result.active_cables
    states = ["taut" if c in active else "slack" for c in ids[nb:]]
    member = result.max_utilization_member
    return (
        '{\n  "nodes": ' + _json_list(_fill(_NODE, view.node_ids[view.by_id].tolist(), *u.T.tolist()))
        + ',\n  "members": ' + _json_list(_fill(_BEAM, ids[:nb], *done.beam.T.tolist(), util[:nb])
                                         + _fill(_CABLE, ids[nb:], done.cable.tolist(), util[nb:], states))
        + ',\n  "reactions": ' + _json_list(_fill(_REACTION, list(result.reactions), *reactions.T.tolist()))
        + ',\n  "active_cables": ' + _json_list(list(map(repr, sorted(active))))
        + ',\n  "slack_cables": ' + _json_list(list(map(repr, sorted(c for c in ids[nb:] if c not in active))))
        + ',\n  "summary": ' + _SUMMARY % (result.max_deflection, result.max_utilization,
                                            "null" if member is None else member, total,
                                            result.iterations_used, len(active)) + "\n}\n"
    )


def _figure(value: float) -> str:
    """A plan figure in JSON: a finite float by its repr, an infinite one
    as null; NaN raises the C encoder's ValueError."""
    if math.isfinite(value):
        return float.__repr__(value)
    if math.isinf(value):
        return "null"
    raise ValueError(_NOT_FINITE)


def write_plan_report(report: PlanReport) -> str:
    """The erection plan report as deterministic JSON text (see the module
    docstring); an infinite stage figure or W_min is written as null."""
    stages = [_STAGE % (s.index, s.verdict.value, _figure(s.overturning_factor), _figure(s.max_utilization),
                        _figure(s.max_deflection)) for s in report.stages]
    return ('{\n  "stages": ' + _json_list(stages)
            + ',\n  "stable": ' + ("true" if report.stable else "false")
            + ',\n  "minimal_counterweight": ' + _figure(report.minimal_counterweight)
            + ',\n  "minimal_verified": ' + ("true" if report.minimal_verified else "false") + "\n}\n")


# ---------------------------------------------------------------------------
# Comparison tables


def _total_material_volume(model: StructureModel) -> float:
    """A * L summed over the beams, then over the cables, the two sums added."""
    volume, nb = (model.arrays.area * model.arrays.length).tolist(), len(model.beams)
    return sum(volume[:nb]) + sum(volume[nb:])


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
    """The comparison as one JSON-ready dictionary: each metric's values
    under "A" and "B", which ``labels`` names, and an infinite ratio None."""
    return {
        "labels": list(labels),
        "metrics": {
            key: {"A": va, "B": vb, "ratio": ratio}
            for key, _, va, vb, ratio in _metric_rows(result_a, result_b)
        },
    }


def write_compare_report(result_a: AnalysisResult, result_b: AnalysisResult, labels: tuple[str, str]) -> str:
    """``compare_dict`` as deterministic JSON text; a non-finite value
    raises ValueError, as ``json`` does."""
    payload = compare_dict(result_a, result_b, labels)
    _finite(*(v for metric in payload["metrics"].values() for v in metric.values() if v is not None))
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Diagrams


@dataclass(frozen=True, eq=False)
class Diagram:
    """What the diagram draws, one row per member: the beams, then the cables."""

    ids: np.ndarray
    beam_count: int  # members before it are beams, from it on cables
    classes: np.ndarray  # index into CLASS_NAMES, as ``color_class`` picks it
    original: np.ndarray  # (members, 4): x_i, y_i, x_j, y_j
    deflected: np.ndarray  # (members, 4), at ``scale``
    taut: np.ndarray  # (cables,) bool; a slack cable is drawn dashed
    cable_force: np.ndarray  # (cables,) axial
    scale: float

    def labels(self) -> list[str]:
        """Each cable's label: its axial force if taut, else "slack"."""
        return [f"taut:{f:.4g}" if t else "slack" for t, f in zip(self.taut.tolist(), self.cable_force.tolist())]


def build_diagram(result: AnalysisResult, scale: float | None = None) -> Diagram:
    """Geometry, deflected shape and color classes, ready to render.

    ``scale`` defaults to auto: the largest displayed deflection is 5% of
    the model's width.
    """
    view, u, done = result.model.arrays, result._node_u, result._recovered
    if scale is None:
        width = float(view.x.max() - view.x.min()) if len(view.x) else 1.0
        peak = max(map(math.hypot, u[:, 0].tolist(), u[:, 1].tolist()), default=0.0)
        scale = 0.05 * width / peak if peak > 0 and width > 0 else 1.0
    if (done.utilization < 0).any():
        raise ValueError(f"utilization must be >= 0, got {done.utilization[done.utilization < 0].tolist()[0]}")
    nb = len(result.model.beams)
    i, j = view.ends.T
    x, y = view.x + scale * u[:, 0], view.y + scale * u[:, 1]
    return Diagram(
        ids=view.member_ids, beam_count=nb, classes=np.searchsorted(CLASS_BOUNDS, done.utilization, side="right"),
        original=np.stack([view.x[i], view.y[i], view.x[j], view.y[j]], axis=1),
        deflected=np.stack([x[i], y[i], x[j], y[j]], axis=1),
        taut=np.array([c in result.active_cables for c in view.member_ids[nb:].tolist()], dtype=bool),
        cable_force=done.cable, scale=scale,
    )


# Each color class's data-class and stroke attributes, and its legend range.
_CLASS_ATTRS = tuple(f'data-class="{name}" stroke="{CLASS_COLORS[name]}"' for name in CLASS_NAMES)
_CLASS_RANGES = ("&lt;0.25", "&lt;0.5", "&lt;1.0", "&gt;=1.0")
_FLIP = np.array([1.0, -1.0, 1.0, -1.0])  # SVG y points down


def render_svg(diagram: Diagram) -> str:
    """Valid SVG 1.1 text; deterministic for identical inputs. Each kind of
    record (an original member, a deflected beam, a deflected cable with
    its label, a legend entry) is one template filled over columns."""
    original, deflected = diagram.original * _FLIP, diagram.deflected * _FLIP
    if len(original):
        xs = np.concatenate([original[:, ::2], deflected[:, ::2]])
        ys = np.concatenate([original[:, 1::2], deflected[:, 1::2]])
        x_lo, x_hi, y_lo, y_hi = float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, -1.0, -0.0
    margin = 0.08 * max(x_hi - x_lo, y_hi - y_lo, 1.0)
    x0, y0 = x_lo - margin, y_lo - margin
    w, h = (x_hi - x_lo) + 2 * margin, (y_hi - y_lo) + 2 * margin
    legend_h = 0.16 * max(w, 1.0)
    stroke = max(w, h) / 220.0
    font = 2.6 * stroke
    ly, box = y0 + h + 0.35 * legend_h, 0.06 * w  # the legend strip below the drawing

    nb = diagram.beam_count
    classes = list(map(_CLASS_ATTRS.__getitem__, diagram.classes.tolist()))
    d = diagram.deflected[nb:]
    mid = ((d[:, 0] + d[:, 2]) / 2.0).tolist(), (-(d[:, 1] + d[:, 3]) / 2.0).tolist()  # of a cable's label
    dash = ' stroke-dasharray="%.6g %.6g"' % (2.5 * stroke, 2.5 * stroke)
    ids, points = diagram.ids.tolist(), deflected.T.tolist()
    text = '<text x="%.6g" y="%.6g" font-size="' + "%.6g" % font + '" fill="#404040">'
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%.6g %.6g %.6g %.6g">' % (x0, y0, w, h + legend_h),
        '<g id="original" stroke="%s" stroke-width="%.6g" fill="none">' % (ORIGINAL_COLOR, 0.6 * stroke),
        *_fill('<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g"/>', *original.T.tolist()),
        "</g>",
        '<g id="deflected" fill="none" stroke-width="%.6g">' % stroke,
        *_fill('<polyline data-member="%d" data-kind="beam" %s points="%.6g,%.6g %.6g,%.6g"/>',
               ids[:nb], classes[:nb], *(c[:nb] for c in points)),
        *_fill('<polyline data-member="%d" data-kind="cable" %s%s points="%.6g,%.6g %.6g,%.6g"/>\n' + text + "%s</text>",
               ids[nb:], classes[nb:], ["" if t else dash for t in diagram.taut.tolist()],
               *(c[nb:] for c in points), *mid, diagram.labels()),
        "</g>",
        '<g id="legend">',
        *('<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" fill="%s"/>\n' % (x, ly, box, 0.3 * legend_h, color)
          + text % (x + 1.15 * box, ly + 0.25 * legend_h) + f"{name} {bounds}</text>"
          for x, (name, color), bounds in zip([x0 + margin / 2 + k * 0.24 * w for k in range(len(CLASS_NAMES))],
                                              CLASS_COLORS.items(), _CLASS_RANGES)),
        text % (x0 + margin / 2, ly + 0.62 * legend_h)
        + "dashed = slack cable; deflection scale x%.6g</text>" % diagram.scale,
        "</g>",
        "</svg>",
    ]) + "\n"
