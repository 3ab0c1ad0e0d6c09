"""Model building and validation, components and the free-dof numbering
record by record, closed-form element matrices, written out case by case, a dense
assembly, a dense rank-revealing solve, a dense null basis, the
per-member utilization formula, erection plans run stage model by stage
model, the support reactions filled dof by dof, self-weight lumped member
by member, the analysis report, the erection plan report and SVG diagram
built record by record, and the model file parsed line by line.

They are independent of the model's column checks and numbering, of
the solver's element table, which derives every
release pattern by static condensation of the clamped element, of its
banded assembly and factorization, of its windowed null basis, of its
vectorized utilization, reactions and gravity lumping, of the one banded
solve of all of a plan's stages, and of the report and diagram written
from the result's arrays by one template per record kind (the plan
report by one per stage), of the parser
that converts each keyword's lines a field at a time, and the tests
compare the two.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf, dtbtrs

from ponte.catalog import DECK_MATERIAL, DECK_SECTION
from ponte.erection import ErectionPlan, PlanReport, Verdict, _judge, _Outcome, _Step
from ponte.errors import DuplicateId, ParseError, SingularSystem, UnknownKeyword, UnknownReference
from ponte.model import (
    DOF_RZ,
    DOF_X,
    DOF_Y,
    MATERIAL_PRESETS,
    MIN_ELEMENT_LENGTH,
    BeamElement,
    CableElement,
    Load,
    Material,
    NodalForce,
    Node,
    PointMass,
    Section,
    SelfWeight,
    StructureModel,
    Support,
    UniformLoad,
    ValidationIssue,
    ValidationReport,
    build_model,
)
from ponte.reporting import CLASS_COLORS, CLASS_NAMES, ORIGINAL_COLOR, color_class
from ponte.solver import analyze
from ponte.textio import quantize


def beam_stiffness_local(E: float, A: float, I: float, L: float) -> np.ndarray:
    """6x6 local stiffness of a 2D frame element (no end releases).

    Dof order: [u_i, v_i, rz_i, u_j, v_j, rz_j].
    """
    for name, val in (("E", E), ("A", A), ("I", I), ("L", L)):
        if not (val > 0 and math.isfinite(val)):
            raise ValueError(f"{name} must be > 0, got {val}")
    return beam_local(E, A, I, L, False, False)


def beam_local(E: float, A: float, I: float, L: float, pin_i: bool, pin_j: bool) -> np.ndarray:
    k = np.zeros((6, 6))
    ax = E * A / L
    k[0, 0] = k[3, 3] = ax
    k[0, 3] = k[3, 0] = -ax

    b = E * I / L**3
    if not pin_i and not pin_j:
        kb = b * np.array(
            [
                [12.0, 6.0 * L, -12.0, 6.0 * L],
                [6.0 * L, 4.0 * L**2, -6.0 * L, 2.0 * L**2],
                [-12.0, -6.0 * L, 12.0, -6.0 * L],
                [6.0 * L, 2.0 * L**2, -6.0 * L, 4.0 * L**2],
            ]
        )
        rows = (1, 2, 4, 5)
    elif pin_i and not pin_j:
        # Hinge at i: theta_i statically condensed out.
        kb = 3.0 * b * np.array(
            [
                [1.0, -1.0, L],
                [-1.0, 1.0, -L],
                [L, -L, L**2],
            ]
        )
        rows = (1, 4, 5)
    elif pin_j and not pin_i:
        kb = 3.0 * b * np.array(
            [
                [1.0, L, -1.0],
                [L, L**2, -L],
                [-1.0, -L, 1.0],
            ]
        )
        rows = (1, 2, 4)
    else:
        # Hinges at both ends: pure axial member.
        return k
    for a_, ra in enumerate(rows):
        for b_, rb in enumerate(rows):
            k[ra, rb] = kb[a_, b_]
    return k


def transformation(cx: float, cy: float) -> np.ndarray:
    """Global -> local rotation for the 6 frame dofs."""
    T = np.zeros((6, 6))
    T[0, 0] = T[1, 1] = T[3, 3] = T[4, 4] = cx
    T[0, 1] = T[3, 4] = cy
    T[1, 0] = T[4, 3] = -cy
    T[2, 2] = T[5, 5] = 1.0
    return T


def cable_stiffness_global(E: float, A: float, L: float, cx: float, cy: float) -> np.ndarray:
    """4x4 global stiffness of a taut cable over [x_i, y_i, x_j, y_j].

    Rank-1 outer product (EA/L) * d d^T with d = [-cx, -cy, cx, cy].
    """
    for name, val in (("E", E), ("A", A), ("L", L)):
        if not (val > 0 and math.isfinite(val)):
            raise ValueError(f"{name} must be > 0, got {val}")
    if abs(math.hypot(cx, cy) - 1.0) > 1e-9:
        raise ValueError(f"direction cosines must be a unit vector, got ({cx}, {cy})")
    d = np.array([-cx, -cy, cx, cy])
    return (E * A / L) * np.outer(d, d)


def fixed_end_forces(w: float, L: float) -> np.ndarray:
    """Equivalent nodal loads of a uniform load w (positive down) on a
    horizontal beam: end shears wL/2 and end moments +/- wL^2/12.

    With these consistent loads, nodal displacements under uniform loads
    are exact for Euler-Bernoulli theory.
    """
    if not (L > 0 and math.isfinite(L)):
        raise ValueError(f"L must be > 0, got {L}")
    return fixed_end_local(0.0, -w, L, False, False)


def fixed_end_local(p: float, q: float, L: float, pin_i: bool, pin_j: bool) -> np.ndarray:
    """Equivalent nodal loads in local axes for axial intensity p and
    transverse intensity q (N/m), honouring end releases."""
    f = np.zeros(6)
    f[0] = f[3] = p * L / 2.0
    if not pin_i and not pin_j:
        f[1] = f[4] = q * L / 2.0
        f[2] = q * L**2 / 12.0
        f[5] = -q * L**2 / 12.0
    elif pin_i and not pin_j:
        f[1] = 3.0 * q * L / 8.0
        f[4] = 5.0 * q * L / 8.0
        f[5] = -q * L**2 / 8.0
    elif pin_j and not pin_i:
        f[1] = 5.0 * q * L / 8.0
        f[2] = q * L**2 / 8.0
        f[4] = 3.0 * q * L / 8.0
    else:
        f[1] = f[4] = q * L / 2.0
    return f


def dense_minimum_norm_solve(K: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm solution of the positive semi-definite K u = F and the
    number of pivots dropped, by dense Cholesky with complete pivoting
    (LAPACK dpstrf, tolerance n eps max diag K; Higham 1990).

    The rank-deficient case projects the particular solution from L11 off
    the null basis N = P [-L11^-T L21^T; I]. Raises ``SingularSystem`` when
    ||K u - F|| > 1e-8 max(||F||, 1), and refines u once.
    """
    n = len(F)
    c, piv, rank, _ = dpstrf(K, lower=1)
    piv -= 1
    if rank < n:
        # Keep L11 and make the dropped rows those of the identity, so that
        # solving on c gives [(L11 L11^T)^-1 b1; b2] with no copy of L11.
        L21 = c[rank:, :rank].copy()
        c[rank:, :] = 0.0
        c[range(rank, n), range(rank, n)] = 1.0
        N = -solve_triangular(c, np.vstack([L21.T, np.zeros((n - rank, n - rank))]), lower=True, trans="T")
        N[rank:] = np.eye(n - rank)
        g, _ = dpotrf(N.T @ N, lower=1)

    def solve(b: np.ndarray) -> np.ndarray:
        x = b[piv]
        x[rank:] = 0.0
        x, _ = dpotrs(c, x, lower=1)
        if rank < n:
            x -= N @ dpotrs(g, N.T @ x, lower=1)[0]
        u = np.empty(n)
        u[piv] = x
        return u

    u = solve(F)
    residual = F - K @ u
    if not np.linalg.norm(residual) <= 1e-8 * max(np.linalg.norm(F), 1.0):
        raise SingularSystem("residual too large")
    return u + solve(residual), n - rank


def dense_null_basis(c: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """The (n, modes) null basis of K from its decoupled band factor ``c``
    (lower band storage) and dropped pivots: one back-substitution on the
    whole factor, L^T N = E, with E holding c[0, j] at each dropped j, so
    each column is 1 at its own pivot."""
    E = np.zeros((c.shape[1], len(dropped)), order="F")
    E[dropped, range(len(dropped))] = c[0, dropped]
    N, _ = dtbtrs(c, E, uplo="L", trans="T")
    return N


def dense_system(el, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense (K, F) over all 3 * nodes candidate dofs of the solver's
    element table ``el``, with the cables of the mask ``active`` taut.
    Each beam's 6x6 block, then each taut cable's 4x4 block, is added in
    element order, the order in which the band sums them; F is the table's
    loads less each taut cable's pretension along it."""
    n = len(el.loads)
    taut = el.cable_dofs[active]
    rows = np.concatenate([np.repeat(el.beam_dofs, 6, axis=1).ravel(), np.repeat(taut, 4, axis=1).ravel()])
    cols = np.concatenate([np.tile(el.beam_dofs, 6).ravel(), np.tile(taut, 4).ravel()])
    K = np.zeros((n, n))
    np.add.at(K, (rows, cols), np.concatenate([el.k_global.ravel(), el.cable_k[active].ravel()]))
    F = el.loads.copy()
    for k in np.flatnonzero(active & (el.pretension != 0.0)):
        F[el.cable_dofs[k]] -= el.pretension[k] * np.array([-el.cx[k], -el.cy[k], el.cx[k], el.cy[k]])
    return K, F


def lower_band(K: np.ndarray) -> np.ndarray:
    """Lower band storage of a dense symmetric K, as wide as the outermost
    nonzero of its lower triangle."""
    rows, cols = np.nonzero(np.tril(K))
    width = int((rows - cols).max(initial=0))
    ab = np.zeros((width + 1, len(K)), order="F")
    for p in range(width + 1):
        ab[p, : len(K) - p] = np.diagonal(K, -p)
    return ab


def utilization(forces, material, section=None, area: float | None = None) -> float:
    """Demand/capacity ratio of one member (``MemberForces``): beams combine
    axial and extreme-fibre bending stress at the worse end, cables take
    axial stress over the allowable."""
    sigma = material.allowable_stress
    if forces.kind == "beam":
        m_max = max(abs(forces.moment_i), abs(forces.moment_j))
        return (abs(forces.axial) / section.area + m_max * (section.depth / 2.0) / section.second_moment) / sigma
    return forces.axial / (area * sigma)


class Stage(NamedTuple):
    """One erection stage with its own model: the overhang beyond its
    outermost support, the modules planted as pillars, and whether the tip
    has landed on the far shore."""

    index: int
    model: StructureModel
    cantilever_length: float  # m
    planted: tuple[int, ...] = ()
    landed: bool = False

    @property
    def pure_cantilever(self) -> bool:
        """True while the abutment is the only support line."""
        return not self.planted and not self.landed


def stages_one_by_one(plan: ErectionPlan) -> tuple[Stage, ...]:
    """A plan's stages, in ``run_plan``'s order, with every model built on
    its own from the plan, not cut from a finished deck."""

    def model(built, planted, landed):
        mod = plan.module_length
        nodes = [Node(1, quantize(plan.counterweight_lever), 0.0), Node(2, 0.0, 0.0)]
        nodes.extend(Node(2 + k, quantize(-k * mod), 0.0) for k in range(1, built + 1))
        beams = [BeamElement(k, k, k + 1, DECK_MATERIAL, DECK_SECTION.name) for k in range(1, built + 2)]
        supports = [Support(2, restrain_x=True, restrain_y=True, restrain_rz=True), Support(1, restrain_y=True)]
        supports.extend(Support(2 + m, restrain_y=True) for m in planted)
        if landed:
            supports.append(Support(2 + built, restrain_y=True))
        loads = [UniformLoad(b.id, plan.deck_weight_per_length) for b in beams]
        loads.append(NodalForce(1, fy=-plan.counterweight))
        return build_model(nodes=nodes, beams=beams, supports=supports, loads=loads,
                           materials=[MATERIAL_PRESETS[DECK_MATERIAL]], sections=[DECK_SECTION])

    stages = [Stage(0, model(0, (), False), 0.0)]
    planted, built = (), 0
    while built < plan.module_count:
        built += 1
        stages.append(Stage(len(stages), model(built, planted, False),
                            (built - max(planted, default=0)) * plan.module_length, planted))
        if built < plan.module_count and built % plan.pillar_interval == 0:
            planted += (built,)
            stages.append(Stage(len(stages), model(built, planted, False), 0.0, planted))
    if plan.module_count > 0:
        stages.append(Stage(len(stages), model(built, planted, True), 0.0, planted, landed=True))
    return tuple(stages)


def _outcome(result) -> _Outcome:
    """What judging reads from one stage's own analysis: the vertical
    reactions of the supports that hold y, read record by record in node
    id order, so the ballast node 1's comes first."""
    held = {s.node for s in result.model.supports if s.restrain_y}
    vertical = [reaction[1] for node, reaction in sorted(result.reactions.items()) if node in held]
    return _Outcome(result.max_utilization, result.max_deflection, vertical[0], min(vertical[1:]))


def run_plan_one_by_one(plan: ErectionPlan) -> PlanReport:
    """``run_plan`` as a loop over stage models: each model of
    ``stages_one_by_one`` validated and analyzed on its own by ``analyze``
    (a ``SingularSystem`` judged as a mechanism), its deck length summed
    from ``element_length``, and the stage judged at the plan's
    counterweight and at the closed-form W_min."""
    stages = stages_one_by_one(plan)
    w = plan.deck_weight_per_length
    worst = max((w * s.cantilever_length * s.cantilever_length / 2.0 for s in stages if s.pure_cantilever),
                default=0.0)
    w_min = plan.safety_factor * worst / plan.counterweight_lever
    reports, verified = [], True
    for stage in stages:
        try:
            outcome = _outcome(analyze(stage.model))
        except SingularSystem:
            outcome = None
        model = stage.model
        step = _Step(stage.index, len(model.beams) - 1, stage.planted, stage.landed,
                     stage.cantilever_length, sum(model.element_length(b) for b in model.beams))
        reports.append(_judge(step, plan, outcome, plan.counterweight))
        verified &= _judge(step, plan, outcome, w_min).verdict is Verdict.STABLE
    return PlanReport(tuple(reports), all(r.verdict is Verdict.STABLE for r in reports), w_min, verified)


def reactions_by_dof(result) -> dict[int, tuple]:
    """``AnalysisResult.reactions`` filled one restrained dof at a time, in
    sorted (node id, component) order, from the support residual."""
    model = result.model
    index = {n.id: k for k, n in enumerate(model.nodes)}
    restrained = sorted(dof_map(model).restrained)
    values = result._recovered.residual[[3 * index[nid] + comp for nid, comp in restrained]].tolist()
    support: dict[int, list[float]] = {}
    for (nid, comp), value in zip(restrained, values):
        support.setdefault(nid, [0.0, 0.0, 0.0])[comp] = value
    return {nid: tuple(r) for nid, r in support.items()}


def max_utilization_member(result) -> int | None:
    """The most utilized member by the per-member dict: among members
    within 1e-9 of the maximum, the lowest id; for a maximum that is not
    finite, the lowest id of the members whose utilization is not finite."""
    if not result.utilization:
        return None
    top = result.max_utilization
    if not math.isfinite(top):
        return min(eid for eid, u in result.utilization.items() if not math.isfinite(u))
    return min(eid for eid, u in result.utilization.items() if u >= top - 1e-9 * abs(top))


def report_dict(result) -> dict:
    """The analysis result as one JSON-ready dictionary, record by record;
    ``write_report`` writes ``json.dumps(report_dict(r), indent=2)``."""
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
        "max_utilization_member": max_utilization_member(result),
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


def _finite_or_none(value: float) -> float | None:
    return None if math.isinf(value) else value


def plan_report_dict(report: PlanReport) -> dict:
    """The erection plan report as one JSON-ready dictionary, stage by
    stage; an infinite stage figure or minimal counterweight becomes None.
    ``write_plan_report`` writes ``json.dumps(plan_report_dict(r), indent=2)``."""
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


@dataclass(frozen=True)
class MemberView:
    """One member of a diagram as the oracle draws it."""

    id: int
    kind: str  # "beam" | "cable"
    color_class: str
    original: tuple[tuple[float, float], tuple[float, float]]
    deflected: tuple[tuple[float, float], tuple[float, float]]
    dashed: bool
    label: str | None


class MemberDiagram(NamedTuple):
    """A diagram as a tuple of one ``MemberView`` per member."""

    members: tuple
    scale: float
    legend: tuple


def build_diagram(result, scale: float | None = None) -> MemberDiagram:
    """The diagram built member by member from the result's dicts."""
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
    legend = tuple((name, CLASS_COLORS[name]) for name in CLASS_NAMES)
    return MemberDiagram(tuple(members), scale, legend)


def _svg_num(v: float) -> str:
    return f"{v:.6g}"


def render_svg(diagram) -> str:
    """SVG text of a diagram's ``members``, one number at a time."""
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


def self_weight_loads_by_member(model, g: float) -> tuple[NodalForce, ...]:
    """``self_weight_loads`` as a loop over members: rho*A*L*g/2 at each end
    of each beam, then of each cable, from ``element_length``, then m*g at
    each point mass, summed per node in that order; the nonzero sums by
    ascending node id."""
    if g == 0.0:
        return ()
    fy: dict[int, float] = {}

    def add(node_id: int, value: float) -> None:
        fy[node_id] = fy.get(node_id, 0.0) + value

    for b in model.beams:
        half = model.material(b.material).density * model.section(b.section).area * model.element_length(b) * g / 2.0
        add(b.node_i, -half)
        add(b.node_j, -half)
    for c in model.cables:
        half = model.material(c.material).density * c.area * model.element_length(c) * g / 2.0
        add(c.node_i, -half)
        add(c.node_j, -half)
    for load in model.loads:
        if isinstance(load, PointMass):
            add(load.node, -load.mass * g)
    return tuple(NodalForce(node=nid, fy=fy[nid]) for nid in sorted(fy) if fy[nid] != 0.0)


def restrained_components(sup: Support) -> tuple[int, ...]:
    """The components a support record holds, x before y before rz."""
    comps = []
    if sup.restrain_x:
        comps.append(DOF_X)
    if sup.restrain_y:
        comps.append(DOF_Y)
    if sup.restrain_rz:
        comps.append(DOF_RZ)
    return tuple(comps)


def rotational_stiffness_nodes(model: StructureModel) -> set[int]:
    """Nodes where at least one beam end provides rotational stiffness."""
    stiff: set[int] = set()
    for b in model.beams:
        if not b.pin_i:
            stiff.add(b.node_i)
        if not b.pin_j:
            stiff.add(b.node_j)
    return stiff


def connected_components(model: StructureModel) -> list[set[int]]:
    """The node sets joined by elements, in the order of their first node.
    A union links the second root under the first, so a deck chain listed
    from its start stays one level deep instead of becoming a parent chain
    as long as the deck. Union by size, measured too, was slower on
    erection stages and on a 2 000-node chain either way round."""
    parent = {n.id: n.id for n in model.nodes}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for e in list(model.beams) + list(model.cables):
        union(e.node_i, e.node_j)
    groups: dict[int, set[int]] = {}
    for nid in parent:
        groups.setdefault(find(nid), set()).add(nid)
    return list(groups.values())


def build_model_by_record(nodes=(), materials=(), sections=(), beams=(), cables=(), supports=(), loads=()):
    """``model.build_model`` record by record: every record is checked in
    turn (nodes, materials, sections, the beams then the cables, supports,
    loads), and the first duplicate id or name, bad name or dangling
    reference raises; then the records are sorted into canonical order."""
    node_ids: set = set()
    for n in nodes:
        if n.id in node_ids:
            raise DuplicateId(n.id, "node id")
        node_ids.add(n.id)
    names: dict[str, set] = {"material": set(), "section": set()}
    for kind, items in (("material", materials), ("section", sections)):
        for item in items:
            if not item.name or item.name.split() != [item.name] or "#" in item.name:
                raise ValueError(f"{kind} name must be non-empty without whitespace or '#': {item.name!r}")
            if item.name in names[kind]:
                raise DuplicateId(item.name, f"{kind} name")
            names[kind].add(item.name)
    element_ids: set = set()
    for kind, members in (("beam", beams), ("cable", cables)):
        for e in members:
            if e.id in element_ids:
                raise DuplicateId(e.id, "element id")
            element_ids.add(e.id)
            for end in (e.node_i, e.node_j):
                if end not in node_ids:
                    raise UnknownReference(end, "node", f"{kind} {e.id}")
            if e.material not in names["material"]:
                raise UnknownReference(e.material, "material", f"{kind} {e.id}")
            if kind == "beam" and e.section not in names["section"]:
                raise UnknownReference(e.section, "section", f"beam {e.id}")
    for s in supports:
        if s.node not in node_ids:
            raise UnknownReference(s.node, "node", "support")
    beam_ids = {b.id for b in beams}
    for load in loads:
        if isinstance(load, (NodalForce, PointMass)) and load.node not in node_ids:
            raise UnknownReference(load.node, "node", "load")
        if isinstance(load, UniformLoad) and load.beam not in beam_ids:
            raise UnknownReference(load.beam, "beam", "uniform load")
    rank = {NodalForce: 0, UniformLoad: 1, PointMass: 2, SelfWeight: 3}
    target = {NodalForce: "node", UniformLoad: "beam", PointMass: "node"}
    return StructureModel(
        tuple(sorted(nodes, key=lambda n: n.id)), tuple(sorted(materials, key=lambda m: m.name)),
        tuple(sorted(sections, key=lambda s: s.name)), tuple(sorted(beams, key=lambda b: b.id)),
        tuple(sorted(cables, key=lambda c: c.id)), tuple(sorted(supports, key=lambda s: s.node)),
        tuple(l for _, l in sorted(enumerate(loads), key=lambda item: (
            rank[type(item[1])], getattr(item[1], target.get(type(item[1]), ""), -1), item[0]))))


def validate(model: StructureModel) -> ValidationReport:
    """``model.validate`` record by record: each check walks the records it
    reads, the restrained (node, component) set is built from the supports,
    and the components come from ``connected_components``."""
    issues: list[ValidationIssue] = []

    def err(code: str, location: str, message: str) -> None:
        issues.append(ValidationIssue(code, "error", location, message))

    if not model.nodes:
        err("EmptyModel", "model", "model has no nodes")

    for n in model.nodes:
        if not (math.isfinite(n.x) and math.isfinite(n.y)):
            err("NonFiniteCoordinate", f"node {n.id}", f"node {n.id} has non-finite coordinates")

    for m in model.materials:
        if not (m.elastic_modulus > 0 and math.isfinite(m.elastic_modulus)):
            err("NonPositiveProperty", f"material {m.name}", f"material {m.name}: E must be > 0")
        if not (m.density >= 0 and math.isfinite(m.density)):
            err("NonPositiveProperty", f"material {m.name}", f"material {m.name}: density must be >= 0")
        if not (m.allowable_stress > 0 and math.isfinite(m.allowable_stress)):
            err("NonPositiveProperty", f"material {m.name}", f"material {m.name}: allowable stress must be > 0")

    for s in model.sections:
        for prop, val in (("A", s.area), ("I", s.second_moment), ("H", s.depth)):
            if not (val > 0 and math.isfinite(val)):
                err("NonPositiveProperty", f"section {s.name}", f"section {s.name}: {prop} must be > 0")

    kinds = ["beam"] * len(model.beams) + ["cable"] * len(model.cables)
    for kind, e in zip(kinds, model.beams + model.cables):
        L = model.element_length(e)
        if e.node_i == e.node_j:
            err("ZeroLengthElement", f"{kind} {e.id}", f"{kind} {e.id} connects node {e.node_i} to itself")
        elif L < MIN_ELEMENT_LENGTH:
            err("ZeroLengthElement", f"{kind} {e.id}", f"{kind} {e.id} is shorter than {MIN_ELEMENT_LENGTH} m")
        if kind == "cable" and not (e.area > 0 and math.isfinite(e.area)):
            err("NonPositiveProperty", f"cable {e.id}", f"cable {e.id}: area must be > 0")
        if kind == "cable" and not (e.pretension >= 0 and math.isfinite(e.pretension)):
            err("NegativePretension", f"cable {e.id}", f"cable {e.id}: pretension must be >= 0")

    restrained: set[tuple[int, int]] = set()
    for sup in model.supports:
        comps = restrained_components(sup)
        if not comps:
            err("EmptySupport", f"support at node {sup.node}", f"support at node {sup.node} restrains nothing")
        for comp in comps:
            restrained.add((sup.node, comp))

    if len(restrained) < 3 and (model.beams or model.cables or model.nodes):
        err(
            "InsufficientRestraint",
            "model",
            f"only {len(restrained)} restrained degrees of freedom; at least 3 are needed",
        )

    touched = {nid for e in model.beams + model.cables for nid in (e.node_i, e.node_j)}
    for n in model.nodes:
        if n.id not in touched:
            free = [c for c in (DOF_X, DOF_Y) if (n.id, c) not in restrained]
            if free:
                err("IsolatedNode", f"node {n.id}", f"node {n.id} carries no element and is not fully restrained")

    for comp_nodes in connected_components(model):
        has_elements = any(nid in touched for nid in comp_nodes)
        n_restrained = sum(1 for (nid, c) in restrained if nid in comp_nodes)
        if has_elements and n_restrained < 3:
            sample = min(comp_nodes)
            err(
                "InsufficientRestraint",
                f"component containing node {sample}",
                f"component containing node {sample} has {n_restrained} restrained degrees of freedom (needs 3)",
            )

    rz_stiff = rotational_stiffness_nodes(model)
    for load in model.loads:
        if isinstance(load, NodalForce):
            if not all(math.isfinite(v) for v in (load.fx, load.fy, load.mz)):
                err("NonFiniteLoad", f"load at node {load.node}", f"nodal force at node {load.node} is non-finite")
            elif load.mz != 0.0 and load.node not in rz_stiff and (load.node, DOF_RZ) not in restrained:
                err(
                    "MomentOnFreeHinge",
                    f"load at node {load.node}",
                    f"moment applied at node {load.node}, which has no rotational stiffness",
                )
        elif isinstance(load, UniformLoad):
            if not math.isfinite(load.w):
                err("NonFiniteLoad", f"uniform load on beam {load.beam}", f"uniform load on beam {load.beam} is non-finite")
        elif isinstance(load, SelfWeight):
            if not (load.g > 0 and math.isfinite(load.g)):
                err("NonPositiveProperty", "self-weight load", "self-weight g must be > 0")
        elif isinstance(load, PointMass):
            if not (load.mass >= 0 and math.isfinite(load.mass)):
                err("NegativeMass", f"mass at node {load.node}", f"point mass at node {load.node} must be >= 0")

    return ValidationReport(tuple(issues))


@dataclass(frozen=True)
class DofMap:
    """Deterministic numbering of the free structural degrees of freedom.

    ``entries[k]`` is the (node id, component) pair owning free dof k;
    components are DOF_X, DOF_Y, DOF_RZ. Rotations at nodes where no
    attached member supplies rotational stiffness are dropped entirely
    (``dropped_rz``) rather than left as singular dofs.
    """

    entries: tuple[tuple[int, int], ...]
    restrained: frozenset[tuple[int, int]]
    dropped_rz: frozenset[int]

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return {entry: k for k, entry in enumerate(self.entries)}

    @property
    def n_free(self) -> int:
        return len(self.entries)


def dof_map(model: StructureModel) -> DofMap:
    """The free dofs numbered record by record: ascending node id, then x,
    y, rz, less the restrained ones and the rotations no beam end
    stiffens."""
    restrained: set[tuple[int, int]] = set()
    for sup in model.supports:
        for comp in restrained_components(sup):
            restrained.add((sup.node, comp))

    rz_stiff = rotational_stiffness_nodes(model)
    entries: list[tuple[int, int]] = []
    dropped: set[int] = set()
    for n in sorted(model.nodes, key=lambda n: n.id):
        for comp in (DOF_X, DOF_Y, DOF_RZ):
            if (n.id, comp) in restrained:
                continue
            if comp == DOF_RZ and n.id not in rz_stiff:
                dropped.add(n.id)
                continue
            entries.append((n.id, comp))

    return DofMap(tuple(entries), frozenset(restrained), frozenset(dropped))


# ---------------------------------------------------------------------------
# The model file parsed line by line, the parent's parser: one call and one
# record per line, the first bad line raising as it is met.


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(lineno, f"expected a number for {what}, got {token!r}") from None


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected an integer for {what}, got {token!r}") from None


def _parse_kv(tokens: list[str], lineno: int, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
    values: dict[str, str] = {}
    for token in tokens:
        key, sep, val = token.partition("=")
        if not sep or not val:
            raise ParseError(lineno, f"expected KEY=VALUE, got {token!r}")
        if key not in required and key not in optional:
            raise UnknownKeyword(lineno, key)
        if key in values:
            raise ParseError(lineno, f"duplicate key {key!r}")
        values[key] = val
    for key in required:
        if key not in values:
            raise ParseError(lineno, f"missing {key}=")
    return values


def _expect(tokens: list[str], lineno: int, n: int, usage: str) -> None:
    if len(tokens) != n:
        raise ParseError(lineno, f"expected {usage}")


def _check_unit(tokens: list[str], lineno: int) -> None:
    _expect(tokens, lineno, 2, "UNIT SI")
    if tokens[1] != "SI":
        raise ParseError(lineno, f"only SI units are supported, got {tokens[1]!r}")


class _ModelAccumulator:
    def __init__(self):
        self.nodes: list[Node] = []
        self.materials: list[Material] = []
        self.sections: list[Section] = []
        self.beams: list[BeamElement] = []
        self.cables: list[CableElement] = []
        self.supports: list[Support] = []
        self.loads: list[Load] = []


def _parse_support_flags(token: str, lineno: int) -> set[str]:
    seen = set()
    for ch in token:
        if ch not in "XYR" or ch in seen:
            raise ParseError(lineno, f"bad support flags {token!r} (use X, Y, R)")
        seen.add(ch)
    if not seen:
        raise ParseError(lineno, "support flags must not be empty")
    return seen


def _parse_line(acc: _ModelAccumulator, lineno: int, tokens: list[str]) -> None:
    keyword = tokens[0]
    rest = tokens[1:]
    if keyword == "UNIT":
        _check_unit(tokens, lineno)
    elif keyword == "NODE":
        _expect(tokens, lineno, 4, "NODE <id> <x> <y>")
        acc.nodes.append(
            Node(
                _parse_int(rest[0], lineno, "node id"),
                _parse_float(rest[1], lineno, "x"),
                _parse_float(rest[2], lineno, "y"),
            )
        )
    elif keyword == "MATERIAL":
        if len(rest) < 1:
            raise ParseError(lineno, "MATERIAL needs a name")
        kv = _parse_kv(rest[1:], lineno, ("E", "RHO", "SIGMA"))
        acc.materials.append(
            Material(
                rest[0],
                _parse_float(kv["E"], lineno, "E"),
                _parse_float(kv["RHO"], lineno, "RHO"),
                _parse_float(kv["SIGMA"], lineno, "SIGMA"),
            )
        )
    elif keyword == "SECTION":
        if len(rest) < 1:
            raise ParseError(lineno, "SECTION needs a name")
        kv = _parse_kv(rest[1:], lineno, ("A", "I", "H"))
        acc.sections.append(
            Section(
                rest[0],
                _parse_float(kv["A"], lineno, "A"),
                _parse_float(kv["I"], lineno, "I"),
                _parse_float(kv["H"], lineno, "H"),
            )
        )
    elif keyword == "BEAM":
        if len(rest) not in (5, 6):
            raise ParseError(lineno, "expected BEAM <id> <node_i> <node_j> <material> <section> [PIN=I|J|IJ]")
        pin_i = pin_j = False
        if len(rest) == 6:
            key, sep, val = rest[5].partition("=")
            if key != "PIN" or not sep or val not in ("I", "J", "IJ"):
                raise ParseError(lineno, f"bad beam option {rest[5]!r} (expected PIN=I|J|IJ)")
            pin_i = "I" in val
            pin_j = "J" in val
        acc.beams.append(
            BeamElement(
                _parse_int(rest[0], lineno, "beam id"),
                _parse_int(rest[1], lineno, "node_i"),
                _parse_int(rest[2], lineno, "node_j"),
                rest[3],
                rest[4],
                pin_i=pin_i,
                pin_j=pin_j,
            )
        )
    elif keyword == "CABLE":
        if len(rest) < 5:
            raise ParseError(lineno, "expected CABLE <id> <node_i> <node_j> <material> A=<m2> [PRETENSION=<N>]")
        kv = _parse_kv(rest[4:], lineno, ("A",), optional=("PRETENSION",))
        acc.cables.append(
            CableElement(
                _parse_int(rest[0], lineno, "cable id"),
                _parse_int(rest[1], lineno, "node_i"),
                _parse_int(rest[2], lineno, "node_j"),
                rest[3],
                _parse_float(kv["A"], lineno, "A"),
                pretension=_parse_float(kv.get("PRETENSION", "0"), lineno, "PRETENSION"),
            )
        )
    elif keyword == "SUPPORT":
        _expect(tokens, lineno, 3, "SUPPORT <node> <flags>")
        flags = _parse_support_flags(rest[1], lineno)
        acc.supports.append(
            Support(
                _parse_int(rest[0], lineno, "node id"),
                restrain_x="X" in flags,
                restrain_y="Y" in flags,
                restrain_rz="R" in flags,
            )
        )
    elif keyword == "LOAD":
        if not rest:
            raise ParseError(lineno, "LOAD needs a subtype (NODE, UDL, MASS, SELFWEIGHT)")
        sub = rest[0]
        if sub == "NODE":
            if len(rest) < 2:
                raise ParseError(lineno, "expected LOAD NODE <node> FX= FY= MZ=")
            kv = _parse_kv(rest[2:], lineno, (), optional=("FX", "FY", "MZ"))
            acc.loads.append(
                NodalForce(
                    _parse_int(rest[1], lineno, "node id"),
                    fx=_parse_float(kv.get("FX", "0"), lineno, "FX"),
                    fy=_parse_float(kv.get("FY", "0"), lineno, "FY"),
                    mz=_parse_float(kv.get("MZ", "0"), lineno, "MZ"),
                )
            )
        elif sub == "UDL":
            if len(rest) != 3:
                raise ParseError(lineno, "expected LOAD UDL <beam_id> W=<N/m>")
            kv = _parse_kv(rest[2:], lineno, ("W",))
            acc.loads.append(
                UniformLoad(_parse_int(rest[1], lineno, "beam id"), _parse_float(kv["W"], lineno, "W"))
            )
        elif sub == "MASS":
            if len(rest) != 3:
                raise ParseError(lineno, "expected LOAD MASS <node> M=<kg>")
            kv = _parse_kv(rest[2:], lineno, ("M",))
            acc.loads.append(
                PointMass(_parse_int(rest[1], lineno, "node id"), _parse_float(kv["M"], lineno, "M"))
            )
        elif sub == "SELFWEIGHT":
            kv = _parse_kv(rest[1:], lineno, ("G",))
            acc.loads.append(SelfWeight(_parse_float(kv["G"], lineno, "G")))
        else:
            raise UnknownKeyword(lineno, f"LOAD {sub}")
    else:
        raise UnknownKeyword(lineno, keyword)


def parse_model_file_by_line(text: str) -> StructureModel:
    """``textio.parse_model_file`` one line at a time, lines ending at
    ``\\n`` only: the same model, or the same error at the same line."""
    acc = _ModelAccumulator()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "PLAN":
            raise ParseError(lineno, "PLAN lines belong in a plan file, not a model file")
        _parse_line(acc, lineno, tokens)
    return build_model(
        nodes=acc.nodes,
        materials=acc.materials,
        sections=acc.sections,
        beams=acc.beams,
        cables=acc.cables,
        supports=acc.supports,
        loads=acc.loads,
    )
