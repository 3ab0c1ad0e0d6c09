"""Staged cantilever erection: build out from a counterweighted abutment,
planting a riverbed pillar every few modules, and check each stage for
overturning and strength.

Geometry convention: the abutment edge is at x = 0, construction advances
in -x, and the counterweight sits on a shore bearing at x = +lever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .catalog import DECK_MATERIAL, DECK_SECTION
from .errors import InvalidPlan, SingularSystem
from .model import (
    MATERIAL_PRESETS,
    BeamElement,
    NodalForce,
    Node,
    StructureModel,
    Support,
    UniformLoad,
    build_model,
)
from .solver import EPS_FORCE, AnalysisResult, analyze
from .textio import quantize

# Relative slack on the factor >= safety_factor comparison, so a plan run
# exactly at its minimal counterweight does not flip on the last ulp.
_FACTOR_RTOL = 1e-12


class Verdict(str, Enum):
    STABLE = "Stable"
    OVERTURNS = "Overturns"
    OVERSTRESSED = "Overstressed"


@dataclass(frozen=True)
class ErectionPlan:
    """Parameters of one staged build.

    The deck carries only its own weight ``deck_weight_per_length``; the
    counterweight acts at ``counterweight_lever`` behind the abutment
    edge. Every ``pillar_interval`` modules the tip is planted as a
    riverbed support before cantilevering further.
    """

    module_length: float  # m
    module_count: int
    deck_weight_per_length: float  # N/m
    counterweight: float  # N
    counterweight_lever: float  # m
    pillar_interval: int = 2
    safety_factor: float = 1.0


@dataclass(frozen=True)
class Stage:
    index: int
    model: StructureModel
    cantilever_length: float  # m beyond the outermost support
    planted_modules: tuple[int, ...] = ()
    landed: bool = False

    @property
    def pure_cantilever(self) -> bool:
        """True while the abutment is the only support line."""
        return not self.planted_modules and not self.landed


@dataclass(frozen=True)
class StageReport:
    index: int
    overturning_factor: float
    max_utilization: float
    max_deflection: float
    verdict: Verdict


@dataclass(frozen=True)
class PlanReport:
    """``minimal_verified`` False means no counterweight makes the plan
    stable: pure cantilevers pass at ``W_min`` by construction, and every
    other failure (overstress, a mechanism, a hold-down demand, which is
    never at the ballast node 1 since node 2 is clamped) persists at any."""

    stages: tuple[StageReport, ...]
    stable: bool
    minimal_counterweight: float
    minimal_verified: bool

    @property
    def first_failure(self) -> int | None:
        for report in self.stages:
            if report.verdict is not Verdict.STABLE:
                return report.index
        return None


def _check_plan(plan: ErectionPlan) -> None:
    checks = (
        ("module_length", plan.module_length > 0),
        ("module_count", plan.module_count >= 0),
        ("deck_weight_per_length", plan.deck_weight_per_length > 0),
        ("counterweight", plan.counterweight > 0),
        ("counterweight_lever", plan.counterweight_lever > 0),
        ("pillar_interval", plan.pillar_interval >= 1),
        ("safety_factor", plan.safety_factor >= 1),
    )
    for name, ok in checks:
        value = getattr(plan, name)
        if not ok or not math.isfinite(float(value)):
            raise InvalidPlan(f"{name} out of range: {value}")


@dataclass(frozen=True)
class _Deck:
    """The parts every stage of a plan shares, built once: the nodes from
    the ballast node (x=+lever) out to the last module, the beams joining
    them with their self-weight, the ballast force and a bearing for each
    module's tip. Stage ``built`` takes the first built + 2 nodes and the
    first built + 1 beams and uniform loads.

    The abutment clamps the deck at x=0 (pin plus rotation: the deck is
    held between the shore block and the ballast span); planted pillars,
    and the far shore once the tip lands, are ideal vertical bearings.
    """

    nodes: tuple[Node, ...]
    beams: tuple[BeamElement, ...]
    loads: tuple[NodalForce | UniformLoad, ...]  # the ballast force, then the uniform loads
    bearings: tuple[Support, ...]  # the ballast and abutment supports, then one per module tip

    @classmethod
    def of(cls, plan: ErectionPlan) -> _Deck:
        mod, count = plan.module_length, plan.module_count
        nodes = (Node(1, quantize(plan.counterweight_lever), 0.0), Node(2, 0.0, 0.0),
                 *(Node(2 + k, quantize(-k * mod), 0.0) for k in range(1, count + 1)))
        beams = tuple(BeamElement(k, k, k + 1, DECK_MATERIAL, DECK_SECTION.name) for k in range(1, count + 2))
        loads = (NodalForce(1, fy=-plan.counterweight),
                 *(UniformLoad(b.id, plan.deck_weight_per_length) for b in beams))
        bearings = (Support(1, restrain_y=True), Support(2, restrain_x=True, restrain_y=True, restrain_rz=True),
                    *(Support(2 + m, restrain_y=True) for m in range(1, count + 1)))
        return cls(nodes, beams, loads, bearings)

    def model(self, built: int, planted: tuple[int, ...], landed: bool) -> StructureModel:
        """Deck chain out to module ``built``, with pillars under the
        modules ``planted`` and, if ``landed``, a bearing under the tip."""
        supports = [*self.bearings[:2], *(self.bearings[1 + m] for m in planted)]
        if landed:
            supports.append(self.bearings[1 + built])
        return build_model(nodes=self.nodes[: built + 2], beams=self.beams[: built + 1], supports=supports,
                           loads=self.loads[: built + 2], materials=[MATERIAL_PRESETS[DECK_MATERIAL]],
                           sections=[DECK_SECTION])


def expand_plan(plan: ErectionPlan) -> tuple[Stage, ...]:
    """Enumerate the construction stages, deterministically.

    Stage 0 is the counterweighted abutment alone; each later stage either
    appends one module, plants the current tip as a riverbed pillar, or
    lands the tip on the far shore. Every stage's model is built from the
    plan's deck parts, made once.
    """
    _check_plan(plan)
    deck = _Deck.of(plan)
    stages = [Stage(0, deck.model(0, (), False), 0.0)]
    planted: tuple[int, ...] = ()
    built = 0
    while built < plan.module_count:
        built += 1
        last = max(planted, default=0)
        stages.append(
            Stage(
                len(stages),
                deck.model(built, planted, False),
                (built - last) * plan.module_length,
                planted_modules=planted,
            )
        )
        if built < plan.module_count and built % plan.pillar_interval == 0:
            planted = planted + (built,)
            stages.append(
                Stage(
                    len(stages),
                    deck.model(built, planted, False),
                    0.0,
                    planted_modules=planted,
                )
            )
    if plan.module_count > 0:
        stages.append(
            Stage(
                len(stages),
                deck.model(built, planted, True),
                0.0,
                planted_modules=planted,
                landed=True,
            )
        )
    return tuple(stages)


def _vertical_reactions(result: AnalysisResult, shift: float) -> list[float]:
    """Vertical bearing reactions, with ``shift`` added at the ballast node."""
    return [
        result.reactions[nid][1] + (shift if nid == 1 else 0.0)
        for nid, comp in sorted(result.dofs.restrained)
        if comp == 1  # DOF_Y
    ]


def _factor_from_result(stage: Stage, plan: ErectionPlan, result: AnalysisResult, counterweight: float) -> float:
    """Overturning factor at ``counterweight`` of a stage solved under
    ``plan``; >= safety_factor means the stage cannot tip.

    Pure cantilever stages use the rigid-body ballast balance
    (W*a)/(w*c^2/2) about the abutment edge; the stabilizing self-weight
    of the back span is ignored (ballast-only restoring, conservative).
    Indeterminate stages (planted pillars / landed) are judged from the
    support reactions instead: any hold-down demand at a bearing fails,
    reported as 1 + (most negative reaction)/(total load); no uplift
    means the stage cannot tip and reports +inf.
    """
    c = stage.cantilever_length
    if stage.pure_cantilever:
        if c <= 0:
            return math.inf
        overturning = plan.deck_weight_per_length * c * c / 2.0
        return counterweight * plan.counterweight_lever / overturning
    r_min = min(_vertical_reactions(result, counterweight - plan.counterweight))
    if r_min >= -EPS_FORCE:
        return math.inf
    deck = sum(stage.model.element_length(b) for b in stage.model.beams)
    return 1.0 + r_min / (plan.deck_weight_per_length * deck + counterweight)


def _solve(stage: Stage) -> AnalysisResult | None:
    """The stage analysis; None when its statics model is a mechanism."""
    try:
        return analyze(stage.model)
    except SingularSystem:
        return None


def _judge(stage: Stage, plan: ErectionPlan, result: AnalysisResult | None, counterweight: float) -> StageReport:
    """Report of ``stage``, solved under ``plan``, with the ballast set to
    ``counterweight``.

    The counterweight is a nodal force on node 1's restrained vertical
    dof, so it never enters the free-dof load vector: displacements,
    member forces and utilization do not depend on it, and only node 1's
    vertical reaction moves with it, one for one. One solve therefore
    judges the stage at any counterweight.
    """
    if result is None:
        # An unstable statics model at this stage is itself the finding.
        return StageReport(stage.index, 0.0, math.inf, math.inf, Verdict.OVERTURNS)
    factor = _factor_from_result(stage, plan, result, counterweight)
    util = result.max_utilization
    if factor < plan.safety_factor * (1.0 - _FACTOR_RTOL):
        verdict = Verdict.OVERTURNS
    elif util >= 1.0:
        verdict = Verdict.OVERSTRESSED
    else:
        verdict = Verdict.STABLE
    return StageReport(stage.index, factor, util, result.max_deflection, verdict)


def run_plan(plan: ErectionPlan) -> PlanReport:
    """Analyze every stage once and report the overall feasibility, and
    whether the plan holds at its minimal counterweight."""
    stages = expand_plan(plan)
    # The closed-form smallest counterweight keeping every pure-cantilever
    # stage at the safety factor: W_min = safety * max(w c^2 / 2) / lever.
    w = plan.deck_weight_per_length
    worst = max((w * s.cantilever_length * s.cantilever_length / 2.0 for s in stages if s.pure_cantilever),
                default=0.0)
    w_min = plan.safety_factor * worst / plan.counterweight_lever
    reports, verified = [], True
    for stage in stages:
        result = _solve(stage)
        reports.append(_judge(stage, plan, result, plan.counterweight))
        if w_min > 0:
            verified &= _judge(stage, plan, result, w_min).verdict is Verdict.STABLE
    stable = all(r.verdict is Verdict.STABLE for r in reports)
    return PlanReport(tuple(reports), stable, w_min, verified)
