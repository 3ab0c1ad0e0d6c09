"""Staged cantilever erection: build out from a counterweighted abutment,
planting a riverbed pillar every few modules, and check each stage for
overturning and strength.

Geometry convention: the abutment edge is at x = 0, construction advances
in -x, and the counterweight sits on a shore bearing at x = +lever.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .catalog import DECK_MATERIAL, DECK_SECTION
from .errors import InvalidModel, InvalidPlan
from .model import (
    MATERIAL_PRESETS,
    BeamElement,
    NodalForce,
    Node,
    StructureModel,
    Support,
    UniformLoad,
    build_model,
    validate,
)
from .solver import EPS_FORCE, _analyze_prefixes, _elements
from .textio import quantize

# Relative slack on the factor >= safety_factor comparison, so a plan run
# exactly at its minimal counterweight does not flip on the last ulp.
_FACTOR_RTOL = 1e-12

# Stacked entries per batch of stages, as stages x (3 deck nodes): a batch's
# load, displacement and residual tables and its recovery's (stages, beams,
# 6) products grow with it. Plans of up to 60 modules (121 stages of 186
# dofs at most) stay one batch; a longer plan's peak memory stays near theirs.
_BATCH_ENTRIES = 2**15


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
    # A plan with an overhang needs a counterweight, and none can be 0 N.
    if plan.module_count and _minimal_counterweight(plan) == 0.0:
        raise InvalidPlan(f"deck_weight_per_length out of range: {plan.deck_weight_per_length}"
                          " (the minimal counterweight underflows to 0 N)")


def _minimal_counterweight(plan: ErectionPlan) -> float:
    """The closed-form smallest counterweight keeping every pure-cantilever
    stage at the safety factor: W_min = safety * (w c^2 / 2) / lever at the
    longest such cantilever c, out to the first pillar or the far shore."""
    w, c = plan.deck_weight_per_length, min(plan.pillar_interval, plan.module_count) * plan.module_length
    return plan.safety_factor * (w * c * c / 2.0) / plan.counterweight_lever


class _Step(NamedTuple):
    """One stage of a plan before any model is built: the deck out to
    module ``built``, pillars under the modules ``planted`` and, if
    ``landed``, a bearing under the tip. ``expand_plan`` and ``run_plan``
    both read the plan's stages from ``_Deck.steps``."""

    index: int
    built: int
    planted: tuple[int, ...]
    landed: bool
    cantilever_length: float  # m beyond the outermost support
    deck_length: float  # m of beams, the ballast span included

    @property
    def pure_cantilever(self) -> bool:
        return not self.planted and not self.landed

    @property
    def bearing_modules(self) -> tuple[int, ...]:
        """The modules whose tips bear on a pillar or on the far shore."""
        return self.planted + ((self.built,) if self.landed else ())


class _Outcome(NamedTuple):
    """What judging a stage reads from its analysis."""

    max_utilization: float
    max_deflection: float
    ballast: float  # vertical reaction at the ballast node 1
    bearing: float  # the smallest vertical reaction of the other bearings


@dataclass(frozen=True)
class _Deck:
    """The parts every stage of a plan shares, built once: the nodes from
    the ballast node (x=+lever) out to the last module, the beams joining
    them with their self-weight, the ballast force, a bearing for each
    module's tip, and the stages. Stage ``built`` takes the first built + 2
    nodes and the first built + 1 beams and uniform loads.

    The abutment clamps the deck at x=0 (pin plus rotation: the deck is
    held between the shore block and the ballast span); planted pillars,
    and the far shore once the tip lands, are ideal vertical bearings.
    """

    nodes: tuple[Node, ...]
    beams: tuple[BeamElement, ...]
    loads: tuple[NodalForce | UniformLoad, ...]  # the ballast force, then the uniform loads
    bearings: tuple[Support, ...]  # the ballast and abutment supports, then one per module tip
    steps: tuple[_Step, ...]

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
        # The deck length of each stage, summed beam by beam as
        # sum(model.element_length(b) for b in model.beams) sums it.
        lengths = list(accumulate(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(nodes, nodes[1:])))

        # Stage 0 is the counterweighted abutment alone; each later stage
        # either appends one module, plants the current tip as a riverbed
        # pillar, or lands the tip on the far shore.
        steps: list[_Step] = []

        def stage(built: int, planted: tuple[int, ...], landed: bool, cantilever: float) -> None:
            steps.append(_Step(len(steps), built, planted, landed, cantilever, lengths[built]))

        stage(0, (), False, 0.0)
        planted: tuple[int, ...] = ()
        for built in range(1, count + 1):
            stage(built, planted, False, (built - max(planted, default=0)) * mod)
            if built < count and built % plan.pillar_interval == 0:
                planted = planted + (built,)
                stage(built, planted, False, 0.0)
        if count > 0:
            stage(count, planted, True, 0.0)
        return cls(nodes, beams, loads, bearings, tuple(steps))

    def model(self, built: int, bearing_modules: tuple[int, ...]) -> StructureModel:
        """Deck chain out to module ``built``, with the ballast and
        abutment supports and a bearing under the tip of each module of
        ``bearing_modules``."""
        supports = [*self.bearings[:2], *(self.bearings[1 + m] for m in bearing_modules)]
        return build_model(nodes=self.nodes[: built + 2], beams=self.beams[: built + 1], supports=supports,
                           loads=self.loads[: built + 2], materials=[MATERIAL_PRESETS[DECK_MATERIAL]],
                           sections=[DECK_SECTION])

    def outcomes(self) -> Iterator[_Outcome | None]:
        """Every stage analyzed, in order, None where it is a mechanism: one
        table for the finished deck, validated once, and one banded solve
        (``solver._analyze_prefixes``) per batch of ``_BATCH_ENTRIES`` // (3
        deck nodes) stages. Each row is its stage's own analysis, bit for
        bit, whatever the batch, because the deck is a chain: its band and
        the stacked band have a half-bandwidth of 5, below the 16 from which
        ``solver._solve_blocks`` gives a padded block other bits. A batch's
        restraint mask is set from its stages' bearing modules flattened into
        one array, not from one object per (stage, bearing) pair.

        Every stage is valid when the finished deck is: its nodes, beams and
        loads are prefixes of the deck's, each node of the prefix is on a
        beam of it, and its bearings are a subset of the deck's, all with
        the abutment's clamp. A deck that fails ``validate`` raises
        ``InvalidModel`` with the report of its first stage that fails it,
        as one by one: the last stage holds every deck record, and its
        extra bearings add no issue, so there is one."""
        finished = self.model(len(self.nodes) - 2, ())
        if not validate(finished).ok:
            reports = (validate(self.model(s.built, s.bearing_modules)) for s in self.steps)
            raise InvalidModel(next(r for r in reports if not r.ok))
        el, n = _elements(finished), 3 * len(self.nodes)
        size = max(1, _BATCH_ENTRIES // n)
        for steps in (self.steps[lo : lo + size] for lo in range(0, len(self.steps), size)):
            nodes = np.array([s.built + 2 for s in steps])
            # The stage's own bearings: module m's tip, node 2 + m, is at
            # node position 1 + m, and these restrain its y dof.
            held = [s.bearing_modules for s in steps]
            stage = np.repeat(np.arange(len(steps)), list(map(len, held)))
            module = np.fromiter(chain.from_iterable(held), dtype=int)
            restrained = np.zeros((len(steps), n), dtype=bool)
            restrained[stage, 3 * (module + 1) + 1] = True
            solved, done = _analyze_prefixes(el, nodes, nodes - 1, restrained)
            vertical = done.residual[:, 1::3]
            # The bearings besides the ballast: the abutment, at node
            # position 1, and the stage's own.
            others = restrained[:, 1::3] | (np.arange(len(self.nodes)) == 1)
            bearing = np.where(others, vertical, np.inf).min(axis=1)
            rows = zip(solved.tolist(), done.max_utilization.tolist(), done.max_deflection.tolist(),
                       vertical[:, 0].tolist(), bearing.tolist())
            yield from (_Outcome(*row) if ok else None for ok, *row in rows)


def expand_plan(plan: ErectionPlan) -> tuple[Stage, ...]:
    """Enumerate the construction stages, deterministically, with their
    models.

    Stage 0 is the counterweighted abutment alone; each later stage either
    appends one module, plants the current tip as a riverbed pillar, or
    lands the tip on the far shore. The stages are the plan deck's
    ``steps``, the sequence ``run_plan`` analyzes, and every stage's model
    is built from the deck's parts, made once; ``run_plan`` builds none.
    """
    _check_plan(plan)
    deck = _Deck.of(plan)
    return tuple(Stage(s.index, deck.model(s.built, s.bearing_modules), s.cantilever_length,
                       planted_modules=s.planted, landed=s.landed) for s in deck.steps)


def _factor(step: _Step, plan: ErectionPlan, outcome: _Outcome, counterweight: float) -> float:
    """Overturning factor at ``counterweight`` of a stage solved under
    ``plan``; >= safety_factor means the stage cannot tip.

    Pure cantilever stages use the rigid-body ballast balance
    (W*a)/(w*c^2/2) about the abutment edge; the stabilizing self-weight
    of the back span is ignored (ballast-only restoring, conservative).
    One with no overturning moment (no overhang, or w*c^2/2 underflowing
    to 0) cannot tip and reports +inf. Indeterminate stages (planted
    pillars / landed) are judged from the support reactions instead: any
    hold-down demand at a bearing fails, reported as 1 + (most negative
    reaction)/(total load); no uplift means the stage cannot tip and
    reports +inf.
    """
    c = step.cantilever_length
    if step.pure_cantilever:
        overturning = plan.deck_weight_per_length * c * c / 2.0
        if overturning == 0.0:
            return math.inf
        return counterweight * plan.counterweight_lever / overturning
    r_min = min(outcome.ballast + (counterweight - plan.counterweight), outcome.bearing)
    if r_min >= -EPS_FORCE:
        return math.inf
    return 1.0 + r_min / (plan.deck_weight_per_length * step.deck_length + counterweight)


def _verdict(plan: ErectionPlan, factor: float, utilization: float) -> Verdict:
    """The verdict on a solved stage of ``plan`` at this factor and utilization."""
    if factor < plan.safety_factor * (1.0 - _FACTOR_RTOL):
        return Verdict.OVERTURNS
    if utilization >= 1.0:
        return Verdict.OVERSTRESSED
    return Verdict.STABLE


def _judge(step: _Step, plan: ErectionPlan, outcome: _Outcome | None, counterweight: float) -> StageReport:
    """Report of stage ``step``, solved under ``plan``, with the ballast
    set to ``counterweight``.

    The counterweight is a nodal force on node 1's restrained vertical
    dof, so it never enters the free-dof load vector: displacements,
    member forces and utilization do not depend on it, and only node 1's
    vertical reaction moves with it, one for one. One solve therefore
    judges the stage at any counterweight.
    """
    if outcome is None:
        # An unstable statics model at this stage is itself the finding.
        return StageReport(step.index, 0.0, math.inf, math.inf, Verdict.OVERTURNS)
    factor = _factor(step, plan, outcome, counterweight)
    util = outcome.max_utilization
    return StageReport(step.index, factor, util, outcome.max_deflection, _verdict(plan, factor, util))


def run_plan(plan: ErectionPlan) -> PlanReport:
    """Analyze every stage once and report the overall feasibility, and
    whether the plan holds at its minimal counterweight.

    No stage model is built unless the deck fails ``validate``: the
    stages are prefixes of the plan's deck, solved together by
    ``_Deck.outcomes`` with the results of analyzing each stage model
    alone. Each stage is reported at the plan's counterweight; at
    ``W_min`` only its verdict is taken (``_verdict``), until one stage
    fails there.
    """
    _check_plan(plan)
    deck = _Deck.of(plan)
    w_min = _minimal_counterweight(plan)
    reports, verified = [], True
    for step, outcome in zip(deck.steps, deck.outcomes()):
        reports.append(_judge(step, plan, outcome, plan.counterweight))
        if verified and w_min > 0:
            verified = outcome is not None and _verdict(
                plan, _factor(step, plan, outcome, w_min), outcome.max_utilization) is Verdict.STABLE
    stable = all(r.verdict is Verdict.STABLE for r in reports)
    return PlanReport(tuple(reports), stable, w_min, verified)
