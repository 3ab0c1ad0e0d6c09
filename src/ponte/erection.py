"""Staged cantilever erection: build out from a counterweighted abutment,
planting a riverbed pillar every few modules, and check each stage for
overturning and strength.

Geometry convention: the abutment edge is at x = 0, construction advances
in -x, and the counterweight sits on a shore bearing at x = +lever.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .catalog import DECK_MATERIAL, DECK_SECTION, _is_index
from .errors import InvalidModel, InvalidPlan
from .model import (
    MATERIAL_PRESETS,
    BeamElement,
    NodalForce,
    Node,
    StructureModel,
    Support,
    UniformLoad,
    _record,
    build_model,
    validate,
)
from .solver import EPS_FORCE, _analyze_prefixes, _elements
from .textio import quantize

# Relative slack on the factor >= safety_factor comparison, so a plan run
# exactly at its minimal counterweight does not flip on the last ulp.
_FACTOR_RTOL = 1e-12

# Stacked entries per batch of stages, as stages x (3 deck nodes): a batch's
# load, displacement and residual tables and its recovery's (beams, 6,
# stages) products grow with it. Plans of up to 60 modules (121 stages of 186
# dofs at most) stay one batch. Measured tracemalloc peaks: at most 7.3 MB up
# to 480 modules, and 40 MB at 10 920 modules, where a batch holds one stage.
_BATCH_ENTRIES = 2**15
# The most modules whose finished deck, 3 (modules + 2) dofs, fits one
# batch: 10 920. A longer plan is rejected, since its work grows with the
# square of its modules: on a 2-core Xeon VM with one BLAS thread the
# longest accepted took 210 s at INTERVAL 1 and 162 s at INTERVAL 3, with
# tracemalloc peaks of 40 and 38 MB.
_MAX_MODULES = _BATCH_ENTRIES // 3 - 2


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


@_record
class StageReport(NamedTuple):
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
        ("module_count", _is_index(plan.module_count) and 0 <= plan.module_count <= _MAX_MODULES),
        ("deck_weight_per_length", plan.deck_weight_per_length > 0),
        ("counterweight", plan.counterweight > 0),
        ("counterweight_lever", plan.counterweight_lever > 0),
        ("pillar_interval", _is_index(plan.pillar_interval) and plan.pillar_interval >= 1),
        ("safety_factor", plan.safety_factor >= 1),
    )
    for name, ok in checks:
        value = getattr(plan, name)
        if not ok or not _finite(value):
            raise InvalidPlan(f"{name} out of range: {value}")
    # A plan with an overhang needs a counterweight, and none can be 0 N.
    if plan.module_count and _minimal_counterweight(plan) == 0.0:
        raise InvalidPlan(f"deck_weight_per_length out of range: {plan.deck_weight_per_length}"
                          " (the minimal counterweight underflows to 0 N)")


def _finite(value) -> bool:
    """``math.isfinite``, False for an int past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _minimal_counterweight(plan: ErectionPlan) -> float:
    """The closed-form smallest counterweight keeping every pure-cantilever
    stage at the safety factor: W_min = safety * (w c^2 / 2) / lever at the
    longest such cantilever c, out to the first pillar or the far shore."""
    w, c = plan.deck_weight_per_length, min(plan.pillar_interval, plan.module_count) * plan.module_length
    return plan.safety_factor * (w * c * c / 2.0) / plan.counterweight_lever


class _Step(NamedTuple):
    """One stage of a plan, as a prefix of its finished deck: the deck out
    to module ``built``, pillars under the modules ``planted`` (every
    ``pillar_interval``-th, as a range) and, if ``landed``, a bearing under
    the tip. A plan's stages are its ``_Deck.steps``; no stage has a model
    of its own."""

    index: int
    built: int
    planted: Sequence[int]
    landed: bool
    cantilever_length: float  # m beyond the outermost support
    deck_length: float  # m of beams, the ballast span included

    @property
    def pure_cantilever(self) -> bool:
        return not self.planted and not self.landed

    @property
    def bearing_modules(self) -> Sequence[int]:
        """The modules whose tips bear on a pillar or on the far shore."""
        return (*self.planted, self.built) if self.landed else self.planted


class _Outcome(NamedTuple):
    """What judging a stage reads from its analysis."""

    max_utilization: float
    max_deflection: float
    ballast: float  # vertical reaction at the ballast node 1
    bearing: float  # the smallest vertical reaction of the other bearings


class _Deck(NamedTuple):
    """A plan's finished deck and its stages, built once: the deck is the
    only model a plan builds. It runs from the ballast node (x=+lever) out
    to the last module: its beams carry their self-weight, node 1 the
    ballast force, and it rests on the ballast and abutment supports alone.
    Stage ``built`` is the deck's first built + 2 nodes and loads and first
    built + 1 beams, with a vertical bearing under each of its
    ``bearing_modules``.

    The abutment clamps the deck at x=0 (pin plus rotation: the deck is
    held between the shore block and the ballast span); planted pillars,
    and the far shore once the tip lands, are ideal vertical bearings.
    """

    finished: StructureModel
    steps: tuple[_Step, ...]

    @classmethod
    def of(cls, plan: ErectionPlan) -> _Deck:
        mod, count = plan.module_length, plan.module_count
        nodes = (Node(1, quantize(plan.counterweight_lever), 0.0), Node(2, 0.0, 0.0),
                 *(Node(2 + k, quantize(-k * mod), 0.0) for k in range(1, count + 1)))
        beams = tuple(BeamElement(k, k, k + 1, DECK_MATERIAL, DECK_SECTION.name) for k in range(1, count + 2))
        loads = (NodalForce(1, fy=-plan.counterweight),
                 *(UniformLoad(b.id, plan.deck_weight_per_length) for b in beams))
        supports = (Support(1, restrain_y=True), Support(2, restrain_x=True, restrain_y=True, restrain_rz=True))
        finished = build_model(nodes=nodes, beams=beams, supports=supports, loads=loads,
                               materials=[MATERIAL_PRESETS[DECK_MATERIAL]], sections=[DECK_SECTION])
        lengths = list(accumulate(finished.arrays.length.tolist()))

        # Stage 0 is the counterweighted abutment alone; each later stage
        # either appends one module, plants the current tip as a riverbed
        # pillar, or lands the tip on the far shore.
        steps: list[_Step] = []

        def stage(built: int, planted: range, landed: bool, cantilever: float) -> None:
            steps.append(_Step(len(steps), built, planted, landed, cantilever, lengths[built]))

        every = plan.pillar_interval
        planted = range(0)
        stage(0, planted, False, 0.0)
        for built in range(1, count + 1):
            stage(built, planted, False, (built - (planted[-1] if planted else 0)) * mod)
            if built < count and built % every == 0:
                planted = range(every, built + 1, every)
                stage(built, planted, False, 0.0)
        if count > 0:
            stage(count, planted, True, 0.0)
        return cls(finished, tuple(steps))

    def outcomes(self) -> Iterator[_Outcome | None]:
        """Every stage analyzed, in order, None where it is a mechanism: one
        table for the finished deck, validated once, and one banded solve
        (``solver._analyze_prefixes``) per batch of ``_BATCH_ENTRIES`` // (3
        deck nodes) stages. Each row is its stage's own analysis, bit for
        bit, whatever the batch. The deck is a chain: its band and the
        stacked band have a half-bandwidth of 5, below the 16 from which
        ``solver._solve_blocks`` gives a padded block other bits. And the
        recovery runs each beam's products as one gemm with the batch's
        stages as columns, the gemm a single analysis runs with one column
        and a zero one (``solver._end_forces``). A batch's
        restraint mask is set from its stages' bearing modules flattened into
        one array, not from one object per (stage, bearing) pair.

        Every stage is valid exactly when the finished deck is: its nodes,
        beams and loads are prefixes of the deck's, each node of the prefix
        is on a beam of it, and its bearings add vertical ones to the deck's
        ballast and abutment supports. So the deck is validated once, and a
        deck that fails raises ``InvalidModel`` with its own report, as
        ``solver.analyze`` does for a model."""
        report = validate(self.finished)
        if not report.ok:
            raise InvalidModel(report)
        el, n = _elements(self.finished), 3 * len(self.finished.nodes)
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
            others = restrained[:, 1::3] | (np.arange(len(self.finished.nodes)) == 1)
            bearing = np.where(others, vertical, np.inf).min(axis=1)
            rows = zip(solved.tolist(), done.max_utilization.tolist(), done.max_deflection.tolist(),
                       vertical[:, 0].tolist(), bearing.tolist())
            yield from (_Outcome(*row) if ok else None for ok, *row in rows)


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

    No stage model is built: the stages are prefixes of the plan's deck,
    validated once and solved together by ``_Deck.outcomes`` with the
    results of analyzing each stage model alone. Each stage is reported
    at the plan's counterweight; at ``W_min`` only its verdict is taken
    (``_verdict``), until one stage fails there.
    """
    _check_plan(plan)
    deck = _Deck.of(plan)
    w_min = _minimal_counterweight(plan)
    reports, verified = [], True
    for step, outcome in zip(deck.steps, deck.outcomes()):
        reports.append(_judge(step, plan, outcome, plan.counterweight))
        if verified:
            verified = outcome is not None and _verdict(
                plan, _factor(step, plan, outcome, w_min), outcome.max_utilization) is Verdict.STABLE
    stable = all(r.verdict is Verdict.STABLE for r in reports)
    return PlanReport(tuple(reports), stable, w_min, verified)
