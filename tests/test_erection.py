import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import ponte.erection
from ponte import solver
from ponte.catalog import DECK_MATERIAL, DECK_SECTION
from ponte.erection import (
    ErectionPlan,
    Stage,
    Verdict,
    expand_plan,
    run_plan,
)
from ponte.errors import InvalidPlan
from ponte.model import (
    MATERIAL_PRESETS,
    BeamElement,
    NodalForce,
    Node,
    Support,
    UniformLoad,
    build_model,
)
from ponte.reporting import json_text, plan_report_dict
from ponte.textio import quantize

PLAN = ErectionPlan(
    module_length=2.0,
    module_count=4,
    deck_weight_per_length=500.0,
    counterweight=2000.0,
    counterweight_lever=1.0,
    pillar_interval=2,
    safety_factor=1.0,
)


class TestExpandPlan:
    def test_empty_plan_single_stage(self):
        stages = expand_plan(replace(PLAN, module_count=0))
        assert len(stages) == 1
        assert stages[0].cantilever_length == 0.0

    def test_four_module_sequence(self):
        stages = expand_plan(PLAN)
        # abutment, +1, +2, plant, +1, +2, land: 7 stages.
        assert len(stages) == 7
        assert [s.cantilever_length for s in stages] == [0.0, 2.0, 4.0, 0.0, 2.0, 4.0, 0.0]
        assert [s.pure_cantilever for s in stages] == [True, True, True, False, False, False, False]
        assert stages[3].planted_modules == (2,)
        assert stages[6].landed

    def test_counterweight_present_in_every_stage(self):
        for stage in expand_plan(PLAN):
            forces = [l for l in stage.model.loads if isinstance(l, NodalForce)]
            assert any(f.fy == -PLAN.counterweight for f in forces)
            ballast = stage.model.node(1)
            assert ballast.x == approx(PLAN.counterweight_lever)

    def test_stage_nodes_grow_monotonically(self):
        stages = expand_plan(PLAN)
        for a, b in zip(stages, stages[1:]):
            ids_a = {n.id for n in a.model.nodes}
            ids_b = {n.id for n in b.model.nodes}
            assert ids_a <= ids_b

    def test_invalid_plans_rejected(self):
        with pytest.raises(InvalidPlan):
            expand_plan(replace(PLAN, module_length=0.0))
        with pytest.raises(InvalidPlan):
            expand_plan(replace(PLAN, counterweight=-1.0))
        with pytest.raises(InvalidPlan):
            expand_plan(replace(PLAN, pillar_interval=0))
        with pytest.raises(InvalidPlan):
            expand_plan(replace(PLAN, safety_factor=0.5))


def stages_one_by_one(plan: ErectionPlan) -> tuple[Stage, ...]:
    """The stages of ``expand_plan`` with every model built on its own,
    as they were before the stages shared the plan's deck parts."""

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


class TestSharedDeckParts:
    # expand_plan builds a plan's nodes, beams and loads once and gives each
    # stage prefixes of them; the stages must be the ones built one by one.
    PLANS = [
        replace(PLAN, module_count=0),
        replace(PLAN, module_count=1),
        replace(PLAN, module_count=6, pillar_interval=1),
        replace(PLAN, module_count=3, pillar_interval=5),
        replace(PLAN, module_count=4, pillar_interval=3),
        replace(PLAN, module_length=1.37, module_count=9, counterweight_lever=2.71, deck_weight_per_length=1234.5),
    ]

    @pytest.mark.parametrize("plan", PLANS)
    def test_stages_equal_the_ones_built_one_by_one(self, plan):
        shared, reference = expand_plan(plan), stages_one_by_one(plan)
        assert len(shared) == len(reference)
        assert shared[-1].landed is (plan.module_count > 0)
        for a, b in zip(shared, reference):
            assert (a.index, a.cantilever_length, a.planted_modules, a.landed) == (
                b.index, b.cantilever_length, b.planted_modules, b.landed)
            assert [(n.id, n.x.hex(), n.y.hex()) for n in a.model.nodes] == [
                (n.id, n.x.hex(), n.y.hex()) for n in b.model.nodes]
            for part in ("beams", "supports", "loads", "materials", "sections", "cables"):
                assert getattr(a.model, part) == getattr(b.model, part), part
            assert a.model == b.model

    @pytest.mark.parametrize("plan", PLANS)
    def test_plan_report_is_unchanged(self, plan, monkeypatch):
        shared = json_text(plan_report_dict(run_plan(plan)))
        monkeypatch.setattr(ponte.erection, "expand_plan", stages_one_by_one)
        assert json_text(plan_report_dict(run_plan(plan))) == shared


class TestOverturningFactor:
    def test_hand_moment_balance(self):
        # w=500 N/m, c=4 m: overturning 4000 Nm; W=2000, a=1: resisting 2000.
        stage = expand_plan(PLAN)[2]
        assert stage.cantilever_length == 4.0
        assert run_plan(PLAN).stages[2].overturning_factor == approx(0.5, rel=1e-9)
        assert run_plan(replace(PLAN, counterweight=8000.0)).stages[2].overturning_factor == approx(2.0, rel=1e-9)

    def test_zero_overhang_is_infinite(self):
        assert math.isinf(run_plan(PLAN).stages[0].overturning_factor)

    def test_matches_formula_on_all_pure_stages(self):
        plan = replace(PLAN, counterweight=9000.0, module_count=6)
        for stage, report in zip(expand_plan(plan), run_plan(plan).stages):
            if stage.pure_cantilever and stage.cantilever_length > 0:
                c = stage.cantilever_length
                expected = plan.counterweight * plan.counterweight_lever / (plan.deck_weight_per_length * c * c / 2)
                assert report.overturning_factor == approx(expected, rel=1e-9)

    def test_planted_stage_counterweight_independent(self):
        # The ballast sits on its own bearing, so planted-stage reactions
        # do not change with W.
        plan_a = replace(PLAN, counterweight=8000.0)
        plan_b = replace(PLAN, counterweight=80000.0)
        assert not expand_plan(plan_a)[4].pure_cantilever
        assert run_plan(plan_a).stages[4].overturning_factor == run_plan(plan_b).stages[4].overturning_factor


class TestAnalyzeStage:
    def test_abutment_stage_stable_near_zero_deflection(self):
        report = run_plan(PLAN).stages[0]
        assert report.verdict is Verdict.STABLE
        assert report.max_deflection < 1e-3

    def test_two_module_tip_deflection_oracle(self):
        plan = replace(PLAN, counterweight=50000.0)
        stage = expand_plan(plan)[2]
        report = run_plan(plan).stages[2]
        assert report.verdict is Verdict.STABLE
        E, I = 10e9, 4.5e-4
        w, c = plan.deck_weight_per_length, stage.cantilever_length
        assert report.max_deflection == approx(w * c**4 / (8 * E * I), rel=1e-9)

    def test_undersized_counterweight_fails_at_predicted_stage(self):
        # W*a < w*c^2/2 first at c=4 m, i.e. stage 2.
        report = run_plan(PLAN)
        assert not report.stable
        assert report.first_failure == 2
        assert report.stages[2].verdict is Verdict.OVERTURNS
        assert report.stages[1].verdict is Verdict.STABLE

    def test_overstressed_verdict(self):
        plan = replace(
            PLAN,
            module_length=6.0,
            module_count=2,
            deck_weight_per_length=30000.0,
            counterweight=4e6,
            counterweight_lever=2.0,
        )
        reports = run_plan(plan).stages
        assert any(r.verdict is Verdict.OVERSTRESSED for r in reports)


class TestRunPlan:
    def test_short_plan_trivially_stable(self):
        plan = replace(PLAN, module_count=1, counterweight=5000.0)
        report = run_plan(plan)
        assert report.stable
        assert report.minimal_counterweight < 5000.0

    def test_w_min_hand_value(self):
        # Governing pure stage: c = 4 m -> W_min = 1 * (500*16/2) / 1 = 4000 N.
        report = run_plan(PLAN)
        assert report.minimal_counterweight == approx(4000.0, rel=1e-12)
        assert report.minimal_verified

    def test_w_min_sharp(self):
        w_min = run_plan(PLAN).minimal_counterweight
        assert run_plan(replace(PLAN, counterweight=w_min * (1 + 1e-6))).stable
        assert not run_plan(replace(PLAN, counterweight=w_min * (1 - 1e-6))).stable

    def test_doubling_lever_halves_w_min(self):
        w1 = run_plan(PLAN).minimal_counterweight
        w2 = run_plan(replace(PLAN, counterweight_lever=2.0)).minimal_counterweight
        assert w2 == w1 / 2

    def test_safety_factor_scales_w_min(self):
        w1 = run_plan(PLAN).minimal_counterweight
        w15 = run_plan(replace(PLAN, safety_factor=1.5)).minimal_counterweight
        assert w15 == approx(1.5 * w1, rel=1e-12)

    def test_increasing_w_never_destabilizes(self):
        verdicts = []
        for w in (1000.0, 2000.0, 4000.0, 8000.0, 64000.0):
            report = run_plan(replace(PLAN, counterweight=w))
            verdicts.append([r.verdict for r in report.stages])
        for prev, nxt in zip(verdicts, verdicts[1:]):
            for a, b in zip(prev, nxt):
                if a is Verdict.STABLE:
                    assert b is Verdict.STABLE

    def test_one_solve_per_stage(self, monkeypatch):
        calls = []
        solve = ponte.erection.analyze
        monkeypatch.setattr(ponte.erection, "analyze", lambda model: calls.append(model) or solve(model))
        run_plan(PLAN)
        assert len(calls) == len(expand_plan(PLAN))

    def test_counterweight_moves_only_the_ballast_reaction(self):
        # The premise of the single solve: the ballast bears on node 1's
        # restrained vertical dof, so it changes no displacement and shifts
        # only node 1's vertical reaction, one for one.
        light, heavy = PLAN, replace(PLAN, counterweight=9000.0)
        for stage_l, stage_h in zip(expand_plan(light), expand_plan(heavy)):
            a, b = solver.analyze(stage_l.model), solver.analyze(stage_h.model)
            assert np.array_equal(a.displacements, b.displacements)
            assert a.utilization == b.utilization
            assert b.reactions[1][1] - a.reactions[1][1] == approx(7000.0, rel=1e-12)
            assert {n: r for n, r in a.reactions.items() if n != 1} == {
                n: r for n, r in b.reactions.items() if n != 1
            }

    @pytest.mark.parametrize(
        "plan,verified",
        [
            (PLAN, True),
            # A pillar every three modules: the landed stage asks a bearing
            # to hold down, so the plan fails even at W_min.
            (replace(PLAN, module_count=4, pillar_interval=3), False),
            (replace(PLAN, module_count=6, pillar_interval=1), True),
            (replace(PLAN, module_count=5, safety_factor=1.5), True),
            (replace(PLAN, module_count=3, counterweight=50000.0), True),
        ],
    )
    def test_minimal_verified_matches_a_solve_at_w_min(self, plan, verified):
        # The W_min verdict is derived from the solve at the plan's own
        # counterweight; a full run at W_min must agree with it.
        report = run_plan(plan)
        assert report.minimal_verified is verified
        assert run_plan(replace(plan, counterweight=report.minimal_counterweight)).stable is verified

    def test_unverified_plan_fails_at_any_counterweight(self):
        # Node 2 is clamped, so the ballast reaction at node 1 is never the
        # hold-down one: more counterweight cannot save the landed stage.
        plan = replace(PLAN, counterweight=9000.0, pillar_interval=3)
        base = run_plan(plan)
        assert not base.minimal_verified
        w_min = base.minimal_counterweight
        for counterweight in (w_min, 10.0 * w_min, 1e7):
            report = run_plan(replace(plan, counterweight=counterweight))
            assert not report.stable
            assert report.stages[-1].verdict is Verdict.OVERTURNS
