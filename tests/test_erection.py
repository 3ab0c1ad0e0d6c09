import importlib.util
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

import ponte.erection
from ponte import solver
from ponte.erection import (
    ErectionPlan,
    PlanReport,
    StageReport,
    Verdict,
    _Deck,
    run_plan,
)
from ponte.errors import InvalidModel, InvalidPlan
from ponte.model import NodalForce, Support, validate
from ponte.reporting import write_plan_report

from oracles import plan_report_dict, run_plan_one_by_one, stages_one_by_one

PLAN = ErectionPlan(
    module_length=2.0,
    module_count=4,
    deck_weight_per_length=500.0,
    counterweight=2000.0,
    counterweight_lever=1.0,
    pillar_interval=2,
    safety_factor=1.0,
)


def steps(plan: ErectionPlan):
    """The plan's stages, in order, before any model is built."""
    return _Deck.of(plan).steps


def stage_models(plan: ErectionPlan) -> list:
    """Each stage's model, built on its own."""
    return [stage.model for stage in stages_one_by_one(plan)]


class TestExpandPlan:
    # The stage sequence of a plan (_Deck.steps) and the stage models.
    def test_empty_plan_single_stage(self):
        stages = steps(replace(PLAN, module_count=0))
        assert len(stages) == 1
        assert stages[0].cantilever_length == 0.0

    def test_four_module_sequence(self):
        stages = steps(PLAN)
        # abutment, +1, +2, plant, +1, +2, land: 7 stages.
        assert len(stages) == 7
        assert [s.index for s in stages] == list(range(7))
        assert [s.cantilever_length for s in stages] == [0.0, 2.0, 4.0, 0.0, 2.0, 4.0, 0.0]
        assert [s.pure_cantilever for s in stages] == [True, True, True, False, False, False, False]
        assert tuple(stages[3].planted) == (2,)
        assert stages[6].landed

    def test_counterweight_present_in_every_stage(self):
        for model in stage_models(PLAN):
            forces = [l for l in model.loads if isinstance(l, NodalForce)]
            assert any(f.fy == -PLAN.counterweight for f in forces)
            ballast = model.node(1)
            assert ballast.x == approx(PLAN.counterweight_lever)

    def test_stage_nodes_grow_monotonically(self):
        models = stage_models(PLAN)
        for a, b in zip(models, models[1:]):
            ids_a = {n.id for n in a.nodes}
            ids_b = {n.id for n in b.nodes}
            assert ids_a <= ids_b

    def test_invalid_plans_rejected(self):
        with pytest.raises(InvalidPlan):
            run_plan(replace(PLAN, module_length=0.0))
        with pytest.raises(InvalidPlan):
            run_plan(replace(PLAN, counterweight=-1.0))
        with pytest.raises(InvalidPlan):
            run_plan(replace(PLAN, pillar_interval=0))
        with pytest.raises(InvalidPlan):
            run_plan(replace(PLAN, safety_factor=0.5))

    @pytest.mark.parametrize("field, value", [("module_count", 3.0), ("pillar_interval", 1.5)])
    def test_a_count_that_is_not_an_integer_is_rejected(self, field, value):
        # 3.0 modules would reach range() and raise a bare TypeError; an
        # interval of 1.5 would plant no pillar and misplace W_min's
        # cantilever.
        with pytest.raises(InvalidPlan) as exc:
            run_plan(replace(PLAN, **{field: value}))
        assert str(exc.value) == f"{field} out of range: {value}"

    @pytest.mark.parametrize("field", ["module_count", "pillar_interval", "deck_weight_per_length"])
    def test_an_int_past_the_float_range_is_rejected(self, field):
        # No float holds 10**400: the finiteness check must not convert it.
        with pytest.raises(InvalidPlan) as exc:
            run_plan(replace(PLAN, **{field: 10**400}))
        assert str(exc.value) == f"{field} out of range: {10**400}"

    @pytest.mark.parametrize("count", [10_921, 100_000_000])
    def test_a_deck_past_one_batch_is_rejected(self, count):
        # Its stages would be built and analyzed for hours.
        with pytest.raises(InvalidPlan) as exc:
            run_plan(replace(PLAN, module_count=count))
        assert str(exc.value) == f"module_count out of range: {count}"

    def test_the_longest_deck_of_one_batch_is_accepted(self):
        # The finished deck's 3 (10 920 + 2) dofs fill one batch; the plan
        # is checked, not run.
        plan = replace(PLAN, module_count=10_920)
        assert 3 * (plan.module_count + 2) <= ponte.erection._BATCH_ENTRIES < 3 * (plan.module_count + 3)
        ponte.erection._check_plan(plan)


class TestSharedDeckParts:
    # _Deck.of builds a plan's finished deck once, and each stage is a
    # prefix of it: the stages must be the ones built one by one.
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
        deck, reference = _Deck.of(plan), stages_one_by_one(plan)
        assert len(deck.steps) == len(reference)
        assert deck.steps[-1].landed is (plan.module_count > 0)
        for a, b in zip(deck.steps, reference):
            assert (a.index, a.cantilever_length, tuple(a.planted), a.landed, a.pure_cantilever) == (
                b.index, b.cantilever_length, b.planted, b.landed, b.pure_cantilever)
            # The stage model is the deck's first built + 2 nodes and loads
            # and first built + 1 beams, with a bearing under each of the
            # step's bearing modules.
            finished, model = deck.finished, b.model
            assert [(n.id, n.x.hex(), n.y.hex()) for n in finished.nodes[: a.built + 2]] == [
                (n.id, n.x.hex(), n.y.hex()) for n in model.nodes]
            assert finished.beams[: a.built + 1] == model.beams
            assert set(finished.loads[: a.built + 2]) == set(model.loads)
            bearings = (Support(2 + m, restrain_y=True) for m in a.bearing_modules)
            assert {*finished.supports, *bearings} == set(model.supports)
            assert (finished.materials, finished.sections, finished.cables) == (
                model.materials, model.sections, model.cables)
            assert a.deck_length.hex() == sum(model.element_length(e) for e in model.beams).hex()

    @pytest.mark.parametrize("plan", PLANS)
    def test_plan_report_is_unchanged(self, plan):
        # run_plan builds no stage model; its report is the one of the
        # stage models built and analyzed one by one.
        assert report_bytes(run_plan(plan)) == report_bytes(run_plan_one_by_one(plan))


report_bytes = write_plan_report


def plan_around_w_min(module, count, w, lever, interval, safety, side) -> ErectionPlan:
    """A plan whose counterweight is ``side`` times its closed-form W_min
    (at least 1 N): the longest pure cantilever is min(interval, count)
    modules."""
    c = min(interval, count) * module
    w_min = safety * w * c * c / (2.0 * lever)
    return ErectionPlan(module, count, w, side * max(w_min, 1.0), lever, interval, safety)


plans = st.builds(
    plan_around_w_min,
    module=st.floats(0.3, 6.0),
    count=st.one_of(st.sampled_from([0, 1, 60]), st.integers(0, 60)),
    w=st.one_of(st.floats(100.0, 5000.0), st.floats(5000.0, 60000.0)),
    lever=st.floats(0.5, 4.0),
    interval=st.integers(1, 6),
    safety=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
    side=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
)


class TestOneSolvePerPlan:
    # run_plan solves every stage of a plan in one banded factorization of
    # one element table, and solves each stage again on its own if the
    # pivot or residual rule rejects any block of the batch; its bytes are
    # the oracle's.
    @given(plans)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_report_bytes_equal_the_stage_by_stage_oracle(self, plan):
        assert report_bytes(run_plan(plan)) == report_bytes(run_plan_one_by_one(plan))

    @staticmethod
    def batches(monkeypatch) -> list[int]:
        """The stage count of each batch solve run_plan makes from now on."""
        counts = []
        solve_blocks = solver._solve_blocks
        monkeypatch.setattr(solver, "_solve_blocks",
                            lambda ab, F, starts: counts.append(len(starts)) or solve_blocks(ab, F, starts))
        return counts

    @pytest.mark.parametrize("plan", [
        ErectionPlan(2.0, 120, 500.0, 1e6, 2.0, 1),
        ErectionPlan(1.37, 160, 1234.5, 2.5e5, 2.71, 4),
        ErectionPlan(1.5, 240, 900.0, 3e4, 1.5, 3, 1.5),
    ])
    def test_long_plans_equal_the_stage_by_stage_oracle(self, plan, monkeypatch):
        # Beyond 60 modules the stages are solved in several batches.
        batches = self.batches(monkeypatch)
        report = run_plan(plan)
        assert len(batches) > 1 and sum(batches) == len(report.stages)
        assert report_bytes(report) == report_bytes(run_plan_one_by_one(plan))

    @pytest.mark.parametrize("entries, expected", [
        (1, [1] * 69), (7 * 108, [7] * 9 + [6]), (100 * 108, [69]),
    ])
    def test_batch_boundaries_leave_the_bytes(self, entries, expected, monkeypatch):
        # 34 modules planted one by one: 69 stages of 36 nodes (108 dofs).
        plan = replace(PLAN, module_count=34, pillar_interval=1, counterweight=9000.0)
        reference = report_bytes(run_plan_one_by_one(plan))
        monkeypatch.setattr(ponte.erection, "_BATCH_ENTRIES", entries)
        batches = self.batches(monkeypatch)
        assert report_bytes(run_plan(plan)) == reference
        assert batches == expected

    @staticmethod
    def widths(plan) -> tuple[int, list[int]]:
        """The finished deck's half-bandwidth and each batch's stacked one."""
        stacked = []
        solve_blocks = solver._solve_blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_solve_blocks",
                          lambda ab, F, starts: stacked.append(len(ab) - 1) or solve_blocks(ab, F, starts))
            run_plan(plan)
        return solver._elements(_Deck.of(plan).finished).bandwidth, stacked

    # Each batch row is its stage's own analysis only below a stacked
    # half-bandwidth of 16: from there on _solve_blocks gives a block padded
    # to the stack's width other bits than alone.
    @given(plans)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_the_bands_stay_narrower_than_16(self, plan):
        deck, stacked = self.widths(plan)
        assert deck < 16 and all(width <= deck for width in stacked)

    def test_the_benchmark_plans_stay_narrower_than_16(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert len(workloads.ERECTION_SHAPES) == 7
        for shape in workloads.ERECTION_SHAPES:
            plan = ErectionPlan(shape["module"], shape["count"], shape["w"], workloads.minimal_counterweight(shape),
                                shape["lever"], shape["interval"], shape["safety"])
            deck, stacked = self.widths(plan)
            assert deck == 5 and stacked and all(width <= 5 for width in stacked)

    @given(plans)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_stage_is_valid(self, plan):
        # What lets run_plan validate only the finished deck.
        assert validate(_Deck.of(plan).finished).ok
        for stage in stages_one_by_one(plan):
            assert validate(stage.model).ok, stage.index

    @pytest.mark.parametrize("plan, first", [
        (ErectionPlan(1e-9, 5, 500, 1e4, 2, 2), 4),
        # Stage by stage, the about 1 000 stages before beam 1 003 are valid.
        (ErectionPlan(1.000001e-9, 1500, 500, 1e4, 2, 2), 1003),
    ])
    def test_an_invalid_deck_raises_its_own_report(self, plan, first, monkeypatch):
        # The finished deck is the only model validated: a deck that fails
        # raises its report, every short beam of it, in one validate call.
        expected = validate(_Deck.of(plan).finished)
        calls = []
        monkeypatch.setattr(ponte.erection, "validate", lambda model: calls.append(model) or validate(model))
        with pytest.raises(InvalidModel) as got:
            run_plan(plan)
        assert len(calls) == 1
        assert got.value.report == expected and not expected.ok
        assert {issue.code for issue in expected} == {"ZeroLengthElement"}
        assert expected.issues[0].location == f"beam {first}"

    def test_the_stages_of_a_long_deck_hold_no_tuple_per_stage(self):
        # Each stage's planted modules are a range into the deck: the stage
        # list grows with the modules, not with their square.
        plan = ErectionPlan(2, 4000, 500, 1e9, 2, 1)
        tracemalloc.start()
        try:
            deck = _Deck.of(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(deck.steps) == 2 * 4000 + 1 and tuple(deck.steps[-1].planted) == tuple(range(1, 4000))
        assert peak < 10e6

    @staticmethod
    def resolved(monkeypatch) -> list[int]:
        """The size of each block ``solver._solve`` solves from now on."""
        sizes = []
        solve = solver._solve
        monkeypatch.setattr(solver, "_solve", lambda ab, F, names: sizes.append(len(F)) or solve(ab, F, names))
        return sizes

    @staticmethod
    def free_dofs(plan) -> list[int]:
        """Each stage's count of free dofs, from its own model."""
        return [len(solver._elements(stage.model).dofs) for stage in stages_one_by_one(plan)]

    @pytest.mark.parametrize("every", [1, 3])
    def test_stages_the_residual_rule_rejects_are_analyzed_alone(self, every, monkeypatch):
        # The batch falls whole: rejecting every stage, or one in three,
        # sends every stage to its own solve.
        plan = replace(PLAN, module_count=9, counterweight=9000.0)
        sizes = self.free_dofs(plan)
        rejected = list(range(0, len(sizes), every))
        reference = report_bytes(run_plan_one_by_one(plan))
        balanced = solver._balanced

        def rejecting(residual, F, starts):
            ok = balanced(residual, F, starts)
            if len(starts) == len(sizes):  # the batch, not a stage's own solve
                ok[rejected] = False
            return ok

        monkeypatch.setattr(solver, "_balanced", rejecting)
        resolved = self.resolved(monkeypatch)
        assert report_bytes(run_plan(plan)) == reference
        assert resolved == sizes

    def test_stages_the_pivot_rule_rejects_are_analyzed_alone(self, monkeypatch):
        # The first factor the batch checks has all its pivots rejected;
        # every later check, the stages' own solves included, is the rule.
        plan = replace(PLAN, module_count=9, counterweight=9000.0)
        reference = report_bytes(run_plan_one_by_one(plan))
        small_pivots = solver._small_pivots
        calls = []

        def rejecting(c, diag):
            calls.append(len(diag))
            return np.ones(len(diag), dtype=bool) if len(calls) == 1 else small_pivots(c, diag)

        monkeypatch.setattr(solver, "_small_pivots", rejecting)
        resolved = self.resolved(monkeypatch)
        assert report_bytes(run_plan(plan)) == reference
        assert resolved == self.free_dofs(plan)

    @pytest.mark.parametrize("plan", [
        ErectionPlan(1e100, 3, 1.0, 1e-300, 2.0, 1),
        ErectionPlan(1e100, 7, 1.0, 1e-300, 1e-8, 1),
    ])
    def test_stages_an_overflowing_neighbour_rejects_are_solved_alone(self, plan, monkeypatch):
        # The landed stage's solution overflows, and dpbtrs' back
        # substitution carries 0 * inf = NaN into the earlier blocks: the
        # batch falls, and each stage is solved again on its own.
        reference, sizes = report_bytes(run_plan_one_by_one(plan)), self.free_dofs(plan)
        fallen, models = [], []
        solve_blocks, build_model = solver._solve_blocks, ponte.erection.build_model

        def batch(ab, F, starts):
            u = solve_blocks(ab, F, starts)
            if len(starts) > 1:
                fallen.append(u is None)
            return u

        monkeypatch.setattr(solver, "_solve_blocks", batch)
        monkeypatch.setattr(ponte.erection, "build_model", lambda **parts: models.append(1) or build_model(**parts))
        resolved = self.resolved(monkeypatch)
        report = run_plan(plan)
        assert report_bytes(report) == reference
        assert report.stages[0].verdict is Verdict.STABLE
        assert fallen == [True] and resolved == sizes
        assert len(models) == 1


class TestOverturningFactor:
    def test_hand_moment_balance(self):
        # w=500 N/m, c=4 m: overturning 4000 Nm; W=2000, a=1: resisting 2000.
        assert steps(PLAN)[2].cantilever_length == 4.0
        assert run_plan(PLAN).stages[2].overturning_factor == approx(0.5, rel=1e-9)
        assert run_plan(replace(PLAN, counterweight=8000.0)).stages[2].overturning_factor == approx(2.0, rel=1e-9)

    def test_zero_overhang_is_infinite(self):
        assert math.isinf(run_plan(PLAN).stages[0].overturning_factor)

    def test_an_overturning_moment_that_underflows_is_infinite(self):
        # w*c^2/2 of the smallest subnormal w is 0 at the 0.5 and 1 m
        # overhangs: those stages cannot tip, and none divides by its zero
        # moment. At 1.5 m it is not 0, so W_min is positive.
        plan = ErectionPlan(0.5, 10, 5e-324, 3.0, 3.0, 3, 1.5)
        assert [s.cantilever_length for s in steps(plan) if s.pure_cantilever] == [0.0, 0.5, 1.0, 1.5]
        report = run_plan(plan)
        assert report.stable and report.minimal_counterweight == 5e-324
        assert all(math.isinf(s.overturning_factor) for s in report.stages)

    def test_a_minimal_counterweight_that_underflows_is_rejected(self):
        # Below 1.5 m every w*c^2/2 of w = 5e-324 underflows, so W_min would
        # be 0 N, a counterweight no plan can hold: the deck weight is out
        # of range. With no overhang (COUNT=0) W_min stays 0 and the plan
        # stands.
        with pytest.raises(InvalidPlan) as exc:
            run_plan(ErectionPlan(0.5, 10, 5e-324, 3.0, 3.0, 2, 1.5))
        assert str(exc.value) == (
            "deck_weight_per_length out of range: 5e-324 (the minimal counterweight underflows to 0 N)")
        assert run_plan(replace(PLAN, module_count=0)).minimal_counterweight == 0.0

    def test_a_plan_of_1e300_newtons_keeps_its_moment_balance(self):
        # Forces of 1e300 N square past the largest double. The residual rule
        # scales before it squares, so no overflow warning is raised, and
        # the stages balance as at 1 N/m: the same overturning factors and
        # overturning verdicts, and utilizations and deflections scaled by
        # 1e300 (which overstresses every stage).
        small = ErectionPlan(2.0, 6, 1.0, 1e5, 2.0, 3, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = run_plan(replace(small, deck_weight_per_length=1e300, counterweight=1e305))
        small = run_plan(small)
        assert len(big.stages) == len(small.stages) == 9
        for a, b in zip(big.stages, small.stages):
            assert a.overturning_factor == approx(b.overturning_factor, rel=1e-12)
            assert (a.verdict is Verdict.OVERTURNS) == (b.verdict is Verdict.OVERTURNS)
            assert a.max_utilization == approx(1e300 * b.max_utilization, rel=1e-12)
            assert a.max_deflection == approx(1e300 * b.max_deflection, rel=1e-12)
        assert big.minimal_counterweight == approx(1e300 * small.minimal_counterweight, rel=1e-12)

    def test_matches_formula_on_all_pure_stages(self):
        plan = replace(PLAN, counterweight=9000.0, module_count=6)
        for stage, report in zip(steps(plan), run_plan(plan).stages):
            if stage.pure_cantilever and stage.cantilever_length > 0:
                c = stage.cantilever_length
                expected = plan.counterweight * plan.counterweight_lever / (plan.deck_weight_per_length * c * c / 2)
                assert report.overturning_factor == approx(expected, rel=1e-9)

    def test_planted_stage_counterweight_independent(self):
        # The ballast sits on its own bearing, so planted-stage reactions
        # do not change with W.
        plan_a = replace(PLAN, counterweight=8000.0)
        plan_b = replace(PLAN, counterweight=80000.0)
        assert not steps(plan_a)[4].pure_cantilever
        assert run_plan(plan_a).stages[4].overturning_factor == run_plan(plan_b).stages[4].overturning_factor


class TestAnalyzeStage:
    def test_abutment_stage_stable_near_zero_deflection(self):
        report = run_plan(PLAN).stages[0]
        assert report.verdict is Verdict.STABLE
        assert report.max_deflection < 1e-3

    def test_two_module_tip_deflection_oracle(self):
        plan = replace(PLAN, counterweight=50000.0)
        stage = steps(plan)[2]
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

    @pytest.mark.parametrize("count", range(8))
    def test_w_min_is_taken_at_the_longest_pure_cantilever_stage(self, count):
        # The closed form reads the longest pure cantilever off the plan; it
        # is the largest w*c^2/2 over the plan's stages, bit for bit.
        for interval in range(1, 10):
            plan = replace(PLAN, module_length=0.7, module_count=count, pillar_interval=interval, safety_factor=1.3)
            worst = max(plan.deck_weight_per_length * s.cantilever_length * s.cantilever_length / 2.0
                        for s in steps(plan) if s.pure_cantilever)
            assert run_plan(plan).minimal_counterweight == 1.3 * worst / plan.counterweight_lever

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

    def test_one_table_and_one_factorization_per_plan(self, monkeypatch):
        calls = {"_elements": 0, "dpbtrf": 0, "_solve": 0}

        def counting(module, name):
            original = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        counting(solver, "_elements")
        counting(ponte.erection, "_elements")
        counting(solver, "dpbtrf")
        counting(solver, "_solve")
        plan = replace(PLAN, module_count=60, pillar_interval=1, counterweight=9000.0)
        assert len(run_plan(plan).stages) == 121
        assert calls == {"_elements": 1, "dpbtrf": 1, "_solve": 0}

    def test_counterweight_moves_only_the_ballast_reaction(self):
        # The premise of the single solve: the ballast bears on node 1's
        # restrained vertical dof, so it changes no displacement and shifts
        # only node 1's vertical reaction, one for one.
        light, heavy = PLAN, replace(PLAN, counterweight=9000.0)
        for stage_l, stage_h in zip(stages_one_by_one(light), stages_one_by_one(heavy)):
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

    @pytest.mark.parametrize("w, lever, stable", [(500.0, 1.0, True), (1e5, 10.0, False)])
    def test_a_plan_without_modules_holds_at_w_min_only_if_its_stage_stands(self, w, lever, stable):
        # W_min is 0 N without an overhang, and no counterweight lowers the
        # ballast span's utilization.
        report = run_plan(ErectionPlan(2.0, 0, w, 1000.0, lever))
        assert report.minimal_counterweight == 0.0
        assert report.stable is report.minimal_verified is stable
        assert report_bytes(report) == report_bytes(run_plan_one_by_one(ErectionPlan(2.0, 0, w, 1000.0, lever)))

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


# Figures a hand-built report can hold: finite floats of every size, and
# the infinite ones the report writes as null.
_FIGURES = st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, 1e308])
_REPORTS = st.builds(
    PlanReport,
    stages=st.lists(st.builds(StageReport, index=st.integers(0, 10**4), overturning_factor=_FIGURES,
                              max_utilization=_FIGURES, max_deflection=_FIGURES, verdict=st.sampled_from(Verdict)),
                    max_size=4).map(tuple),
    stable=st.booleans(),
    minimal_counterweight=_FIGURES,
    minimal_verified=st.booleans(),
)
# What run_plan reports for a lone stage whose model is a mechanism.
_MECHANISM = PlanReport((ponte.erection._judge(_Deck.of(PLAN).steps[0], PLAN, None, PLAN.counterweight),),
                        False, math.inf, False)


class TestPlanReportText:
    # write_plan_report fills one template per stage; its bytes are those
    # of json.dumps of the stage-by-stage dictionary in tests/oracles.py.
    @given(plans.map(run_plan) | _REPORTS)
    @example(_MECHANISM)
    @example(run_plan(replace(PLAN, module_count=0)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bytes_of_json_dumps_of_the_oracle(self, report):
        assert write_plan_report(report) == json.dumps(plan_report_dict(report), indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("field", ["overturning_factor", "max_utilization", "max_deflection", None])
    def test_nan_raises_the_error_json_text_raises(self, field):
        # The C encoder's text, as every report writer raises it. None puts
        # the NaN in the minimal counterweight.
        stage = StageReport(0, 1.0, 0.5, 0.1, Verdict.STABLE)
        report = PlanReport((stage,), True, 2.0, True)
        if field is None:
            report = replace(report, minimal_counterweight=math.nan)
        else:
            report = replace(report, stages=(stage._replace(**{field: math.nan}),))
        with pytest.raises(ValueError) as got:
            write_plan_report(report)
        assert str(got.value) == "Out of range float values are not JSON compliant"

    def test_a_stage_report_is_a_record(self):
        # Equal only to stage reports, and unordered, as the model records.
        stage = StageReport(0, 1.0, 0.5, 0.1, Verdict.STABLE)
        assert stage != tuple(stage) and not stage == tuple(stage)
        assert stage == StageReport(*stage) and hash(stage) == hash(StageReport(*stage))
        for other in (stage._replace(index=1), tuple(stage)):
            with pytest.raises(TypeError):
                stage < other
