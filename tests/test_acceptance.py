"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed by the hook in conftest. Total runtime is a few
seconds on commodity hardware.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from ponte import catalog
from ponte.catalog import PresetId, deck_beam_ids, deck_node_ids, generate, generate_preset, presets, strip_to_bare_deck, with_deck_udl
from ponte.cli import main
from ponte.erection import ErectionPlan, Verdict, _Deck, run_plan
from ponte.model import (
    BeamElement,
    CableElement,
    Material,
    NodalForce,
    Node,
    Section,
    SelfWeight,
    Support,
    UniformLoad,
    build_model,
    self_weight_loads,
)
from ponte.solver import _elements, analyze, tension_only_analyze
from ponte.textio import parse_model_file, serialize_model

from oracles import dense_system

E, I_DECK = 10e9, 4.5e-4
DECK_UDL = 2000.0  # N/m, the uniform deck load used across A1


def total_applied_load(model) -> float:
    """Magnitude of the total vertical load on the model."""
    total = 0.0
    for load in model.loads:
        if isinstance(load, SelfWeight):
            total += sum(-f.fy for f in self_weight_loads(model, load.g))
        elif isinstance(load, UniformLoad):
            total += abs(load.w) * model.element_length(model.beam(load.beam))
        elif isinstance(load, NodalForce):
            total += abs(load.fy)
    return total


# ---------------------------------------------------------------------------
# A1 - null-cable reproduction


@pytest.mark.parametrize(
    "preset_id",
    [PresetId.LEONARDO_DRAWING, PresetId.FLORENCE, PresetId.GRANDE, PresetId.AMBOISE_SCALE],
    ids=lambda p: p.value,
)
def test_a1_null_cable(preset_id):
    # Known red for AMBOISE_SCALE: its central prop creates a hogging deck
    # region where the flanking posts and ropes genuinely work as a crane
    # (tension ~4e-2 of total load, not <=1e-6), so the free-span null-rope
    # statement does not extend to that preset. The mechanics is asserted
    # positively in test_catalog.py::TestOrderings::
    # test_mid_support_prop_makes_nearby_ropes_structural.
    model = with_deck_udl(generate_preset(preset_id), DECK_UDL)
    result = analyze(model)
    total = total_applied_load(model)

    # Every rope carries (essentially) nothing.
    assert result.total_cable_tension <= 1e-6 * total

    # Pillars show no "color change" next to the deck.
    deck_beams = set(deck_beam_ids(model))
    pillar_util = max(result.utilization[b.id] for b in model.beams if b.id not in deck_beams)
    deck_util = max(result.utilization[bid] for bid in deck_beams)
    assert pillar_util <= 0.01 * deck_util

    # The deck deflects exactly as if the superstructure were dead weight.
    oracle = analyze(strip_to_bare_deck(model))
    scale = oracle.max_deflection
    for nid in deck_node_ids(model):
        assert result.node_displacements[nid][1] == approx(
            oracle.node_displacements[nid][1], rel=1e-9, abs=1e-9 * scale
        )


# ---------------------------------------------------------------------------
# A2 - analytic beam oracles


def test_a2_analytic_beam_oracles():
    mat = Material("t", E, 0.0, 10e6)
    sec = Section("d", 0.06, I_DECK, 0.30)

    def ss(loads):
        return build_model(
            [Node(1, 0, 0), Node(2, 6, 0), Node(3, 12, 0)], [mat], [sec],
            [BeamElement(1, 1, 2, "t", "d"), BeamElement(2, 2, 3, "t", "d")],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(3, restrain_y=True)],
            loads=loads,
        )

    w, P, L = 2000.0, 10000.0, 12.0
    r = analyze(ss([UniformLoad(1, w), UniformLoad(2, w)]))
    assert abs(r.node_displacements[2][1]) == approx(5 * w * L**4 / (384 * E * I_DECK), rel=1e-9)
    assert abs(r.member_forces[1].moment_j) == approx(w * L**2 / 8, rel=1e-9)

    r = analyze(ss([NodalForce(2, fy=-P)]))
    assert abs(r.node_displacements[2][1]) == approx(P * L**3 / (48 * E * I_DECK), rel=1e-9)

    Lc = 3.0
    cant = build_model(
        [Node(1, 0, 0), Node(2, Lc, 0)], [mat], [sec],
        [BeamElement(1, 1, 2, "t", "d")],
        supports=[Support(1, restrain_x=True, restrain_y=True, restrain_rz=True)],
        loads=[NodalForce(2, fy=-P)],
    )
    r = analyze(cant)
    assert abs(r.node_displacements[2][1]) == approx(P * Lc**3 / (3 * E * I_DECK), rel=1e-9)


# ---------------------------------------------------------------------------
# A3 - tension-only complementarity on the king-post toy


def _kingpost(direction: float):
    mat = Material("t", E, 0.0, 10e6)
    rope = Material("r", 1.5e9, 0.0, 20e6)
    sec = Section("d", 0.06, I_DECK, 0.30)
    L, h = 12.0, 1.5
    return build_model(
        [Node(1, 0, 0), Node(2, L / 2, 0), Node(3, L, 0), Node(4, L / 2, h)],
        [mat, rope], [sec],
        [
            BeamElement(1, 1, 2, "t", "d"),
            BeamElement(2, 2, 3, "t", "d"),
            BeamElement(3, 2, 4, "t", "d", pin_i=True),
        ],
        cables=[CableElement(4, 4, 1, "r", 5e-4), CableElement(5, 4, 3, "r", 5e-4)],
        supports=[Support(1, restrain_x=True, restrain_y=True), Support(3, restrain_y=True)],
        loads=[NodalForce(2, fy=direction * 10000.0)],
    )


def test_a3_kingpost_complementarity():
    down = tension_only_analyze(_kingpost(-1.0))
    assert down.active_cables == frozenset()
    assert down.iterations_used <= 5
    assert abs(down.node_displacements[2][1]) == approx(
        10000.0 * 12.0**3 / (48 * E * I_DECK), rel=1e-9
    )

    up = tension_only_analyze(_kingpost(+1.0))
    assert up.active_cables == frozenset({4, 5})
    assert up.iterations_used <= 5
    t4, t5 = up.member_forces[4].axial, up.member_forces[5].axial
    assert t4 > 0 and t5 > 0
    assert t4 == approx(t5, rel=1e-9)


# ---------------------------------------------------------------------------
# A4 - corrected-variant ordering and the parallel-spring oracle


def test_a4_grounded_orderings():
    replica = analyze(with_deck_udl(generate_preset(PresetId.GRANDE), DECK_UDL))
    grounded = analyze(with_deck_udl(generate_preset(PresetId.GROUNDED_STAYED), DECK_UDL))

    def deck_peak(result):
        return max(abs(result.node_displacements[n][1]) for n in deck_node_ids(result.model))

    assert grounded.active_cables, "grounded variant must put at least one rope to work"
    assert deck_peak(grounded) < deck_peak(replica)

    # Single grounded vertical stay over a midspan point load: stiffnesses
    # add like springs in parallel, delta = P / (48EI/L^3 + EA_c/h).
    mat = Material("t", E, 0.0, 10e6)
    rope = Material("r", 1.5e9, 0.0, 20e6)
    sec = Section("d", 0.06, I_DECK, 0.30)
    P, L, h, Ac = 10000.0, 12.0, 1.5, 5e-4
    model = build_model(
        [Node(1, 0, 0), Node(2, L / 2, 0), Node(3, L, 0), Node(4, L / 2, h)],
        [mat, rope], [sec],
        [BeamElement(1, 1, 2, "t", "d"), BeamElement(2, 2, 3, "t", "d")],
        cables=[CableElement(3, 4, 2, "r", Ac)],
        supports=[
            Support(1, restrain_x=True, restrain_y=True),
            Support(3, restrain_y=True),
            Support(4, restrain_x=True, restrain_y=True),
        ],
        loads=[NodalForce(2, fy=-P)],
    )
    result = analyze(model)
    assert result.active_cables == frozenset({3})
    expected = P / (48 * E * I_DECK / L**3 + rope.elastic_modulus * Ac / h)
    assert abs(result.node_displacements[2][1]) == approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# A5 - the Amboise mid support


def test_a5_mid_support_stiffens():
    spec = next(p.spec for p in presets() if p.id is PresetId.AMBOISE_SCALE)
    with_prop = analyze(generate(spec))
    without = analyze(generate(replace(spec, mid_support=False)))
    assert with_prop.max_deflection < without.max_deflection


# ---------------------------------------------------------------------------
# A6 - staged erection


def test_a6_erection():
    plan = ErectionPlan(
        module_length=2.0, module_count=4, deck_weight_per_length=500.0,
        counterweight=2000.0, counterweight_lever=1.0,
    )
    stages = _Deck.of(plan).steps
    report = run_plan(plan)

    # factor = (W a) / (w c^2 / 2) on every pure-cantilever stage.
    for stage in stages:
        if stage.pure_cantilever and stage.cantilever_length > 0:
            c = stage.cantilever_length
            expected = (plan.counterweight * plan.counterweight_lever) / (
                plan.deck_weight_per_length * c * c / 2
            )
            assert report.stages[stage.index].overturning_factor == approx(expected, rel=1e-9)

    # w=500, c=4, a=1: W=2000 -> 0.5 (Overturns); W=8000 -> 2.0.
    assert stages[2].cantilever_length == 4.0
    assert report.stages[2].overturning_factor == approx(0.5, rel=1e-9)
    assert report.stages[2].verdict is Verdict.OVERTURNS
    assert run_plan(replace(plan, counterweight=8000.0)).stages[2].overturning_factor == approx(2.0, rel=1e-9)

    # W_min is sharp to +/-1e-6 relative.
    w_min = report.minimal_counterweight
    assert w_min == approx(4000.0, rel=1e-12)
    assert report.minimal_verified
    assert run_plan(replace(plan, counterweight=w_min * (1 + 1e-6))).stable
    assert not run_plan(replace(plan, counterweight=w_min * (1 - 1e-6))).stable


# ---------------------------------------------------------------------------
# A7 - invariant suite over 100 randomized valid models


def test_a7_invariant_suite(random_models):
    assert len(random_models) == 100
    for model in random_models:
        K, _ = dense_system(_elements(model), np.ones(len(model.cables), dtype=bool))
        scale = np.abs(K).max()

        # Stiffness symmetry.
        assert np.abs(K - K.T).max() <= 1e-9 * scale

        # Rigid-body nullity before constraints.
        n = len(model.nodes)
        tx, ty, rot = np.zeros(3 * n), np.zeros(3 * n), np.zeros(3 * n)
        for k, node in enumerate(model.nodes):
            tx[3 * k] = 1.0
            ty[3 * k + 1] = 1.0
            rot[3 * k] = -node.y
            rot[3 * k + 1] = node.x
            rot[3 * k + 2] = 1.0
        for r in (tx, ty, rot):
            assert np.abs(K @ r).max() <= 1e-9 * scale * max(np.abs(r).max(), 1.0)

        # Equilibrium residual.
        result = tension_only_analyze(model)
        fx = fy = 0.0
        for load in model.loads:
            if isinstance(load, NodalForce):
                fx += load.fx
                fy += load.fy
            elif isinstance(load, UniformLoad):
                fy -= load.w * model.element_length(model.beam(load.beam))
            elif isinstance(load, SelfWeight):
                fy += sum(f.fy for f in self_weight_loads(model, load.g))
        rx = sum(r[0] for r in result.reactions.values())
        ry = sum(r[1] for r in result.reactions.values())
        total = abs(fx) + abs(fy) + 1.0
        assert abs(fx + rx) <= 1e-8 * total
        assert abs(fy + ry) <= 1e-8 * total

        # File round-trip identity and byte-stable re-serialization.
        text = serialize_model(model)
        again = parse_model_file(text)
        assert again == model
        assert serialize_model(again) == text


# ---------------------------------------------------------------------------
# A8 - end-to-end CLI


def test_a8_cli_end_to_end(tmp_path):
    model_path = tmp_path / "grande.txt"
    assert main(["generate", "GRANDE", "-o", str(model_path)]) == 0

    svg_path = tmp_path / "out.svg"
    report_path = tmp_path / "out.json"
    assert main(["analyze", str(model_path), "--svg", str(svg_path), "--report", str(report_path)]) == 0

    # Load the deck beyond its allowable stress via the documented format.
    base = parse_model_file(model_path.read_text())
    overloaded = with_deck_udl(base, 20000.0)
    over_path = tmp_path / "overloaded.txt"
    over_path.write_text(serialize_model(overloaded))
    assert main(["analyze", str(over_path), "--svg", str(svg_path), "--report", str(report_path)]) == 0

    svg = svg_path.read_text()
    deck = set(deck_beam_ids(overloaded))
    classes = dict(re.findall(r'data-member="(\d+)" data-kind="beam" data-class="(\w+)"', svg))
    for beam in overloaded.beams:
        if beam.id in deck:
            assert classes[str(beam.id)] == "class_red"
        else:
            assert classes[str(beam.id)] != "class_red"
    assert svg.count("stroke-dasharray") == len(overloaded.cables)

    report = json.loads(report_path.read_text())
    assert report["summary"]["total_cable_tension"] <= 1e-6 * total_applied_load(overloaded)
