import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from ponte import catalog
from ponte.catalog import (
    BridgeKind,
    BridgeSpec,
    PresetId,
    Wheels,
    generate,
    generate_preset,
    strip_to_bare_deck,
    with_deck_udl,
)
from ponte.errors import InvalidSpec, NoConvergence, SingularSystem
from ponte.reporting import (
    CLASS_COLORS,
    CLASS_NAMES,
    build_diagram,
    color_class,
    compare,
    compare_dict,
    json_text,
    render_svg,
    write_report,
)
from ponte.solver import analyze

import oracles


@pytest.fixture(scope="module")
def grande_result():
    return analyze(generate_preset(PresetId.GRANDE))


@pytest.fixture(scope="module")
def grounded_stayed_result():
    return analyze(generate_preset(PresetId.GROUNDED_STAYED))


@pytest.fixture(scope="module")
def overloaded_result():
    return analyze(with_deck_udl(generate_preset(PresetId.GRANDE), 20000.0))


class TestColorClasses:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "class0"),
            (0.2499999, "class0"),
            (0.25, "class1"),
            (0.4999, "class1"),
            (0.5, "class2"),
            (0.999999, "class2"),
            (1.0, "class_red"),
            (250.0, "class_red"),
        ],
    )
    def test_boundaries(self, value, expected):
        assert color_class(value) == expected

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_partition_no_gaps_no_overlaps(self, value):
        assert color_class(value) in CLASS_NAMES

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            color_class(-0.1)

    def test_red_is_pure_red(self):
        assert CLASS_COLORS["class_red"] == "#FF0000"


class TestWriteReport:
    def test_bare_deck_has_no_active_cables(self):
        result = analyze(generate_preset(PresetId.BARE_DECK))
        data = json.loads(write_report(result))
        assert data["active_cables"] == []
        assert data["slack_cables"] == []

    def test_summary_max_deflection_matches_nodes(self, grande_result):
        data = json.loads(write_report(grande_result))
        max_dy = max(abs(n["dy"]) for n in data["nodes"])
        assert data["summary"]["max_deflection"] == approx(max_dy, rel=1e-12)

    def test_summary_totals_recomputable(self, grande_result):
        data = json.loads(write_report(grande_result))
        cable_total = sum(m["axial"] for m in data["members"] if m["type"] == "cable")
        assert data["summary"]["total_cable_tension"] == approx(cable_total, rel=1e-12, abs=1e-15)
        max_util = max(m["utilization"] for m in data["members"])
        assert data["summary"]["max_utilization"] == approx(max_util, rel=1e-12)

    def test_byte_stable(self, grande_result):
        assert write_report(grande_result) == write_report(grande_result)

    def test_slack_cables_listed(self, grande_result):
        data = json.loads(write_report(grande_result))
        model = grande_result.model
        assert sorted(data["active_cables"] + data["slack_cables"]) == sorted(c.id for c in model.cables)
        states = {m["id"]: m.get("state") for m in data["members"] if m["type"] == "cable"}
        assert all(states[cid] == "slack" for cid in data["slack_cables"])


def oracle_report(result) -> str:
    return json.dumps(oracles.report_dict(result), indent=2, allow_nan=False) + "\n"


SCALES = (None, 1.5, 25.0)


def assert_oracle_bytes(result, scales=SCALES) -> None:
    """The report and the SVG at each scale are the record-by-record
    oracles' bytes."""
    assert write_report(result) == oracle_report(result)
    for scale in scales:
        assert render_svg(build_diagram(result, scale)) == oracles.render_svg(oracles.build_diagram(result, scale))


def unloaded_bare_deck():
    return replace(generate_preset(PresetId.BARE_DECK), loads=())


def ladder_rungs():
    """The benchmark ladder's replicas: grounded at 23, 95 and 383 pillars
    (141, 573 and 2 301 free dofs) and floating at 23, with 2 m bays."""
    specs = [(BridgeKind.LEONARDO_GROUNDED, p) for p in (23, 95, 383)] + [(BridgeKind.LEONARDO_REPLICA, 23)]
    return [generate(BridgeSpec(kind, span=2.0 * (p + 1), pillar_count=p)) for kind, p in specs]


def generated_results(count: int, seed: int):
    """Analyses of ``count`` generated bridges, the 7 kinds in turn, over
    sizes, wheels, ropes, props and deck loads; a draw that does not
    analyze (a spec the generator rejects, a mechanism) is drawn again."""
    rng = random.Random(seed)
    kinds = list(BridgeKind)
    results = []
    attempts = 0
    while len(results) < count:
        attempts += 1
        assert attempts <= 3 * count, f"only {len(results)} of {count} draws analyzed"
        kind = kinds[len(results) % len(kinds)]
        if kind in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED):
            pillars = rng.randint(1, 31 if kind is BridgeKind.LEONARDO_REPLICA else 40)
            spec = BridgeSpec(kind, span=2.0 * (pillars + 1), pillar_count=pillars, wheels=rng.choice(list(Wheels)),
                              crosswise_top_ropes=rng.random() < 0.5, mid_support=rng.random() < 0.2)
        else:
            segments = rng.randrange(6, 40, 3 if kind is BridgeKind.CANTILEVER else 1)
            spec = BridgeSpec(kind, span=round(rng.uniform(1.0, 2.0) * segments, 2), deck_segments=segments,
                              mid_support=rng.random() < 0.2)
        try:
            model = generate(spec)
            if rng.random() < 0.3:
                model = with_deck_udl(model, rng.choice([500.0, 5000.0, 50000.0]))
            results.append(analyze(model))
        except (InvalidSpec, SingularSystem, NoConvergence):
            continue
    return results


class TestByteContract:
    # The report and the SVG are written from arrays, one template per
    # record kind; their bytes must be the record-by-record oracles'.
    @pytest.mark.parametrize("preset", list(PresetId))
    def test_presets(self, preset):
        result = analyze(generate_preset(preset))
        assert_oracle_bytes(result)
        # The diagram's lazily built member records render the same bytes.
        assert oracles.render_svg(build_diagram(result)) == render_svg(build_diagram(result))

    def test_ladder_rungs(self):
        for model in ladder_rungs():
            assert_oracle_bytes(analyze(model))

    def test_unloaded_bare_deck(self):
        result = analyze(unloaded_bare_deck())
        assert result.max_deflection == 0.0 and result.max_utilization_member is not None
        assert_oracle_bytes(result)

    def test_generated_models_of_every_kind(self, random_models):
        results = generated_results(300, seed=15)
        seen = {("taut" if r.active_cables else "no taut cable") for r in results}
        seen |= {"red" for r in results if r.max_utilization >= 1.0}
        assert seen == {"taut", "no taut cable", "red"}
        for result in results + [analyze(m) for m in random_models]:
            assert_oracle_bytes(result)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_raises(self, bad, grounded_stayed_result):
        result = grounded_stayed_result
        done = result._recovered
        node_u = result._node_u.copy()
        node_u[3, 1] = bad
        beam, cable, util = done.beam.copy(), done.cable.copy(), done.utilization.copy()
        beam[2, 3], cable[-1], util[0] = bad, bad, bad
        reactions = dict(result.reactions)
        first = next(iter(reactions))
        reactions[first] = (0.0, bad, 0.0)
        broken = [
            replace(result, _node_u=node_u),
            replace(result, _recovered=done._replace(beam=beam)),
            replace(result, _recovered=done._replace(cable=cable)),
            replace(result, _recovered=done._replace(utilization=util)),
            replace(result, reactions=reactions),
            replace(result, max_deflection=bad),
        ]
        for each in broken:
            with pytest.raises(ValueError):
                oracle_report(each)
            with pytest.raises(ValueError):
                write_report(each)

    def test_numpy_floats_are_written_as_json_writes_them(self, grounded_stayed_result):
        # %r of a numpy float is "np.float64(x)" under numpy 2; json.dumps
        # writes its float.__repr__.
        result = grounded_stayed_result
        reactions = {nid: tuple(map(np.float64, r)) for nid, r in result.reactions.items()}
        numpy_reactions = replace(result, reactions=reactions)
        assert write_report(numpy_reactions) == oracle_report(numpy_reactions) == write_report(result)
        assert "np." not in write_report(result)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)
           | st.sampled_from([[0.1, 1e16, 5e-324], [-0.0, 1e-7, 2.5e-308], [1e308, -1e22, 123456789.0]]))
    @settings(max_examples=200, deadline=None)
    def test_any_float_is_written_by_its_repr(self, values):
        result = analyze(generate_preset(PresetId.BARE_DECK))
        node_u = result._node_u.copy()
        node_u[1] = values
        assert write_report(replace(result, _node_u=node_u)) == oracle_report(replace(result, _node_u=node_u))


# Strings that could fool a rewrite of the encoder's output: brackets,
# quotes, its separators, raw newlines, escapes and non-ASCII text.
_CHARS = ["{", "}", "[", "]", '"', ",", ":", " ", "\n", "\\", "a", "é", "橋", "\u2028", "\U0001f309"]
_TEXT = st.text(st.sampled_from(_CHARS), max_size=8) | st.sampled_from(["}, {", ', "', "},\n{", '"\n  ', "\n  }"])
# numpy floats, as the solver's reactions hold, are a float subclass.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = (st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64)
            | st.sampled_from([-0.0, 1e308, -1e308, 5e-324]) | _TEXT)
_RECORDS = st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4), min_size=1, max_size=4)
_JSON = st.recursive(
    _SCALARS | _RECORDS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4) | _RECORDS,
    max_leaves=30,
)


class TestJsonText:
    @given(_JSON)
    @settings(max_examples=300, deadline=None)
    def test_bytes_of_json_dumps_with_indent(self, value):
        expected = json.dumps(value, indent=2, allow_nan=False) + "\n"
        assert json_text(value) == expected

    @pytest.mark.parametrize("value", [
        {}, [], "", [{}], [{}, {"a": 1}], {"a": [[], {}]}, (1, (2, [])),
        {1: [1], "a": {2.5: True, None: "x", False: [{"b": None}]}},
    ])
    def test_empty_containers_tuples_and_keys_that_are_not_strings(self, value):
        assert json_text(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise(self, bad):
        for payload in (bad, {"a": bad}, {"a": [1.0, bad]}, {"a": [{"b": bad}]}, {"a": {"b": [[bad]]}}):
            with pytest.raises(ValueError):
                json_text(payload)

    @pytest.mark.parametrize("preset", list(PresetId))
    def test_reports_are_json_dumps_of_their_dicts(self, preset, grande_result):
        result = analyze(generate_preset(preset))
        for payload in (oracles.report_dict(result), compare_dict(result, grande_result)):
            assert json_text(payload) == json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestCompare:
    def test_identity_ratios_are_one(self, grande_result):
        table = compare(grande_result, grande_result, ("x", "x"))
        for line in table.splitlines()[2:]:
            assert line.rstrip().endswith("1")
        data = compare_dict(grande_result, grande_result, ("x", "y"))
        assert all(m["ratio"] == 1.0 for m in data["metrics"].values())

    def test_bare_vs_replica_deflection_ratio(self):
        model = with_deck_udl(generate_preset(PresetId.GRANDE), 1000.0)
        replica = analyze(model)
        bare = analyze(strip_to_bare_deck(model))
        data = compare_dict(bare, replica, ("bare", "replica"))
        assert data["metrics"]["max_deflection"]["ratio"] >= 1.0

    def test_replica_vs_grounded_ratio_below_one(self):
        replica = analyze(with_deck_udl(generate_preset(PresetId.GRANDE), 1000.0))
        grounded = analyze(with_deck_udl(generate_preset(PresetId.GROUNDED_STAYED), 1000.0))
        data = compare_dict(replica, grounded, ("replica", "grounded"))
        assert data["metrics"]["max_deflection"]["ratio"] < 1.0

    def test_ratio_from_zero_is_none_in_dict_and_inf_in_table(self):
        bare = analyze(with_deck_udl(generate_preset(PresetId.BARE_DECK), 1000.0))
        grounded = analyze(with_deck_udl(generate_preset(PresetId.GROUNDED_STAYED), 1000.0))
        assert bare.total_cable_tension == 0.0
        assert grounded.total_cable_tension > 0.1
        data = compare_dict(bare, grounded, ("bare", "grounded"))
        assert data["metrics"]["total_cable_tension"]["ratio"] is None
        row = next(line for line in compare(bare, grounded).splitlines() if line.startswith("total cable tension"))
        assert row.split()[-1] == "inf"

    @pytest.mark.parametrize("preset", list(PresetId))
    def test_material_volume_sums_element_lengths(self, preset):
        model = generate_preset(preset)
        result = analyze(model)
        expected = sum(model.section(b.section).area * model.element_length(b) for b in model.beams)
        expected += sum(c.area * model.element_length(c) for c in model.cables)
        assert compare_dict(result, result)["metrics"]["total_material_volume"]["A"] == expected

    def test_table_has_expected_rows(self, grande_result):
        table = compare(grande_result, grande_result)
        assert "max deflection" in table
        assert "max utilization" in table
        assert "total cable tension" in table
        assert "total material volume" in table


class TestDiagram:
    def test_auto_scale_targets_five_percent_of_width(self, grande_result):
        diagram = build_diagram(grande_result)
        model = grande_result.model
        width = max(n.x for n in model.nodes) - min(n.x for n in model.nodes)
        peak = max(
            math.hypot(d[0], d[1]) for d in grande_result.node_displacements.values()
        )
        assert diagram.scale == approx(0.05 * width / peak, rel=1e-12)

    def test_explicit_scale_respected(self, grande_result):
        assert build_diagram(grande_result, scale=25.0).scale == 25.0

    def test_slack_cables_dashed_with_labels(self, grande_result):
        diagram = build_diagram(grande_result)
        cables = [m for m in diagram.members if m.kind == "cable"]
        assert cables and all(m.dashed and m.label == "slack" for m in cables)

    def test_color_class_pure_function_of_utilization(self, overloaded_result):
        diagram = build_diagram(overloaded_result)
        for member in diagram.members:
            assert member.color_class == color_class(overloaded_result.utilization[member.id])


class TestRenderSvg:
    def test_unloaded_model_all_class0_coincident(self):
        from ponte.model import StructureModel
        model = generate_preset(PresetId.BARE_DECK)
        # Remove the self-weight: a genuinely unloaded model.
        unloaded = StructureModel(
            nodes=model.nodes, materials=model.materials, sections=model.sections,
            beams=model.beams, cables=model.cables, supports=model.supports, loads=(),
        )
        result = analyze(unloaded)
        diagram = build_diagram(result)
        assert all(m.color_class == "class0" for m in diagram.members)
        assert all(m.original == m.deflected for m in diagram.members)
        svg = render_svg(diagram)
        assert 'data-class="class_red"' not in svg

    def test_valid_svg_and_legend(self, grande_result):
        svg = render_svg(build_diagram(grande_result))
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert 'id="legend"' in svg
        assert "#FF0000" in svg  # legend swatch for the red class

    def test_overloaded_red_deck_quiet_pillars_dashed_cables(self, overloaded_result):
        svg = render_svg(build_diagram(overloaded_result))
        model = overloaded_result.model
        deck = set(catalog.deck_beam_ids(model))
        for beam in model.beams:
            marker = f'data-member="{beam.id}" data-kind="beam" data-class='
            cls = svg.split(marker + '"', 1)[1].split('"', 1)[0]
            if beam.id in deck:
                assert cls == "class_red"
            else:
                assert cls == "class0"
        assert svg.count("stroke-dasharray") == len(model.cables)

    def test_byte_identical_across_runs(self, grande_result):
        a = render_svg(build_diagram(grande_result))
        b = render_svg(build_diagram(analyze(grande_result.model)))
        assert a == b
