import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from ponte import catalog
from ponte.catalog import PresetId, generate_preset, strip_to_bare_deck, with_deck_udl
from ponte.reporting import (
    CLASS_COLORS,
    CLASS_NAMES,
    build_diagram,
    color_class,
    compare,
    compare_dict,
    json_text,
    render_svg,
    report_dict,
    write_report,
)
from ponte.solver import analyze


@pytest.fixture(scope="module")
def grande_result():
    return analyze(generate_preset(PresetId.GRANDE))


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
        for payload in (report_dict(result), compare_dict(result, grande_result)):
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
