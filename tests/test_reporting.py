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
    render_svg,
    write_compare_report,
    write_report,
)
from ponte.solver import analyze
from ponte.textio import parse_model_file

import oracles

NOT_FINITE = "Out of range float values are not JSON compliant"


@pytest.fixture(scope="module")
def grande_result():
    return analyze(generate_preset(PresetId.GRANDE))


@pytest.fixture(scope="module")
def grounded_stayed_result():
    return analyze(generate_preset(PresetId.GROUNDED_STAYED))


@pytest.fixture(scope="module")
def overloaded_result():
    return analyze(with_deck_udl(generate_preset(PresetId.GRANDE), 20000.0))


@pytest.fixture(scope="module")
def preset_results():
    return {preset: analyze(generate_preset(preset)) for preset in PresetId}


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


def json_dumps_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def oracle_report(result) -> str:
    return json_dumps_text(oracles.report_dict(result))


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
        assert_oracle_bytes(analyze(generate_preset(preset)))

    def test_ladder_rungs(self):
        for model in ladder_rungs():
            assert_oracle_bytes(analyze(model))

    def test_unloaded_bare_deck(self):
        result = analyze(unloaded_bare_deck())
        assert result.max_deflection == 0.0 and result.max_utilization_member is not None
        assert_oracle_bytes(result)

    def test_a_model_without_members(self):
        # No member to name as the most utilized, and a cable tension
        # summed over no cables is the int 0.
        result = analyze(parse_model_file("NODE 1 0 0\nSUPPORT 1 XYR\n"))
        assert '"max_utilization_member": null' in write_report(result)
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

    def test_a_total_cable_tension_that_overflows_raises(self, grounded_stayed_result):
        # Every cable force is finite; only the summary's sum is not.
        result = grounded_stayed_result
        cable = result._recovered.cable.copy()
        cable[:2] = 1e308
        overflow = replace(result, _recovered=result._recovered._replace(cable=cable))
        assert overflow.total_cable_tension == math.inf
        with pytest.raises(ValueError):
            oracle_report(overflow)
        with pytest.raises(ValueError, match=f"^{NOT_FINITE}$"):
            write_report(overflow)

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

    @given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0, -0.0, 5e-324, 1e308, 1e16]),
           st.floats(max_value=0.0, allow_infinity=False) | st.sampled_from([0, -0.0, -5e-324, -1e308]),
           st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=200, deadline=None)
    def test_any_summary_figure_is_written_by_its_repr(self, grounded_stayed_result, deflection, utilization,
                                                      iterations):
        # A maximum utilization at or below every member's leaves the
        # lowest member id the most utilized.
        result = replace(grounded_stayed_result, max_deflection=deflection, max_utilization=utilization,
                         iterations_used=iterations)
        assert write_report(result) == oracle_report(result)


# Labels that could fool a writer of JSON text: brackets, quotes, its
# separators, raw newlines, escapes and non-ASCII text.
_CHARS = ["{", "}", "[", "]", '"', ",", ":", " ", "\n", "\\", "a", "é", "橋", "\u2028", "\U0001f309"]
_TEXT = st.text(st.sampled_from(_CHARS), max_size=8) | st.sampled_from(["}, {", ', "', "},\n{", '"\n  ', "\n  }"])


class TestJsonText:
    # Each report writer's text is json.dumps(indent=2) of its dictionary
    # and a newline, and a value JSON cannot hold raises the C encoder's
    # error, without the value the indenting encoder would append.
    @given(st.tuples(_TEXT, _TEXT))
    @settings(max_examples=50, deadline=None)
    def test_bytes_of_json_dumps_with_indent(self, preset_results, labels):
        for a in preset_results.values():
            for b in preset_results.values():
                assert write_compare_report(a, b, labels) == json_dumps_text(compare_dict(a, b, labels))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise(self, bad, grande_result):
        for field in ("max_deflection", "max_utilization"):
            broken = replace(grande_result, **{field: bad})
            for write in (lambda: write_report(broken), lambda: write_compare_report(broken, grande_result, ("a", "b")),
                          lambda: write_compare_report(grande_result, broken, ("a", "b"))):
                with pytest.raises(ValueError, match=f"^{NOT_FINITE}$"):
                    write()

    @pytest.mark.parametrize("preset", list(PresetId))
    def test_reports_are_json_dumps_of_their_dicts(self, preset, preset_results, grande_result):
        result = preset_results[preset]
        assert write_report(result) == json_dumps_text(oracles.report_dict(result))
        for labels in (("A", "B"), ("m.txt", "m.txt"), ("ratio", "B")):
            assert write_compare_report(result, grande_result, labels) == json_dumps_text(
                compare_dict(result, grande_result, labels))


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

    @pytest.mark.parametrize("labels", [("m.txt", "m.txt"), ("ratio", "B"), ("A", "ratio"), ("B", "A")])
    def test_metrics_are_keyed_a_b_and_ratio_whatever_the_labels(self, labels):
        bare = analyze(with_deck_udl(generate_preset(PresetId.BARE_DECK), 1000.0))
        grounded = analyze(with_deck_udl(generate_preset(PresetId.GROUNDED_STAYED), 1000.0))
        data = compare_dict(bare, grounded, labels)
        assert data["labels"] == list(labels)
        assert data["metrics"]["max_deflection"] == {
            "A": bare.max_deflection, "B": grounded.max_deflection,
            "ratio": grounded.max_deflection / bare.max_deflection,
        }
        assert data["metrics"] == compare_dict(bare, grounded)["metrics"]

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
        assert len(diagram.taut) == len(grande_result.model.cables) > 0
        assert not diagram.taut.any() and diagram.labels() == ["slack"] * len(diagram.taut)

    def test_color_class_pure_function_of_utilization(self, overloaded_result):
        diagram = build_diagram(overloaded_result)
        for member, cls in zip(diagram.ids.tolist(), diagram.classes.tolist()):
            assert CLASS_NAMES[cls] == color_class(overloaded_result.utilization[member])


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
        assert (diagram.classes == 0).all()
        assert np.array_equal(diagram.original, diagram.deflected)
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
