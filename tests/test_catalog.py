from dataclasses import replace

import pytest
from pytest import approx

from ponte.catalog import (
    BridgeKind,
    BridgeSpec,
    PresetId,
    Wheels,
    deck_beam_ids,
    deck_node_ids,
    generate,
    generate_preset,
    preset,
    presets,
    strip_to_bare_deck,
    with_deck_udl,
)
from ponte.errors import InvalidSpec, NotAReplica
from ponte.model import PointMass, validate
from ponte.solver import analyze
from ponte.textio import serialize_model


def max_deck_deflection(model, result) -> float:
    return max(abs(result.node_displacements[n][1]) for n in deck_node_ids(model))


class TestPresets:
    def test_catalog_contents(self):
        by_id = {p.id: p for p in presets()}
        assert by_id[PresetId.LEONARDO_DRAWING].spec.pillar_count == 11
        assert by_id[PresetId.LEONARDO_DRAWING].spec.wheels is Wheels.RIGHT_ONLY
        assert by_id[PresetId.FLORENCE].spec.pillar_count == 6
        assert by_id[PresetId.FLORENCE].spec.wheels is Wheels.BOTH_SIDES
        assert by_id[PresetId.GRANDE].spec.pillar_count == 5
        assert by_id[PresetId.GRANDE].spec.wheels is Wheels.NONE
        assert by_id[PresetId.AMBOISE_SCALE].spec.pillar_count == 9
        assert by_id[PresetId.AMBOISE_SCALE].spec.mid_support is True
        assert by_id[PresetId.AMBOISE_PARK].spec.pillar_count == 4
        assert by_id[PresetId.AMBOISE_PARK].spec.crosswise_top_ropes is True

    def test_stable_ordering_and_notes(self):
        ids = [p.id for p in presets()]
        assert ids == [p.id for p in presets()]
        assert all(p.note for p in presets())
        notes = {p.id: p.note for p in presets()}
        assert "Florence" in notes[PresetId.FLORENCE]
        assert "Amboise" in notes[PresetId.AMBOISE_SCALE]

    def test_every_preset_id_has_one_preset(self):
        assert sorted(p.id for p in presets()) == sorted(PresetId)
        for key in PresetId:
            assert preset(key).id is key
            assert preset(key.value) == preset(key)

    def test_an_unknown_preset_id_raises_value_error(self):
        # cli._resolve_spec relies on it to try the bridge kinds next.
        with pytest.raises(ValueError):
            preset("no-such-preset")

    def test_every_preset_validates_clean(self):
        for p in presets():
            report = validate(generate(p.spec))
            assert report.ok, (p.id, [i.message for i in report])


class TestGenerate:
    def test_deterministic(self):
        spec = presets()[0].spec
        assert generate(spec) == generate(spec)

    def test_replica_member_counts(self):
        model = generate_preset(PresetId.GRANDE)
        # 6 deck beams + 5 pillars; 2 fan cables per pillar.
        assert len(model.beams) == 11
        assert len(model.cables) == 10
        assert len([b for b in model.beams if b.pin_i]) == 5

    def test_wheels_become_point_masses(self):
        drawing = generate_preset(PresetId.LEONARDO_DRAWING)
        masses = [l for l in drawing.loads if isinstance(l, PointMass)]
        right_end = max(deck_node_ids(drawing))
        assert [m.node for m in masses] == [right_end]

        florence = generate_preset(PresetId.FLORENCE)
        masses = [l.node for l in florence.loads if isinstance(l, PointMass)]
        deck = deck_node_ids(florence)
        assert sorted(masses) == [min(deck), max(deck)]

    @pytest.mark.parametrize("kind", [BridgeKind.TRUSS, BridgeKind.CABLE_STAYED, BridgeKind.SUSPENSION,
                                      BridgeKind.CANTILEVER])
    @pytest.mark.parametrize("wheels", [Wheels.RIGHT_ONLY, Wheels.BOTH_SIDES])
    def test_wheels_only_add_masses_at_the_deck_ends(self, kind, wheels):
        # Every kind stands on the same deck, so every kind takes wheels.
        plain = serialize_model(generate(BridgeSpec(kind))).splitlines()
        added = serialize_model(generate(BridgeSpec(kind, wheels=wheels))).splitlines()
        for line in plain:
            added.remove(line)
        last = BridgeSpec(kind).resolved_deck_segments() + 1  # the deck's nodes are 1..last
        ends = [last] if wheels is Wheels.RIGHT_ONLY else [1, last]
        assert added == [f"LOAD MASS {node} M=300" for node in ends]

    def test_mid_support_adds_central_roller(self):
        model = generate_preset(PresetId.AMBOISE_SCALE)
        mid = model.node(6)  # 10 segments, node 6 at midspan
        assert mid.x == approx(6.0)
        assert any(s.node == 6 and s.restrain_y for s in model.supports)

    def test_crosswise_ropes_added(self):
        park = generate_preset(PresetId.AMBOISE_PARK)
        plain = generate(replace(presets()[4].spec, crosswise_top_ropes=False))
        # 3 extra ropes per adjacent pillar pair.
        assert len(park.cables) == len(plain.cables) + 3 * 3

    def test_grounded_adds_struts_and_bed_supports(self):
        grounded = generate_preset(PresetId.GROUNDED_STAYED)
        replica = generate_preset(PresetId.GRANDE)
        assert len(grounded.beams) == len(replica.beams) + 5
        bed_nodes = [n for n in grounded.nodes if n.y < 0]
        assert len(bed_nodes) == 5
        supported = {s.node for s in grounded.supports}
        assert all(n.id in supported for n in bed_nodes)

    def test_every_kind_generates_and_analyzes(self):
        for kind in BridgeKind:
            spec = BridgeSpec(kind, pillar_count=3 if kind in
                              (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED) else 0)
            model = generate(spec)
            assert validate(model).ok, kind
            analyze(model)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(BridgeSpec(BridgeKind.BEAM, span=-1.0))
        with pytest.raises(InvalidSpec):
            generate(BridgeSpec(BridgeKind.LEONARDO_REPLICA, pillar_count=3, deck_segments=3))
        with pytest.raises(InvalidSpec):
            generate(BridgeSpec(BridgeKind.LEONARDO_REPLICA, pillar_count=2, deck_segments=7))
        with pytest.raises(InvalidSpec):
            generate(BridgeSpec(BridgeKind.BEAM, deck_segments=5, mid_support=True))

    @pytest.mark.parametrize("spec, text", [
        (BridgeSpec(BridgeKind.LEONARDO_REPLICA, pillar_count=-1), "pillar_count must be >= 0, got -1"),
        (BridgeSpec(BridgeKind.LEONARDO_GROUNDED, pillar_count=2, pillar_height=0.0),
         "pillar_height must be non-zero for replica kinds"),
        (BridgeSpec(BridgeKind.CANTILEVER, deck_segments=8), "CantileverBridge needs deck_segments divisible by 3"),
        (BridgeSpec("Bogus"), "unknown bridge kind 'Bogus'"),
        (BridgeSpec("BeamBridge"), "unknown bridge kind 'BeamBridge'"),
    ])
    def test_each_spec_rule_names_itself(self, spec, text):
        # A kind is a BridgeKind member: the plain str equal to one is not.
        with pytest.raises(InvalidSpec) as raised:
            generate(spec)
        assert str(raised.value) == text

    @pytest.mark.parametrize("kind", [k for k in BridgeKind
                                      if k not in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED)])
    def test_pillars_on_a_deck_kind_are_rejected(self, kind):
        # A deck kind has no pillars to place: the option is named, not
        # dropped (which wrote the plain deck) or misread as too few segments.
        with pytest.raises(InvalidSpec) as raised:
            generate(BridgeSpec(kind, pillar_count=10))
        assert str(raised.value) == (f"pillar_count applies to LeonardoReplica and LeonardoGrounded only, "
                                     f"not {kind.value} (got 10)")

    @pytest.mark.parametrize("kind", [k for k in BridgeKind
                                      if k not in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED)])
    def test_crosswise_ropes_on_a_deck_kind_are_rejected(self, kind):
        with pytest.raises(InvalidSpec) as raised:
            generate(BridgeSpec(kind, crosswise_top_ropes=True))
        assert str(raised.value) == (f"crosswise_top_ropes applies to LeonardoReplica and LeonardoGrounded only, "
                                     f"not {kind.value} (got True)")

    @pytest.mark.parametrize("spec, text", [
        (BridgeSpec(BridgeKind.LEONARDO_REPLICA, pillar_count=2.0), "pillar_count must be an integer, got 2.0"),
        (BridgeSpec(BridgeKind.BEAM, deck_segments=3.0), "deck_segments must be an integer, got 3.0"),
    ])
    def test_a_count_that_is_not_an_integer_is_rejected(self, spec, text):
        # A float count would reach range() and raise a bare TypeError.
        with pytest.raises(InvalidSpec) as raised:
            generate(spec)
        assert str(raised.value) == text

    @pytest.mark.parametrize("kind", [k for k in BridgeKind
                                      if k not in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED)])
    def test_a_span_that_overflows_a_coordinate_is_rejected(self, kind):
        # 1.7e308 is finite, but span * k / segments passes the largest
        # double at the third deck node (id 3): that node is named, and no
        # model with an inf coordinate is returned.
        with pytest.raises(InvalidSpec) as raised:
            generate(BridgeSpec(kind, span=1.7e308))
        assert str(raised.value) == "node 3 lies at (inf, 0.0): a coordinate is not finite"
        generate(BridgeSpec(kind, span=1e300))  # every coordinate finite

    def test_a_pillar_height_that_overflows_is_rejected(self):
        with pytest.raises(InvalidSpec, match=r"^node 5 lies at \(4\.0, inf\): a coordinate is not finite$"):
            generate(BridgeSpec(BridgeKind.LEONARDO_REPLICA, span=12.0, pillar_count=2, pillar_height=1e309))

    @pytest.mark.parametrize("wheels", ["both", "none", None, 1])
    def test_wheels_that_are_not_a_wheels_member_are_rejected(self, wheels):
        # Wheels is a str enum: the plain str equal to a member is not one,
        # and was dropped unsaid (no wheel masses).
        with pytest.raises(InvalidSpec) as raised:
            generate(BridgeSpec(BridgeKind.BEAM, wheels=wheels))
        assert str(raised.value) == f"unknown wheels {wheels!r}"

    def test_truss_needs_two_segments(self):
        with pytest.raises(InvalidSpec, match="TrussBridge"):
            generate(BridgeSpec(BridgeKind.TRUSS, deck_segments=1))
        assert validate(generate(BridgeSpec(BridgeKind.TRUSS, deck_segments=2))).ok

    def test_symmetric_displacements_under_symmetric_load(self):
        model = generate_preset(PresetId.GRANDE)
        result = analyze(model)
        deck = deck_node_ids(model)
        span = max(model.node(n).x for n in deck)
        peak = max(abs(result.node_displacements[n][1]) for n in deck)
        by_x = {model.node(n).x: result.node_displacements[n][1] for n in deck}
        for x, dy in by_x.items():
            assert dy == approx(by_x[span - x], rel=1e-9, abs=1e-9 * peak)


class TestStripToBareDeck:
    def test_zero_pillars_unchanged(self):
        bare = generate(BridgeSpec(BridgeKind.LEONARDO_REPLICA, pillar_count=0, deck_segments=4))
        assert strip_to_bare_deck(bare) == bare

    def test_florence_strip_counts_and_mass_conservation(self):
        model = generate_preset(PresetId.FLORENCE)
        stripped = strip_to_bare_deck(model)
        assert len(stripped.beams) == 7
        assert stripped.cables == ()
        added = [l for l in stripped.loads if isinstance(l, PointMass)
                 and l not in model.loads]
        # Stripped member mass: 6 pillars + 12 ropes, conserved exactly.
        rho_t = model.material("timber").density
        rho_r = model.material("hemp-rope").density
        pillar_mass = sum(
            rho_t * model.section(b.section).area * model.element_length(b)
            for b in model.beams if b.id not in deck_beam_ids(model)
        )
        rope_mass = sum(rho_r * c.area * model.element_length(c) for c in model.cables)
        assert sum(l.mass for l in added) == approx(pillar_mass + rope_mass, rel=1e-12)
        # Every added mass lands on a deck node.
        deck = set(deck_node_ids(model))
        assert all(l.node in deck for l in added)

    def test_supports_and_wheels_unchanged(self):
        model = generate_preset(PresetId.FLORENCE)
        stripped = strip_to_bare_deck(model)
        assert stripped.supports == model.supports
        original_masses = [l for l in model.loads if isinstance(l, PointMass)]
        assert all(l in stripped.loads for l in original_masses)

    def test_total_vertical_load_preserved(self):
        from ponte.model import self_weight_loads

        model = with_deck_udl(generate_preset(PresetId.GRANDE), 1500.0)
        stripped = strip_to_bare_deck(model)
        g = 9.81
        total = sum(f.fy for f in self_weight_loads(model, g))
        total_stripped = sum(f.fy for f in self_weight_loads(stripped, g))
        assert total_stripped == approx(total, rel=1e-12)

    def test_grounded_is_not_a_replica(self):
        with pytest.raises(NotAReplica):
            strip_to_bare_deck(generate_preset(PresetId.GROUNDED_STAYED))

    def test_truss_is_not_a_replica(self):
        with pytest.raises(NotAReplica):
            strip_to_bare_deck(generate(BridgeSpec(BridgeKind.TRUSS)))


class TestOrderings:
    """The comparative findings the catalog exists to demonstrate."""

    def test_replica_never_beats_its_bare_deck(self):
        # Free-spanning replicas: pillars and ropes only add weight.
        for pid in (PresetId.LEONARDO_DRAWING, PresetId.FLORENCE, PresetId.GRANDE):
            model = with_deck_udl(generate_preset(pid), 1000.0)
            r = analyze(model)
            rb = analyze(strip_to_bare_deck(model))
            assert max_deck_deflection(model, r) >= max_deck_deflection(model, rb) - 1e-12

    def test_grounding_the_pillars_works(self):
        replica = with_deck_udl(generate_preset(PresetId.GRANDE), 1000.0)
        grounded = with_deck_udl(generate_preset(PresetId.GROUNDED_STAYED), 1000.0)
        r_rep = analyze(replica)
        r_grd = analyze(grounded)
        assert r_grd.active_cables, "grounded pillars must put ropes to work"
        assert max_deck_deflection(grounded, r_grd) < max_deck_deflection(replica, r_rep)

    def test_underslung_ropes_work_under_gravity(self):
        model = with_deck_udl(generate_preset(PresetId.UNDERSLUNG), 1000.0)
        result = analyze(model)
        assert len(result.active_cables) == 2
        bare = analyze(strip_to_bare_deck(model))
        assert max_deck_deflection(model, result) < max_deck_deflection(model, bare)

    def test_mid_support_prop_makes_nearby_ropes_structural(self):
        # The model-maker's central prop creates a hogging region where the
        # flanking posts and ropes genuinely act as a crane; the free-span
        # null-cable finding deliberately does not extend to this preset.
        model = with_deck_udl(generate_preset(PresetId.AMBOISE_SCALE), 2000.0)
        result = analyze(model)
        assert result.active_cables, "ropes near the prop carry real tension"
        mid_pillar_cables = {28, 29}  # ropes of the post standing on the prop
        assert mid_pillar_cables <= result.active_cables
        for cid in result.active_cables:
            assert result.member_forces[cid].axial > 1.0
        # Without the prop the same bridge reverts to the null-cable finding.
        free_span = replace(
            next(p.spec for p in presets() if p.id is PresetId.AMBOISE_SCALE),
            mid_support=False,
        )
        free_result = analyze(with_deck_udl(generate(free_span), 2000.0))
        assert free_result.active_cables == frozenset()
