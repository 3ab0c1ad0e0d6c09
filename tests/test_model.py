import dataclasses
import math

import pytest
from pytest import approx

from ponte.errors import DuplicateId, UnknownReference
from ponte.model import (
    DOF_RZ,
    DOF_X,
    DOF_Y,
    BeamElement,
    CableElement,
    Material,
    NodalForce,
    Node,
    PointMass,
    Section,
    Support,
    UniformLoad,
    build_model,
    dof_map,
    _connected_components,
    self_weight_loads,
    validate,
)

MAT = Material("timber", 10e9, 600.0, 10e6)
SEC = Section("deck", 0.06, 4.5e-4, 0.30)


def simple_beam(length=10.0, **kwargs):
    nodes = [Node(1, 0.0, 0.0), Node(2, length, 0.0)]
    beams = [BeamElement(1, 1, 2, "timber", "deck")]
    supports = [Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)]
    return build_model(nodes, [MAT], [SEC], beams, supports=supports, **kwargs)


class TestBuildModel:
    def test_empty_inputs_give_empty_model(self):
        model = build_model()
        assert model.nodes == ()
        assert model.beams == ()
        assert model.loads == ()

    def test_duplicate_node_id(self):
        with pytest.raises(DuplicateId) as exc:
            build_model(nodes=[Node(3, 0, 0), Node(3, 1, 0)])
        assert exc.value.ident == 3

    def test_dangling_beam_reference(self):
        with pytest.raises(UnknownReference) as exc:
            build_model(
                nodes=[Node(1, 0, 0)],
                materials=[MAT],
                sections=[SEC],
                beams=[BeamElement(1, 1, 99, "timber", "deck")],
            )
        assert exc.value.ref == 99

    def test_dangling_reference_in_a_model_built_directly(self):
        # StructureModel(...) checks no reference; validation reads the
        # model's arrays, and building them names the missing node.
        for changes in ({"beams": (BeamElement(1, 1, 99, "timber", "deck"),)},
                        {"cables": (CableElement(2, 99, 2, "timber", 1e-4),)},
                        {"supports": (Support(99, restrain_y=True),)}):
            model = dataclasses.replace(simple_beam(), **changes)
            with pytest.raises(UnknownReference) as exc:
                validate(model)
            assert exc.value.ref == 99

    def test_beam_and_cable_share_id_namespace(self):
        nodes = [Node(1, 0, 0), Node(2, 5, 0)]
        with pytest.raises(DuplicateId):
            build_model(
                nodes=nodes,
                materials=[MAT],
                sections=[SEC],
                beams=[BeamElement(7, 1, 2, "timber", "deck")],
                cables=[CableElement(7, 1, 2, "timber", 1e-4)],
            )

    def test_unknown_material(self):
        with pytest.raises(UnknownReference):
            build_model(
                nodes=[Node(1, 0, 0), Node(2, 5, 0)],
                sections=[SEC],
                beams=[BeamElement(1, 1, 2, "steel", "deck")],
            )

    def test_load_references_checked(self):
        with pytest.raises(UnknownReference):
            simple_beam(loads=[NodalForce(99, fy=-1.0)])
        with pytest.raises(UnknownReference):
            simple_beam(loads=[UniformLoad(5, 100.0)])

    def test_canonical_ordering(self):
        nodes = [Node(2, 5.0, 0.0), Node(1, 0.0, 0.0)]
        model = build_model(
            nodes,
            [MAT],
            [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[Support(2, restrain_y=True), Support(1, restrain_x=True, restrain_y=True)],
        )
        assert [n.id for n in model.nodes] == [1, 2]
        assert [s.node for s in model.supports] == [1, 2]

    def test_model_is_frozen(self):
        model = simple_beam()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.nodes = ()

    def test_with_loads_returns_new_model(self):
        model = simple_beam()
        extended = model.with_loads([NodalForce(2, fy=-1.0)])
        assert len(extended.loads) == 1
        assert model.loads == ()
        assert extended.nodes == model.nodes


class TestValidate:
    def test_simply_supported_beam_is_clean(self):
        assert validate(simple_beam()).ok

    def test_model_without_nodes_is_empty(self):
        report = validate(build_model(materials=[MAT], sections=[SEC]))
        assert [(i.code, i.location) for i in report] == [("EmptyModel", "model")]

    def test_zero_length_element(self):
        nodes = [Node(1, 0, 0), Node(2, 5, 0)]
        model = build_model(
            nodes, [MAT], [SEC],
            [BeamElement(1, 1, 1, "timber", "deck"), BeamElement(2, 1, 2, "timber", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        report = validate(model)
        assert any(i.code == "ZeroLengthElement" for i in report)

    def test_single_pinned_support_is_insufficient(self):
        nodes = [Node(1, 0, 0), Node(2, 5, 0)]
        model = build_model(
            nodes, [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True)],
        )
        report = validate(model)
        assert any(i.code == "InsufficientRestraint" for i in report)

    def test_floating_component_flagged(self):
        # One properly supported beam plus a beam floating elsewhere.
        nodes = [Node(1, 0, 0), Node(2, 5, 0), Node(3, 0, 5), Node(4, 5, 5)]
        model = build_model(
            nodes, [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck"), BeamElement(2, 3, 4, "timber", "deck")],
            supports=[
                Support(1, restrain_x=True, restrain_y=True, restrain_rz=True),
                Support(2, restrain_y=True),
            ],
        )
        report = validate(model)
        assert any(i.code == "InsufficientRestraint" and "node 3" in i.location for i in report)

    def test_nonpositive_properties(self):
        bad_mat = Material("bad", -1.0, 100.0, 1e6)
        nodes = [Node(1, 0, 0), Node(2, 5, 0)]
        model = build_model(
            nodes, [bad_mat], [SEC],
            [BeamElement(1, 1, 2, "bad", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        assert any(i.code == "NonPositiveProperty" for i in validate(model))

    def test_isolated_node(self):
        model = build_model(
            nodes=[Node(1, 0, 0), Node(2, 5, 0), Node(3, 9, 9)],
            materials=[MAT],
            sections=[SEC],
            beams=[BeamElement(1, 1, 2, "timber", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        assert any(i.code == "IsolatedNode" for i in validate(model))

    def test_negative_pretension(self):
        model = build_model(
            nodes=[Node(1, 0, 0), Node(2, 5, 0)],
            materials=[MAT],
            sections=[SEC],
            beams=[BeamElement(1, 1, 2, "timber", "deck")],
            cables=[CableElement(2, 1, 2, "timber", 1e-4, pretension=-5.0)],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        assert any(i.code == "NegativePretension" for i in validate(model))

    def test_issues_are_returned_not_raised(self):
        report = validate(build_model(nodes=[Node(1, float("nan"), 0)]))
        assert not report.ok
        assert all(i.severity == "error" for i in report)

    def test_moment_load_on_node_without_rotational_stiffness(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0), Node(3, 2, 3)],
            [MAT], [SEC],
            beams=[BeamElement(1, 1, 2, "timber", "deck")],
            cables=[CableElement(2, 1, 3, "timber", 1e-4), CableElement(3, 2, 3, "timber", 1e-4)],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
            loads=[NodalForce(3, mz=50.0)],
        )
        assert any(i.code == "MomentOnFreeHinge" for i in validate(model))

    def test_uniform_load_must_reference_a_beam(self):
        nodes = [Node(1, 0, 0), Node(2, 10, 0)]
        with pytest.raises(UnknownReference):
            build_model(
                nodes, [MAT], [SEC],
                beams=[BeamElement(1, 1, 2, "timber", "deck")],
                cables=[CableElement(2, 1, 2, "timber", 1e-4)],
                supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
                loads=[UniformLoad(2, 100.0)],  # id 2 is the cable
            )


class TestConnectedComponents:
    def test_long_chain_and_islands_keep_their_order(self):
        # A 2 000-node deck chain, its beams listed both ways, and islands
        # whose first nodes come before, inside and after it in model
        # order (by id): the components come in the order of their first
        # node, whatever the union-find's roots.
        chain = [*range(10, 1010), *range(1020, 2020)]
        islands = [{1}, {1010, 1011}, {3000, 3001, 3002}]
        nodes = [Node(i, i, 0) for i in chain] + [Node(i, i, 1) for island in islands for i in island]
        links = list(zip(chain, chain[1:]))
        beams = [BeamElement(k, *link, "timber", "deck") for k, link in enumerate(reversed(links[:1000]), 1)]
        beams += [BeamElement(k, j, i, "timber", "deck") for k, (i, j) in enumerate(links[1000:], 1001)]
        beams += [BeamElement(5001, 3002, 3001, "timber", "deck"), BeamElement(5002, 3000, 3002, "timber", "deck")]
        cables = [CableElement(6001, 1011, 1010, "timber", 1e-4)]
        model = build_model(nodes, [MAT], [SEC], beams, cables)
        assert _connected_components(model) == [{1}, set(chain), {1010, 1011}, {3000, 3001, 3002}]

class TestSelfWeight:
    def test_single_beam_half_lump_each_end(self):
        # rho*A*L*g/2 = 600 * 0.01 * 10 * 9.81 / 2 = 294.3 N
        mat = Material("m", 10e9, 600.0, 10e6)
        sec = Section("s", 0.01, 1e-5, 0.1)
        model = build_model(
            [Node(1, 0, 0), Node(2, 10, 0)], [mat], [sec],
            [BeamElement(1, 1, 2, "m", "s")],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        loads = self_weight_loads(model, 9.81)
        assert [l.node for l in loads] == [1, 2]
        assert loads[0].fy == approx(-294.3)
        assert loads[1].fy == approx(-294.3)

    def test_zero_gravity_is_empty(self):
        assert self_weight_loads(simple_beam(), 0.0) == ()

    def test_point_mass(self):
        model = simple_beam(loads=[PointMass(2, 100.0)])
        loads = self_weight_loads(model, 9.81)
        at_2 = next(l for l in loads if l.node == 2)
        # 100 kg * 9.81 plus the beam half-lump at node 2
        beam_half = 600.0 * 0.06 * 10.0 * 9.81 / 2
        assert at_2.fy == approx(-(981.0 + beam_half))

    def test_total_weight_conserved(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 10, 0), Node(3, 4, 3)],
            [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck"), BeamElement(2, 1, 3, "timber", "deck")],
            cables=[CableElement(3, 2, 3, "timber", 2e-4)],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
            loads=[PointMass(3, 123.0)],
        )
        g = 9.81
        total = sum(l.fy for l in self_weight_loads(model, g))
        expected = -(
            600.0 * 0.06 * 10.0
            + 600.0 * 0.06 * 5.0
            + 600.0 * 2e-4 * math.hypot(6.0, 3.0)
            + 123.0
        ) * g
        assert total == approx(expected, rel=1e-12)

    def test_negative_gravity_rejected(self):
        with pytest.raises(ValueError):
            self_weight_loads(simple_beam(), -9.81)


class TestDofMap:
    def test_cantilever_counts(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True, restrain_rz=True)],
        )
        dm = dof_map(model)
        assert dm.entries == ((2, DOF_X), (2, DOF_Y), (2, DOF_RZ))

    def test_cable_only_node_loses_rotation(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0), Node(3, 2, 3)],
            [MAT], [SEC],
            beams=[BeamElement(1, 1, 2, "timber", "deck")],
            cables=[CableElement(2, 1, 3, "timber", 1e-4), CableElement(3, 2, 3, "timber", 1e-4)],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        dm = dof_map(model)
        assert (3, DOF_RZ) not in dm.entries
        assert (3, DOF_X) in dm.entries and (3, DOF_Y) in dm.entries
        assert 3 in dm.dropped_rz

    def test_pinned_pinned_beam_keeps_two_rotations(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[
                Support(1, restrain_x=True, restrain_y=True),
                Support(2, restrain_x=True, restrain_y=True),
            ],
        )
        dm = dof_map(model)
        assert dm.entries == ((1, DOF_RZ), (2, DOF_RZ))

    def test_bijection_and_determinism(self, random_models):
        for model in random_models[:20]:
            dm = dof_map(model)
            assert sorted(dm.index.values()) == list(range(dm.n_free))
            assert dof_map(model) == dm

    def test_released_end_drops_rotation_when_alone(self):
        # A node touched only by a pinned beam end has no rotational stiffness.
        model = build_model(
            [Node(1, 0, 0), Node(2, 0, 3)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck", pin_i=True, pin_j=True)],
            supports=[Support(1, restrain_x=True, restrain_y=True, restrain_rz=True), Support(2, restrain_x=True)],
        )
        dm = dof_map(model)
        assert 2 in dm.dropped_rz
