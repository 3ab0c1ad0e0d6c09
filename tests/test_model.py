import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    SelfWeight,
    build_model,
    self_weight_loads,
    validate,
)
from ponte.solver import _elements

import oracles
from conftest import random_valid_model

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
        # model's arrays, and building them names the missing node,
        # material or section, even a section named as an existing material.
        for changes, ref, kind in (({"beams": (BeamElement(1, 1, 99, "timber", "deck"),)}, 99, "node"),
                                   ({"cables": (CableElement(2, 99, 2, "timber", 1e-4),)}, 99, "node"),
                                   ({"supports": (Support(99, restrain_y=True),)}, 99, "node"),
                                   ({"loads": (NodalForce(99, fy=1.0),)}, 99, "node"),
                                   ({"loads": (UniformLoad(99, 1.0),)}, 99, "beam"),
                                   ({"cables": (CableElement(2, 1, 2, "rope", 1e-4),)}, "rope", "material"),
                                   ({"beams": (BeamElement(1, 1, 2, "timber", "timber"),)}, "timber", "section")):
            model = dataclasses.replace(simple_beam(), **changes)
            with pytest.raises(UnknownReference) as exc:
                validate(model)
            assert (exc.value.ref, exc.value.kind) == (ref, kind)

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
        # order (by id), none supported: the components come in the order
        # of their first node, whatever the hooking order, and the lone
        # node is reported as isolated, not as a component.
        chain = [*range(10, 1010), *range(1020, 2020)]
        islands = [{1}, {1010, 1011}, {3000, 3001, 3002}]
        nodes = [Node(i, i, 0) for i in chain] + [Node(i, i, 1) for island in islands for i in island]
        links = list(zip(chain, chain[1:]))
        beams = [BeamElement(k, *link, "timber", "deck") for k, link in enumerate(reversed(links[:1000]), 1)]
        beams += [BeamElement(k, j, i, "timber", "deck") for k, (i, j) in enumerate(links[1000:], 1001)]
        beams += [BeamElement(5001, 3002, 3001, "timber", "deck"), BeamElement(5002, 3000, 3002, "timber", "deck")]
        cables = [CableElement(6001, 1011, 1010, "timber", 1e-4)]
        model = build_model(nodes, [MAT], [SEC], beams, cables)
        assert oracles.connected_components(model) == [{1}, set(chain), {1010, 1011}, {3000, 3001, 3002}]
        report = validate(model)
        assert report == oracles.validate(model)
        assert [i.location for i in report if i.location.startswith("component")] == [
            "component containing node 10", "component containing node 1010", "component containing node 3000"]


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


def numbering(model) -> list[tuple[int, int]]:
    """The free dofs of the model view's masks as (node id, component), by
    ascending node id, then x, y, rz."""
    view = model.arrays
    ids, comps = np.nonzero(view.free[view.by_id])
    return list(zip(view.node_ids[view.by_id][ids].tolist(), comps.tolist()))


def dropped_rz(model) -> set[int]:
    """The nodes whose rotation is neither held nor stiffened by a beam end."""
    view = model.arrays
    return set(view.node_ids[~view.restrained[:, DOF_RZ] & ~view.rz_stiff].tolist())


class TestDofMap:
    # The free dofs come from the model view's restrained and
    # rotational-stiffness masks.
    def test_cantilever_counts(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True, restrain_rz=True)],
        )
        assert numbering(model) == [(2, DOF_X), (2, DOF_Y), (2, DOF_RZ)]

    def test_cable_only_node_loses_rotation(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0), Node(3, 2, 3)],
            [MAT], [SEC],
            beams=[BeamElement(1, 1, 2, "timber", "deck")],
            cables=[CableElement(2, 1, 3, "timber", 1e-4), CableElement(3, 2, 3, "timber", 1e-4)],
            supports=[Support(1, restrain_x=True, restrain_y=True), Support(2, restrain_y=True)],
        )
        entries = numbering(model)
        assert (3, DOF_RZ) not in entries
        assert (3, DOF_X) in entries and (3, DOF_Y) in entries
        assert 3 in dropped_rz(model)

    def test_pinned_pinned_beam_keeps_two_rotations(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 5, 0)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[
                Support(1, restrain_x=True, restrain_y=True),
                Support(2, restrain_x=True, restrain_y=True),
            ],
        )
        assert numbering(model) == [(1, DOF_RZ), (2, DOF_RZ)]

    def test_bijection_and_determinism(self, random_models):
        # The record-by-record numbering, and the band order a permutation
        # of it.
        for model in random_models:
            el = _elements(model)
            entries = numbering(model)
            assert entries == list(oracles.dof_map(model).entries)
            assert sorted(zip(el.view.node_ids[el.dofs // 3].tolist(), (el.dofs % 3).tolist())) == entries
            assert _elements(model).dofs.tobytes() == el.dofs.tobytes()

    def test_released_end_drops_rotation_when_alone(self):
        # A node touched only by a pinned beam end has no rotational stiffness.
        model = build_model(
            [Node(1, 0, 0), Node(2, 0, 3)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck", pin_i=True, pin_j=True)],
            supports=[Support(1, restrain_x=True, restrain_y=True, restrain_rz=True), Support(2, restrain_x=True)],
        )
        assert 2 in dropped_rz(model)
        assert dropped_rz(model) == oracles.dof_map(model).dropped_rz


NAN, INF = float("nan"), float("inf")


def _nodes(records, rng, count=1):
    return [n.id for n in rng.sample(records["nodes"], min(count, len(records["nodes"])))]


def _new_ids(records, count):
    top = max([n.id for n in records["nodes"]] + [e.id for e in records["beams"] + records["cables"]], default=0)
    return list(range(top + 1000, top + 1000 + count))


def _replace_one(records, kind, rng, **changes):
    k = rng.randrange(len(records[kind]))
    records[kind][k] = records[kind][k]._replace(**changes)


# Each mutation breaks one invariant of a valid model, or several.
MUTATIONS = {
    "coordinate": lambda r, rng: _replace_one(r, "nodes", rng, **{rng.choice("xy"): rng.choice([NAN, INF, -INF])}),
    "material": lambda r, rng: _replace_one(
        r, "materials", rng, **{rng.choice(["elastic_modulus", "density", "allowable_stress"]):
                                rng.choice([0.0, -0.0, -1.0, NAN, INF])}),
    "section": lambda r, rng: _replace_one(
        r, "sections", rng, **{rng.choice(["area", "second_moment", "depth"]): rng.choice([0.0, -1e-3, NAN, INF])}),
    "self-loop": lambda r, rng: _self_loop(r, rng),
    "coincident": lambda r, rng: _coincident(r, rng),
    "cable": lambda r, rng: r["cables"].append(CableElement(
        _new_ids(r, 1)[0], *_nodes(r, rng, 2), r["materials"][0].name, rng.choice([0.0, -1e-4, NAN, 1e-4]),
        rng.choice([0.0, -0.0, -5.0, NAN, INF, 10.0]))),
    "empty support": lambda r, rng: r["supports"].append(Support(rng.choice(r["nodes"]).id)),
    "unsupported": lambda r, rng: r.update(supports=r["supports"][: rng.randrange(2)]),
    "isolated": lambda r, rng: _isolated(r, rng),
    "island": lambda r, rng: _island(r, rng),
    "force": lambda r, rng: r["loads"].append(NodalForce(rng.choice(r["nodes"]).id, **{
        rng.choice(["fx", "fy", "mz"]): rng.choice([NAN, INF, -INF])})),
    "hinge": lambda r, rng: _hinge(r, rng),
    "pinned": lambda r, rng: _pinned(r, rng),
    "uniform load": lambda r, rng: r["loads"].append(UniformLoad(rng.choice(r["beams"]).id, rng.choice([NAN, INF]))),
    "gravity": lambda r, rng: r.update(loads=[l for l in r["loads"] if not isinstance(l, SelfWeight)]
                                       + [SelfWeight(rng.choice([0.0, -9.81, NAN, INF]))]),
    "mass": lambda r, rng: r["loads"].append(PointMass(rng.choice(r["nodes"]).id, rng.choice([-1.0, NAN, INF]))),
    "empty": lambda r, rng: r.update(nodes=[], beams=[], cables=[], supports=[],
                                     loads=[l for l in r["loads"] if isinstance(l, SelfWeight)]),
}


def _self_loop(records, rng):
    kind = rng.choice(["beams", "cables"] if records["cables"] else ["beams"])
    k = rng.randrange(len(records[kind]))
    records[kind][k] = records[kind][k]._replace(node_j=records[kind][k].node_i)


def _coincident(records, rng):
    # One node moved onto another, or a hair beside it: a member between
    # them, if any, is too short.
    a, b = rng.sample(range(len(records["nodes"])), 2)
    target = records["nodes"][b]
    records["nodes"][a] = records["nodes"][a]._replace(x=target.x + rng.choice([0.0, 1e-12]), y=target.y)


def _isolated(records, rng):
    (nid,) = _new_ids(records, 1)
    records["nodes"].append(Node(nid, 1.0, -3.0))
    flags = rng.choice([(), (True, False), (True, True), (False, True, True)])
    if flags:
        records["supports"].append(Support(nid, *flags))


def _island(records, rng):
    # A member or two off the structure, with up to 3 restrained dofs.
    a, b, c, e = _new_ids(records, 4)
    records["nodes"] += [Node(a, 40.0, 40.0), Node(b, 42.0, 41.0), Node(c, 44.0, 40.0)]
    records["beams"].append(BeamElement(e, a, b, records["materials"][0].name, "s1"))
    if rng.random() < 0.5:
        records["cables"].append(CableElement(e + 1, b, c, records["materials"][0].name, 1e-4))
    records["supports"] += [Support(a, True, True, True)][: rng.randrange(2)] + [Support(c, restrain_y=True)]


def _hinge(records, rng):
    # A node hung on two cables, with a moment on it; held in rz or not.
    nid, k = _new_ids(records, 2)
    i, j = _nodes(records, rng, 2)
    records["nodes"].append(Node(nid, 3.25, 7.5))
    records["cables"] += [CableElement(k, nid, i, records["materials"][0].name, 1e-4),
                          CableElement(k + 1, nid, j, records["materials"][1].name, 1e-4)]
    records["loads"].append(NodalForce(nid, mz=rng.choice([5.0, -0.0, NAN])))
    if rng.random() < 0.3:
        records["supports"].append(Support(nid, restrain_rz=True))


def _pinned(records, rng):
    records["beams"] = [b._replace(pin_i=True, pin_j=rng.random() < 0.7) for b in records["beams"]]
    records["loads"].append(NodalForce(rng.choice(records["nodes"]).id, fx=1.0, mz=rng.choice([3.0, 0.0])))


def mutated(seed: int, mutations: list[str], salt: int):
    """``random_valid_model(seed)`` broken by ``mutations``, in order."""
    model, rng = random_valid_model(seed), random.Random(salt)
    records = {kind: list(getattr(model, kind)) for kind in
               ("nodes", "materials", "sections", "beams", "cables", "supports", "loads")}
    for name in mutations:
        if records["nodes"] or name == "empty":
            MUTATIONS[name](records, rng)
    return build_model(**records)


class TestColumnChecks:
    # validate reads the model's columns, and the free dofs come from its
    # masks: both must give what the record-by-record oracles give, down
    # to the order of the issues and their wording.
    @staticmethod
    def same(model) -> list[str]:
        report = validate(model)
        assert report == oracles.validate(model)
        assert numbering(model) == list(oracles.dof_map(model).entries)
        return [issue.code for issue in report]

    def test_valid_models(self, random_models):
        for model in random_models:
            assert self.same(model) == []

    @given(st.integers(0, 99), st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_mutated_models(self, seed, mutations, salt):
        self.same(mutated(seed, mutations, salt))

    def test_every_issue_code_and_several_per_model(self):
        codes, most = set(), 0
        for seed in range(30):
            names = sorted(MUTATIONS)
            for k, name in enumerate(names):
                for mutations in ([name], [name, names[(k + seed) % len(names)], names[(3 * k + seed) % len(names)]]):
                    found = self.same(mutated(seed, mutations, seed * 97 + k))
                    codes.update(found)
                    most = max(most, len(found))
        assert codes == {"EmptyModel", "NonFiniteCoordinate", "NonPositiveProperty", "ZeroLengthElement",
                         "NegativePretension", "EmptySupport", "InsufficientRestraint", "IsolatedNode",
                         "MomentOnFreeHinge", "NonFiniteLoad", "NegativeMass"}
        assert most >= 5


class TestRecords:
    # The records are named tuples whose equality and hash include their
    # type, and which have no order, as the frozen dataclasses had none.
    def test_records_equal_only_records_of_their_own_type(self):
        load, mass = UniformLoad(1, 2.0), PointMass(1, 2.0)
        assert tuple(load) == tuple(mass)
        assert load != mass and not load == mass and len({load, mass}) == 2
        material, section = Material("a", 1.0, 2.0, 3.0), Section("a", 1.0, 2.0, 3.0)
        assert material != section and not material == section and len({material, section}) == 2
        assert Node(1, 0.0, 0.0) != (1, 0.0, 0.0) and not (1, 0.0, 0.0) == Node(1, 0.0, 0.0)
        assert Node(1, 0.0, 0.0) == Node(id=1, x=0.0, y=0.0)
        assert hash(Node(1, 0.0, 0.0)) == hash(Node(id=1, x=0.0, y=0.0))
        assert hash(BeamElement(1, 1, 2, "m", "s")) == hash(BeamElement(1, 1, 2, "m", "s", pin_i=False))
        assert len({NodalForce(3, fy=-1.0), NodalForce(3, 0.0, -1.0, 0.0), SelfWeight(), SelfWeight(9.81)}) == 2

    def test_records_are_immutable_unordered_and_pickle(self):
        node = Node(1, 0.0, 0.0)
        with pytest.raises(AttributeError):
            node.x = 1.0
        with pytest.raises(AttributeError):
            node.z = 1.0
        assert repr(node) == "Node(id=1, x=0.0, y=0.0)"
        assert repr(CableElement(4, 1, 2, "rope", 1e-4)) == (
            "CableElement(id=4, node_i=1, node_j=2, material='rope', area=0.0001, pretension=0.0)")
        assert node._replace(y=2.0) == Node(1, 0.0, 2.0) and Node._fields == ("id", "x", "y")
        # No order, also against a plain tuple, whose own comparison would
        # accept a record, on either side.
        plain = (2, 0.0, 0.0)
        for a, b in ((node, Node(2, 0.0, 0.0)), (UniformLoad(1, 2.0), PointMass(1, 2.0)), (node, plain),
                     (plain, node)):
            for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
                with pytest.raises(TypeError):
                    compare()
        with pytest.raises(TypeError):
            sorted([plain, node])
        for record in (node, Material("a", 1.0, 2.0, 3.0), Section("a", 1.0, 2.0, 3.0),
                       BeamElement(1, 1, 2, "m", "s", pin_j=True), CableElement(4, 1, 2, "rope", 1e-4, 5.0),
                       Support(1, restrain_y=True), NodalForce(3, mz=2.0), UniformLoad(1, 2.0), SelfWeight(),
                       PointMass(1, 2.0)):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)


def _inject(records: dict, what: str, rng: random.Random) -> None:
    """Put into ``records`` one record that repeats an id or a name, has a
    bad name, or names a node, beam, material or section that is missing."""
    missing = 1000 + max([n.id for n in records["nodes"]] + [e.id for e in records["beams"] + records["cables"]])
    nodes = [n.id for n in records["nodes"]]
    beam = BeamElement(missing + 1, rng.choice(nodes), rng.choice(nodes), "m1", "s1")
    cable = CableElement(missing + 1, rng.choice(nodes), rng.choice(nodes), "m2", 1e-4)
    member = rng.choice([("beams", beam), ("cables", cable)])
    kind, record = {
        "node id": ("nodes", Node(rng.choice(nodes), 1.0, 2.0)),
        "element id": (member[0], member[1]._replace(id=rng.choice(records["beams"] + records["cables"]).id)),
        "material name": ("materials", Material(rng.choice(["m1", "m2"]), 1e9, 0.0, 1e6)),
        "section name": ("sections", Section("s1", 0.1, 1e-4, 0.2)),
        "bad name": rng.choice([("materials", Material(rng.choice(["", "a b", "x#y"]), 1e9, 0.0, 1e6)),
                                ("sections", Section(rng.choice(["", "a\tb", "#"]), 0.1, 1e-4, 0.2))]),
        "member node": (member[0], member[1]._replace(**{rng.choice(["node_i", "node_j"]): missing})),
        "member material": (member[0], member[1]._replace(material="steel")),
        "beam section": ("beams", beam._replace(section="m1")),
        "support": ("supports", Support(missing, restrain_y=True)),
        "node load": ("loads", rng.choice([NodalForce(missing, fy=1.0), PointMass(missing, 1.0)])),
        "uniform load": ("loads", UniformLoad(rng.choice([missing, rng.choice(records["cables"] or [beam]).id]), 1.0)),
    }[what]
    records[kind].insert(rng.randrange(len(records[kind]) + 1), record)


def _built(build, records: dict):
    try:
        return build(**records)
    except (DuplicateId, UnknownReference, ValueError) as exc:
        return type(exc), exc.args


class TestBuildModelFirstFailure:
    # build_model raises what checking the records one by one raises first,
    # whatever their order. catalog and erection call it directly, without
    # the parser, so the parser's corpora do not cover it.
    KINDS = ("nodes", "materials", "sections", "beams", "cables", "supports", "loads")
    INJECTIONS = ("node id", "element id", "material name", "section name", "bad name", "member node",
                  "member material", "beam section", "support", "node load", "uniform load")

    @given(st.integers(0, 99), st.lists(st.sampled_from(INJECTIONS), max_size=3), st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_the_same_first_failure_as_record_by_record(self, seed, injections, salt):
        model, rng = random_valid_model(seed), random.Random(salt)
        records = {kind: list(getattr(model, kind)) for kind in self.KINDS}
        for kind in self.KINDS:
            rng.shuffle(records[kind])
        for what in injections:
            _inject(records, what, rng)
        built = _built(build_model, records)
        assert built == _built(oracles.build_model_by_record, records)
        assert isinstance(built, tuple) == bool(injections)

    def test_every_injection_raises_its_own_error(self):
        seen = set()
        for seed in range(40):
            for what in self.INJECTIONS:
                model, rng = random_valid_model(seed), random.Random(seed)
                records = {kind: list(getattr(model, kind)) for kind in self.KINDS}
                _inject(records, what, rng)
                error, args = _built(build_model, records)
                assert (error, args) == _built(oracles.build_model_by_record, records)
                seen.add((error.__name__, args[0].split(":")[0]))
        assert len(seen) >= 9
