import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.linalg.lapack import dpbtrf

from ponte import erection, model as model_module, solver
from ponte.catalog import (
    BridgeKind,
    BridgeSpec,
    Wheels,
    deck_beam_ids,
    deck_node_ids,
    generate,
    generate_preset,
    presets,
    strip_to_bare_deck,
    with_deck_udl,
)
from ponte.errors import NonPositiveProperty, SingularSystem
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
    validate,
)
from ponte.reporting import write_report
from ponte.solver import (
    EPS_FORCE,
    MemberForces,
    _elements,
    _frame_local,
    _recover,
    analyze,
    tension_only_analyze,
)

from oracles import (
    beam_local,
    beam_stiffness_local,
    cable_stiffness_global,
    dense_minimum_norm_solve,
    dense_null_basis,
    dense_system,
    dof_map,
    fixed_end_forces,
    fixed_end_local,
    lower_band,
    max_utilization_member,
    reactions_by_dof,
    self_weight_loads_by_member,
    transformation,
    utilization,
)

E, A, I = 10e9, 0.06, 4.5e-4
MAT = Material("timber", E, 0.0, 10e6)  # weightless: keeps oracles closed-form
SEC = Section("deck", A, I, 0.30)
ROPE = Material("rope", 1.5e9, 0.0, 20e6)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def ss_beam(n_elements: int, length: float = 12.0, loads=()):
    """Simply supported beam meshed into n equal elements."""
    nodes = [Node(k + 1, length * k / n_elements, 0.0) for k in range(n_elements + 1)]
    beams = [BeamElement(k + 1, k + 1, k + 2, "timber", "deck") for k in range(n_elements)]
    supports = [Support(1, restrain_x=True, restrain_y=True), Support(n_elements + 1, restrain_y=True)]
    return build_model(nodes, [MAT], [SEC], beams, supports=supports, loads=loads)


def applied_force(model) -> tuple[float, float]:
    """Resultant (fx, fy) of every load on the model."""
    fx = fy = 0.0
    for load in model.loads:
        if isinstance(load, NodalForce):
            fx += load.fx
            fy += load.fy
        elif isinstance(load, UniformLoad):
            fy -= load.w * model.element_length(model.beam(load.beam))
        elif isinstance(load, SelfWeight):
            fy += sum(f.fy for f in self_weight_loads(model, load.g))
    return fx, fy


def replica(kind: BridgeKind, pillars: int, crosswise: bool = False):
    """A generated replica with 2 m bays, as ``ponte generate`` makes it."""
    return generate(BridgeSpec(kind, span=2.0 * (pillars + 1), pillar_count=pillars, crosswise_top_ropes=crosswise))


def id_order(el) -> np.ndarray:
    """The free dofs by ascending node id, then x, y, rz: the dof-map order
    of ``AnalysisResult.displacements``."""
    view = el.view
    return (3 * view.by_id[:, None] + np.arange(3))[view.free[view.by_id]]


def band_order(el) -> np.ndarray:
    """The position in the dof-map order of each free dof in band order."""
    free = id_order(el)
    rank = np.empty(3 * len(el.view.x), dtype=int)
    rank[free] = np.arange(len(free))
    return rank[el.dofs]


def free_system(model, taut=None) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's dense K and F over the free dofs, in dof-map order,
    with the cables of the ids ``taut`` taut (default: all)."""
    el = _elements(model)
    active = np.isin(el.cable_ids, list(taut)) if taut is not None else np.ones(len(el.cable_ids), dtype=bool)
    K, F = dense_system(el, active)
    free = id_order(el)
    return K[np.ix_(free, free)], F[free]


def solve_dense(K: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The banded solve of a dense K, whose positions name its dofs."""
    return solver._solve(lower_band(K), F, str)


def cantilever(n_elements: int, length: float = 3.0, loads=()):
    nodes = [Node(k + 1, length * k / n_elements, 0.0) for k in range(n_elements + 1)]
    beams = [BeamElement(k + 1, k + 1, k + 2, "timber", "deck") for k in range(n_elements)]
    supports = [Support(1, restrain_x=True, restrain_y=True, restrain_rz=True)]
    return build_model(nodes, [MAT], [SEC], beams, supports=supports, loads=loads)


RELEASES = [(False, False), (True, False), (False, True), (True, True)]


def table_local(e, a, i, l, pin_i=False, pin_j=False) -> np.ndarray:
    """The element table's local stiffness of one frame element."""
    k, _ = _frame_local(*(np.array([v], dtype=float) for v in (e, a, i, l, 0.0, 0.0)),
                        np.array([pin_i]), np.array([pin_j]))
    return k[0]


def rigid_body_modes(l: float) -> list[np.ndarray]:
    return [
        np.array([1.0, 0, 0, 1.0, 0, 0]),
        np.array([0, 1.0, 0, 0, 1.0, 0]),
        np.array([0, 0, 1.0, 0, l, 1.0]),  # rotation about node i
    ]


class TestBeamStiffness:
    def test_unit_entries(self):
        k = table_local(1.0, 1.0, 1.0, 1.0)
        assert k[0, 0] == approx(1.0)
        assert k[1, 1] == approx(12.0)
        assert k[2, 2] == approx(4.0)
        assert k[2, 5] == approx(2.0)

    @given(positive, positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_exactly(self, e, a, i, l):
        for pins in RELEASES:
            k = table_local(e, a, i, l, *pins)
            assert np.array_equal(k, k.T)

    @given(positive, positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_rigid_body_modes_annihilated(self, e, a, i, l):
        for pins in RELEASES:
            k = table_local(e, a, i, l, *pins)
            scale = np.abs(k).max()
            for r in rigid_body_modes(l):
                assert np.abs(k @ r).max() <= 1e-9 * scale * max(np.abs(r).max(), 1.0)

    def test_nonpositive_rejected(self):
        for bad in [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            with pytest.raises(NonPositiveProperty):
                beam_stiffness_local(*bad)

    def test_released_ends_have_exact_nullity(self):
        # Hinged variants still annihilate rigid-body motion.
        L = 2.5
        for pin_i, pin_j in RELEASES[1:]:
            k = table_local(E, A, I, L, pin_i, pin_j)
            rot = np.array([0, 0, 1.0, 0, L, 1.0])
            assert np.abs(k @ rot).max() <= 1e-9 * np.abs(k).max()

    @given(
        st.floats(min_value=1e6, max_value=1e12),
        positive,
        positive,
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.just(0.0) | st.floats(min_value=1e-3, max_value=1e4) | st.floats(min_value=-1e4, max_value=-1e-3),
        st.sampled_from(RELEASES),
    )
    @settings(max_examples=200, deadline=None)
    def test_condensed_table_matches_closed_forms(self, e, a, i, length, angle, w, pins):
        # One member of the element table against the case-by-case closed
        # forms: the local and global stiffness and the global loads of a
        # uniform load w, for every release pattern.
        pin_i, pin_j = pins
        model = build_model(
            [Node(1, 0.0, 0.0), Node(2, length * math.cos(angle), length * math.sin(angle))],
            [Material("m", e, 0.0, 1e6)], [Section("s", a, i, 0.1)],
            [BeamElement(1, 1, 2, "m", "s", pin_i=pin_i, pin_j=pin_j)],
            loads=[UniformLoad(1, w)],
        )
        el = _elements(model)
        L = model.element_length(model.beam(1))
        cx, cy = model.node(2).x / L, model.node(2).y / L
        k = beam_local(e, a, i, L, pin_i, pin_j)
        T = transformation(cx, cy)
        loads = T.T @ fixed_end_local(-w * cy, -w * cx, L, pin_i, pin_j)

        def close(table, oracle):
            return np.abs(table - oracle).max() <= 1e-12 * np.abs(oracle).max()

        assert close(el.k_local[0], k)
        assert close(el.k_global[0], T.T @ k @ T)
        assert close(el.loads, loads)
        released = [r for r, pinned in ((2, pin_i), (5, pin_j)) if pinned]
        assert not el.k_local[0][released].any() and not el.k_local[0][:, released].any()
        assert not el.fixed_end[0][released].any()
        for r in rigid_body_modes(L):
            assert np.abs(el.k_local[0] @ r).max() <= 1e-9 * np.abs(el.k_local[0]).max() * max(L, 1.0)

    @given(
        # The release patterns a table may hold: none released (neither end
        # is condensed), only j-ends, only i-ends, or both ends released.
        st.sampled_from([
            ((False, False),),
            ((False, True),),
            ((False, False), (False, True)),
            ((True, False),),
            ((True, True),),
            ((False, False), (True, True)),
            tuple(RELEASES),
        ]),
        st.lists(
            st.tuples(
                st.floats(min_value=1e6, max_value=1e12), positive, positive,
                st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=0.0, max_value=2 * math.pi),
                st.just(0.0) | st.floats(min_value=1e-3, max_value=1e4) | st.floats(min_value=-1e4, max_value=-1e-3),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_tables_of_several_members_match_closed_forms(self, patterns, members):
        # A table of several members, each on its own two nodes, whose
        # release patterns are drawn from ``patterns``: an end that no
        # member releases is not condensed at all.
        nodes, materials, sections, beams, loads, pins = [], [], [], [], [], []
        for k, (e, a, i, length, angle, w, pick) in enumerate(members):
            pin_i, pin_j = patterns[pick % len(patterns)]
            nodes += [Node(2 * k + 1, 3.0 * k, 0.5 * k),
                      Node(2 * k + 2, 3.0 * k + length * math.cos(angle), 0.5 * k + length * math.sin(angle))]
            materials.append(Material(f"m{k}", e, 0.0, 1e6))
            sections.append(Section(f"s{k}", a, i, 0.1))
            beams.append(BeamElement(k + 1, 2 * k + 1, 2 * k + 2, f"m{k}", f"s{k}", pin_i=pin_i, pin_j=pin_j))
            loads.append(UniformLoad(k + 1, w))
            pins.append((pin_i, pin_j))
        model = build_model(nodes, materials, sections, beams, loads=loads)
        el = _elements(model)

        def close(table, oracle):
            return np.abs(table - oracle).max() <= 1e-12 * np.abs(oracle).max()

        for k, ((e, a, i, _, _, w, _), (pin_i, pin_j)) in enumerate(zip(members, pins)):
            beam = model.beam(k + 1)
            ni, nj = model.node(beam.node_i), model.node(beam.node_j)
            L = model.element_length(beam)
            T = transformation((nj.x - ni.x) / L, (nj.y - ni.y) / L)
            cx, cy = T[0, 0], T[0, 1]
            local = beam_local(e, a, i, L, pin_i, pin_j)
            assert close(el.k_local[k], local)
            assert close(el.k_global[k], T.T @ local @ T)
            assert close(el.loads[6 * k : 6 * k + 6], T.T @ fixed_end_local(-w * cy, -w * cx, L, pin_i, pin_j))
            released = [r for r, pinned in ((2, pin_i), (5, pin_j)) if pinned]
            assert not el.k_local[k][released].any() and not el.k_local[k][:, released].any()
            assert not el.fixed_end[k][released].any()


class TestCableStiffness:
    def test_horizontal_unit(self):
        k = cable_stiffness_global(1.0, 1.0, 1.0, 1.0, 0.0)
        assert k[0, 0] == approx(1.0)
        assert k[1, 1] == 0.0

    def test_45_degrees_entries(self):
        e, a, l = 2.0, 3.0, 5.0
        c = math.sqrt(0.5)
        k = cable_stiffness_global(e, a, l, c, c)
        assert np.abs(k) == approx(np.full((4, 4), e * a / (2 * l)))

    @given(st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_rank_one(self, angle):
        k = cable_stiffness_global(2e9, 1e-4, 3.0, math.cos(angle), math.sin(angle))
        assert np.linalg.matrix_rank(k, tol=1e-9 * np.abs(k).max()) == 1

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            cable_stiffness_global(1.0, 1.0, 1.0, 1.0, 1.0)

    @given(positive, positive, st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_assembled_block_matches_outer_product(self, e, a, length, angle):
        model = build_model(
            [Node(1, 0.0, 0.0), Node(2, length * math.cos(angle), length * math.sin(angle))],
            [Material("m", e, 0.0, 1e6)], [SEC], cables=[CableElement(1, 1, 2, "m", a)],
        )
        K, _ = dense_system(_elements(model), np.ones(1, dtype=bool))
        L = model.element_length(model.cable(1))
        oracle = cable_stiffness_global(e, a, L, model.node(2).x / L, model.node(2).y / L)
        block = K[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])]
        assert np.abs(block - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestFixedEndForces:
    def test_zero_load(self):
        assert np.array_equal(fixed_end_forces(0.0, 10.0), np.zeros(6))

    def test_hand_values(self):
        f = fixed_end_forces(1000.0, 10.0)
        assert abs(f[1]) == approx(5000.0)
        assert abs(f[4]) == approx(5000.0)
        assert abs(f[2]) == approx(8333.333333333334, rel=1e-12)
        assert abs(f[5]) == approx(8333.333333333334, rel=1e-12)

    @given(st.floats(min_value=-1e4, max_value=1e4), st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_vertical_resultant_is_wL(self, w, L):
        f = fixed_end_forces(w, L)
        assert f[1] + f[4] == approx(-w * L, rel=1e-12, abs=1e-9)


class TestAssemble:
    def test_two_element_cantilever_matrix_and_tip_deflection(self):
        # Independent oracle: assemble the 2-element cantilever matrix by
        # hand from element blocks, then check the tip deflection PL^3/3EI.
        model = cantilever(2, length=2.0, loads=[NodalForce(3, fy=-1000.0)])
        K, F = free_system(model)

        k_el = beam_stiffness_local(E, A, I, 1.0)
        expected = np.zeros((6, 6))
        expected[:3, :3] = k_el[3:, 3:]  # node 2 from element 1
        expected[:3, :3] += k_el[:3, :3]  # node 2 from element 2
        expected[:3, 3:] = k_el[:3, 3:]
        expected[3:, :3] = k_el[3:, :3]
        expected[3:, 3:] = k_el[3:, 3:]
        assert K == approx(expected, rel=1e-12)

        u, _ = solve_dense(K, F)
        result = analyze(model)
        tip = abs(result.node_displacements[3][1])
        assert tip == approx(1000.0 * 2.0**3 / (3 * E * I), rel=1e-9)
        assert abs(u[dof_map(model).index[(3, 1)]]) == approx(tip, rel=1e-12)

    def test_assembly_is_bitwise_deterministic(self):
        model = ss_beam(4, loads=[UniformLoad(2, 500.0)])
        none = np.zeros(0, dtype=bool)
        first, second = _elements(model), _elements(model)
        K1, F1 = solver._band(first, none), solver._loads(first, none)
        K2, F2 = solver._band(second, none), solver._loads(second, none)
        assert K1.tobytes() == K2.tobytes()
        assert F1.tobytes() == F2.tobytes()

    def test_inactive_cables_match_cable_free_model(self):
        nodes = [Node(1, 0, 0), Node(2, 6, 0), Node(3, 12, 0)]
        beams = [BeamElement(1, 1, 2, "timber", "deck"), BeamElement(2, 2, 3, "timber", "deck")]
        supports = [Support(1, restrain_x=True, restrain_y=True), Support(3, restrain_y=True)]
        with_cable = build_model(
            nodes, [MAT], [SEC], beams,
            cables=[CableElement(3, 1, 3, "timber", 1e-4)],
            supports=supports,
        )
        without = build_model(nodes, [MAT], [SEC], beams, supports=supports)
        K_inactive, _ = free_system(with_cable, taut=())
        K_bare, _ = free_system(without)
        assert K_inactive.tobytes() == K_bare.tobytes()

    def test_symmetry_and_rigid_body_nullity_random(self, random_models):
        for model in random_models:
            K, _ = dense_system(_elements(model), np.ones(len(model.cables), dtype=bool))
            scale = np.abs(K).max()
            assert np.abs(K - K.T).max() <= 1e-9 * scale
            # Three planar rigid-body vectors over all candidate dofs.
            n = len(model.nodes)
            tx = np.zeros(3 * n)
            ty = np.zeros(3 * n)
            rot = np.zeros(3 * n)
            for k, node in enumerate(model.nodes):
                tx[3 * k] = 1.0
                ty[3 * k + 1] = 1.0
                rot[3 * k] = -node.y
                rot[3 * k + 1] = node.x
                rot[3 * k + 2] = 1.0
            for r in (tx, ty, rot):
                denom = scale * max(np.abs(r).max(), 1.0)
                assert np.abs(K @ r).max() <= 1e-9 * denom


class TestSolveLinear:
    @staticmethod
    def grounded_replica_slack():
        # With every rope slack, each of the 23 pinned pillars of the
        # grounded replica swings freely and unloaded.
        K, F = free_system(replica(BridgeKind.LEONARDO_GROUNDED, 23), taut=())
        return K, F, 23

    @staticmethod
    def random_semidefinite():
        # A dense K whose null space every dof shares, so the particular
        # solution (dropped dofs at 0) is not the minimum-norm one.
        a = np.random.default_rng(5).standard_normal((40, 31))
        K = a @ a.T
        return K, K @ np.linspace(-1.0, 1.0, 40), 9

    @pytest.mark.parametrize("system", ["grounded_replica_slack", "random_semidefinite"])
    def test_minimum_norm_solution_of_unloaded_mechanisms(self, system):
        # K is singular, the load does no work on its null space, and the
        # solve returns the minimum-norm solution, as lstsq does.
        K, F, deficiency = getattr(self, system)()
        u, dropped = solve_dense(K, F)
        assert len(dropped) == deficiency
        assert np.linalg.norm(K @ u - F) <= 1e-12 * np.linalg.norm(F)
        reference, *_ = np.linalg.lstsq(K, F, rcond=None)
        assert np.linalg.norm(u - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_rigid_body_rank_oracle_then_singular_solve(self):
        # Rank check on an unconstrained 2-node beam: exactly 3 rigid modes.
        model = build_model(
            [Node(1, 0, 0), Node(2, 4, 0)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
        )
        K, _ = dense_system(_elements(model), np.zeros(0, dtype=bool))
        assert np.linalg.matrix_rank(K, tol=1e-9 * np.abs(K).max()) == 3

        # A mechanism that carries load must raise at solve time: a midspan
        # node held only by two collinear cables, loaded transversely.
        mech = build_model(
            [Node(1, 0, 0), Node(2, 5, 0), Node(3, 10, 0)],
            [ROPE], [SEC],
            cables=[CableElement(1, 1, 2, "rope", 1e-4), CableElement(2, 2, 3, "rope", 1e-4)],
            supports=[
                Support(1, restrain_x=True, restrain_y=True),
                Support(3, restrain_x=True, restrain_y=True),
            ],
            loads=[NodalForce(2, fy=-100.0)],
        )
        assert validate(mech).ok
        with pytest.raises(SingularSystem):
            tension_only_analyze(mech)

    # The solve's other failure texts, each on a crafted band.
    def test_non_finite_entries(self):
        ab = np.array([[2.0, np.nan, 2.0], [-1.0, -1.0, 0.0]], order="F")
        with pytest.raises(SingularSystem, match="^stiffness matrix has non-finite entries$"):
            solver._solve(ab, np.ones(3), str)

    def test_negative_pivot(self):
        # K = diag(-1, 2): a pivot below zero is no zero-energy mode.
        with pytest.raises(SingularSystem, match="^stiffness matrix is not positive semi-definite$"):
            solver._solve(np.array([[-1.0, 2.0]], order="F"), np.ones(2), str)

    def test_full_rank_but_unbalanced(self):
        # K = [[1, 1 - d], [1 - d, 1]] with d = 1e-9 keeps both pivots (the
        # second one squared is 2e-9 of its diagonal, above PIVOT_RTOL), but
        # cond(K) is 2e9, and this load leaves a residual above 1e-8 of it.
        ab = np.array([[1.0, 1.0], [1.0 - 1e-9, 0.0]], order="F")
        c, info = dpbtrf(ab, lower=1)
        assert info == 0 and not solver._small_pivots(c, ab[0]).any()
        with pytest.raises(SingularSystem, match=r"^stiffness system is numerically singular \(residual too large\)$"):
            solver._solve(ab, np.array([0.3, -0.7]), str)


def erection_stages():
    plan = erection.ErectionPlan(
        module_length=1.5, module_count=12, deck_weight_per_length=1200.0,
        counterweight=4e4, counterweight_lever=2.0, pillar_interval=3,
    )
    return [stage.model for stage in erection.expand_plan(plan)]


class TestSolveBlocks:
    # A single model's full-rank solve is the one-block case of
    # _solve_blocks: each block stands or falls as it would alone, and the
    # system handed in is only read.
    NAN = (np.array([[2.0, -1.0], [-1.0, np.nan]]), np.array([1.0, 1.0]))
    NAN_LOAD = (np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([np.nan, 1.0]))
    ZERO_PIVOT = (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0]))
    UNBALANCED = (np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]), np.array([0.3, -0.7]))
    GOOD = (np.array([[4.0, -1.0, 0.5], [-1.0, 3.0, -1.0], [0.5, -1.0, 5.0]]), np.array([1.0, -2.0, 0.5]))
    REJECTED = ("NAN", "NAN_LOAD", "ZERO_PIVOT", "UNBALANCED")

    @staticmethod
    def stack(*blocks):
        """Lower band storage of the blocks' block-diagonal K, padded to
        the widest, their stacked right-hand sides and the blocks' first
        rows."""
        K = np.zeros((sum(len(f) for _, f in blocks),) * 2)
        starts = np.cumsum([0] + [len(f) for _, f in blocks])
        for (k, _), lo, hi in zip(blocks, starts, starts[1:]):
            K[lo:hi, lo:hi] = k
        return lower_band(K), np.concatenate([f for _, f in blocks]), starts[:-1]

    @pytest.mark.parametrize("names", [[name] for name in REJECTED] + [list(REJECTED), list(REJECTED[::-1])])
    def test_rejected_blocks_leave_the_system_alone(self, names):
        ab, F, starts = self.stack(*(getattr(self, name) for name in names))
        before = ab.copy(order="F"), F.copy()
        u, ok = solver._solve_blocks(ab, F, starts)
        assert not ok.any() and len(ok) == len(names)
        assert ab.tobytes() == before[0].tobytes() and F.tobytes() == before[1].tobytes()
        assert not u.any()

    @pytest.mark.parametrize("rejected", REJECTED)
    def test_a_standing_block_is_the_same_alone_and_stacked(self, rejected):
        # A NaN reaches the other blocks through the zeros and may get a
        # good one rejected too; solved again on its own columns, as
        # _analyze_prefixes does, that one is the same as alone.
        alone, ok = solver._solve_blocks(*self.stack(self.GOOD))
        assert ok.tolist() == [True]
        bad = getattr(self, rejected)
        blocks = [bad, self.GOOD, self.ZERO_PIVOT, self.GOOD, bad, self.UNBALANCED, self.GOOD, bad]
        ab, F, starts = self.stack(*blocks)
        u, ok = solver._solve_blocks(ab, F, starts)
        good = [block is self.GOOD for block in blocks]
        if rejected.startswith("NAN"):
            assert not (ok & ~np.array(good)).any()
        else:
            assert ok.tolist() == good
        for k in np.flatnonzero(good):
            lo, hi = starts[k], starts[k] + 3
            got = u[lo:hi] if ok[k] else solver._solve(np.asfortranarray(ab[:, lo:hi]), F[lo:hi], str)[0]
            assert got.tobytes() == alone.tobytes()

    def test_the_full_rank_solve_is_one_block(self):
        ab, F, starts = self.stack(self.GOOD)
        u, ok = solver._solve_blocks(ab, F, starts)
        assert solver._solve(ab, F, str)[0].tobytes() == u.tobytes()

    def test_the_residual_rule_does_not_overflow(self):
        # ||F|| of about 1e300 squares past the largest double: summing the
        # plain squares made both norms inf, and inf <= inf passed a
        # residual of 1e-5 ||F||. Scaled norms keep every verdict.
        F = np.array([3e299, -6e299, 7e299, 1e299])
        norm = float(np.sqrt(np.sum((F / 1e299) ** 2))) * 1e299
        blocks = {
            "big, off": (F * (1e-5 * norm / 1e300), F),
            "big, within": (F * 1e-12, F),
            "zero": (np.zeros(3), np.zeros(3)),
            "small, within": (np.array([5e-9, 0.0]), np.array([1e-3, 0.0])),  # under the 1 N floor
            "small, off": (np.array([2e-8, 0.0]), np.array([1e-3, 0.0])),
            "nan residual": (np.array([np.nan, 0.0]), np.array([1.0, 2.0])),
            "nan load": (np.array([0.0, 0.0]), np.array([np.nan, 2.0])),
            "inf and nan": (np.array([np.inf, np.nan]), np.array([np.inf, 2.0])),
            "tiny": (np.array([5e-324, 0.0]), np.array([1e-310, 5e-324])),
        }
        expected = [False, True, True, True, False, False, False, False, True]
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # underflow stays harmless
            alone = [solver._balanced(r, f, np.zeros(1, dtype=int))[0] for r, f in blocks.values()]
            residual, F = (np.concatenate(v) for v in zip(*blocks.values()))
            starts = np.cumsum([0] + [len(f) for _, f in blocks.values()])[:-1]
            stacked = solver._balanced(residual, F, starts).tolist()
        assert alone == stacked == expected


class TestOneBlockBatch:
    # Each row of _analyze_prefixes is its sub-model's own analysis, bit
    # for bit, and a cable-free model without self-weight, analyzed as its
    # own full prefix, is the single analysis: the same band, loads, solve
    # and recovery.
    @staticmethod
    def same(done, row, result):
        """The row's maxima and reactions are the analysis' bits."""
        assert done.max_utilization[row].hex() == result.max_utilization.hex()
        assert done.max_deflection[row].hex() == result.max_deflection.hex()
        index = {node.id: k for k, node in enumerate(result.model.nodes)}
        for nid, comp in dof_map(result.model).restrained:
            assert done.residual[row, 3 * index[nid] + comp].hex() == result.reactions[nid][comp].hex()

    def test_each_prefix_is_its_own_analysis(self):
        # The stages of an erection plan, with a nodal force on every deck
        # node, so that each stage leaves out loads, beams and nodes.
        plan = erection.ErectionPlan(1.5, 12, 1200.0, 4e4, 2.0, 3)
        deck = erection._Deck.of(plan)
        forces = [NodalForce(n.id, fx=10.0 * k, fy=-300.0 * k, mz=20.0 * k) for k, n in enumerate(deck.nodes)]
        nodes = np.array([step.built + 2 for step in deck.steps])
        restrained = np.zeros((len(nodes), 3 * len(deck.nodes)), dtype=bool)
        for step in deck.steps:
            restrained[step.index, [3 * (m + 1) + 1 for m in step.bearing_modules]] = True
        solved, done = solver._analyze_prefixes(_elements(deck.model(plan.module_count, ()).with_loads(forces)),
                                                nodes, nodes - 1, restrained)
        assert solved.all()
        for step in deck.steps:
            model = deck.model(step.built, step.bearing_modules).with_loads(forces[: step.built + 2])
            self.same(done, step.index, tension_only_analyze(model))
    @staticmethod
    def rows_are_their_analyses(model, subs):
        """Each row of the batch of ``subs`` (node count, beam count, extra
        restrained node ids) is its sub-model's own analysis, bit for bit."""
        index = {n.id: k for k, n in enumerate(model.nodes)}
        nodes, beams = (np.array([sub[k] for sub in subs]) for k in (0, 1))
        restrained = np.zeros((len(subs), 3 * len(model.nodes)), dtype=bool)
        for row, (_, _, held) in enumerate(subs):
            restrained[row, [3 * index[nid] + 1 for nid in held]] = True
        solved, done = solver._analyze_prefixes(_elements(model), nodes, beams, restrained)
        assert solved.all()
        for row, (k, b, held) in enumerate(subs):
            ids, members = {n.id for n in model.nodes[:k]}, {e.id for e in model.beams[:b]}
            loads = [l for l in model.loads if getattr(l, "node", None) in ids or getattr(l, "beam", None) in members]
            supports = [*(sup for sup in model.supports if sup.node in ids), *(Support(nid, restrain_y=True) for nid in held)]
            sub = build_model(model.nodes[:k], model.materials, model.sections, model.beams[:b], (), supports, loads)
            TestOneBlockBatch.same(done, row, tension_only_analyze(sub))

    def test_a_mirrored_deck_cuts_its_stages_from_the_head_of_the_band(self):
        # x -> -x reverses the band order: each stage's dofs are a head of
        # the finished deck's, not a tail, and the tip comes last.
        plan = erection.ErectionPlan(1.5, 12, 1200.0, 4e4, 2.0, 3)
        deck = erection._Deck.of(plan)
        forces = [NodalForce(n.id, fx=10.0 * k, fy=-300.0 * k, mz=20.0 * k) for k, n in enumerate(deck.nodes)]
        model = mirror(deck.model(plan.module_count, ()).with_loads(forces))
        assert _elements(model).dofs[0] // 3 == 0  # the ballast node first
        self.rows_are_their_analyses(model, [(s.built + 2, s.built + 1, [2 + m for m in s.bearing_modules])
                                             for s in deck.steps])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 6])
    def test_prefixes_of_a_tree_and_its_braces(self, seed):
        # A tree grown node by node along x with jitter, so node ids, and
        # the prefixes, follow no band order: each new node joins one of the
        # two before it, and a beam a prefix lacks reaches one of its nodes
        # anywhere in its band. Then braces between nodes three apart, which
        # the prefixes with every node lack: a beam they lack joins two of
        # their nodes. The band stays narrower than 16: from there on a
        # band padded to the batch's width solves to other bits than alone.
        rng = random.Random(seed)
        count = 16
        xy = [(k + rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.5)) for k in range(count)]
        beams = [(k - rng.randint(1, min(2, k)), k) for k in range(1, count)]
        beams += rng.sample([(k - 3, k) for k in range(3, count)], 5)
        ids = sorted(rng.sample(range(1, 1000), count))
        model = build_model(
            [Node(nid, x, y) for nid, (x, y) in zip(ids, xy)], [MAT], [SEC],
            [BeamElement(100 + k, ids[i], ids[j], "timber", "deck") for k, (i, j) in enumerate(beams)],
            (), [Support(ids[0], True, True, True)],
            [*(NodalForce(nid, fx=rng.uniform(-1e3, 1e3), fy=rng.uniform(-5e3, 0.0), mz=rng.uniform(-1e2, 1e2))
               for nid in ids[1:]),
             *(UniformLoad(100 + k, rng.uniform(100.0, 900.0)) for k in range(0, len(beams), 2))])
        assert [n.id for n in model.nodes] != [n.id for n in sorted(model.nodes, key=lambda n: n.x)]
        assert _elements(model).bandwidth < 16
        subs = [(k, k - 1, [ids[k - 1]] if k % 3 == 0 else []) for k in range(2, count + 1)]
        subs += [(count, b, [ids[count // 2]] if b % 2 else []) for b in range(count - 1, len(beams) + 1)]
        rng.shuffle(subs)
        self.rows_are_their_analyses(model, subs)

    @staticmethod
    def weightless(model, udl: float):
        """The model without its self-weight, its end beams' outer ends
        pinned, a uniform load on every deck beam and a nodal force at its
        middle node."""
        beams = list(model.beams)
        beams[0], beams[-1] = beams[0]._replace(pin_i=True), beams[-1]._replace(pin_j=True)
        loads = [l for l in model.loads if not isinstance(l, SelfWeight)]
        model = build_model(model.nodes, model.materials, model.sections, beams, model.cables, model.supports, loads)
        middle = model.nodes[len(model.nodes) // 2].id
        return model.with_loads([NodalForce(middle, fx=300.0, fy=-2500.0, mz=40.0)]).with_loads(
            UniformLoad(b.id, udl) for b in model.beams if b.id in set(deck_beam_ids(model)))

    @staticmethod
    def models():
        yield TestOneBlockBatch.weightless(generate_preset("BARE_DECK"), 1500.0)
        for segments, span in ((6, 12.0), (17, 25.5), (48, 60.0)):
            for kind in (BridgeKind.BEAM, BridgeKind.CANTILEVER):
                if kind is BridgeKind.CANTILEVER and segments % 3:
                    continue
                spec = BridgeSpec(kind, span=span, deck_segments=segments)
                yield TestOneBlockBatch.weightless(generate(spec), 800.0 + 10 * segments)
        yield from erection_stages()

    def test_single_analysis_is_the_one_block_batch(self):
        count = 0
        for model in self.models():
            assert not model.cables and not any(isinstance(l, SelfWeight) for l in model.loads)
            n = len(model.nodes)
            solved, done = solver._analyze_prefixes(_elements(model), np.array([n]), np.array([len(model.beams)]),
                                                    np.zeros((1, 3 * n), dtype=bool))
            assert solved.tolist() == [True]
            self.same(done, 0, tension_only_analyze(model))
            count += 1
        assert count == 1 + 5 + len(erection_stages())


def planted_band(seed: int, n: int, width: int, zero: list[int], scale: list[int]):
    """K = S L L^T S for a random lower band factor L of the given width,
    diagonally dominant, whose columns ``zero`` are 0: rank n - len(zero),
    and those are the pivots a band factorization drops. S scales row and
    column k by 2**scale[k], exactly. Scales stay within 2**±4: at 2**±8
    the dense oracle, whose rank tolerance is absolute in max diag K, was
    the less accurate side (1.3e-9 from the exact minimum-norm solution on
    one of 5 000 draws, where the banded solve was within 1e-13)."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.uniform(-0.5, 0.5, (n, n)) / (width + 1))
    L -= np.tril(L, -width - 1)
    L[range(n), range(n)] = rng.uniform(1.0, 2.0, n)
    L[:, zero] = 0.0
    s = 2.0 ** np.array(scale)
    return s[:, None] * (L @ L.T) * s, rng


class TestBandedSolve:
    # The banded factorization against the dense pivoted Cholesky it
    # replaced: the same rank, the same number of dropped dofs, and the
    # same minimum-norm u to 1e-9.
    @staticmethod
    def check(model, taut: bool):
        el = _elements(model)
        active = np.full(len(el.cable_ids), taut)
        K, F = free_system(model, el.ids(active))
        expected, deficiency = dense_minimum_norm_solve(K, F)
        order = band_order(el)
        u, dropped = solver._solve(solver._band(el, active), F[order], el.dof_names)
        assert len(dropped) == deficiency
        got = np.empty(len(u))
        got[order] = u
        assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)
        return deficiency

    @pytest.mark.parametrize("taut", [True, False])
    @pytest.mark.parametrize("preset_id", [p.id.value for p in presets()])
    def test_presets(self, preset_id, taut):
        self.check(generate_preset(preset_id), taut)

    @pytest.mark.parametrize("cables", ["taut", "slack", "random"])
    def test_band_is_the_dense_stiffness(self, cables, random_models):
        # Summed in the same element order, every entry of the band is
        # bitwise the dense K's, nothing lies outside the band, and the
        # loads are the dense F: what the tests check on the dense K
        # (symmetry, rigid-body nullity, A7) holds for the band analyzed.
        rng = np.random.default_rng(7)
        models = [
            *(generate_preset(p.id) for p in presets()),
            *(generate(BridgeSpec(kind)) for kind in BridgeKind),
            *random_models,
            # No generated model has pretension; these give every cable some.
            *(build_model(m.nodes, m.materials, m.sections, m.beams,
                          [c._replace(pretension=100.0 * c.id) for c in m.cables], m.supports, m.loads)
              for m in random_models if m.cables),
            *(replica(kind, pillars, crosswise) for pillars in (1, 2, 3, 7, 15, 31, 47, 63, 95, 120)
              for kind in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED) for crosswise in (False, True)),
        ]
        for model in models:
            el = _elements(model)
            active = rng.random(len(el.cable_ids)) < {"taut": 1.0, "slack": 0.0, "random": 0.5}[cables]
            K, F = dense_system(el, active)
            K = K[np.ix_(el.dofs, el.dofs)]
            ab = solver._band(el, active)
            dense = lower_band(K)
            assert len(dense) <= len(ab) and not np.triu(K, len(ab)).any()
            expected = np.zeros(ab.shape)
            expected[: len(dense)] = dense
            assert ab.tobytes() == expected.tobytes()
            assert solver._loads(el, active)[el.dofs].tobytes() == F[el.dofs].tobytes()

    @pytest.mark.parametrize("taut", [True, False])
    @pytest.mark.parametrize("pillars, n_free", [(23, 141), (95, 573), (383, 2301)])
    def test_ladder_rungs(self, pillars, n_free, taut):
        model = replica(BridgeKind.LEONARDO_GROUNDED, pillars)
        assert len(_elements(model).dofs) == n_free
        # Slack ropes leave each pinned pillar one zero-energy mode.
        assert self.check(model, taut) == (0 if taut else pillars)

    def test_erection_stages(self):
        for model in erection_stages():
            self.check(model, True)

    def test_no_dense_matrix_on_the_analysis_path(self):
        # A dense free-dof K of the 2 301-dof replica alone would take
        # 42 MB; the whole banded analysis peaks near 3.5 MB.
        model = replica(BridgeKind.LEONARDO_GROUNDED, 383)
        n = len(_elements(model).dofs)
        tracemalloc.start()
        try:
            analyze(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, min(6, n - 1)),
                st.lists(st.integers(0, n - 1), max_size=n // 3, unique=True),
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            )
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_planted_zero_pivots(self, seed, shape):
        n, width, zero, scale = shape
        K, rng = planted_band(seed, n, width, zero, scale)
        F = K @ rng.standard_normal(n)
        expected, deficiency = dense_minimum_norm_solve(K, F)
        u, dropped = solve_dense(K, F)
        assert deficiency == len(zero)
        assert sorted(dropped.tolist()) == sorted(zero)
        assert np.linalg.norm(u - expected) <= 1e-9 * np.linalg.norm(expected)


def slack_system(model) -> tuple[np.ndarray, np.ndarray]:
    """The model's K in band storage, and its F, with every cable slack."""
    el = _elements(model)
    slack = np.zeros(len(el.cable_ids), dtype=bool)
    return solver._band(el, slack), solver._loads(el, slack)[el.dofs]


class TestNullBasis:
    # Each mode solved on its own window of the factor against one
    # back-substitution over the whole factor.
    @staticmethod
    def check(ab) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        c, dropped = solver._semidefinite_factor(ab)
        assert len(dropped)
        rows, mode, values = solver._null_basis(c, dropped)
        windowed = np.zeros((ab.shape[1], len(dropped)))
        windowed[rows, mode] = values
        dense = dense_null_basis(c, dropped)
        assert (np.abs(windowed - dense) <= 1e-14 * np.abs(dense).max(axis=0)).all()
        return rows, mode, values, dropped

    # BARE_DECK has no cables, so no mode.
    @pytest.mark.parametrize("preset_id", [p.id.value for p in presets() if p.id.value != "BARE_DECK"])
    def test_presets(self, preset_id):
        self.check(slack_system(generate_preset(preset_id))[0])

    @pytest.mark.parametrize("pillars", [23, 95])
    def test_grounded_rungs(self, pillars):
        # Each pillar's mode is 2 entries above rounding, 2 rows apart, and
        # the pillars' pivots 6 rows apart: no two modes share a row, and
        # N^T N is diagonal.
        rows, mode, values, _ = self.check(slack_system(replica(BridgeKind.LEONARDO_GROUNDED, pillars))[0])
        assert len(rows) <= 4 * pillars
        assert solver._gram_band(rows, mode, values, pillars).shape == (1, pillars)

    def test_dense_modes_grow_to_row_zero(self):
        K, _, deficiency = TestSolveLinear.random_semidefinite()
        rows, mode, _, dropped = self.check(lower_band(K))
        # Every mode runs from row 0 to its own pivot.
        for k, j in enumerate(dropped):
            assert (rows[mode == k].min(), rows[mode == k].max()) == (0, j)
        assert len(dropped) == deficiency

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.lists(st.integers(-4, 4), min_size=300, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_planted_modes_decay_through_their_window(self, seed, width, scale):
        # Modes of a random band factor fall off geometrically above their
        # pivot, over tens of rows, mostly past their first window; the
        # modes at 200 and 201 share rows, so N^T N has a subdiagonal.
        K, _ = planted_band(seed, 300, width, [100, 200, 201, 299], scale)
        self.check(lower_band(K))

    def test_a_mode_that_vanishes_at_its_window_top_only(self):
        # Row lo of the first window is exactly 0, row lo + 1 is not, and
        # the rows above depend on both: all b top rows decide.
        n, b, j = 30, 2, 25
        lo = j - 2 * b
        c = np.zeros((b + 1, n), order="F")
        c[0] = 1.0
        c[1:] = 0.3
        c[1:, lo] = 0.0
        rows, _, values = solver._null_basis(c, np.array([j]))
        windowed = np.zeros(n)
        windowed[rows] = values
        dense = dense_null_basis(c, np.array([j]))[:, 0]
        assert windowed[lo] == 0.0 and rows.min() < lo
        assert (np.abs(windowed - dense) <= 1e-14 * np.abs(dense).max()).all()

    def test_modes_past_their_first_window_in_an_analysis(self, monkeypatch):
        # The grounded replica with crosswise ropes passes through an
        # iteration with 11 modes, one of which reaches above the 2b + 1
        # rows of its first window and is solved from row 0.
        systems = []
        solve = solver._solve

        def recording(ab, F, names):
            systems.append(ab)
            return solve(ab, F, names)

        monkeypatch.setattr(solver, "_solve", recording)
        analyze(generate(BridgeSpec(BridgeKind.LEONARDO_GROUNDED, span=56.0, pillar_count=27,
                                    wheels=Wheels.BOTH_SIDES, crosswise_top_ropes=True)))
        past = 0
        for ab in systems:
            c, info = dpbtrf(ab, lower=1)
            if info == 0 and not solver._small_pivots(c, ab[0]).any():
                continue
            rows, mode, _, dropped = self.check(ab)
            past += sum(rows[mode == k].min() < j - 2 * (len(ab) - 1) for k, j in enumerate(dropped))
        assert past >= 1

    def test_memory_of_a_solve_is_below_a_dense_basis(self):
        # 383 modes over 2 301 dofs: a dense null basis alone would take
        # 7 MB, and the whole windowed solve stays below a quarter of that.
        ab, F = slack_system(replica(BridgeKind.LEONARDO_GROUNDED, 383))
        tracemalloc.start()
        try:
            _, dropped = solver._solve(ab, F, str)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dropped) == 383
        assert peak < len(F) * len(dropped) * 8 / 4


def mirror(model):
    """The model's mirror image: x -> -x, with the nodal forces' fx and mz
    flipped. Uniform loads and self-weight act along y and stay."""
    def load(l):
        return l._replace(fx=-l.fx, mz=-l.mz) if isinstance(l, NodalForce) else l

    return build_model([n._replace(x=0.0 - n.x) for n in model.nodes], model.materials, model.sections,
                       model.beams, model.cables, model.supports, [load(l) for l in model.loads])


def relabel(model, seed: int):
    """The same structure under new node and element ids, drawn at random,
    so nodes, elements and loads come in another order; and the two maps
    from old ids to new."""
    rng = random.Random(seed)
    nodes = dict(zip((n.id for n in model.nodes), rng.sample(range(1, 10 * len(model.nodes) + 1), len(model.nodes))))
    members = [e.id for e in model.beams + model.cables]
    elements = dict(zip(members, rng.sample(range(1, 10 * len(members) + 1), len(members))))

    def member(e):
        return e._replace(id=elements[e.id], node_i=nodes[e.node_i], node_j=nodes[e.node_j])

    def load(l):
        if isinstance(l, UniformLoad):
            return l._replace(beam=elements[l.beam])
        return l._replace(node=nodes[l.node]) if hasattr(l, "node") else l

    loads = [load(l) for l in model.loads]
    rng.shuffle(loads)
    relabelled = build_model(
        [n._replace(id=nodes[n.id]) for n in model.nodes], model.materials, model.sections,
        [member(b) for b in model.beams], [member(c) for c in model.cables],
        [s._replace(node=nodes[s.node]) for s in model.supports], loads,
    )
    return relabelled, nodes, elements


class TestNodeNumbering:
    @given(
        st.one_of(
            st.sampled_from([p.id.value for p in presets()]).map(generate_preset),
            st.builds(
                lambda kind, pillars, crosswise: replica(kind, pillars, crosswise),
                st.sampled_from([BridgeKind.LEONARDO_GROUNDED, BridgeKind.LEONARDO_REPLICA]),
                st.integers(1, 31),
                st.booleans(),
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_relabelled_model_gives_the_same_answer(self, model, seed):
        """The band order comes from the coordinates, so new node and
        element ids change only the order in which element blocks and
        loads are summed, and ties between coincident nodes. The taut set,
        the iterations and the mechanisms stay the same, and the node
        displacements agree within the solve's backward error:
        ||u - u'|| <= 4 eps ||K||_1 ||u||^2 / ||F||, with K and F the
        free-dof system of the taut cables, and 4 a margin over the largest
        ratio measured on the presets and on 150 replicas (0.12)."""
        self.check(model, seed)

    @pytest.mark.parametrize("model", [
        *(pytest.param(replica(BridgeKind.LEONARDO_GROUNDED, pillars), id=f"grounded-{pillars}")
          for pillars in (40, 60, 95)),
        # 8 and 11 active-set iterations: the taut set depends on the order.
        *(pytest.param(generate(BridgeSpec(BridgeKind.CABLE_STAYED, span=span, deck_segments=segments)),
                       id=f"stayed-{segments}") for segments, span in ((50, 100.0), (90, 135.0))),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabelled_model_of_sweep_size_gives_the_same_answer(self, model, seed):
        """As above, on models past the 31 pillars drawn there, with the
        same bound: the largest ratio measured on these, 6 relabellings
        each, was 0.072."""
        self.check(model, seed)

    @staticmethod
    def check(model, seed: int):
        relabelled, nodes, elements = relabel(model, seed)
        a, b = analyze(model), analyze(relabelled)
        assert {elements[c] for c in a.active_cables} == b.active_cables
        assert (a.iterations_used, a.mechanisms) == (b.iterations_used, b.mechanisms)
        K, F = free_system(model, a.active_cables)
        u = np.array([a.node_displacements[n] for n in nodes])
        v = np.array([b.node_displacements[nodes[n]] for n in nodes])
        u_norm = np.linalg.norm(a.displacements)
        eps = np.finfo(float).eps
        assert np.linalg.norm(u - v) <= 4 * eps * np.linalg.norm(K, 1) * u_norm**2 / np.linalg.norm(F)


# A fixed corpus, the presets, the 23-pillar replicas and one deck of each
# kind, as code the test and each subprocess run.
KERNEL_CORPUS = """
from ponte.catalog import BridgeKind, BridgeSpec, generate, generate_preset, presets

models = {p.id.value: generate_preset(p.id) for p in presets()}
for kind in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED):
    models[f"{kind.value}-23"] = generate(BridgeSpec(kind, span=48.0, pillar_count=23))
for kind in (BridgeKind.BEAM, BridgeKind.CANTILEVER, BridgeKind.SUSPENSION, BridgeKind.TRUSS,
             BridgeKind.CABLE_STAYED):
    models[kind.value] = generate(BridgeSpec(kind))
"""
# Prints, per model of the corpus, the taut cables, the iterations, the
# mechanisms and the free-dof displacements as JSON.
KERNEL_RUN = KERNEL_CORPUS + """
import json
from ponte.solver import analyze

out = {}
for name, model in models.items():
    r = analyze(model)
    out[name] = [sorted(r.active_cables), r.iterations_used, r.mechanisms, r.displacements.tolist()]
print(json.dumps(out))
"""
KERNELS = ("Haswell", "Sandybridge", "Prescott")


def dynamic_openblas(package) -> bool:
    """Whether the package was built against an OpenBLAS that picks its
    kernels at run time, so OPENBLAS_CORETYPE selects them."""
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.fixture(scope="module")
def kernel_runs():
    """The corpus analyzed in one subprocess per OpenBLAS kernel, and one
    with the kernel OpenBLAS picks itself (key None)."""
    if not (dynamic_openblas(np) and dynamic_openblas(scipy)):
        pytest.skip("numpy or scipy is not linked to a DYNAMIC_ARCH OpenBLAS")
    src = str(Path(solver.__file__).resolve().parents[1])
    runs = {}
    for kernel in (None, *KERNELS):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        runs[kernel] = subprocess.Popen([sys.executable, "-c", KERNEL_RUN], env=env, stdout=subprocess.PIPE,
                                        text=True)
    return {kernel: json.loads(run.communicate()[0]) for kernel, run in runs.items()}


class TestBlasKernels:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_each_kernel_gives_the_same_answer(self, kernel_runs, kernel):
        """The BLAS kernels split their sums otherwise, so the
        displacements may move in the last bits, within the solve's
        backward error bounded as in ``TestNodeNumbering`` (the largest
        ratio measured on this corpus was 0.079); the taut set, the
        iterations and the mechanisms may not move."""
        default, runs = kernel_runs[None], kernel_runs[kernel]
        corpus = {}
        exec(KERNEL_CORPUS, corpus)
        assert runs.keys() == default.keys() == corpus["models"].keys() and len(default) == 15
        eps = np.finfo(float).eps
        for name, model in corpus["models"].items():
            (taut, iterations, mechanisms, u), got = default[name], runs[name]
            assert got[:3] == [taut, iterations, mechanisms], name
            K, F = free_system(model, taut)
            u, v = np.array(u), np.array(got[3])
            bound = 4 * eps * np.linalg.norm(K, 1) * np.linalg.norm(u) ** 2 / np.linalg.norm(F)
            assert np.linalg.norm(u - v) <= bound, name


class TestMirrorImage:
    @pytest.mark.parametrize("model", [
        *(pytest.param(generate_preset(p.id), id=p.id.value) for p in presets()),
        *(pytest.param(replica(BridgeKind.LEONARDO_REPLICA, pillars, crosswise),
                       id=f"{pillars}{'-crosswise' if crosswise else ''}")
          for pillars in (31, 45, 46, 53) for crosswise in (False, True)),
    ])
    def test_mirrored_model_gives_the_mirrored_answer(self, model):
        """x -> -x reverses the band order, and with it the order of
        elimination, and flips fx, mz and the x and rz displacements. The
        taut set, the iterations and the mechanisms stay the same, and the
        mirrored displacements agree within the solve's backward error,
        bounded as in ``TestNodeNumbering``."""
        a, b = analyze(model), analyze(mirror(model))
        assert a.active_cables == b.active_cables
        assert (a.iterations_used, a.mechanisms) == (b.iterations_used, b.mechanisms)
        K, F = free_system(model, a.active_cables)
        ids = [n.id for n in model.nodes]
        u = np.array([a.node_displacements[n] for n in ids])
        v = np.array([b.node_displacements[n] for n in ids]) * [-1.0, 1.0, -1.0]
        eps = np.finfo(float).eps
        assert np.linalg.norm(u - v) <= 4 * eps * np.linalg.norm(K, 1) * np.linalg.norm(a.displacements) ** 2 / (
            np.linalg.norm(F))


class TestTensionOnly:
    def kingpost(self, direction: float):
        L, h, P = 12.0, 1.5, 10000.0
        nodes = [Node(1, 0, 0), Node(2, L / 2, 0), Node(3, L, 0), Node(4, L / 2, h)]
        beams = [
            BeamElement(1, 1, 2, "timber", "deck"),
            BeamElement(2, 2, 3, "timber", "deck"),
            BeamElement(3, 2, 4, "timber", "deck", pin_i=True),
        ]
        cables = [CableElement(4, 4, 1, "rope", 5e-4), CableElement(5, 4, 3, "rope", 5e-4)]
        supports = [Support(1, restrain_x=True, restrain_y=True), Support(3, restrain_y=True)]
        return build_model(
            nodes, [MAT, ROPE], [SEC], beams, cables, supports,
            loads=[NodalForce(2, fy=direction * P)],
        )

    def test_no_cables_equals_plain_solve(self):
        model = ss_beam(2, loads=[NodalForce(2, fy=-5000.0)])
        result = tension_only_analyze(model)
        K, F = free_system(model)
        u, _ = solve_dense(K, F)
        assert result.displacements == approx(u)
        assert result.active_cables == frozenset()
        assert result.iterations_used == 1

    def test_kingpost_down_slack_and_bare_beam_deflection(self):
        result = tension_only_analyze(self.kingpost(-1.0))
        assert result.active_cables == frozenset()
        assert result.iterations_used <= 5
        delta = abs(result.node_displacements[2][1])
        assert delta == approx(10000.0 * 12.0**3 / (48 * E * I), rel=1e-9)
        # Complementarity: slack cables report no tension.
        assert result.member_forces[4].axial <= EPS_FORCE
        assert result.member_forces[5].axial <= EPS_FORCE

    def test_kingpost_up_taut_equal_tensions(self):
        result = tension_only_analyze(self.kingpost(+1.0))
        assert result.active_cables == frozenset({4, 5})
        t4 = result.member_forces[4].axial
        t5 = result.member_forces[5].axial
        assert t4 > 0 and t5 > 0
        assert t4 == approx(t5, rel=1e-9)
        # Post-top equilibrium: the post carries the vertical pull of both
        # ropes in compression.
        l_cable = math.hypot(6.0, 1.5)
        assert result.member_forces[3].axial == approx(-2 * t4 * 1.5 / l_cable, rel=1e-9)

    def test_pretension_reported_at_zero_displacement(self):
        # Both ends fixed: no free dofs at all, force equals the pretension.
        model = build_model(
            [Node(1, 0, 0), Node(2, 4, 0)], [ROPE], [SEC],
            cables=[CableElement(1, 1, 2, "rope", 5e-4, pretension=250.0)],
            supports=[
                Support(1, restrain_x=True, restrain_y=True),
                Support(2, restrain_x=True, restrain_y=True),
            ],
        )
        result = tension_only_analyze(model)
        assert result.active_cables == frozenset({1})
        assert result.member_forces[1].axial == approx(250.0)
        assert result.reactions[1][0] == approx(-250.0)
        assert result.reactions[2][0] == approx(250.0)

    def test_pretension_and_nodal_load_on_one_free_node(self):
        # Bar 1-2 clamped at 1, pretensioned rope 2-3 pinned at 3, a push
        # at 2: both loads act on node 2's x dof, against k_bar + k_cable.
        P, Fx = 5000.0, 1000.0
        model = build_model(
            [Node(1, 0, 0), Node(2, 2, 0), Node(3, 6, 0)], [MAT, ROPE], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            cables=[CableElement(2, 2, 3, "rope", 5e-4, pretension=P)],
            supports=[
                Support(1, restrain_x=True, restrain_y=True, restrain_rz=True),
                Support(3, restrain_x=True, restrain_y=True),
            ],
            loads=[NodalForce(2, fx=Fx)],
        )
        k_bar, k_cable = E * A / 2.0, ROPE.elastic_modulus * 5e-4 / 4.0
        result = tension_only_analyze(model)
        u2 = result.node_displacements[2][0]
        axial = result.member_forces[2].axial
        assert u2 == approx((Fx + P) / (k_bar + k_cable), rel=1e-12)
        assert axial == approx(P - k_cable * u2, rel=1e-12)
        assert result.active_cables == frozenset({2})
        assert result.reactions[1][0] == approx(-k_bar * u2, rel=1e-12)
        assert result.reactions[3][0] == approx(axial, rel=1e-12)
        assert result.reactions[1][0] + result.reactions[3][0] + Fx == approx(0.0, abs=1e-12 * (Fx + P))
        assert result.reactions[1][1] == result.reactions[3][1] == 0.0

    def test_complementarity_on_random_models(self, random_models):
        for model in random_models[:30]:
            result = tension_only_analyze(model)
            for cable in model.cables:
                force = result.member_forces[cable.id].axial
                if cable.id in result.active_cables:
                    assert force >= -EPS_FORCE
                else:
                    assert force <= EPS_FORCE


class TestUnloadedMechanisms:
    # Slack ropes leave pinned pillars free to swing; the solve accepts
    # these zero-energy modes when the loads do no work on them.
    @pytest.mark.parametrize(
        "preset_id, mechanisms", [("BARE_DECK", 0), ("UNDERSLUNG", 0), ("GROUNDED_STAYED", 5)]
    )
    def test_mechanisms_of_the_converged_solve(self, preset_id, mechanisms):
        assert tension_only_analyze(generate_preset(preset_id)).mechanisms == mechanisms

    def check_all_slack(self, model):
        result = analyze(model)
        assert result.active_cables == frozenset()
        _, fy = applied_force(model)
        ry = sum(r[1] for r in result.reactions.values())
        assert abs(fy + ry) <= 1e-8 * (abs(fy) + 1.0)
        return result

    def check_bare_deck_deflection(self, model, result):
        oracle = analyze(strip_to_bare_deck(model))
        scale = oracle.max_deflection
        for nid in deck_node_ids(model):
            assert result.node_displacements[nid][1] == approx(
                oracle.node_displacements[nid][1], rel=1e-9, abs=1e-9 * scale
            )

    def test_floating_crosswise_replica_converges_in_three_iterations(self):
        model = replica(BridgeKind.LEONARDO_REPLICA, 24, crosswise=True)
        result = self.check_all_slack(model)
        assert result.iterations_used <= 3
        self.check_bare_deck_deflection(model, result)

    def test_floating_replica_of_32_pillars(self):
        model = replica(BridgeKind.LEONARDO_REPLICA, 32)
        self.check_bare_deck_deflection(model, self.check_all_slack(model))

    def test_grounded_replica_of_2301_dofs(self):
        model = replica(BridgeKind.LEONARDO_GROUNDED, 383)
        assert len(_elements(model).dofs) == 2301
        assert self.check_all_slack(model).mechanisms == 383


class TestElementTable:
    # One analysis derives the supports, the free dofs and the member
    # properties once, in the model view that validation, the element
    # table, the self-weight and the reactions read, and builds each beam's
    # geometry and matrices once, shared by every iteration and by force
    # recovery.
    def test_one_dof_numbering_per_analysis(self, monkeypatch):
        views = []
        arrays = model_module._model_arrays
        monkeypatch.setattr(model_module, "_model_arrays", lambda model: views.append(model) or arrays(model))
        model = replace(generate_preset("GRANDE"))  # a copy holds no view yet
        assert analyze(model).iterations_used > 1
        assert views == [model]

    def test_one_element_table_per_analysis(self, monkeypatch):
        tables, frames = [], []
        monkeypatch.setattr(solver, "_elements", lambda model: tables.append(model) or _elements(model))
        monkeypatch.setattr(solver, "_frame_local", lambda *args: frames.append(args) or _frame_local(*args))
        assert tension_only_analyze(generate_preset("GRANDE")).iterations_used > 1
        assert len(tables) == len(frames) == 1

    def test_self_weight_is_lumped_as_self_weight_loads_lumps_it(self, random_models):
        # The table lumps self-weight from its own member columns; the
        # loads must be, byte for byte, the ones self_weight_loads' nodal
        # forces give when added one by one after the other loads.
        def reference(model) -> np.ndarray:
            weights = [l for l in model.loads if isinstance(l, SelfWeight)]
            el = _elements(replace(model, loads=tuple(l for l in model.loads if l not in weights)))
            loads, index = el.loads.copy(), {nid: k for k, nid in enumerate(el.view.node_ids.tolist())}
            for weight in weights:
                for force in self_weight_loads(model, weight.g):
                    at = 3 * index[force.node]
                    loads[at : at + 3] += (force.fx, force.fy, force.mz)
            return loads

        # A chain with unrounded coordinates: on some of its members
        # np.hypot and math.hypot, which element_length uses, differ in the
        # last bit, and so would the loads lumped from them.
        rng = random.Random(11)
        xy = np.cumsum([[rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)] for _ in range(4000)], axis=0)
        chain = build_model(
            [Node(k + 1, x, y) for k, (x, y) in enumerate(xy.tolist())], [Material("m", 2e11, 7850.0, 2e8)],
            [SEC], [BeamElement(k, k, k + 1, "m", "deck") for k in range(1, 4000)],
            [CableElement(4000 + k, k, k + 2, "m", 1e-4) for k in range(1, 3999, 2)],
            [Support(1, True, True, True)], [SelfWeight(9.81)])
        dx, dy = np.diff(xy, axis=0).T
        assert (np.hypot(dx, dy) != [math.hypot(a, b) for a, b in zip(dx, dy)]).sum() > 10
        pillars = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120)
        models = [
            *(generate_preset(p.id) for p in presets()),
            *random_models,
            chain,
            *(generate(BridgeSpec(kind, span=2.0 * (n + 1), pillar_count=n, wheels=wheels, crosswise_top_ropes=cross))
              for kind in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED) for n in pillars
              for wheels, cross in ((Wheels.NONE, False), (Wheels.BOTH_SIDES, True))),
        ]
        weighed = 0
        for model in models:
            weighed += any(isinstance(l, SelfWeight) for l in model.loads)
            assert _elements(model).loads.tobytes() == reference(model).tobytes()
            for g in (0.0, 9.81, 3.7):
                expected = self_weight_loads_by_member(model, g)
                assert [(f.node, f.fy.hex()) for f in self_weight_loads(model, g)] == [
                    (f.node, f.fy.hex()) for f in expected]
        assert weighed >= 140


class TestResultArrays:
    # The maxima are computed in the analysis from arrays, and the per-node
    # and per-member dicts are built from the same arrays on first access:
    # the two must agree bit for bit.
    PLANS = [
        erection.ErectionPlan(2.0, 4, 500.0, 2000.0, 1.0, pillar_interval=2),
        erection.ErectionPlan(1.5, 12, 1200.0, 4e4, 2.0, pillar_interval=3),
        erection.ErectionPlan(6.0, 3, 30000.0, 4e6, 2.0, pillar_interval=1),
    ]

    @classmethod
    def models(cls):
        yield from (generate_preset(p.id) for p in presets())
        yield with_deck_udl(generate_preset("GRANDE"), 20000.0)  # red deck, members tied for the maximum
        yield replica(BridgeKind.LEONARDO_GROUNDED, 383)
        for kind in BridgeKind:
            if kind in (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED):
                yield replica(kind, 7, crosswise=kind is BridgeKind.LEONARDO_REPLICA)
            else:
                yield generate(BridgeSpec(kind))
        for plan in cls.PLANS:
            yield from (stage.model for stage in erection.expand_plan(plan))

    @staticmethod
    def same(a, b) -> bool:
        return float(a).hex() == float(b).hex()

    def test_maxima_and_dicts_agree(self, random_models):
        seen = set()
        for model in (*self.models(), *random_models):
            result = analyze(model)
            util = result.utilization
            assert self.same(result.max_utilization, max(util.values(), default=0.0))
            deflections = [abs(d[1]) for d in result.node_displacements.values()]
            assert self.same(result.max_deflection, max(deflections, default=0.0))
            top = max(util.values(), default=0.0)
            assert result.max_utilization_member == max_utilization_member(result)
            # The reactions, read from the arrays, are the ones filled in dof
            # by dof: the same keys in the same order, bit for bit.
            expected = reactions_by_dof(result)
            assert list(result.reactions) == list(expected)
            assert all(map(self.same, np.ravel(list(result.reactions.values())), np.ravel(list(expected.values()))))
            # The utilization array uses the oracle's operations in its order.
            forces = result.member_forces
            for beam in model.beams:
                expected = utilization(forces[beam.id], model.material(beam.material), model.section(beam.section))
                assert self.same(util[beam.id], expected)
            for cable in model.cables:
                expected = utilization(forces[cable.id], model.material(cable.material), area=cable.area)
                assert self.same(util[cable.id], expected)
            assert list(util) == list(forces) == [e.id for e in (*model.beams, *model.cables)]
            assert list(result.node_displacements) == [n.id for n in model.nodes]
            assert all(type(r) is float for reaction in result.reactions.values() for r in reaction)
            for name in ("node_displacements", "member_forces", "utilization"):
                assert getattr(result, name) is getattr(result, name)  # built once, then kept
            seen.update(
                name for name, present in (
                    ("taut", result.active_cables),
                    ("slack", len(result.active_cables) < len(model.cables)),
                    ("pinned", any(b.pin_i or b.pin_j for b in model.beams)),
                    ("tied", sum(u >= top - 1e-9 * abs(top) for u in util.values()) > 1),
                    ("two supports on a node", len({s.node for s in model.supports}) < len(model.supports)),
                ) if present
            )
        assert seen == {"taut", "slack", "pinned", "tied", "two supports on a node"}

    def test_report_does_not_depend_on_when_the_dicts_are_built(self):
        for model in (generate_preset("GRANDE"), generate(BridgeSpec(BridgeKind.CABLE_STAYED))):
            early = analyze(model)
            early.node_displacements, early.member_forces, early.utilization
            assert write_report(early) == write_report(analyze(model))


class TestForceRecovery:
    def test_zero_displacements_zero_forces(self):
        el = _elements(ss_beam(2))
        zero = el.expand(np.zeros(len(el.dofs)))
        no_cables = np.zeros(len(el.cable_ids), dtype=bool)
        done = _recover(el, zero, zero, np.ones(2, dtype=bool), no_cables, el.axial(zero))
        assert done.beam.shape == (2, 4) and not done.beam.any() and not done.cable.any()
        assert not done.residual.any()

    def test_hooke_axial_bar(self):
        model = build_model(
            [Node(1, 0, 0), Node(2, 4, 0)], [MAT], [SEC],
            [BeamElement(1, 1, 2, "timber", "deck")],
            supports=[Support(1, restrain_x=True, restrain_y=True, restrain_rz=True)],
            loads=[NodalForce(2, fx=1000.0)],
        )
        result = analyze(model)
        delta = result.node_displacements[2][0]
        assert result.member_forces[1].axial == approx(E * A * delta / 4.0, rel=1e-12)
        assert result.member_forces[1].axial == approx(1000.0, rel=1e-9)

    def test_midspan_moment_under_udl(self):
        w, L = 1000.0, 10.0
        model = ss_beam(2, length=L, loads=[UniformLoad(1, w), UniformLoad(2, w)])
        result = analyze(model)
        assert abs(result.member_forces[1].moment_j) == approx(w * L**2 / 8, rel=1e-9)

    def test_mesh_independence_of_nodal_results(self):
        w, L = 2000.0, 12.0
        deflections = {}
        rotations = {}
        for n in (1, 2, 4):
            loads = [UniformLoad(k + 1, w) for k in range(n)]
            result = analyze(ss_beam(n, length=L, loads=loads))
            rotations[n] = result.node_displacements[1][2]
            if n >= 2:
                mid = n // 2 + 1
                deflections[n] = result.node_displacements[mid][1]
        assert rotations[1] == approx(rotations[2], rel=1e-9)
        assert rotations[2] == approx(rotations[4], rel=1e-9)
        assert deflections[2] == approx(deflections[4], rel=1e-9)


class TestReactions:
    def test_ss_beam_udl_reactions(self):
        w, L = 1000.0, 10.0
        model = ss_beam(2, length=L, loads=[UniformLoad(1, w), UniformLoad(2, w)])
        result = analyze(model)
        assert result.reactions[1][1] == approx(w * L / 2, rel=1e-9)
        assert result.reactions[3][1] == approx(w * L / 2, rel=1e-9)

    def test_unloaded_model_zero_reactions(self):
        result = analyze(ss_beam(2))
        for r in result.reactions.values():
            assert r == approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_cantilever_fixed_end_moment(self):
        P, L = 1000.0, 3.0
        model = cantilever(1, length=L, loads=[NodalForce(2, fy=-P)])
        result = analyze(model)
        assert result.reactions[1][2] == approx(P * L, rel=1e-9)
        assert result.reactions[1][1] == approx(P, rel=1e-9)

    def test_long_beam_bridge_reactions_are_half_its_weight(self):
        # 96 bays of 1 m: K is ill conditioned (cond 5e8), and the
        # pivoted factor alone leaves reactions off by 2e-9 of the load.
        model = generate(BridgeSpec(BridgeKind.BEAM, span=96.0, deck_segments=96))
        _, fy = applied_force(model)
        result = analyze(model)
        ends = sorted(result.reactions)
        assert len(ends) == 2
        for nid in ends:
            assert result.reactions[nid][1] == approx(-fy / 2, rel=1e-9)

    def test_equilibrium_random_models(self, random_models):
        for model in random_models:
            result = tension_only_analyze(model)
            fx, fy = applied_force(model)
            rx = sum(r[0] for r in result.reactions.values())
            ry = sum(r[1] for r in result.reactions.values())
            total = abs(fx) + abs(fy) + 1.0
            assert abs(fx + rx) <= 1e-8 * total
            assert abs(fy + ry) <= 1e-8 * total


class TestUtilization:
    def test_zero_forces(self):
        assert utilization(MemberForces("beam", 0.0), MAT, section=SEC) == 0.0

    def test_pure_axial_at_allowable_is_one(self):
        f = MemberForces("beam", axial=SEC.area * MAT.allowable_stress)
        assert utilization(f, MAT, section=SEC) == approx(1.0, rel=1e-15)

    def test_pure_moment_at_allowable_is_one(self):
        m = MAT.allowable_stress * SEC.second_moment / (SEC.depth / 2)
        f = MemberForces("beam", axial=0.0, moment_i=m)
        assert utilization(f, MAT, section=SEC) == approx(1.0, rel=1e-15)

    def test_cable_utilization(self):
        area = 5e-4
        f = MemberForces("cable", axial=area * ROPE.allowable_stress)
        assert utilization(f, ROPE, area=area) == approx(1.0, rel=1e-15)


class TestAnalyticOracles:
    def test_ss_udl(self):
        w, L = 2000.0, 12.0
        model = ss_beam(2, length=L, loads=[UniformLoad(1, w), UniformLoad(2, w)])
        result = analyze(model)
        assert abs(result.node_displacements[2][1]) == approx(5 * w * L**4 / (384 * E * I), rel=1e-9)

    def test_midspan_point_load(self):
        P, L = 10000.0, 12.0
        model = ss_beam(2, length=L, loads=[NodalForce(2, fy=-P)])
        result = analyze(model)
        assert abs(result.node_displacements[2][1]) == approx(P * L**3 / (48 * E * I), rel=1e-9)

    def test_cantilever_tip_load(self):
        P, L = 10000.0, 3.0
        model = cantilever(1, length=L, loads=[NodalForce(2, fy=-P)])
        result = analyze(model)
        assert abs(result.node_displacements[2][1]) == approx(P * L**3 / (3 * E * I), rel=1e-9)


def band_system(rng, n, kd, shift=0.0):
    """A random symmetric band matrix in LAPACK lower band storage, positive
    definite unless ``shift`` is taken off one diagonal entry, and a
    right-hand side of three columns."""
    ab = rng.standard_normal((kd + 1, n))
    ab[np.arange(kd + 1)[:, None] + np.arange(n) >= n] = 0.0  # outside the matrix
    ab[0] = 2.0 * (kd + 1) + np.abs(ab[0])
    ab[0, n // 2] -= shift
    return np.asfortranarray(ab), rng.standard_normal((n, 3))


# Run in a fresh interpreter: the lines before ``import ponte.cli`` hide or
# fake scipy; prints the error's type, name and text.
LOADER_RUN = """
import sys
{setup}
try:
    import ponte.cli
except Exception as exc:
    print(type(exc).__name__, exc.name, exc, sep="|")
"""


class TestScipyRoutines:
    """solver loads dpbtrf, dpbtrs, dtbtrs and dsbmv from scipy.linalg's
    extension modules without importing scipy.linalg."""

    @pytest.mark.parametrize("n,kd", [(1, 0), (7, 2), (40, 5), (200, 31), (300, 40)])
    def test_the_same_bits_as_scipy_linalg(self, n, kd):
        from scipy.linalg import blas, lapack

        rng = np.random.default_rng(n * 100 + kd)
        for shift in (0.0, 1e3):
            ab, b = band_system(rng, n, kd, shift)
            ours, theirs = solver.dpbtrf(ab.copy(), lower=1), lapack.dpbtrf(ab.copy(), lower=1)
            assert ours[1] == theirs[1] == (0 if shift == 0 else n // 2 + 1)
            assert ours[0].tobytes() == theirs[0].tobytes()
            if shift:
                continue
            c = ours[0]
            pairs = [
                (solver.dpbtrs(c, b, lower=1), lapack.dpbtrs(c, b, lower=1)),
                (solver.dtbtrs(c, b, "L", "T", "N"), lapack.dtbtrs(c, b, "L", "T", "N")),
                (solver.dtbtrs(c, b[:, 0].copy(), "L", "T", "N", 1),
                 lapack.dtbtrs(c, b[:, 0].copy(), "L", "T", "N", 1)),
            ]
            for (x, info), (y, info_y) in pairs:
                assert info == info_y == 0 and x.tobytes() == y.tobytes()
            for alpha in (1.0, -0.5):
                ours = solver.dsbmv(kd, alpha, ab, b[:, 1], lower=1)
                assert ours.tobytes() == blas.dsbmv(kd, alpha, ab, b[:, 1], lower=1).tobytes()

    def test_scipy_linalg_imports_after_ponte(self):
        script = (
            "import numpy as np, sys\nimport ponte.solver as solver\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\nfrom scipy.linalg import lapack\n"
            "ab = np.array([[4.0, 5.0, 6.0], [1.0, 1.0, 0.0]])\n"
            "x = scipy.linalg.solveh_banded(ab, np.ones(3), lower=True)\n"
            "assert np.allclose(scipy.linalg.solve(np.diag([4.0, 5.0, 6.0]) + np.diag([1.0, 1.0], 1)"
            " + np.diag([1.0, 1.0], -1), np.ones(3)), x)\n"
            "print(lapack.dpbtrf is solver.dpbtrf, scipy.linalg.blas.dsbmv is solver.dsbmv)\n"
        )
        src = str(Path(solver.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        # CPython keeps a loaded extension module in sys.modules, so
        # scipy.linalg re-exports the very routines ponte loaded.
        assert done.stdout.split() == ["True", "True"]

    def loader_error(self, setup, pythonpath=()):
        src = str(Path(solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([*pythonpath, src]))
        done = subprocess.run([sys.executable, "-c", LOADER_RUN.format(setup=setup)], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.rstrip("\n").split("|")

    def test_a_blocked_scipy_is_named(self):
        blocker = (
            "class Blocker:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, Blocker())\n"
        )
        assert self.loader_error(blocker) == ["ModuleNotFoundError", "scipy", "No module named 'scipy'"]

    def test_a_missing_scipy_is_named(self):
        # importlib.util.find_spec returns None here, as it does when scipy
        # is not installed at all.
        assert self.loader_error("sys.modules['scipy'] = None\n") == [
            "ModuleNotFoundError", "scipy", "No module named 'scipy'"]

    def test_a_scipy_without_the_extensions_is_named(self, tmp_path):
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        directory = str(tmp_path / "scipy" / "linalg")
        assert self.loader_error("", [str(tmp_path)]) == [
            "ImportError", "scipy.linalg._flapack", f"no extension module scipy.linalg._flapack in {directory}"]
