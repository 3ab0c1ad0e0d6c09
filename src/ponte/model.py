"""Planar structural model: geometry, members, supports, loads, validation.

All quantities are SI (N, m, Pa, kg, rad); y points up. Models are frozen
after construction and safe to share between concurrent analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import DuplicateId, UnknownReference

MIN_ELEMENT_LENGTH = 1e-9  # m

# Degree-of-freedom component indices per node.
DOF_X, DOF_Y, DOF_RZ = 0, 1, 2


@dataclass(frozen=True)
class Node:
    """A point in the plane."""

    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Material:
    name: str
    elastic_modulus: float  # Pa
    density: float  # kg/m^3
    allowable_stress: float  # Pa


@dataclass(frozen=True)
class Section:
    name: str
    area: float  # m^2
    second_moment: float  # m^4
    depth: float  # m, full depth used for extreme-fibre stress recovery


@dataclass(frozen=True)
class BeamElement:
    """2D frame member carrying axial force, shear and bending.

    ``pin_i`` / ``pin_j`` release the bending moment at the corresponding
    end (a hinge), e.g. for pillars pin-connected to the deck.
    """

    id: int
    node_i: int
    node_j: int
    material: str
    section: str
    pin_i: bool = False
    pin_j: bool = False


@dataclass(frozen=True)
class CableElement:
    """Axial member that carries tension only; it goes slack in compression.

    ``pretension`` enters the analysis as an initial axial force offset.
    """

    id: int
    node_i: int
    node_j: int
    material: str
    area: float  # m^2
    pretension: float = 0.0  # N, >= 0


@dataclass(frozen=True)
class Support:
    node: int
    restrain_x: bool = False
    restrain_y: bool = False
    restrain_rz: bool = False

    def restrained_components(self) -> tuple[int, ...]:
        comps = []
        if self.restrain_x:
            comps.append(DOF_X)
        if self.restrain_y:
            comps.append(DOF_Y)
        if self.restrain_rz:
            comps.append(DOF_RZ)
        return tuple(comps)


@dataclass(frozen=True)
class NodalForce:
    node: int
    fx: float = 0.0  # N
    fy: float = 0.0  # N
    mz: float = 0.0  # N*m


@dataclass(frozen=True)
class UniformLoad:
    """Line load on one beam, per metre of member length.

    Positive ``w`` acts in global -y (downwards).
    """

    beam: int
    w: float  # N/m


@dataclass(frozen=True)
class SelfWeight:
    """Turns member densities and point masses into gravity loads."""

    g: float = 9.81  # m/s^2


@dataclass(frozen=True)
class PointMass:
    """A lumped mass (e.g. a counterweight wheel). It loads the structure
    only through a SelfWeight load case."""

    node: int
    mass: float  # kg


Load = Union[NodalForce, UniformLoad, SelfWeight, PointMass]

# Canonical ordering of load records within a model.
_LOAD_RANK = {NodalForce: 0, UniformLoad: 1, PointMass: 2, SelfWeight: 3}


def _load_sort_key(item: tuple[int, Load]):
    pos, load = item
    target = getattr(load, "node", getattr(load, "beam", -1))
    return (_LOAD_RANK[type(load)], target, pos)


@dataclass(frozen=True, eq=False)
class ModelArrays:
    """A model's nodes, members (its beams, then its cables) and supports as
    arrays in model order, derived once per model (``StructureModel.arrays``)
    for validation, the element table, the reactions, the report and the
    diagram. Node k owns dofs 3k, 3k + 1 and 3k + 2 (x, y, rz)."""

    index: dict[int, int]  # node id -> position in model.nodes
    node_ids: np.ndarray
    by_id: np.ndarray  # node positions in ascending id order
    x: np.ndarray
    y: np.ndarray
    member_ids: np.ndarray
    ends: np.ndarray  # (members, 2): positions of each member's nodes i and j
    dx: np.ndarray  # x[j] - x[i]
    dy: np.ndarray
    length: np.ndarray  # math.hypot(dx, dy), as ``element_length``; np.hypot may differ in the last bit
    supported: list[int]  # ids of the nodes with a restrained dof, ascending
    support_at: np.ndarray  # their positions
    support_free: np.ndarray  # (supported, 3): their dofs that no support holds


# Which of x, y and rz are free, for each 3-bit mask of restrained components.
_FREE = (np.arange(8)[:, None] >> np.arange(3) & 1) == 0


def _model_arrays(model: StructureModel) -> ModelArrays:
    nodes, members, supports = model.nodes, model.beams + model.cables, model.supports
    index = {n.id: k for k, n in enumerate(nodes)}
    try:
        columns = np.array([[e.id for e in members], [index[e.node_i] for e in members],
                            [index[e.node_j] for e in members]], dtype=int).reshape(3, -1)
        held: dict[int, int] = {}  # node id -> bit c set where some support restrains component c
        for s in supports:
            held[s.node] = held.get(s.node, 0) | s.restrain_x | s.restrain_y << 1 | s.restrain_rz << 2
        supported = sorted(nid for nid, bits in held.items() if bits)
        support_at, bits = np.array([[index[nid] for nid in supported], [held[nid] for nid in supported]],
                                    dtype=int).reshape(2, -1)
    except KeyError as exc:
        raise UnknownReference(exc.args[0], "node") from None
    x, y = np.array([[n.x for n in nodes], [n.y for n in nodes]], dtype=float).reshape(2, -1)
    i, j = columns[1:]
    with np.errstate(all="ignore"):  # a non-finite coordinate is for validate to report
        dx, dy = x[j] - x[i], y[j] - y[i]
    node_ids = np.array([n.id for n in nodes], dtype=int)
    return ModelArrays(
        index=index, node_ids=node_ids, by_id=np.argsort(node_ids, kind="stable"), x=x, y=y,
        member_ids=columns[0], ends=columns[1:].T, dx=dx, dy=dy,
        length=np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float), supported=supported,
        support_at=support_at, support_free=_FREE[bits],
    )


@dataclass(frozen=True)
class StructureModel:
    """Immutable aggregate of a planar structure.

    ``build_model`` is the supported constructor; it canonicalizes ordering
    and checks identifiers and references.
    """

    nodes: tuple[Node, ...] = ()
    materials: tuple[Material, ...] = ()
    sections: tuple[Section, ...] = ()
    beams: tuple[BeamElement, ...] = ()
    cables: tuple[CableElement, ...] = ()
    supports: tuple[Support, ...] = ()
    loads: tuple[Load, ...] = ()

    @cached_property
    def arrays(self) -> ModelArrays:
        """The model as arrays; ``UnknownReference`` for a dangling node reference."""
        return _model_arrays(self)

    @cached_property
    def _node_by_id(self) -> dict[int, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _material_by_name(self) -> dict[str, Material]:
        return {m.name: m for m in self.materials}

    @cached_property
    def _section_by_name(self) -> dict[str, Section]:
        return {s.name: s for s in self.sections}

    @cached_property
    def _beam_by_id(self) -> dict[int, BeamElement]:
        return {b.id: b for b in self.beams}

    @cached_property
    def _cable_by_id(self) -> dict[int, CableElement]:
        return {c.id: c for c in self.cables}

    def node(self, node_id: int) -> Node:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise UnknownReference(node_id, "node") from None

    def material(self, name: str) -> Material:
        try:
            return self._material_by_name[name]
        except KeyError:
            raise UnknownReference(name, "material") from None

    def section(self, name: str) -> Section:
        try:
            return self._section_by_name[name]
        except KeyError:
            raise UnknownReference(name, "section") from None

    def beam(self, beam_id: int) -> BeamElement:
        try:
            return self._beam_by_id[beam_id]
        except KeyError:
            raise UnknownReference(beam_id, "beam") from None

    def cable(self, cable_id: int) -> CableElement:
        try:
            return self._cable_by_id[cable_id]
        except KeyError:
            raise UnknownReference(cable_id, "cable") from None

    def element_length(self, element: BeamElement | CableElement) -> float:
        ni = self.node(element.node_i)
        nj = self.node(element.node_j)
        return math.hypot(nj.x - ni.x, nj.y - ni.y)

    def with_loads(self, extra: Iterable[Load]) -> "StructureModel":
        """A copy of the model with additional load records."""
        return build_model(
            nodes=self.nodes,
            materials=self.materials,
            sections=self.sections,
            beams=self.beams,
            cables=self.cables,
            supports=self.supports,
            loads=self.loads + tuple(extra),
        )


def _check_name(name: str, kind: str) -> None:
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"{kind} name must be non-empty without whitespace: {name!r}")


def build_model(
    nodes: Iterable[Node] = (),
    materials: Iterable[Material] = (),
    sections: Iterable[Section] = (),
    beams: Iterable[BeamElement] = (),
    cables: Iterable[CableElement] = (),
    supports: Iterable[Support] = (),
    loads: Iterable[Load] = (),
) -> StructureModel:
    """Aggregate the inputs into an immutable, canonically ordered model.

    Nothing is silently deduplicated: duplicate identifiers raise
    ``DuplicateId`` and dangling references raise ``UnknownReference``.
    Beams and cables share one element-id namespace.
    """
    nodes = tuple(nodes)
    materials = tuple(materials)
    sections = tuple(sections)
    beams = tuple(beams)
    cables = tuple(cables)
    supports = tuple(supports)
    loads = tuple(loads)

    node_ids: set[int] = set()
    for n in nodes:
        if n.id in node_ids:
            raise DuplicateId(n.id, "node id")
        node_ids.add(n.id)

    material_names: set[str] = set()
    for m in materials:
        _check_name(m.name, "material")
        if m.name in material_names:
            raise DuplicateId(m.name, "material name")
        material_names.add(m.name)

    section_names: set[str] = set()
    for s in sections:
        _check_name(s.name, "section")
        if s.name in section_names:
            raise DuplicateId(s.name, "section name")
        section_names.add(s.name)

    element_ids: set[int] = set()
    beam_ids: set[int] = set()
    for b in beams:
        if b.id in element_ids:
            raise DuplicateId(b.id, "element id")
        element_ids.add(b.id)
        beam_ids.add(b.id)
        for ref in (b.node_i, b.node_j):
            if ref not in node_ids:
                raise UnknownReference(ref, "node", f"beam {b.id}")
        if b.material not in material_names:
            raise UnknownReference(b.material, "material", f"beam {b.id}")
        if b.section not in section_names:
            raise UnknownReference(b.section, "section", f"beam {b.id}")
    for c in cables:
        if c.id in element_ids:
            raise DuplicateId(c.id, "element id")
        element_ids.add(c.id)
        for ref in (c.node_i, c.node_j):
            if ref not in node_ids:
                raise UnknownReference(ref, "node", f"cable {c.id}")
        if c.material not in material_names:
            raise UnknownReference(c.material, "material", f"cable {c.id}")

    for sup in supports:
        if sup.node not in node_ids:
            raise UnknownReference(sup.node, "node", "support")

    for load in loads:
        if isinstance(load, (NodalForce, PointMass)):
            if load.node not in node_ids:
                raise UnknownReference(load.node, "node", "load")
        elif isinstance(load, UniformLoad):
            if load.beam not in beam_ids:
                raise UnknownReference(load.beam, "beam", "uniform load")

    return StructureModel(
        nodes=tuple(sorted(nodes, key=lambda n: n.id)),
        materials=tuple(sorted(materials, key=lambda m: m.name)),
        sections=tuple(sorted(sections, key=lambda s: s.name)),
        beams=tuple(sorted(beams, key=lambda b: b.id)),
        cables=tuple(sorted(cables, key=lambda c: c.id)),
        supports=tuple(sorted(supports, key=lambda s: s.node)),
        loads=tuple(l for _, l in sorted(enumerate(loads), key=_load_sort_key)),
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    severity: str
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __iter__(self):
        return iter(self.issues)


def _rotational_stiffness_nodes(model: StructureModel) -> set[int]:
    """Nodes where at least one beam end provides rotational stiffness."""
    stiff: set[int] = set()
    for b in model.beams:
        if not b.pin_i:
            stiff.add(b.node_i)
        if not b.pin_j:
            stiff.add(b.node_j)
    return stiff


def _connected_components(model: StructureModel) -> list[set[int]]:
    """The node sets joined by elements, in the order of their first node.
    A union links the second root under the first, so a deck chain listed
    from its start stays one level deep instead of becoming a parent chain
    as long as the deck. Union by size, measured too, was slower on
    erection stages and on a 2 000-node chain either way round."""
    parent = {n.id: n.id for n in model.nodes}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for e in list(model.beams) + list(model.cables):
        union(e.node_i, e.node_j)
    groups: dict[int, set[int]] = {}
    for nid in parent:
        groups.setdefault(find(nid), set()).add(nid)
    return list(groups.values())


def validate(model: StructureModel) -> ValidationReport:
    """Check every model invariant needed before analysis.

    Issues are returned, never raised; an empty report means the model is
    analyzable.
    """
    issues: list[ValidationIssue] = []

    def err(code: str, location: str, message: str) -> None:
        issues.append(ValidationIssue(code, "error", location, message))

    if not model.nodes:
        err("EmptyModel", "model", "model has no nodes")

    for n in model.nodes:
        if not (math.isfinite(n.x) and math.isfinite(n.y)):
            err("NonFiniteCoordinate", f"node {n.id}", f"node {n.id} has non-finite coordinates")

    for m in model.materials:
        if not (m.elastic_modulus > 0 and math.isfinite(m.elastic_modulus)):
            err("NonPositiveProperty", f"material {m.name}", f"material {m.name}: E must be > 0")
        if not (m.density >= 0 and math.isfinite(m.density)):
            err("NonPositiveProperty", f"material {m.name}", f"material {m.name}: density must be >= 0")
        if not (m.allowable_stress > 0 and math.isfinite(m.allowable_stress)):
            err("NonPositiveProperty", f"material {m.name}", f"material {m.name}: allowable stress must be > 0")

    for s in model.sections:
        for prop, val in (("A", s.area), ("I", s.second_moment), ("H", s.depth)):
            if not (val > 0 and math.isfinite(val)):
                err("NonPositiveProperty", f"section {s.name}", f"section {s.name}: {prop} must be > 0")

    kinds = ["beam"] * len(model.beams) + ["cable"] * len(model.cables)
    for kind, e, L in zip(kinds, model.beams + model.cables, model.arrays.length.tolist()):
        if e.node_i == e.node_j:
            err("ZeroLengthElement", f"{kind} {e.id}", f"{kind} {e.id} connects node {e.node_i} to itself")
        elif L < MIN_ELEMENT_LENGTH:
            err("ZeroLengthElement", f"{kind} {e.id}", f"{kind} {e.id} is shorter than {MIN_ELEMENT_LENGTH} m")
        if kind == "cable" and not (e.area > 0 and math.isfinite(e.area)):
            err("NonPositiveProperty", f"cable {e.id}", f"cable {e.id}: area must be > 0")
        if kind == "cable" and not (e.pretension >= 0 and math.isfinite(e.pretension)):
            err("NegativePretension", f"cable {e.id}", f"cable {e.id}: pretension must be >= 0")

    restrained: set[tuple[int, int]] = set()
    for sup in model.supports:
        comps = sup.restrained_components()
        if not comps:
            err("EmptySupport", f"support at node {sup.node}", f"support at node {sup.node} restrains nothing")
        for comp in comps:
            restrained.add((sup.node, comp))

    if len(restrained) < 3 and (model.beams or model.cables or model.nodes):
        err(
            "InsufficientRestraint",
            "model",
            f"only {len(restrained)} restrained degrees of freedom; at least 3 are needed",
        )

    touched = set(model.arrays.node_ids[model.arrays.ends].ravel().tolist())
    for n in model.nodes:
        if n.id not in touched:
            free = [c for c in (DOF_X, DOF_Y) if (n.id, c) not in restrained]
            if free:
                err("IsolatedNode", f"node {n.id}", f"node {n.id} carries no element and is not fully restrained")

    for comp_nodes in _connected_components(model):
        has_elements = any(nid in touched for nid in comp_nodes)
        n_restrained = sum(1 for (nid, c) in restrained if nid in comp_nodes)
        if has_elements and n_restrained < 3:
            sample = min(comp_nodes)
            err(
                "InsufficientRestraint",
                f"component containing node {sample}",
                f"component containing node {sample} has {n_restrained} restrained degrees of freedom (needs 3)",
            )

    rz_stiff = _rotational_stiffness_nodes(model)
    for load in model.loads:
        if isinstance(load, NodalForce):
            if not all(math.isfinite(v) for v in (load.fx, load.fy, load.mz)):
                err("NonFiniteLoad", f"load at node {load.node}", f"nodal force at node {load.node} is non-finite")
            elif load.mz != 0.0 and load.node not in rz_stiff and (load.node, DOF_RZ) not in restrained:
                err(
                    "MomentOnFreeHinge",
                    f"load at node {load.node}",
                    f"moment applied at node {load.node}, which has no rotational stiffness",
                )
        elif isinstance(load, UniformLoad):
            if not math.isfinite(load.w):
                err("NonFiniteLoad", f"uniform load on beam {load.beam}", f"uniform load on beam {load.beam} is non-finite")
        elif isinstance(load, SelfWeight):
            if not (load.g > 0 and math.isfinite(load.g)):
                err("NonPositiveProperty", "self-weight load", "self-weight g must be > 0")
        elif isinstance(load, PointMass):
            if not (load.mass >= 0 and math.isfinite(load.mass)):
                err("NegativeMass", f"mass at node {load.node}", f"point mass at node {load.node} must be >= 0")

    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Gravity lumping


def check_gravity(g: float) -> None:
    """Raise ``ValueError`` unless the gravity ``g`` is finite and >= 0."""
    if g < 0 or not math.isfinite(g):
        raise ValueError(f"g must be >= 0, got {g}")


def lumped_weight(model: StructureModel, weight: np.ndarray, g: float) -> np.ndarray:
    """The nodal fy, in model order, of self-weight under gravity ``g``:
    rho*A*L*g/2 at each end of each member (``weight`` holds its rho*A, the
    beams, then the cables), then m*g at each point mass, summed per node
    in that order."""
    view = model.arrays
    half = weight * view.length * g / 2.0
    at, mass = np.array([(view.index[l.node], l.mass) for l in model.loads if isinstance(l, PointMass)],
                        dtype=float).reshape(-1, 2).T
    fy = np.zeros(len(model.nodes))
    np.add.at(fy, np.concatenate([view.ends.ravel(), at.astype(int)]), np.concatenate([np.repeat(-half, 2), -mass * g]))
    return fy


def self_weight_loads(model: StructureModel, g: float) -> tuple[NodalForce, ...]:
    """Expand member self-weight and point masses into nodal forces
    (``lumped_weight``, from which the analysis lumps them too), the
    nonzero ones by ascending node id."""
    check_gravity(g)
    if g == 0.0:
        return ()
    weight = [model.material(b.material).density * model.section(b.section).area for b in model.beams]
    weight += [model.material(c.material).density * c.area for c in model.cables]
    fy, view = lumped_weight(model, np.array(weight, dtype=float), g), model.arrays
    at = view.by_id[fy[view.by_id] != 0.0]
    return tuple(NodalForce(nid, fy=f) for nid, f in zip(view.node_ids[at].tolist(), fy[at].tolist()))


# ---------------------------------------------------------------------------
# Degree-of-freedom numbering


@dataclass(frozen=True)
class DofMap:
    """Deterministic numbering of the free structural degrees of freedom.

    ``entries[k]`` is the (node id, component) pair owning free dof k;
    components are DOF_X, DOF_Y, DOF_RZ. Rotations at nodes where no
    attached member supplies rotational stiffness are dropped entirely
    (``dropped_rz``) rather than left as singular dofs.
    """

    entries: tuple[tuple[int, int], ...]
    restrained: frozenset[tuple[int, int]]
    dropped_rz: frozenset[int]

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return {entry: k for k, entry in enumerate(self.entries)}

    @property
    def n_free(self) -> int:
        return len(self.entries)


def dof_map(model: StructureModel) -> DofMap:
    """Number the free dofs: ascending node id, then x, y, rz."""
    restrained: set[tuple[int, int]] = set()
    for sup in model.supports:
        for comp in sup.restrained_components():
            restrained.add((sup.node, comp))

    rz_stiff = _rotational_stiffness_nodes(model)
    entries: list[tuple[int, int]] = []
    dropped: set[int] = set()
    for n in sorted(model.nodes, key=lambda n: n.id):
        for comp in (DOF_X, DOF_Y, DOF_RZ):
            if (n.id, comp) in restrained:
                continue
            if comp == DOF_RZ and n.id not in rz_stiff:
                dropped.add(n.id)
                continue
            entries.append((n.id, comp))

    return DofMap(tuple(entries), frozenset(restrained), frozenset(dropped))


# ---------------------------------------------------------------------------
# Named material presets

MATERIAL_PRESETS: dict[str, Material] = {
    "timber": Material("timber", elastic_modulus=10e9, density=600.0, allowable_stress=10e6),
    "hemp-rope": Material("hemp-rope", elastic_modulus=1.5e9, density=1400.0, allowable_stress=20e6),
}
