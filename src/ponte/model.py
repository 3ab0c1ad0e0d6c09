"""Planar structural model: geometry, members, supports, loads, validation.

All quantities are SI (N, m, Pa, kg, rad); y points up. Models are frozen
after construction and safe to share between concurrent analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter
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


@dataclass(eq=False)
class ModelArrays:
    """A model's records as columns in model order (``StructureModel.arrays``)
    for validation, the element table, the reactions, the report and the
    diagram. Node k owns dofs 3k, 3k + 1 and 3k + 2 (x, y, rz); the members
    are the beams, then the cables. Read only, but not frozen: a frozen
    dataclass takes 9 us to set these fields, a fifth of a small view."""

    node_ids: np.ndarray
    by_id: np.ndarray  # node positions in ascending id order
    # Every number of the records, three to a column: x, y, 0 of each node;
    # E, density, allowable stress of each material; A, I, depth of each
    # section; area, pretension, 0 of each cable; fx, fy, mz of each nodal
    # force, and w, mass or g, 0, 0 of each other load; x, y, materials,
    # sections, cables and load_values are views of it.
    values: np.ndarray  # (3, nodes + materials + sections + cables + loads)
    starts: tuple[int, int, int, int]  # first column of the materials, sections, cables and loads
    rule: np.ndarray  # of each column of values its _BOUND row: 0-3 a load kind, 4 node, 5 material, 6 section, 7 cable
    x: np.ndarray
    y: np.ndarray
    materials: np.ndarray
    sections: np.ndarray
    cables: np.ndarray  # (2, cables): area, pretension
    load_values: np.ndarray
    load_kind: np.ndarray  # of each load record: 0 nodal force, 1 uniform load, 2 point mass, 3 self-weight
    load_at: np.ndarray  # the node position of a nodal force or point mass, the beam position of a uniform load
    restrained: np.ndarray  # (nodes, 3): the components some support holds
    rz_stiff: np.ndarray  # (nodes,): an end of a beam without its release meets the node
    support_bits: np.ndarray  # of each support record, bit c set if it restrains component c
    supported: list[int]  # ids of the nodes with a restrained dof, ascending
    support_at: np.ndarray  # their positions
    member_ids: np.ndarray
    ends: np.ndarray  # (members, 2): positions of each member's nodes i and j
    dx: np.ndarray  # x[j] - x[i]
    dy: np.ndarray
    length: np.ndarray  # math.hypot(dx, dy), as ``element_length``; np.hypot may differ in the last bit
    material: np.ndarray  # position of each member's material in model.materials
    section: np.ndarray  # position of each beam's section in model.sections
    pins: np.ndarray  # (beams, 2): pin_i, pin_j
    area: np.ndarray  # of each member: its section's, or the cable's own
    free: np.ndarray  # (nodes, 3): the dofs no support holds, less the rotations no beam end stiffens


# Which of x, y and rz are restrained, for each 3-bit mask of components,
# and the bit of each component.
_HELD = (np.arange(8)[:, None] >> np.arange(3) & 1) == 1
_BITS = np.array([1, 2, 4])
# A load record's kind, its target and its three values.
_LOAD_FIELDS = {
    NodalForce: lambda l: (0, l.node, l.fx, l.fy, l.mz),
    UniformLoad: lambda l: (1, l.beam, l.w, 0.0, 0.0),
    PointMass: lambda l: (2, l.node, l.mass, 0.0, 0.0),
    SelfWeight: lambda l: (3, None, l.g, 0.0, 0.0),
}


def _model_arrays(model: StructureModel) -> ModelArrays:
    """The model view of a model's records; ``UnknownReference`` for a
    dangling reference, which only a model built without ``build_model``
    can hold."""
    nodes, mats, secs, beams, cables, sups = (
        model.nodes, model.materials, model.sections, model.beams, model.cables, model.supports)
    members = beams + cables
    n, nb, nc, ns, nl = len(nodes), len(beams), len(cables), len(sups), len(model.loads)
    kind, target, *load = zip(*(_LOAD_FIELDS[type(l)](l) for l in model.loads)) if nl else ((),) * 5
    node_id = [nd.id for nd in nodes]
    index = dict(zip(node_id, range(n)))
    at = (index, {b.id: k for k, b in enumerate(beams)} if 1 in kind else {}, index)
    try:
        load_at = [at[k][t] if k < 3 else 0 for k, t in zip(kind, target)]
    except KeyError:
        k, t = next((k, t) for k, t in zip(kind, target) if k < 3 and t not in at[k])
        raise UnknownReference(t, "beam" if k == 1 else "node") from None
    materials, sections = {m.name: k for k, m in enumerate(mats)}, {s.name: k for k, s in enumerate(secs)}
    # Each kind of number in one list, the columns one after another.
    try:
        ints = list(chain([e.id for e in members], [index[e.node_i] for e in members],
                          [index[e.node_j] for e in members], [materials[e.material] for e in members],
                          [sections[b.section] for b in beams], [b.pin_i for b in beams], [b.pin_j for b in beams],
                          [index[s.node] for s in sups], [s.restrain_x for s in sups], [s.restrain_y for s in sups],
                          [s.restrain_rz for s in sups], node_id, load_at, [4] * n, [5] * len(mats),
                          [6] * len(secs), [7] * nc, kind))
    except KeyError as exc:  # a node id is an int, a material or section name a str
        key = exc.args[0]
        named = key not in materials and any(e.material == key for e in members)
        raise UnknownReference(key, "material" if named else "section" if isinstance(key, str) else "node") from None
    floats = list(chain([nd.x for nd in nodes], [m.elastic_modulus for m in mats], [s.area for s in secs],
                        [c.area for c in cables], load[0], [nd.y for nd in nodes], [m.density for m in mats],
                        [s.second_moment for s in secs], [c.pretension for c in cables], load[1], [0.0] * n,
                        [m.allowable_stress for m in mats], [s.depth for s in secs], [0.0] * nc, load[2]))
    ints, values = np.array(ints, dtype=int), np.array(floats, dtype=float).reshape(3, -1)
    bounds = list(accumulate((nm := nb + nc, 2 * nm, nm, nb, 2 * nb, ns, 3 * ns, n, nl)))
    ids, ends, material, section, pins, support_at, flags, node_ids, load_at, rule = (
        ints[lo:hi] for lo, hi in zip([0, *bounds], [*bounds, None]))
    i, j = ends = ends.reshape(2, nm)
    ends, pins, bits = ends.T, pins.reshape(2, nb).T == 1, _BITS @ flags.reshape(3, ns)
    starts = a, b, c, d = tuple(accumulate((n, len(mats), len(secs), nc)))
    x, y = values[0, :a], values[1, :a]
    with np.errstate(all="ignore"):  # a non-finite coordinate is for validate to report
        dx, dy = x[j] - x[i], y[j] - y[i]
    held = np.zeros(n, dtype=int)
    np.bitwise_or.at(held, support_at, bits)
    rz_stiff = np.zeros(n, dtype=bool)
    rz_stiff[ends[:nb][~pins]] = True
    by_id = node_ids.argsort(kind="stable")
    support_at = by_id[held[by_id] != 0]
    restrained = _HELD[held]
    free = ~restrained
    free[:, 2] &= rz_stiff
    return ModelArrays(
        node_ids=node_ids, by_id=by_id, values=values, starts=starts, x=x, y=y,
        materials=values[:, a:b], sections=values[:, b:c], cables=values[:2, c:d], load_values=values[:, d:],
        rule=rule, load_kind=rule[d:], load_at=load_at, restrained=restrained, rz_stiff=rz_stiff, support_bits=bits,
        supported=node_ids[support_at].tolist(), support_at=support_at, member_ids=ids, ends=ends, dx=dx, dy=dy,
        length=np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float),
        material=material, section=section, pins=pins, area=np.concatenate([values[0, b + section], values[0, c:d]]),
        free=free,
    )


def _lookup(table: dict, key: int | str, kind: str):
    try:
        return table[key]
    except KeyError:
        raise UnknownReference(key, kind) from None


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
        """The model as arrays; ``UnknownReference`` for a dangling reference."""
        return _model_arrays(self)

    # Each kind's records by id or name, built on its first lookup.
    _node_by_id = cached_property(lambda self: {n.id: n for n in self.nodes})
    _material_by_name = cached_property(lambda self: {m.name: m for m in self.materials})
    _section_by_name = cached_property(lambda self: {s.name: s for s in self.sections})
    _beam_by_id = cached_property(lambda self: {b.id: b for b in self.beams})
    _cable_by_id = cached_property(lambda self: {c.id: c for c in self.cables})

    def node(self, node_id: int) -> Node:
        return _lookup(self._node_by_id, node_id, "node")

    def material(self, name: str) -> Material:
        return _lookup(self._material_by_name, name, "material")

    def section(self, name: str) -> Section:
        return _lookup(self._section_by_name, name, "section")

    def beam(self, beam_id: int) -> BeamElement:
        return _lookup(self._beam_by_id, beam_id, "beam")

    def cable(self, cable_id: int) -> CableElement:
        return _lookup(self._cable_by_id, cable_id, "cable")

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


def _unique_names(items: tuple[Material, ...] | tuple[Section, ...], kind: str) -> set[str]:
    """The names of ``items``: ``ValueError`` for an empty one or one with
    whitespace or a ``#`` (a comment in the file format), ``DuplicateId``
    for a repeated one."""
    names: set[str] = set()
    for item in items:
        if not item.name or item.name.split() != [item.name] or "#" in item.name:
            raise ValueError(f"{kind} name must be non-empty without whitespace or '#': {item.name!r}")
        if item.name in names:
            raise DuplicateId(item.name, f"{kind} name")
        names.add(item.name)
    return names


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

    node_ids = {n.id for n in nodes}
    if len(node_ids) < len(nodes):  # the first id seen twice
        seen: set[int] = set()
        raise DuplicateId(next(n.id for n in nodes if n.id in seen or seen.add(n.id)), "node id")

    material_names, section_names = _unique_names(materials, "material"), _unique_names(sections, "section")
    element_ids: set[int] = set()
    for kind, members in (("beam", beams), ("cable", cables)):
        for e in members:
            if e.id in element_ids:
                raise DuplicateId(e.id, "element id")
            element_ids.add(e.id)
            if e.node_i not in node_ids or e.node_j not in node_ids:
                raise UnknownReference(e.node_i if e.node_i not in node_ids else e.node_j, "node", f"{kind} {e.id}")
            if e.material not in material_names:
                raise UnknownReference(e.material, "material", f"{kind} {e.id}")
            if kind == "beam" and e.section not in section_names:
                raise UnknownReference(e.section, "section", f"beam {e.id}")
    beam_ids = {b.id for b in beams}

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
        nodes=tuple(sorted(nodes, key=attrgetter("id"))),
        materials=tuple(sorted(materials, key=attrgetter("name"))),
        sections=tuple(sorted(sections, key=attrgetter("name"))),
        beams=tuple(sorted(beams, key=attrgetter("id"))),
        cables=tuple(sorted(cables, key=attrgetter("id"))),
        supports=tuple(sorted(supports, key=attrgetter("node"))),
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


# The rules of ``ModelArrays.values``, value > bound: a bound of 0 for
# > 0, of the largest negative double for >= 0 (so -0.0 passes), and of
# -inf for any finite value. One row per load kind, then one for the
# nodes, the materials, the sections and the cables.
_AT_LEAST_ZERO = -5e-324
_BOUND = np.array([
    [-np.inf, -np.inf, -np.inf],  # nodal force: fx, fy, mz
    [-np.inf, -np.inf, -np.inf],  # uniform load: w
    [_AT_LEAST_ZERO, -np.inf, -np.inf],  # point mass: mass
    [0.0, -np.inf, -np.inf],  # self-weight: g
    [-np.inf, -np.inf, -np.inf],  # node: x, y
    [0.0, _AT_LEAST_ZERO, 0.0],  # material: E, density, allowable stress
    [0.0, 0.0, 0.0],  # section: A, I, H
    [0.0, _AT_LEAST_ZERO, -np.inf],  # cable: area, pretension
])
_MATERIAL_RULES = ("E must be > 0", "density must be >= 0", "allowable stress must be > 0")
_LOAD_ISSUES = {
    NodalForce: lambda l: ("NonFiniteLoad", f"load at node {l.node}", f"nodal force at node {l.node} is non-finite"),
    UniformLoad: lambda l: ("NonFiniteLoad", f"uniform load on beam {l.beam}",
                            f"uniform load on beam {l.beam} is non-finite"),
    PointMass: lambda l: ("NegativeMass", f"mass at node {l.node}", f"point mass at node {l.node} must be >= 0"),
    SelfWeight: lambda l: ("NonPositiveProperty", "self-weight load", "self-weight g must be > 0"),
}


def _components(count: int, ends: np.ndarray) -> np.ndarray:
    """The connected component of each of ``count`` nodes joined by
    members with node positions ``ends``, labelled by its first node's
    position. Each round hooks the larger label of every member's two ends
    under the smaller, then lets every label jump to its label's label as
    many times as it takes to cross the whole model, until all members'
    ends agree (after Shiloach & Vishkin, J. Algorithms 3, 1982): a deck
    chain takes log2 of its length jumps, not a pass per node. Labels only
    fall, each to a position in its component, so they end at the
    component's first position."""
    label = np.arange(count)
    a, b = i, j = ends.T
    while True:
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        for _ in range(count.bit_length()):
            label = label[label]
        a, b = label[i], label[j]
        if not np.count_nonzero(a != b):
            return label


def validate(model: StructureModel) -> ValidationReport:
    """Check every model invariant needed before analysis.

    Issues are returned, never raised; an empty report means the model is
    analyzable. Each check reads the model's columns (``model.arrays``),
    and only the records that fail one are visited, to word their issues.
    """
    view, nodes, members, nb = model.arrays, model.nodes, model.beams + model.cables, len(model.beams)
    issues: list[ValidationIssue] = []

    def err(code: str, location: str, message: str) -> None:
        issues.append(ValidationIssue(code, "error", location, message))

    if not nodes:
        err("EmptyModel", "model", "model has no nodes")

    # Every number against its rule at once; the failures, record by record.
    ok = (view.values.T > _BOUND[view.rule]) & (view.values.T < np.inf)
    failed = list(zip(*(v.tolist() for v in np.nonzero(~ok)))) if np.count_nonzero(ok) < ok.size else []
    a, b, c, d = view.starts
    for k in dict.fromkeys(row for row, _ in failed if row < a):
        err("NonFiniteCoordinate", f"node {nodes[k].id}", f"node {nodes[k].id} has non-finite coordinates")
    for row, rule in failed:
        if a <= row < b:
            name = model.materials[row - a].name
            err("NonPositiveProperty", f"material {name}", f"material {name}: {_MATERIAL_RULES[rule]}")
        elif b <= row < c:
            name = model.sections[row - b].name
            err("NonPositiveProperty", f"section {name}", f"section {name}: {'AIH'[rule]} must be > 0")

    # Member by member: too short, then a cable's area, then its pretension.
    # A member joining a node to itself has length 0, or NaN at a
    # non-finite node; another NaN length is no issue of its own.
    long = view.length >= MIN_ELEMENT_LENGTH
    rules = [] if np.count_nonzero(long) == len(members) else [
        (k, 0) for k in np.flatnonzero(~long).tolist()
        if members[k].node_i == members[k].node_j or view.length[k] < MIN_ELEMENT_LENGTH]
    for k, rule in sorted(rules + [(nb + row - c, 1 + rule) for row, rule in failed if c <= row < d]):
        e, where = members[k], f"{'beam' if k < nb else 'cable'} {members[k].id}"
        if rule == 0:
            err("ZeroLengthElement", where, f"{where} connects node {e.node_i} to itself" if e.node_i == e.node_j
                else f"{where} is shorter than {MIN_ELEMENT_LENGTH} m")
        elif rule == 1:
            err("NonPositiveProperty", where, f"{where}: area must be > 0")
        else:
            err("NegativePretension", where, f"{where}: pretension must be >= 0")

    if np.count_nonzero(view.support_bits) < len(model.supports):
        for k in np.flatnonzero(view.support_bits == 0).tolist():
            where = f"support at node {model.supports[k].node}"
            err("EmptySupport", where, f"{where} restrains nothing")

    held = np.count_nonzero(view.restrained)
    if held < 3 and (members or nodes):
        err("InsufficientRestraint", "model", f"only {held} restrained degrees of freedom; at least 3 are needed")

    degree = np.bincount(view.ends.ravel(), minlength=len(nodes))
    if np.count_nonzero(degree) < len(nodes):
        for k in np.flatnonzero((degree == 0) & ~(view.restrained[:, 0] & view.restrained[:, 1])).tolist():
            err("IsolatedNode", f"node {nodes[k].id}",
                f"node {nodes[k].id} carries no element and is not fully restrained")

    # Each component with a member and fewer than 3 restrained dofs, in the
    # order of its first node.
    label = _components(len(nodes), view.ends)
    count = np.bincount(label[view.restrained.nonzero()[0]], minlength=len(nodes))
    roots = label[view.ends[:, 0]]  # of the components with a member
    if np.count_nonzero(count[roots] < 3):
        for k in np.unique(roots[count[roots] < 3]).tolist():
            where = f"component containing node {view.node_ids[label == k].min()}"
            err("InsufficientRestraint", where, f"{where} has {count[k]} restrained degrees of freedom (needs 3)")

    # A moment at a node no beam end stiffens and no support holds in rz
    # (only a nodal force has a third value).
    moment = view.load_values[2].nonzero()[0]
    hinge = moment[~(view.rz_stiff | view.restrained[:, 2])[view.load_at[moment]]].tolist() if len(moment) else []
    infinite = dict.fromkeys(row - d for row, _ in failed if row >= d)
    for k in sorted({*infinite, *hinge}):
        load = model.loads[k]
        if k in infinite:
            err(*_LOAD_ISSUES[type(load)](load))
        else:
            err("MomentOnFreeHinge", f"load at node {load.node}",
                f"moment applied at node {load.node}, which has no rotational stiffness")

    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Gravity lumping


def check_gravity(g: float) -> None:
    """Raise ``ValueError`` unless the gravity ``g`` is finite and >= 0."""
    if g < 0 or not math.isfinite(g):
        raise ValueError(f"g must be >= 0, got {g}")


def lumped_weight(model: StructureModel, g: float) -> np.ndarray:
    """The nodal fy, in model order, of self-weight under gravity ``g``:
    rho*A*L*g/2 at each end of each member, the beams, then the cables,
    then m*g at each point mass, summed per node in that order."""
    view = model.arrays
    half = view.materials[1, view.material] * view.area * view.length * g / 2.0
    mass = view.load_kind == 2
    fy = np.bincount(np.concatenate([view.ends.ravel(), view.load_at[mass]]),
                     np.concatenate([(-half).repeat(2), -view.load_values[0, mass] * g]), minlength=len(model.nodes))
    return fy.astype(float, copy=False)  # bincount of nothing is int


def self_weight_loads(model: StructureModel, g: float) -> tuple[NodalForce, ...]:
    """Expand member self-weight and point masses into nodal forces
    (``lumped_weight``, from which the analysis lumps them too), the
    nonzero ones by ascending node id."""
    check_gravity(g)
    if g == 0.0:
        return ()
    fy, view = lumped_weight(model, g), model.arrays
    at = view.by_id[fy[view.by_id] != 0.0]
    return tuple(NodalForce(nid, fy=f) for nid, f in zip(view.node_ids[at].tolist(), fy[at].tolist()))


# ---------------------------------------------------------------------------
# Named material presets

MATERIAL_PRESETS: dict[str, Material] = {
    "timber": Material("timber", elastic_modulus=10e9, density=600.0, allowable_stress=10e6),
    "hemp-rope": Material("hemp-rope", elastic_modulus=1.5e9, density=1400.0, allowable_stress=20e6),
}
