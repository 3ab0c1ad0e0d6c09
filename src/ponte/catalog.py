"""Parametric bridge generators: the five correct bridge types, the museum
replica configurations of the plank bridge, and corrected counterfactual
variants.

All generators are deterministic. Coordinates are quantized to 9 significant
digits so that model files round-trip exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidSpec, NotAReplica
from .model import (
    MATERIAL_PRESETS,
    BeamElement,
    CableElement,
    Load,
    NodalForce,
    Node,
    PointMass,
    Section,
    SelfWeight,
    StructureModel,
    Support,
    UniformLoad,
    build_model,
)
from .textio import quantize

DECK_SECTION = Section("timber-deck", area=0.06, second_moment=4.5e-4, depth=0.30)
PILLAR_SECTION = Section("timber-pillar", area=0.0225, second_moment=4.21875e-5, depth=0.15)
DECK_MATERIAL = "timber"  # deck, pillars and struts
ROPE_MATERIAL = "hemp-rope"
ROPE_AREA = 5e-4  # m^2
WHEEL_MASS = 300.0  # kg: each wheel, and each shore counterweight of a cantilever
DEFAULT_G = 9.81


class BridgeKind(str, Enum):
    BEAM = "BeamBridge"
    CANTILEVER = "CantileverBridge"
    SUSPENSION = "SuspensionBridge"
    TRUSS = "TrussBridge"
    CABLE_STAYED = "CableStayedBridge"
    LEONARDO_REPLICA = "LeonardoReplica"
    LEONARDO_GROUNDED = "LeonardoGrounded"


class Wheels(str, Enum):
    NONE = "none"
    RIGHT_ONLY = "right"
    BOTH_SIDES = "both"


_REPLICA_KINDS = (BridgeKind.LEONARDO_REPLICA, BridgeKind.LEONARDO_GROUNDED)


@dataclass(frozen=True)
class BridgeSpec:
    """Parameters of one bridge to generate.

    ``deck_segments`` defaults per kind (for replicas: one bay per pillar
    plus one). A negative ``pillar_height`` puts the posts under the deck,
    which is how the corrected underslung variant is expressed.
    """

    kind: BridgeKind
    span: float = 12.0
    deck_segments: int | None = None
    pillar_count: int = 0
    pillar_height: float = 1.5
    wheels: Wheels = Wheels.NONE
    mid_support: bool = False
    crosswise_top_ropes: bool = False

    def resolved_deck_segments(self) -> int:
        if self.deck_segments is not None:
            return self.deck_segments
        if self.kind in _REPLICA_KINDS:
            return self.pillar_count + 1
        if self.kind in (BridgeKind.CANTILEVER, BridgeKind.TRUSS, BridgeKind.CABLE_STAYED):
            return 6
        return 8


class PresetId(str, Enum):
    LEONARDO_DRAWING = "LEONARDO_DRAWING"
    FLORENCE = "FLORENCE"
    GRANDE = "GRANDE"
    AMBOISE_SCALE = "AMBOISE_SCALE"
    AMBOISE_PARK = "AMBOISE_PARK"
    BARE_DECK = "BARE_DECK"
    GROUNDED_STAYED = "GROUNDED_STAYED"
    UNDERSLUNG = "UNDERSLUNG"


@dataclass(frozen=True)
class Preset:
    id: PresetId
    spec: BridgeSpec
    note: str


def presets() -> tuple[Preset, ...]:
    """The documented preset catalog, in stable order.

    Spans are chosen so node spacings are exact short decimals and model
    files round-trip bit-for-bit; nothing downstream depends on the
    absolute dimensions, only on orderings and oracle equalities.
    """
    return (
        Preset(
            PresetId.LEONARDO_DRAWING,
            BridgeSpec(
                BridgeKind.LEONARDO_REPLICA,
                span=12.0,
                pillar_count=11,
                wheels=Wheels.RIGHT_ONLY,
            ),
            "Codex Atlanticus folio 855r configuration: eleven pillars, wheels on the right shore only",
        ),
        Preset(
            PresetId.FLORENCE,
            BridgeSpec(
                BridgeKind.LEONARDO_REPLICA,
                span=10.5,
                pillar_count=6,
                wheels=Wheels.BOTH_SIDES,
            ),
            "Le Macchine di Leonardo (Florence) and Museum of Science and Industry (Chicago): six pillars, wheels on both sides",
        ),
        Preset(
            PresetId.GRANDE,
            BridgeSpec(
                BridgeKind.LEONARDO_REPLICA,
                span=12.0,
                pillar_count=5,
                wheels=Wheels.NONE,
            ),
            "Grande Exhibitions travelling show (and OMSI Portland): five pillars, no wheels at all",
        ),
        Preset(
            PresetId.AMBOISE_SCALE,
            BridgeSpec(
                BridgeKind.LEONARDO_REPLICA,
                span=12.0,
                pillar_count=9,
                wheels=Wheels.NONE,
                mid_support=True,
            ),
            "Chateau du Clos Luce (Amboise) scale model: nine columns and a small extra support under the middle",
        ),
        Preset(
            PresetId.AMBOISE_PARK,
            BridgeSpec(
                BridgeKind.LEONARDO_REPLICA,
                span=12.0,
                pillar_count=4,
                wheels=Wheels.NONE,
                crosswise_top_ropes=True,
            ),
            "Amboise park full-size model: two columns per side, tops roped crosswise; decorative wheels omitted",
        ),
        Preset(
            PresetId.BARE_DECK,
            BridgeSpec(BridgeKind.BEAM, span=12.0, deck_segments=8),
            "corrected comparator: the deck alone on its shore supports",
        ),
        Preset(
            PresetId.GROUNDED_STAYED,
            BridgeSpec(
                BridgeKind.LEONARDO_GROUNDED,
                span=12.0,
                pillar_count=5,
                wheels=Wheels.NONE,
            ),
            "corrected variant: the five-pillar replica with pillars continued into the riverbed",
        ),
        Preset(
            PresetId.UNDERSLUNG,
            BridgeSpec(
                BridgeKind.LEONARDO_REPLICA,
                span=12.0,
                deck_segments=2,
                pillar_count=1,
                pillar_height=-1.5,
            ),
            "corrected variant: post under the deck, ropes taut under gravity (inverted king post)",
        ),
    )


def preset(preset_id: PresetId | str) -> Preset:
    key = PresetId(preset_id)
    return next(p for p in presets() if p.id is key)


# ---------------------------------------------------------------------------
# Generation


def _is_index(value) -> bool:
    """True for an int, or any value ``operator.index`` takes as one."""
    try:
        return operator.index(value) is not None
    except TypeError:
        return False


def _check_spec(spec: BridgeSpec) -> int:
    if not isinstance(spec.kind, BridgeKind):
        raise InvalidSpec(f"unknown bridge kind {spec.kind!r}")
    if not isinstance(spec.wheels, Wheels):
        raise InvalidSpec(f"unknown wheels {spec.wheels!r}")
    if not (spec.span > 0 and math.isfinite(spec.span)):
        raise InvalidSpec(f"span must be > 0, got {spec.span}")
    if not _is_index(spec.pillar_count):
        raise InvalidSpec(f"pillar_count must be an integer, got {spec.pillar_count}")
    if spec.deck_segments is not None and not _is_index(spec.deck_segments):
        raise InvalidSpec(f"deck_segments must be an integer, got {spec.deck_segments}")
    if spec.pillar_count < 0:
        raise InvalidSpec(f"pillar_count must be >= 0, got {spec.pillar_count}")
    if spec.kind not in _REPLICA_KINDS:
        # Only the replicas have pillars; a deck kind would drop them unsaid.
        for option, value in (("pillar_count", spec.pillar_count), ("crosswise_top_ropes", spec.crosswise_top_ropes)):
            if value:
                raise InvalidSpec(f"{option} applies to LeonardoReplica and LeonardoGrounded only, "
                                  f"not {spec.kind.value} (got {value})")
    nseg = spec.resolved_deck_segments()
    if nseg < spec.pillar_count + 1:
        raise InvalidSpec(f"deck_segments ({nseg}) must be >= pillar_count + 1 ({spec.pillar_count + 1})")
    if spec.kind in _REPLICA_KINDS:
        if spec.pillar_count and nseg % (spec.pillar_count + 1) != 0:
            raise InvalidSpec(
                f"deck_segments ({nseg}) must be a multiple of pillar_count + 1 "
                f"({spec.pillar_count + 1}) so pillars land on deck nodes"
            )
        if spec.pillar_count and spec.pillar_height == 0:
            raise InvalidSpec("pillar_height must be non-zero for replica kinds")
    if spec.mid_support and nseg % 2 != 0:
        raise InvalidSpec("mid_support needs an even number of deck segments")
    if spec.kind is BridgeKind.TRUSS and nseg < 2:
        raise InvalidSpec(f"TrussBridge needs deck_segments >= 2 for a top chord node, got {nseg}")
    if spec.kind is BridgeKind.CANTILEVER and nseg % 3 != 0:
        raise InvalidSpec("CantileverBridge needs deck_segments divisible by 3")
    return nseg


class _Builder:
    """The records of one model as they are made. Nodes take their ids from
    one source, beams and ropes theirs from another, in the order made."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.beams: list[BeamElement] = []
        self.cables: list[CableElement] = []
        self.supports: list[Support] = []
        self.loads: list[Load] = []
        self._node_ids, self._element_ids = itertools.count(1), itertools.count(1)

    def node(self, x: float, y: float) -> Node:
        node = Node(next(self._node_ids), x, y)
        self.nodes.append(node)
        return node

    def beam(self, a: Node, b: Node, section: Section = PILLAR_SECTION, **pins: bool) -> None:
        self.beams.append(BeamElement(next(self._element_ids), a.id, b.id, DECK_MATERIAL, section.name, **pins))

    def rope(self, a: Node, b: Node) -> None:
        self.cables.append(CableElement(next(self._element_ids), a.id, b.id, ROPE_MATERIAL, ROPE_AREA))


def _beam(b: _Builder, spec: BridgeSpec, deck: list[Node]) -> None:
    """The deck alone."""


def _replica(b: _Builder, spec: BridgeSpec, deck: list[Node], grounded: bool = False) -> None:
    nseg = len(deck) - 1
    step = nseg // (spec.pillar_count + 1)
    stations = [s * step for s in range(1, spec.pillar_count + 1)]
    tops = []
    for k in stations:
        tops.append(b.node(deck[k].x, quantize(spec.pillar_height)))
        # Pillar pin-connected at its base: moment release toward the deck.
        b.beam(deck[k], tops[-1], pin_i=True)
    if grounded:
        for k in stations:
            bed = b.node(deck[k].x, quantize(-abs(spec.pillar_height)))
            # The below-deck strut is a two-force link: pinned at the bed
            # and at the deck joint.
            b.beam(bed, deck[k], pin_i=True, pin_j=True)
            b.supports.append(Support(bed.id, restrain_x=True, restrain_y=True))
    for k, top in zip(stations, tops):
        b.rope(top, deck[k - 1])
        b.rope(top, deck[k + 1])
    if spec.crosswise_top_ropes:
        for (ka, ta), (kb, tb) in zip(zip(stations, tops), zip(stations[1:], tops[1:])):
            b.rope(ta, tb)
            b.rope(ta, deck[kb])
            b.rope(tb, deck[ka])


def _cantilever(b: _Builder, spec: BridgeSpec, deck: list[Node]) -> None:
    # River piers at the third points; counterweights on both shores.
    nseg = len(deck) - 1
    b.supports.append(Support(deck[nseg // 3].id, restrain_y=True))
    b.supports.append(Support(deck[2 * nseg // 3].id, restrain_y=True))
    b.loads += [PointMass(deck[0].id, WHEEL_MASS), PointMass(deck[-1].id, WHEEL_MASS)]


def _truss(b: _Builder, spec: BridgeSpec, deck: list[Node]) -> None:
    nseg = len(deck) - 1
    height = quantize(spec.span / 6.0)
    # top[k] stands over deck[k], for k in 1..nseg-1.
    top = [None] + [b.node(deck[k].x, height) for k in range(1, nseg)]
    for k in range(1, nseg - 1):
        b.beam(top[k], top[k + 1])
    for k in range(1, nseg):
        b.beam(deck[k], top[k])
    b.beam(deck[0], top[1])
    b.beam(deck[nseg], top[nseg - 1])
    for k in range(1, nseg - 1):
        if top[k].x < spec.span / 2.0:
            b.beam(top[k], deck[k + 1])
        else:
            b.beam(deck[k], top[k + 1])


def _tower(b: _Builder, shore: Node, height: float) -> Node:
    """A tower on a clamped base node of its own at ``shore``'s place, not
    joined to the deck; returns its top."""
    base = b.node(shore.x, 0.0)
    top = b.node(shore.x, height)
    b.beam(base, top)
    b.supports.append(Support(base.id, restrain_x=True, restrain_y=True, restrain_rz=True))
    return top


def _cable_stayed(b: _Builder, spec: BridgeSpec, deck: list[Node]) -> None:
    nseg = len(deck) - 1
    height = quantize(spec.span / 4.0)
    for shore, fan in ((0, range(1, nseg // 2 + 1)), (nseg, range(nseg - 1, nseg // 2 - 1, -1))):
        top = _tower(b, deck[shore], height)
        for k in fan:
            b.rope(top, deck[k])


def _suspension(b: _Builder, spec: BridgeSpec, deck: list[Node]) -> None:
    nseg = len(deck) - 1
    height = quantize(spec.span / 4.0)
    sag = quantize(spec.span / 10.0)
    back = quantize(spec.span / 8.0)
    towers = [_tower(b, deck[0], height), _tower(b, deck[nseg], height)]
    # Main chain sampled over each interior deck node, sagging between towers.
    chain = [towers[0]]
    for k in range(1, nseg):
        t = k / nseg
        chain.append(b.node(deck[k].x, quantize(height - 4.0 * sag * t * (1.0 - t))))
    chain.append(towers[1])
    for left, right in zip(chain, chain[1:]):
        b.rope(left, right)
    for k in range(1, nseg):
        b.rope(chain[k], deck[k])
    for tower, x_anchor in zip(towers, (quantize(-back), quantize(spec.span + back))):
        anchor = b.node(x_anchor, 0.0)
        b.supports.append(Support(anchor.id, restrain_x=True, restrain_y=True))
        b.rope(tower, anchor)


# What each kind adds to the deck.
_GENERATORS = {
    BridgeKind.BEAM: _beam,
    BridgeKind.CANTILEVER: _cantilever,
    BridgeKind.SUSPENSION: _suspension,
    BridgeKind.TRUSS: _truss,
    BridgeKind.CABLE_STAYED: _cable_stayed,
    BridgeKind.LEONARDO_REPLICA: _replica,
    BridgeKind.LEONARDO_GROUNDED: functools.partial(_replica, grounded=True),
}


def generate(spec: BridgeSpec) -> StructureModel:
    """Build the structural model for one bridge spec.

    Every kind stands on the same deck: a chain of beams on pin and roller
    shore supports, wheels as point masses at its ends, the ``mid_support``
    prop under its middle node and a SelfWeight load case. The kind's
    generator then adds its own members. A spec that puts a node at a
    coordinate that is not finite raises ``InvalidSpec``.
    """
    nseg = _check_spec(spec)
    b = _Builder()
    deck = [b.node(quantize(spec.span * k / nseg), 0.0) for k in range(nseg + 1)]
    for k in range(nseg):
        b.beam(deck[k], deck[k + 1], DECK_SECTION)
    b.supports += [Support(deck[0].id, restrain_x=True, restrain_y=True), Support(deck[-1].id, restrain_y=True)]
    if spec.wheels is Wheels.RIGHT_ONLY or spec.wheels is Wheels.BOTH_SIDES:
        b.loads.append(PointMass(deck[-1].id, WHEEL_MASS))
    if spec.wheels is Wheels.BOTH_SIDES:
        b.loads.append(PointMass(deck[0].id, WHEEL_MASS))
    if spec.mid_support:
        b.supports.append(Support(deck[nseg // 2].id, restrain_y=True))
    b.loads.append(SelfWeight(DEFAULT_G))
    _GENERATORS[spec.kind](b, spec, deck)
    # A span or pillar height near the largest double can put a node past it.
    if (far := next((n for n in b.nodes if not (math.isfinite(n.x) and math.isfinite(n.y))), None)) is not None:
        raise InvalidSpec(f"node {far.id} lies at ({far.x}, {far.y}): a coordinate is not finite")

    materials = [MATERIAL_PRESETS[DECK_MATERIAL]]
    if b.cables:
        materials.append(MATERIAL_PRESETS[ROPE_MATERIAL])
    sections = [DECK_SECTION]
    if any(beam.section == PILLAR_SECTION.name for beam in b.beams):
        sections.append(PILLAR_SECTION)
    return build_model(b.nodes, materials, sections, b.beams, b.cables, b.supports, b.loads)


def generate_preset(preset_id: PresetId | str) -> StructureModel:
    return generate(preset(preset_id).spec)


# ---------------------------------------------------------------------------
# Deck helpers and the bare-deck comparison oracle


def _deck_elevation(model: StructureModel) -> float:
    """The elevation carrying the most nodes; ties favour supported ones."""
    if not model.nodes:
        raise NotAReplica("model has no nodes")
    node_counts: dict[float, int] = {}
    for n in model.nodes:
        node_counts[n.y] = node_counts.get(n.y, 0) + 1
    support_counts: dict[float, int] = {}
    for s in model.supports:
        y = model.node(s.node).y
        support_counts[y] = support_counts.get(y, 0) + 1
    return max(sorted(node_counts), key=lambda y: (node_counts[y], support_counts.get(y, 0)))


def deck_node_ids(model: StructureModel) -> tuple[int, ...]:
    y0 = _deck_elevation(model)
    return tuple(n.id for n in model.nodes if n.y == y0)


def deck_beam_ids(model: StructureModel) -> tuple[int, ...]:
    y0 = _deck_elevation(model)
    deck = {n.id for n in model.nodes if n.y == y0}
    return tuple(b.id for b in model.beams if b.node_i in deck and b.node_j in deck)


def with_deck_udl(model: StructureModel, w: float) -> StructureModel:
    """The model plus a uniform load on every deck beam."""
    return model.with_loads(UniformLoad(bid, w) for bid in deck_beam_ids(model))


def strip_to_bare_deck(model: StructureModel) -> StructureModel:
    """Remove pillars and ropes, re-applying their self-weight where it acted.

    Each removed member's end lumps become point masses: lumps at deck
    nodes stay there, lumps at a pillar top are routed to that pillar's
    base deck node (a vertical pillar transfers them axially). Deck,
    supports and wheel masses are unchanged. Raises ``NotAReplica`` for
    anything that is not a deck-with-pillars replica (e.g. grounded
    pillars, truss chords, loads on pillar tops).
    """
    y0 = _deck_elevation(model)
    if any(model.node(s.node).y != y0 for s in model.supports):
        raise NotAReplica("supports are not all at the deck elevation")
    deck_nodes = {n.id for n in model.nodes if n.y == y0}

    base_of: dict[int, int] = {}
    deck_beams: list[BeamElement] = []
    stripped: list[BeamElement | CableElement] = []
    for b in model.beams:
        i_deck = b.node_i in deck_nodes
        j_deck = b.node_j in deck_nodes
        if i_deck and j_deck:
            deck_beams.append(b)
            continue
        if not (i_deck or j_deck):
            raise NotAReplica(f"beam {b.id} does not touch the deck")
        base, top = (b.node_i, b.node_j) if i_deck else (b.node_j, b.node_i)
        if model.node(base).x != model.node(top).x:
            raise NotAReplica(f"beam {b.id} is not a vertical pillar")
        if top in base_of:
            raise NotAReplica(f"node {top} tops more than one pillar")
        base_of[top] = base
        stripped.append(b)

    def route(node_id: int) -> int:
        if node_id in deck_nodes:
            return node_id
        if node_id in base_of:
            return base_of[node_id]
        raise NotAReplica(f"cable end node {node_id} is neither on the deck nor a pillar top")

    extra_mass: dict[int, float] = {}

    def lump(element, area: float) -> None:
        rho = model.material(element.material).density
        half = rho * area * model.element_length(element) / 2.0
        for end in (element.node_i, element.node_j):
            target = route(end)
            extra_mass[target] = extra_mass.get(target, 0.0) + half

    for b in stripped:
        lump(b, model.section(b.section).area)
    for c in model.cables:
        lump(c, c.area)

    deck_beam_set = {b.id for b in deck_beams}
    for load in model.loads:
        if isinstance(load, (NodalForce, PointMass)) and load.node not in deck_nodes:
            raise NotAReplica(f"load applied off the deck at node {load.node}")
        if isinstance(load, UniformLoad) and load.beam not in deck_beam_set:
            raise NotAReplica(f"uniform load on stripped beam {load.beam}")

    added = tuple(PointMass(nid, extra_mass[nid]) for nid in sorted(extra_mass) if extra_mass[nid] != 0.0)
    return build_model(
        nodes=[n for n in model.nodes if n.id in deck_nodes],
        materials=model.materials,
        sections=model.sections,
        beams=deck_beams,
        cables=(),
        supports=model.supports,
        loads=model.loads + added,
    )
