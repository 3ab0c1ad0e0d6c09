"""The line-oriented model/plan text format: parsing and serialization.

Grammar (whitespace separated, ``#`` starts a comment):

    UNIT SI
    NODE <id> <x> <y>
    MATERIAL <name> E=<Pa> RHO=<kg/m3> SIGMA=<Pa>
    SECTION <name> A=<m2> I=<m4> H=<m>
    BEAM <id> <node_i> <node_j> <material> <section> [PIN=I|J|IJ]
    CABLE <id> <node_i> <node_j> <material> A=<m2> [PRETENSION=<N>]
    SUPPORT <node> <flags: X, Y, R concatenated>
    LOAD NODE <node> FX=<N> FY=<N> MZ=<Nm>
    LOAD UDL <beam_id> W=<N/m>          # positive = downward
    LOAD MASS <node> M=<kg>
    LOAD SELFWEIGHT G=<m/s2>
    PLAN MODULE=<m> COUNT=<n> W=<N/m> CW=<N> LEVER=<m> [INTERVAL=<n>] [SAFETY=<x>]

Numbers are written with 9 significant digits; serialization is
byte-stable and ``parse(serialize(m))`` reproduces the model exactly.
The parser reads a file one line at a time, and each line becomes its
record as it is read, so an error names the file's first bad line.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import compress, count, permutations, repeat
from operator import itemgetter

from .errors import ParseError, UnknownKeyword
from .model import (
    BeamElement,
    CableElement,
    Load,
    Material,
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

SIG_DIGITS = 9


def format_float(value: float) -> str:
    """Fixed 9-significant-digit rendering used everywhere in the format."""
    text = f"{value:.{SIG_DIGITS}g}"
    return "0" if text == "-0" else text


def quantize(value: float) -> float:
    """Round to the nearest value exactly representable in the file format.

    Idempotent: a quantized value survives serialize -> parse bit-for-bit.
    """
    return float(format_float(value))


# ---------------------------------------------------------------------------
# Serialization


def _fmt(v: float) -> str:
    return format_float(float(v))


def _beam_line(b: BeamElement) -> str:
    line = f"BEAM {b.id} {b.node_i} {b.node_j} {b.material} {b.section}"
    if b.pin_i or b.pin_j:
        line += " PIN=" + ("I" if b.pin_i else "") + ("J" if b.pin_j else "")
    return line


def _load_line(load: Load) -> str:
    if isinstance(load, NodalForce):
        return f"LOAD NODE {load.node} FX={_fmt(load.fx)} FY={_fmt(load.fy)} MZ={_fmt(load.mz)}"
    if isinstance(load, UniformLoad):
        return f"LOAD UDL {load.beam} W={_fmt(load.w)}"
    if isinstance(load, PointMass):
        return f"LOAD MASS {load.node} M={_fmt(load.mass)}"
    if isinstance(load, SelfWeight):
        return f"LOAD SELFWEIGHT G={_fmt(load.g)}"
    raise TypeError(f"unknown load type {type(load).__name__}")


def serialize_model(model: StructureModel) -> str:
    """Canonical text form of a model; byte-stable across runs."""
    lines = ["UNIT SI"]
    lines.extend(f"NODE {n.id} {_fmt(n.x)} {_fmt(n.y)}" for n in model.nodes)
    lines.extend(
        f"MATERIAL {m.name} E={_fmt(m.elastic_modulus)} RHO={_fmt(m.density)} SIGMA={_fmt(m.allowable_stress)}"
        for m in model.materials
    )
    lines.extend(
        f"SECTION {s.name} A={_fmt(s.area)} I={_fmt(s.second_moment)} H={_fmt(s.depth)}"
        for s in model.sections
    )
    lines.extend(_beam_line(b) for b in model.beams)
    for c in model.cables:
        line = f"CABLE {c.id} {c.node_i} {c.node_j} {c.material} A={_fmt(c.area)}"
        if c.pretension != 0.0:
            line += f" PRETENSION={_fmt(c.pretension)}"
        lines.append(line)
    lines.extend(f"SUPPORT {s.node} {''.join(compress('XYR', (s.restrain_x, s.restrain_y, s.restrain_rz)))}"
                 for s in model.supports)
    lines.extend(_load_line(load) for load in model.loads)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing. Each model line becomes its record as it is read. Its keyword's
# converter checks the token count, then the option and KEY=VALUE tokens,
# then the numbers, and raises the line's first error.


def _content_lines(text: str):
    """The number and the tokens of each line with content, one line at a time.
    Lines end at ``\n`` only: every other character ``str.splitlines`` breaks
    at is whitespace."""
    lines = text.split("\n")
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    return filter(itemgetter(1), zip(count(1), map(str.split, lines)))


def _number(convert: Callable[[str], int | float], token: str, lineno: int, what: str):
    try:
        return convert(token)
    except ValueError:
        raise ParseError(lineno, f"expected {'an integer' if convert is int else 'a number'} for {what}, "
                                 f"got {token!r}") from None


def _first_bad(lineno: int, converts, tokens, whats) -> None:
    """Convert ``tokens`` one by one through ``_number``, after a direct
    conversion failed: the first one its converter rejects raises the error
    that names its field."""
    for convert, token, what in zip(converts, tokens, whats):
        _number(convert, token, lineno, what)


def _parse_kv(tokens: list[str], lineno: int, required: tuple[str, ...], optional: dict[str, str]) -> dict[str, str]:
    """The value of each key in the KEY=VALUE ``tokens``; an absent optional key's default."""
    values: dict[str, str] = {}
    for token in tokens:
        key, sep, val = token.partition("=")
        if not sep or not val:
            raise ParseError(lineno, f"expected KEY=VALUE, got {token!r}")
        if key not in required and key not in optional:
            raise UnknownKeyword(lineno, key)
        if key in values:
            raise ParseError(lineno, f"duplicate key {key!r}")
        values[key] = val
    for key in required:
        if key not in values:
            raise ParseError(lineno, f"missing {key}=")
    return {**optional, **values}


_PINS = {"PIN=I": (True, False), "PIN=J": (False, True), "PIN=IJ": (True, True)}
# Every spelling of a non-empty set of support flags: whether it holds x, y and rz.
_FLAGS = {"".join(p): ("X" in p, "Y" in p, "R" in p) for r in (1, 2, 3) for p in permutations("XYR", r)}
_new = tuple.__new__  # a record from the tuple of its fields, with no Python call


def _unit(lineno: int, tokens: list[str]) -> None:
    if len(tokens) != 2:
        raise ParseError(lineno, "expected UNIT SI")
    if tokens[1] != "SI":
        raise ParseError(lineno, f"only SI units are supported, got {tokens[1]!r}")


def _node(lineno: int, tokens: list[str]) -> Node:
    if len(tokens) != 4:
        raise ParseError(lineno, "expected NODE <id> <x> <y>")
    try:
        return _new(Node, (int(tokens[1]), float(tokens[2]), float(tokens[3])))
    except ValueError:
        _first_bad(lineno, (int, float, float), tokens[1:], ("node id", "x", "y"))
        raise


def _beam(lineno: int, tokens: list[str]) -> BeamElement:
    if not 6 <= len(tokens) <= 7:
        raise ParseError(lineno, "expected BEAM <id> <node_i> <node_j> <material> <section> [PIN=I|J|IJ]")
    pins = _PINS.get(tokens[6]) if len(tokens) == 7 else (False, False)
    if pins is None:
        raise ParseError(lineno, f"bad beam option {tokens[6]!r} (expected PIN=I|J|IJ)")
    try:
        return _new(BeamElement, (int(tokens[1]), int(tokens[2]), int(tokens[3]), tokens[4], tokens[5]) + pins)
    except ValueError:
        _first_bad(lineno, (int, int, int), tokens[1:], ("beam id", "node_i", "node_j"))
        raise


def _cable(lineno: int, tokens: list[str]) -> CableElement:
    if len(tokens) < 6:
        raise ParseError(lineno, "expected CABLE <id> <node_i> <node_j> <material> A=<m2> [PRETENSION=<N>]")
    if len(tokens) == 6 and tokens[5].startswith("A=") and len(tokens[5]) > 2:  # the usual cable: A= alone
        area, pretension = tokens[5][2:], "0"
    else:
        kv = _parse_kv(tokens[5:], lineno, ("A",), {"PRETENSION": "0"})
        area, pretension = kv["A"], kv["PRETENSION"]
    try:
        return _new(CableElement, (int(tokens[1]), int(tokens[2]), int(tokens[3]), tokens[4],
                                   float(area), float(pretension)))
    except ValueError:
        _first_bad(lineno, (int, int, int, float, float), (*tokens[1:4], area, pretension),
                   ("cable id", "node_i", "node_j", "A", "PRETENSION"))
        raise


def _support(lineno: int, tokens: list[str]) -> Support:
    if len(tokens) != 3:
        raise ParseError(lineno, "expected SUPPORT <node> <flags>")
    if tokens[2] not in _FLAGS:
        raise ParseError(lineno, f"bad support flags {tokens[2]!r} (use X, Y, R)")
    return _new(Support, (_number(int, tokens[1], lineno, "node id"), *_FLAGS[tokens[2]]))


def _keyed(record: type, ok: Callable[[int], bool], message: str, start: int, ident: tuple[type, str] | None,
           required: tuple[str, ...], optional: dict[str, str] = {}):
    """The converter of lines with KEY=VALUE tokens from ``start`` on, after
    a name or id (``ident``: its type and what it is) or nothing (None)."""
    keys = (*required, *optional)

    def convert(lineno: int, tokens: list[str]):
        if not ok(len(tokens)):
            raise ParseError(lineno, message)
        kv = _parse_kv(tokens[start:], lineno, required, optional)
        values = [kv[key] for key in keys]
        lead = () if ident is None else (_number(ident[0], tokens[start - 1], lineno, ident[1]),)
        try:
            return _new(record, (*lead, *map(float, values)))
        except ValueError:
            _first_bad(lineno, repeat(float), values, keys)
            raise
    return convert


# Each keyword's converter, and the build_model argument its records join.
_LINES = {
    "NODE": (_node, "nodes"),
    "MATERIAL": (_keyed(Material, (2).__le__, "MATERIAL needs a name", 2, (str, "name"), ("E", "RHO", "SIGMA")),
                 "materials"),
    "SECTION": (_keyed(Section, (2).__le__, "SECTION needs a name", 2, (str, "name"), ("A", "I", "H")), "sections"),
    "BEAM": (_beam, "beams"),
    "CABLE": (_cable, "cables"),
    "SUPPORT": (_support, "supports"),
    "LOAD NODE": (_keyed(NodalForce, (3).__le__, "expected LOAD NODE <node> FX= FY= MZ=", 3, (int, "node id"), (),
                         {"FX": "0", "FY": "0", "MZ": "0"}), "loads"),
    "LOAD UDL": (_keyed(UniformLoad, (4).__eq__, "expected LOAD UDL <beam_id> W=<N/m>", 3, (int, "beam id"), ("W",)),
                 "loads"),
    "LOAD MASS": (_keyed(PointMass, (4).__eq__, "expected LOAD MASS <node> M=<kg>", 3, (int, "node id"), ("M",)),
                  "loads"),
    "LOAD SELFWEIGHT": (_keyed(SelfWeight, bool, "", 2, None, ("G",)), "loads"),  # any count: the line has its key
}


def parse_model_file(text: str) -> StructureModel:
    """Parse the model format; errors carry their line number.

    Lines may come in any order; each becomes its record as it is read, so
    the first bad line in the file is the one reported. The UNIT header is
    optional on input. Identifier and reference problems surface as
    ``DuplicateId``/``UnknownReference`` from the model builder.
    """
    records = {"nodes": [], "materials": [], "sections": [], "beams": [], "cables": [], "supports": [], "loads": []}
    for lineno, tokens in _content_lines(text):
        keyword = tokens[0] if tokens[0] != "LOAD" else " ".join(tokens[:2])  # LOAD lines by their subtype
        line = _LINES.get(keyword)
        if line is not None:
            convert, kind = line
            records[kind].append(convert(lineno, tokens))
        elif keyword == "UNIT":
            _unit(lineno, tokens)
        elif keyword == "PLAN":
            raise ParseError(lineno, "PLAN lines belong in a plan file, not a model file")
        elif keyword == "LOAD":
            raise ParseError(lineno, "LOAD needs a subtype (NODE, UDL, MASS, SELFWEIGHT)")
        else:
            raise UnknownKeyword(lineno, keyword)
    return build_model(**records)


# ---------------------------------------------------------------------------
# Plan files

# The PLAN keys and their types, in ErectionPlan's field order; INTERVAL and SAFETY are optional.
_PLAN_KEYS = {"MODULE": float, "COUNT": int, "W": float, "CW": float, "LEVER": float, "INTERVAL": int, "SAFETY": float}


def parse_plan_file(text: str):
    """Parse a PLAN line into an ErectionPlan; other keywords are rejected."""
    from .erection import ErectionPlan  # local import to keep modules acyclic
    plan = None
    for lineno, tokens in _content_lines(text):
        if tokens[0] == "UNIT":
            _unit(lineno, tokens)
        elif tokens[0] == "PLAN":
            if plan is not None:
                raise ParseError(lineno, "more than one PLAN line")
            kv = _parse_kv(tokens[1:], lineno, tuple(_PLAN_KEYS)[:5], {"INTERVAL": "2", "SAFETY": "1"})
            plan = ErectionPlan(*(_number(convert, kv[key], lineno, key) for key, convert in _PLAN_KEYS.items()))
        else:
            raise UnknownKeyword(lineno, tokens[0])
    if plan is None:
        raise ParseError(0, "plan file has no PLAN line")
    return plan


def serialize_plan(plan) -> str:
    line = (
        f"PLAN MODULE={_fmt(plan.module_length)} COUNT={plan.module_count}"
        f" W={_fmt(plan.deck_weight_per_length)} CW={_fmt(plan.counterweight)}"
        f" LEVER={_fmt(plan.counterweight_lever)} INTERVAL={plan.pillar_interval}"
        f" SAFETY={_fmt(plan.safety_factor)}"
    )
    return "UNIT SI\n" + line + "\n"
