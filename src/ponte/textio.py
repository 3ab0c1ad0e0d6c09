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
"""

from __future__ import annotations

from typing import Iterable

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


def _support_flags(s: Support) -> str:
    flags = ""
    if s.restrain_x:
        flags += "X"
    if s.restrain_y:
        flags += "Y"
    if s.restrain_rz:
        flags += "R"
    return flags


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
    lines.extend(f"SUPPORT {s.node} {_support_flags(s)}" for s in model.supports)
    lines.extend(_load_line(load) for load in model.loads)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing


def _content_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(lineno, f"expected a number for {what}, got {token!r}") from None


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected an integer for {what}, got {token!r}") from None


def _parse_kv(tokens: list[str], lineno: int, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
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
    return values


def _expect(tokens: list[str], lineno: int, n: int, usage: str) -> None:
    if len(tokens) != n:
        raise ParseError(lineno, f"expected {usage}")


def _check_unit(tokens: list[str], lineno: int) -> None:
    _expect(tokens, lineno, 2, "UNIT SI")
    if tokens[1] != "SI":
        raise ParseError(lineno, f"only SI units are supported, got {tokens[1]!r}")


class _ModelAccumulator:
    def __init__(self):
        self.nodes: list[Node] = []
        self.materials: list[Material] = []
        self.sections: list[Section] = []
        self.beams: list[BeamElement] = []
        self.cables: list[CableElement] = []
        self.supports: list[Support] = []
        self.loads: list[Load] = []


def _parse_support_flags(token: str, lineno: int) -> set[str]:
    seen = set()
    for ch in token:
        if ch not in "XYR" or ch in seen:
            raise ParseError(lineno, f"bad support flags {token!r} (use X, Y, R)")
        seen.add(ch)
    if not seen:
        raise ParseError(lineno, "support flags must not be empty")
    return seen


def _parse_line(acc: _ModelAccumulator, lineno: int, tokens: list[str]) -> None:
    keyword = tokens[0]
    rest = tokens[1:]
    if keyword == "UNIT":
        _check_unit(tokens, lineno)
    elif keyword == "NODE":
        _expect(tokens, lineno, 4, "NODE <id> <x> <y>")
        acc.nodes.append(
            Node(
                _parse_int(rest[0], lineno, "node id"),
                _parse_float(rest[1], lineno, "x"),
                _parse_float(rest[2], lineno, "y"),
            )
        )
    elif keyword == "MATERIAL":
        if len(rest) < 1:
            raise ParseError(lineno, "MATERIAL needs a name")
        kv = _parse_kv(rest[1:], lineno, ("E", "RHO", "SIGMA"))
        acc.materials.append(
            Material(
                rest[0],
                _parse_float(kv["E"], lineno, "E"),
                _parse_float(kv["RHO"], lineno, "RHO"),
                _parse_float(kv["SIGMA"], lineno, "SIGMA"),
            )
        )
    elif keyword == "SECTION":
        if len(rest) < 1:
            raise ParseError(lineno, "SECTION needs a name")
        kv = _parse_kv(rest[1:], lineno, ("A", "I", "H"))
        acc.sections.append(
            Section(
                rest[0],
                _parse_float(kv["A"], lineno, "A"),
                _parse_float(kv["I"], lineno, "I"),
                _parse_float(kv["H"], lineno, "H"),
            )
        )
    elif keyword == "BEAM":
        if len(rest) not in (5, 6):
            raise ParseError(lineno, "expected BEAM <id> <node_i> <node_j> <material> <section> [PIN=I|J|IJ]")
        pin_i = pin_j = False
        if len(rest) == 6:
            key, sep, val = rest[5].partition("=")
            if key != "PIN" or not sep or val not in ("I", "J", "IJ"):
                raise ParseError(lineno, f"bad beam option {rest[5]!r} (expected PIN=I|J|IJ)")
            pin_i = "I" in val
            pin_j = "J" in val
        acc.beams.append(
            BeamElement(
                _parse_int(rest[0], lineno, "beam id"),
                _parse_int(rest[1], lineno, "node_i"),
                _parse_int(rest[2], lineno, "node_j"),
                rest[3],
                rest[4],
                pin_i=pin_i,
                pin_j=pin_j,
            )
        )
    elif keyword == "CABLE":
        if len(rest) < 5:
            raise ParseError(lineno, "expected CABLE <id> <node_i> <node_j> <material> A=<m2> [PRETENSION=<N>]")
        kv = _parse_kv(rest[4:], lineno, ("A",), optional=("PRETENSION",))
        acc.cables.append(
            CableElement(
                _parse_int(rest[0], lineno, "cable id"),
                _parse_int(rest[1], lineno, "node_i"),
                _parse_int(rest[2], lineno, "node_j"),
                rest[3],
                _parse_float(kv["A"], lineno, "A"),
                pretension=_parse_float(kv.get("PRETENSION", "0"), lineno, "PRETENSION"),
            )
        )
    elif keyword == "SUPPORT":
        _expect(tokens, lineno, 3, "SUPPORT <node> <flags>")
        flags = _parse_support_flags(rest[1], lineno)
        acc.supports.append(
            Support(
                _parse_int(rest[0], lineno, "node id"),
                restrain_x="X" in flags,
                restrain_y="Y" in flags,
                restrain_rz="R" in flags,
            )
        )
    elif keyword == "LOAD":
        if not rest:
            raise ParseError(lineno, "LOAD needs a subtype (NODE, UDL, MASS, SELFWEIGHT)")
        sub = rest[0]
        if sub == "NODE":
            if len(rest) < 2:
                raise ParseError(lineno, "expected LOAD NODE <node> FX= FY= MZ=")
            kv = _parse_kv(rest[2:], lineno, (), optional=("FX", "FY", "MZ"))
            acc.loads.append(
                NodalForce(
                    _parse_int(rest[1], lineno, "node id"),
                    fx=_parse_float(kv.get("FX", "0"), lineno, "FX"),
                    fy=_parse_float(kv.get("FY", "0"), lineno, "FY"),
                    mz=_parse_float(kv.get("MZ", "0"), lineno, "MZ"),
                )
            )
        elif sub == "UDL":
            if len(rest) != 3:
                raise ParseError(lineno, "expected LOAD UDL <beam_id> W=<N/m>")
            kv = _parse_kv(rest[2:], lineno, ("W",))
            acc.loads.append(
                UniformLoad(_parse_int(rest[1], lineno, "beam id"), _parse_float(kv["W"], lineno, "W"))
            )
        elif sub == "MASS":
            if len(rest) != 3:
                raise ParseError(lineno, "expected LOAD MASS <node> M=<kg>")
            kv = _parse_kv(rest[2:], lineno, ("M",))
            acc.loads.append(
                PointMass(_parse_int(rest[1], lineno, "node id"), _parse_float(kv["M"], lineno, "M"))
            )
        elif sub == "SELFWEIGHT":
            kv = _parse_kv(rest[1:], lineno, ("G",))
            acc.loads.append(SelfWeight(_parse_float(kv["G"], lineno, "G")))
        else:
            raise UnknownKeyword(lineno, f"LOAD {sub}")
    else:
        raise UnknownKeyword(lineno, keyword)


def parse_model_file(text: str) -> StructureModel:
    """Parse the model format; errors carry their line number.

    The UNIT header is optional on input. Identifier and reference
    problems surface as ``DuplicateId``/``UnknownReference`` from the
    model builder.
    """
    acc = _ModelAccumulator()
    for lineno, tokens in _content_lines(text):
        if tokens[0] == "PLAN":
            raise ParseError(lineno, "PLAN lines belong in a plan file, not a model file")
        _parse_line(acc, lineno, tokens)
    return build_model(
        nodes=acc.nodes,
        materials=acc.materials,
        sections=acc.sections,
        beams=acc.beams,
        cables=acc.cables,
        supports=acc.supports,
        loads=acc.loads,
    )


# ---------------------------------------------------------------------------
# Plan files


def parse_plan_file(text: str):
    """Parse a PLAN line into an ErectionPlan; other keywords are rejected."""
    from .erection import ErectionPlan  # local import to keep modules acyclic

    plan = None
    for lineno, tokens in _content_lines(text):
        keyword = tokens[0]
        if keyword == "UNIT":
            _check_unit(tokens, lineno)
        elif keyword == "PLAN":
            if plan is not None:
                raise ParseError(lineno, "more than one PLAN line")
            kv = _parse_kv(
                tokens[1:], lineno, ("MODULE", "COUNT", "W", "CW", "LEVER"), optional=("INTERVAL", "SAFETY")
            )
            plan = ErectionPlan(
                module_length=_parse_float(kv["MODULE"], lineno, "MODULE"),
                module_count=_parse_int(kv["COUNT"], lineno, "COUNT"),
                deck_weight_per_length=_parse_float(kv["W"], lineno, "W"),
                counterweight=_parse_float(kv["CW"], lineno, "CW"),
                counterweight_lever=_parse_float(kv["LEVER"], lineno, "LEVER"),
                pillar_interval=_parse_int(kv.get("INTERVAL", "2"), lineno, "INTERVAL"),
                safety_factor=_parse_float(kv.get("SAFETY", "1"), lineno, "SAFETY"),
            )
        else:
            raise UnknownKeyword(lineno, keyword)
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
