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

from bisect import bisect_left
from collections.abc import Callable
from itertools import chain, compress, count, permutations, repeat
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
# Parsing. The model parser groups the lines by keyword and converts each
# group a field at a time: a keyword's converter takes its lines' numbers
# and tokens and returns a list per field of its record, or raises the error
# of the first line it rejects.


def _content_lines(text: str) -> tuple[list[int], list[list[str]]]:
    """The number and the tokens of each line with content. Lines end at ``\n``
    only: every other character ``str.splitlines`` breaks at is whitespace."""
    lines = text.split("\n")
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    rows = list(map(str.split, lines))
    return list(compress(count(1), rows)), list(filter(None, rows))


def _number(convert: Callable[[str], int | float], token: str, lineno: int, what: str):
    try:
        return convert(token)
    except ValueError:
        raise ParseError(lineno, f"expected {'an integer' if convert is int else 'a number'} for {what}, "
                                 f"got {token!r}") from None


def _numbers(convert: Callable[[str], int | float], column, linenos: list[int], what: str) -> list:
    """``convert`` of each token, Python's own int or float, so that every
    accepted spelling and every bit is the same as token by token."""
    try:
        return list(map(convert, column))
    except ValueError:  # raises at the first bad token
        return [_number(convert, token, lineno, what) for token, lineno in zip(column, linenos)]


def _shape(linenos: list[int], rows: list[list[str]], ok: Callable[[int], bool], message: str) -> None:
    """``message`` at the first line whose token count ``ok`` rejects."""
    if not all(map(ok, set(map(len, rows)))):
        raise ParseError(next(n for n, tokens in zip(linenos, rows) if not ok(len(tokens))), message)


def _table(table: dict, column, linenos: list[int], message: str) -> list:
    """``table[token]`` of each token; ``message % token`` at the first it lacks."""
    values = list(map(table.get, column))
    if None in values:
        raise ParseError(linenos[values.index(None)], message % (column[values.index(None)],))
    return values


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


# Lines of one keyword from which splitting a key's tokens a column at a time
# is faster than line by line (measured: the two take as long at 4-6 lines).
_COLUMNS_FROM = 6


def _keyed(linenos, rows, start: int, required: tuple[str, ...], optional: dict[str, str]) -> list[list[str]]:
    """The column of each key's values, required then optional, in the
    KEY=VALUE tokens from ``start`` on: a column at a time where every line
    has the same keys in that order, as written, else line by line."""
    keys, n = (*required, *optional), len(rows[0]) - start
    if len(rows) >= _COLUMNS_FROM and len(set(map(len, rows))) == 1 and len(required) <= n <= len(keys):
        columns, prefixes = [*zip(*rows)][start:], [key + "=" for key in keys[:n]]
        if all(all(map(str.startswith, column, repeat(p))) for column, p in zip(columns, prefixes)):
            values = [list(map(str.removeprefix, column, repeat(p))) for column, p in zip(columns, prefixes)]
            if not any("" in column for column in values):
                return values + [[optional[key]] * len(rows) for key in keys[n:]]
    found = [_parse_kv(tokens[start:], lineno, required, optional) for lineno, tokens in zip(linenos, rows)]
    return [list(map(itemgetter(key), found)) for key in keys]


_PINS = {"": (False, False), "PIN=I": (True, False), "PIN=J": (False, True), "PIN=IJ": (True, True)}
# Every spelling of a non-empty set of support flags: whether it holds x, y and rz.
_FLAGS = {"".join(p): ("X" in p, "Y" in p, "R" in p) for r in (1, 2, 3) for p in permutations("XYR", r)}


def _unit(linenos, rows):
    _shape(linenos, rows, (2).__eq__, "expected UNIT SI")
    return (_table({"SI": "SI"}, [tokens[1] for tokens in rows], linenos, "only SI units are supported, got %r"),)


def _nodes(linenos, rows):
    _shape(linenos, rows, (4).__eq__, "expected NODE <id> <x> <y>")
    _, ids, x, y = zip(*rows)
    return _numbers(int, ids, linenos, "node id"), _numbers(float, x, linenos, "x"), _numbers(float, y, linenos, "y")


def _beams(linenos, rows):
    _shape(linenos, rows, {6, 7}.__contains__, "expected BEAM <id> <node_i> <node_j> <material> <section> [PIN=I|J|IJ]")
    pins = _table(_PINS, [tokens[6] if len(tokens) == 7 else "" for tokens in rows], linenos,
                  "bad beam option %r (expected PIN=I|J|IJ)")
    _, ids, ni, nj, materials, sections, *_ = zip(*rows)
    return (_numbers(int, ids, linenos, "beam id"), _numbers(int, ni, linenos, "node_i"),
            _numbers(int, nj, linenos, "node_j"), list(materials), list(sections), *map(list, zip(*pins)))


def _cables(linenos, rows):
    _shape(linenos, rows, (6).__le__, "expected CABLE <id> <node_i> <node_j> <material> A=<m2> [PRETENSION=<N>]")
    area, pretension = _keyed(linenos, rows, 5, ("A",), {"PRETENSION": "0"})
    _, ids, ni, nj, materials, *_ = zip(*rows)
    return (_numbers(int, ids, linenos, "cable id"), _numbers(int, ni, linenos, "node_i"),
            _numbers(int, nj, linenos, "node_j"), list(materials), _numbers(float, area, linenos, "A"),
            _numbers(float, pretension, linenos, "PRETENSION"))


def _supports(linenos, rows):
    _shape(linenos, rows, (3).__eq__, "expected SUPPORT <node> <flags>")
    _, nodes, flags = zip(*rows)
    flags = _table(_FLAGS, flags, linenos, "bad support flags %r (use X, Y, R)")
    return _numbers(int, nodes, linenos, "node id"), *map(list, zip(*flags))


def _keyed_lines(ok: Callable[[int], bool], message: str, start: int, ident: tuple[type, str] | None,
                 required: tuple[str, ...], optional: dict[str, str] = {}):
    """The converter of lines with KEY=VALUE tokens from ``start`` on, after
    a name or id (``ident``: its type and what it is) or nothing (None)."""
    def convert(linenos, rows):
        _shape(linenos, rows, ok, message)
        values = _keyed(linenos, rows, start, required, optional)
        ids = [] if ident is None else [_numbers(ident[0], [tokens[start - 1] for tokens in rows], linenos, ident[1])]
        return *ids, *[_numbers(float, v, linenos, key) for key, v in zip((*required, *optional), values)]
    return convert


# Each keyword's converter, and the record a row of its fields is.
_KINDS = {
    "UNIT": (_unit, None),
    "NODE": (_nodes, Node),
    "MATERIAL": (_keyed_lines((2).__le__, "MATERIAL needs a name", 2, (str, "name"), ("E", "RHO", "SIGMA")), Material),
    "SECTION": (_keyed_lines((2).__le__, "SECTION needs a name", 2, (str, "name"), ("A", "I", "H")), Section),
    "BEAM": (_beams, BeamElement),
    "CABLE": (_cables, CableElement),
    "SUPPORT": (_supports, Support),
    "LOAD NODE": (_keyed_lines((3).__le__, "expected LOAD NODE <node> FX= FY= MZ=", 3, (int, "node id"), (),
                               {"FX": "0", "FY": "0", "MZ": "0"}), NodalForce),
    "LOAD UDL": (_keyed_lines((4).__eq__, "expected LOAD UDL <beam_id> W=<N/m>", 3, (int, "beam id"), ("W",)),
                 UniformLoad),
    "LOAD MASS": (_keyed_lines((4).__eq__, "expected LOAD MASS <node> M=<kg>", 3, (int, "node id"), ("M",)), PointMass),
    "LOAD SELFWEIGHT": (_keyed_lines(bool, "", 2, None, ("G",)), SelfWeight),  # any count: the line has its key
}
# The keywords of build_model's records, and of the loads in its order.
_RECORDS = ("NODE", "MATERIAL", "SECTION", "BEAM", "CABLE", "SUPPORT")
_LOADS = ("LOAD NODE", "LOAD UDL", "LOAD MASS", "LOAD SELFWEIGHT")
# Keywords that are known but have no place in a model file.
_REJECTED = {"PLAN": "PLAN lines belong in a plan file, not a model file",
             "LOAD": "LOAD needs a subtype (NODE, UDL, MASS, SELFWEIGHT)"}


def _convert(convert, linenos: list[int], rows: list[list[str]]) -> tuple:
    """``convert(linenos, rows)``, or the error of the first line it rejects. A converter checks
    every line for one field before the next, so when a check rejects line k, the lines before k
    may fail a later check: they are converted again alone."""
    try:
        return convert(linenos, rows)
    except ParseError as exc:
        if k := bisect_left(linenos, exc.line):
            _convert(convert, linenos[:k], rows[:k])
        raise


def parse_model_file(text: str) -> StructureModel:
    """Parse the model format; errors carry their line number.

    Lines may come in any order; the first bad line in the file is the one
    reported. The UNIT header is optional on input. Identifier and
    reference problems surface as ``DuplicateId``/``UnknownReference``
    from the model builder.
    """
    groups: dict[str, tuple[list[int], list[list[str]]]] = {}
    for lineno, tokens in zip(*_content_lines(text)):
        key = tokens[0] if tokens[0] != "LOAD" else " ".join(tokens[:2])  # LOAD lines by their subtype
        group = groups.get(key) or groups.setdefault(key, ([], []))
        group[0].append(lineno)
        group[1].append(tokens)
    fields, errors = {}, []
    for key, (linenos, rows) in groups.items():
        try:
            if key not in _KINDS:
                raise ParseError(linenos[0], _REJECTED[key]) if key in _REJECTED else UnknownKeyword(linenos[0], key)
            fields[key] = _convert(_KINDS[key][0], linenos, rows)
        except ParseError as exc:
            errors.append(exc)
        rows.clear()  # converted: free the tokens before the records are made
    if errors:
        raise min(errors, key=lambda exc: exc.line)

    # The records in file order, so that build_model meets the duplicate or
    # dangling reference that the lines one by one would have met first.
    records = {key: list(map(_KINDS[key][1], *columns)) for key, columns in fields.items() if key != "UNIT"}
    loads = sorted(chain.from_iterable(zip(groups[key][0], records[key]) for key in _LOADS if key in records))
    return build_model(*(records.get(key, ()) for key in _RECORDS), [load for _, load in loads])


# ---------------------------------------------------------------------------
# Plan files

# The PLAN keys and their types, in ErectionPlan's field order; INTERVAL and SAFETY are optional.
_PLAN_KEYS = {"MODULE": float, "COUNT": int, "W": float, "CW": float, "LEVER": float, "INTERVAL": int, "SAFETY": float}


def parse_plan_file(text: str):
    """Parse a PLAN line into an ErectionPlan; other keywords are rejected."""
    from .erection import ErectionPlan  # local import to keep modules acyclic
    plan = None
    for lineno, tokens in zip(*_content_lines(text)):
        if tokens[0] == "UNIT":
            _unit([lineno], [tokens])
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
