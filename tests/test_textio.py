import collections
import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pytest import approx

import oracles
from ponte import catalog
from ponte.catalog import BridgeKind, BridgeSpec
from ponte.errors import DuplicateId, ParseError, UnknownKeyword, UnknownReference
from ponte.model import BeamElement, Material, Node, Section, StructureModel, _model_arrays, build_model
from ponte.textio import (
    format_float,
    parse_model_file,
    parse_plan_file,
    quantize,
    serialize_model,
    serialize_plan,
)

MINIMAL = """\
NODE 1 0 0
NODE 2 10 0
MATERIAL timber E=1e10 RHO=600 SIGMA=1e7
SECTION deck A=0.06 I=0.00045 H=0.3
BEAM 1 1 2 timber deck
SUPPORT 1 XY
SUPPORT 2 Y
"""


class TestParse:
    def test_minimal_file(self):
        model = parse_model_file(MINIMAL)
        assert len(model.nodes) == 2
        assert model.node(2).x == 10.0
        assert model.supports[0].restrain_x and model.supports[0].restrain_y
        assert not model.supports[1].restrain_x

    def test_unknown_keyword_carries_line(self):
        text = MINIMAL.replace("BEAM 1 1 2 timber deck", "BEM 1 1 2 timber deck")
        with pytest.raises(UnknownKeyword) as exc:
            parse_model_file(text)
        assert exc.value.line == 5
        assert exc.value.keyword == "BEM"

    def test_bad_number_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_model_file("NODE 1 zero 0\n")
        assert exc.value.line == 1

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\n" + MINIMAL.replace("NODE 1 0 0", "NODE 1 0 0  # origin")
        model = parse_model_file(text)
        assert len(model.nodes) == 2

    def test_all_load_kinds(self):
        text = MINIMAL + (
            "LOAD NODE 2 FX=1 FY=-2.5 MZ=3\n"
            "LOAD UDL 1 W=1200\n"
            "LOAD MASS 2 M=300\n"
            "LOAD SELFWEIGHT G=9.81\n"
        )
        model = parse_model_file(text)
        kinds = [type(l).__name__ for l in model.loads]
        assert kinds == ["NodalForce", "UniformLoad", "PointMass", "SelfWeight"]
        nf = model.loads[0]
        assert (nf.fx, nf.fy, nf.mz) == (1.0, -2.5, 3.0)

    def test_unknown_load_subtype(self):
        with pytest.raises(UnknownKeyword):
            parse_model_file(MINIMAL + "LOAD WIND 1 W=5\n")

    def test_partial_nodal_force_defaults_to_zero(self):
        model = parse_model_file(MINIMAL + "LOAD NODE 2 FY=-10\n")
        assert model.loads[0].fx == 0.0
        assert model.loads[0].mz == 0.0

    def test_cable_with_and_without_pretension(self):
        text = MINIMAL + (
            "NODE 3 5 2\n"
            "CABLE 2 1 3 timber A=0.0005\n"
            "CABLE 3 2 3 timber A=0.0005 PRETENSION=120\n"
        )
        # NODE after BEAM is fine: ordering is canonicalized at build.
        model = parse_model_file(text)
        assert model.cable(2).pretension == 0.0
        assert model.cable(3).pretension == 120.0

    def test_beam_pin_flags(self):
        text = MINIMAL + "NODE 3 5 2\nBEAM 2 1 3 timber deck PIN=I\nBEAM 3 2 3 timber deck PIN=IJ\n"
        model = parse_model_file(text)
        assert model.beam(2).pin_i and not model.beam(2).pin_j
        assert model.beam(3).pin_i and model.beam(3).pin_j

    def test_bad_support_flags(self):
        with pytest.raises(ParseError):
            parse_model_file(MINIMAL.replace("SUPPORT 1 XY", "SUPPORT 1 XQ"))

    def test_duplicate_id_surfaces(self):
        with pytest.raises(DuplicateId):
            parse_model_file(MINIMAL + "NODE 2 4 4\n")

    def test_unit_line_must_be_si(self):
        with pytest.raises(ParseError):
            parse_model_file("UNIT IMPERIAL\n" + MINIMAL)

    def test_plan_line_rejected_in_model_file(self):
        with pytest.raises(ParseError):
            parse_model_file(MINIMAL + "PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\n")


class TestSerialize:
    def test_empty_model_is_header_only(self):
        assert serialize_model(StructureModel()) == "UNIT SI\n"

    def test_round_trip_every_preset(self):
        for p in catalog.presets():
            model = catalog.generate(p.spec)
            assert parse_model_file(serialize_model(model)) == model

    def test_byte_stable(self):
        model = catalog.generate_preset("FLORENCE")
        assert serialize_model(model) == serialize_model(model)

    def test_round_trip_random_models(self, random_models):
        for model in random_models:
            text = serialize_model(model)
            again = parse_model_file(text)
            assert again == model
            assert serialize_model(again) == text

    def test_nine_significant_digits(self):
        assert format_float(8333.333333333334) == "8333.33333"
        assert format_float(10e9) == "1e+10"
        assert format_float(-0.0) == "0"

    def test_pin_flags_round_trip(self):
        model = catalog.generate_preset("GRANDE")
        text = serialize_model(model)
        assert "PIN=I" in text
        assert parse_model_file(text).beam(7).pin_i

    def test_pretension_round_trips(self):
        model = parse_model_file(MINIMAL + "NODE 3 5 2\nCABLE 2 1 3 timber A=0.0005 PRETENSION=120\n")
        text = serialize_model(model)
        assert "CABLE 2 1 3 timber A=0.0005 PRETENSION=120\n" in text
        again = parse_model_file(text)
        assert again == model and again.cable(2).pretension == 120.0


class TestQuantize:
    @given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, value):
        q = quantize(value)
        assert quantize(q) == q

    @given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_close_to_original(self, value):
        assert quantize(value) == approx(value, rel=1e-8)


class TestPlanFiles:
    def test_parse_plan(self):
        plan = parse_plan_file("UNIT SI\nPLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1 INTERVAL=2 SAFETY=1.5\n")
        assert plan.module_length == 2.0
        assert plan.module_count == 4
        assert plan.deck_weight_per_length == 500.0
        assert plan.counterweight == 2000.0
        assert plan.counterweight_lever == 1.0
        assert plan.pillar_interval == 2
        assert plan.safety_factor == 1.5

    def test_defaults(self):
        plan = parse_plan_file("PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\n")
        assert plan.pillar_interval == 2
        assert plan.safety_factor == 1.0

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_plan_file("PLAN MODULE=2 COUNT=4 W=500 CW=2000\n")

    def test_no_plan_line(self):
        with pytest.raises(ParseError):
            parse_plan_file("# nothing here\n")

    def test_round_trip(self):
        plan = parse_plan_file("PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\n")
        assert parse_plan_file(serialize_plan(plan)) == plan


# ---------------------------------------------------------------------------
# The parser's contract: every error text and line, the first bad line in
# the file, any line order, and the line-by-line oracle.

# (bad line appended to MINIMAL as line 8, error type, message)
BAD_LINES = [
    ("UNIT", ParseError, "expected UNIT SI"),
    ("UNIT IMPERIAL", ParseError, "only SI units are supported, got 'IMPERIAL'"),
    ("NODE 3 1", ParseError, "expected NODE <id> <x> <y>"),
    ("NODE 3.5 1 2", ParseError, "expected an integer for node id, got '3.5'"),
    ("NODE 3 x 2", ParseError, "expected a number for x, got 'x'"),
    ("NODE 3 1 2,5", ParseError, "expected a number for y, got '2,5'"),
    ("MATERIAL", ParseError, "MATERIAL needs a name"),
    ("MATERIAL m E RHO=1 SIGMA=1", ParseError, "expected KEY=VALUE, got 'E'"),
    ("MATERIAL m E= RHO=1 SIGMA=1", ParseError, "expected KEY=VALUE, got 'E='"),
    ("MATERIAL m E=1 RHO=1 SIGMA=1 NU=0.3", UnknownKeyword, "unknown keyword 'NU'"),
    ("MATERIAL m E=1 E=2 RHO=1 SIGMA=1", ParseError, "duplicate key 'E'"),
    ("MATERIAL m E=1 RHO=1", ParseError, "missing SIGMA="),
    ("MATERIAL m E=x RHO=1 SIGMA=1", ParseError, "expected a number for E, got 'x'"),
    ("MATERIAL m E=1 RHO=x SIGMA=1", ParseError, "expected a number for RHO, got 'x'"),
    ("MATERIAL m E=1 RHO=1 SIGMA=x", ParseError, "expected a number for SIGMA, got 'x'"),
    ("SECTION", ParseError, "SECTION needs a name"),
    ("SECTION s A=1 I=1", ParseError, "missing H="),
    ("SECTION s A=x I=1 H=1", ParseError, "expected a number for A, got 'x'"),
    ("SECTION s A=1 I=x H=1", ParseError, "expected a number for I, got 'x'"),
    ("SECTION s A=1 I=1 H=x", ParseError, "expected a number for H, got 'x'"),
    ("BEAM 2 1 2 timber", ParseError, "expected BEAM <id> <node_i> <node_j> <material> <section> [PIN=I|J|IJ]"),
    ("BEAM 2 1 2 timber deck PIN=K", ParseError, "bad beam option 'PIN=K' (expected PIN=I|J|IJ)"),
    ("BEAM 2 1 2 timber deck PINS=I", ParseError, "bad beam option 'PINS=I' (expected PIN=I|J|IJ)"),
    ("BEAM x 1 2 timber deck", ParseError, "expected an integer for beam id, got 'x'"),
    ("BEAM 2 x 2 timber deck", ParseError, "expected an integer for node_i, got 'x'"),
    ("BEAM 2 1 x timber deck", ParseError, "expected an integer for node_j, got 'x'"),
    ("CABLE 2 1 2 timber", ParseError, "expected CABLE <id> <node_i> <node_j> <material> A=<m2> [PRETENSION=<N>]"),
    ("CABLE 2 1 2 timber PRETENSION=1", ParseError, "missing A="),
    ("CABLE 2 1 2 timber A=1 B=1", UnknownKeyword, "unknown keyword 'B'"),
    ("CABLE x 1 2 timber A=1", ParseError, "expected an integer for cable id, got 'x'"),
    ("CABLE 2 x 2 timber A=1", ParseError, "expected an integer for node_i, got 'x'"),
    ("CABLE 2 1 x timber A=1", ParseError, "expected an integer for node_j, got 'x'"),
    ("CABLE 2 1 2 timber A=x", ParseError, "expected a number for A, got 'x'"),
    ("CABLE 2 1 2 timber A=1 PRETENSION=x", ParseError, "expected a number for PRETENSION, got 'x'"),
    ("SUPPORT 1", ParseError, "expected SUPPORT <node> <flags>"),
    ("SUPPORT 1 XX", ParseError, "bad support flags 'XX' (use X, Y, R)"),
    ("SUPPORT 1 XZ", ParseError, "bad support flags 'XZ' (use X, Y, R)"),
    ("SUPPORT x Y", ParseError, "expected an integer for node id, got 'x'"),
    ("LOAD", ParseError, "LOAD needs a subtype (NODE, UDL, MASS, SELFWEIGHT)"),
    ("LOAD WIND 1 W=5", UnknownKeyword, "unknown keyword 'LOAD WIND'"),
    ("LOAD NODE", ParseError, "expected LOAD NODE <node> FX= FY= MZ="),
    ("LOAD NODE 2 FQ=1", UnknownKeyword, "unknown keyword 'FQ'"),
    ("LOAD NODE x FY=1", ParseError, "expected an integer for node id, got 'x'"),
    ("LOAD NODE 2 FX=x", ParseError, "expected a number for FX, got 'x'"),
    ("LOAD NODE 2 FY=x", ParseError, "expected a number for FY, got 'x'"),
    ("LOAD NODE 2 MZ=x", ParseError, "expected a number for MZ, got 'x'"),
    ("LOAD UDL 1", ParseError, "expected LOAD UDL <beam_id> W=<N/m>"),
    ("LOAD UDL 1 M=1", UnknownKeyword, "unknown keyword 'M'"),
    ("LOAD UDL x W=1", ParseError, "expected an integer for beam id, got 'x'"),
    ("LOAD UDL 1 W=x", ParseError, "expected a number for W, got 'x'"),
    ("LOAD MASS 2", ParseError, "expected LOAD MASS <node> M=<kg>"),
    ("LOAD MASS x M=1", ParseError, "expected an integer for node id, got 'x'"),
    ("LOAD MASS 2 M=x", ParseError, "expected a number for M, got 'x'"),
    ("LOAD SELFWEIGHT", ParseError, "missing G="),
    ("LOAD SELFWEIGHT G=x", ParseError, "expected a number for G, got 'x'"),
    ("PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1", ParseError, "PLAN lines belong in a plan file, not a model file"),
    ("BEM 2 1 2 timber deck", UnknownKeyword, "unknown keyword 'BEM'"),
    # Two faults in one line: the token count, then the option and KEY=VALUE
    # tokens, then the numbers.
    ("SUPPORT x XX", ParseError, "bad support flags 'XX' (use X, Y, R)"),
    ("BEAM x 1 2 timber deck PIN=K", ParseError, "bad beam option 'PIN=K' (expected PIN=I|J|IJ)"),
    ("CABLE x 1 2 timber B=1", UnknownKeyword, "unknown keyword 'B'"),
    ("LOAD NODE x FQ=1", UnknownKeyword, "unknown keyword 'FQ'"),
    ("LOAD UDL x W=", ParseError, "expected KEY=VALUE, got 'W='"),
    ("LOAD MASS x M=y", ParseError, "expected an integer for node id, got 'x'"),
]

# (lines appended to MINIMAL, error type, message)
BAD_REFERENCES = [
    ("NODE 2 4 4", DuplicateId, "duplicate node id: 2"),
    ("MATERIAL timber E=1 RHO=1 SIGMA=1", DuplicateId, "duplicate material name: 'timber'"),
    ("SECTION deck A=1 I=1 H=1", DuplicateId, "duplicate section name: 'deck'"),
    ("CABLE 1 1 2 timber A=1", DuplicateId, "duplicate element id: 1"),
    ("BEAM 2 1 9 timber deck", UnknownReference, "unknown node reference: 9 (in beam 2)"),
    ("BEAM 2 1 2 oak deck", UnknownReference, "unknown material reference: 'oak' (in beam 2)"),
    ("BEAM 2 1 2 timber rail", UnknownReference, "unknown section reference: 'rail' (in beam 2)"),
    ("CABLE 2 9 2 timber A=1", UnknownReference, "unknown node reference: 9 (in cable 2)"),
    ("SUPPORT 9 Y", UnknownReference, "unknown node reference: 9 (in support)"),
    ("LOAD MASS 9 M=1", UnknownReference, "unknown node reference: 9 (in load)"),
    ("LOAD UDL 9 W=1", UnknownReference, "unknown beam reference: 9 (in uniform load)"),
    # The first dangling reference in the file is reported, whatever its kind.
    ("LOAD UDL 9 W=1\nLOAD NODE 8 FY=1", UnknownReference, "unknown beam reference: 9 (in uniform load)"),
    ("BEAM 3 1 8 timber deck\nBEAM 2 1 9 timber deck", UnknownReference, "unknown node reference: 8 (in beam 3)"),
    ("NODE 5 0 1\nNODE 3 0 2\nNODE 5 0 3\nNODE 3 0 4", DuplicateId, "duplicate node id: 5"),
]


def _outcome(parse, text: str):
    """What parsing ``text`` gives: the model's repr, or the error's type,
    text and line."""
    try:
        return "ok", repr(parse(text))
    except (ParseError, DuplicateId, UnknownReference) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _same_view(a, b) -> None:
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


def _ladder_texts() -> dict[str, str]:
    """The presets and the benchmark ladder's replicas, as files."""
    texts = {p.id.value: serialize_model(catalog.generate(p.spec)) for p in catalog.presets()}
    for kind, pillars in ((BridgeKind.LEONARDO_GROUNDED, 23), (BridgeKind.LEONARDO_GROUNDED, 95),
                          (BridgeKind.LEONARDO_GROUNDED, 383), (BridgeKind.LEONARDO_REPLICA, 23)):
        spec = BridgeSpec(kind, span=2.0 * (pillars + 1), pillar_count=pillars)
        texts[f"{kind.value}-{pillars}"] = serialize_model(catalog.generate(spec))
    return texts


_MUTANT_TOKENS = ("x", "1e", "=", "A=", "Q=1", "PIN=K", "PIN=IJ", "XX", "XR", "nan", "-inf", "1_000", "+7", "0x10",
                  "NODE", "LOAD", "UDL", "#", "9", "3", "2.5", "timber", "E=1", "PRETENSION=5", "\x0c", "\x1c")
_MUTANT_LINES = ("PLAN MODULE=1 COUNT=2 W=1 CW=1 LEVER=1", "LOAD", "LOAD WIND 1 W=1", "UNIT IMPERIAL", "UNIT SI",
                 "BOGUS 1", "# a comment", "", "LOAD SELFWEIGHT G=9.81", "LOAD NODE 2 FY=-1e3", "SUPPORT 2 R",
                 "NODE 99 1 1", "LOAD UDL 1 W=5", "LOAD MASS 1 M=3")


def mutant(text: str, rng: random.Random) -> str:
    """``text`` with one to three random edits: a token dropped, replaced
    or added, a line repeated, moved, dropped or added, a line end changed."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        tokens = lines[k].split(" ")
        edit = rng.randrange(8)
        if edit == 0 and len(tokens) > 1:
            del tokens[rng.randrange(len(tokens))]
        elif edit == 1:
            tokens[rng.randrange(len(tokens))] = rng.choice(_MUTANT_TOKENS)
        elif edit == 2:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_MUTANT_TOKENS))
        elif edit == 3:
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
        elif edit == 4:
            lines.insert(rng.randrange(len(lines) + 1), lines.pop(k))
            continue
        elif edit == 5:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(_MUTANT_LINES))
        elif edit == 6:
            del lines[k]
            lines = lines or [""]
            continue
        else:
            tokens[-1] += rng.choice(("\r", " # note", "\x0c# form feed", "\x85"))
        lines[k] = " ".join(tokens)
    return "\n".join(lines)


class TestParseErrors:
    @pytest.mark.parametrize("line, error, message", BAD_LINES)
    def test_every_error_text_and_line(self, line, error, message):
        with pytest.raises(error) as exc:
            parse_model_file(MINIMAL + line + "\n")
        assert type(exc.value) is error
        assert (exc.value.line, str(exc.value)) == (8, f"line 8: {message}")

    @pytest.mark.parametrize("lines, error, message", BAD_REFERENCES)
    def test_identifier_and_reference_errors(self, lines, error, message):
        with pytest.raises(error) as exc:
            parse_model_file(MINIMAL + lines + "\n")
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("UNIT SI\nPLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\nPLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\n",
         "line 3: more than one PLAN line"),
        ("PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\nNODE 1 0 0\n", "line 2: unknown keyword 'NODE'"),
        ("# nothing here\n", "line 0: plan file has no PLAN line"),
        ("UNIT\nPLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1\n", "line 1: expected UNIT SI"),
        ("PLAN MODULE=2 COUNT=4.5 W=500 CW=2000 LEVER=1\n", "line 1: expected an integer for COUNT, got '4.5'"),
        ("PLAN MODULE=2 COUNT=4 W=500 CW=2000 LEVER=1 SAFETY=x\n", "line 1: expected a number for SAFETY, got 'x'"),
        ("PLAN MODULE=2 COUNT=4 W=500 CW=2000\n", "line 1: missing LEVER="),
    ])
    def test_plan_file_errors(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_plan_file(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("first, second", [
        ("BEAM 2 1 2 timber", "NODE 3 x 0"),
        ("NODE 3 x 0", "BEAM 2 1 2 timber"),
        ("BOGUS", "NODE 3 x 0"),
        ("LOAD MASS 2 M=x", "SUPPORT 1 XX"),
        ("NODE 3 0 x", "NODE x 0 0"),  # one keyword: the later line fails an earlier field
        ("CABLE 2 1 2 timber A=1 PRETENSION=x", "CABLE 3 1 x timber A=1"),
        ("MATERIAL m E=1 RHO=x SIGMA=1", "MATERIAL n E=1 RHO=1"),
        ("SUPPORT x Y", "SUPPORT 2 XYZ"),
        ("BEAM 2 1 x timber deck", "BEAM 3 1 2 timber deck PIN=Q"),
    ])
    def test_first_bad_line_in_the_file_is_reported(self, first, second):
        # Line 8 and line 10 are bad, with a good line between.
        text = MINIMAL + first + "\nNODE 7 1 1\n" + second + "\n"
        with pytest.raises(ParseError) as exc:
            parse_model_file(text)
        assert exc.value.line == 8
        assert _outcome(parse_model_file, text) == _outcome(oracles.parse_model_file_by_line, text)


class TestLineEnds:
    def test_only_newline_ends_a_line(self):
        # A form feed and the other characters str.splitlines breaks at are
        # whitespace inside a line: a comment runs on past them, and no
        # later line number moves.
        assert parse_model_file(MINIMAL + "NODE 3 0 1 # see\x0cpage 2\n").node(3).y == 1.0
        for char in "\x0b\x0c\x1c\x1d\x1e\x85  ":
            text = f"NODE 1 0 0{char}\nBOGUS\n"
            with pytest.raises(UnknownKeyword) as exc:
                parse_model_file(text)
            assert (exc.value.line, exc.value.keyword) == (2, "BOGUS")
            assert parse_model_file(f"NODE{char}1 0{char}0\n").node(1) == parse_model_file("NODE 1 0 0\n").node(1)

    def test_crlf_and_cr_inside_a_line(self):
        assert parse_model_file(MINIMAL.replace("\n", "\r\n")) == parse_model_file(MINIMAL)
        with pytest.raises(ParseError) as exc:
            parse_model_file("NODE 1 0 0\rNODE 2 1 0\n")
        assert str(exc.value) == "line 1: expected NODE <id> <x> <y>"


class TestNames:
    @pytest.mark.parametrize("name", ["oak#1", "#", "oak tree", "", "oak\x0c"])
    def test_a_name_the_file_cannot_hold_is_rejected(self, name):
        with pytest.raises(ValueError, match="without whitespace or '#'"):
            build_model(materials=[Material(name, 1e10, 600.0, 1e7)])
        with pytest.raises(ValueError, match="without whitespace or '#'"):
            build_model(sections=[Section(name, 0.1, 1e-4, 0.3)])

    def test_every_name_the_builder_takes_round_trips(self):
        model = build_model(
            nodes=[Node(1, 0, 0), Node(2, 1, 0)], materials=[Material("oak=1;x", 1e10, 600.0, 1e7)],
            sections=[Section("s/1", 0.1, 1e-4, 0.3)], beams=[BeamElement(1, 1, 2, "oak=1;x", "s/1")])
        assert parse_model_file(serialize_model(model)) == model


class TestLineParse:
    def test_oracle_on_the_presets_and_the_ladder(self):
        for name, text in _ladder_texts().items():
            model = parse_model_file(text)
            assert repr(model) == repr(oracles.parse_model_file_by_line(text)), name
            _same_view(model.arrays, _model_arrays(model))

    def test_oracle_on_mutated_files(self):
        # Every mutant parses to the same model as line by line, or fails
        # with the same error text at the same line.
        rng = random.Random(18)
        texts = list(_ladder_texts().values())[:8] + [MINIMAL + "NODE 3 5 2\nCABLE 2 1 3 timber A=0.0005\n"
                                                      "LOAD NODE 2 FX=1 FY=-2.5 MZ=3\nLOAD UDL 1 W=1200\n"
                                                      "LOAD MASS 2 M=300\nLOAD SELFWEIGHT G=9.81\n"]
        kinds = collections.Counter()
        for k in range(600):
            text = mutant(texts[k % len(texts)], rng)
            got = _outcome(parse_model_file, text)
            assert got == _outcome(oracles.parse_model_file_by_line, text), text
            kinds[got[0]] += 1
            if got[0] == "ok":
                model = parse_model_file(text)
                _same_view(model.arrays, _model_arrays(model))
        assert set(kinds) == {"ok", "ParseError", "UnknownKeyword", "DuplicateId", "UnknownReference"}, kinds

    def test_a_top_rung_parse_keeps_no_line_tokens(self):
        # Each line's tokens are freed once its record is made: the peak is
        # the file's lines and the records, not every line's token list.
        spec = BridgeSpec(BridgeKind.LEONARDO_GROUNDED, span=768.0, pillar_count=383)
        text = serialize_model(catalog.generate(spec))
        assert text.count("\n") == 3458
        tracemalloc.start()
        try:
            parse_model_file(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_view_of_parsed_random_models(self, random_models):
        for model in random_models:
            parsed = parse_model_file(serialize_model(model))
            _same_view(parsed.arrays, _model_arrays(model))

    def test_a_parsed_model_builds_its_view_from_its_records_when_read(self):
        # The parser returns build_model's model: its view is not seeded,
        # and is built on first access, as any other model's is.
        model = parse_model_file(serialize_model(catalog.generate_preset("GRANDE")))
        assert "arrays" not in vars(model)
        assert model.arrays is vars(model)["arrays"]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_line_order_comments_and_crlf(self, random_models, data):
        model = data.draw(st.sampled_from(random_models))
        rng = data.draw(st.randoms(use_true_random=False))
        lines = serialize_model(model).splitlines()
        # Supports and loads keep their relative order: build_model keeps
        # the file order of those on one node or beam. Every other line
        # goes anywhere.
        ordered = [line for line in lines if line.startswith(("SUPPORT", "LOAD"))]
        free = [line for line in lines if not line.startswith(("SUPPORT", "LOAD"))]
        rng.shuffle(free)
        at = 0
        for line in ordered:
            at = rng.randint(at, len(free))
            free.insert(at, line)
            at += 1
        out = []
        for line in free:
            if rng.random() < 0.3:
                out.append("# " + rng.choice(["comment", "NODE 1 2 3", "#", ""]))
            out.append(line + (" # note" if rng.random() < 0.3 else ""))
        text = (data.draw(st.sampled_from(["\n", "\r\n"]))).join(out) + "\n"
        assert parse_model_file(text) == model
