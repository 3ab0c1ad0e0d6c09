"""Output checks, run on the files the CLI wrote, outside the timed region.

Each check returns a list of problems; an empty list means the output
passed. Nothing here raises on bad output, so one wrong answer is
counted as a failed op and the run goes on.

The applied loads are read from the model file with a parser of our
own, so the equilibrium check does not trust the program's parser.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

from workloads import minimal_counterweight

EQUILIBRIUM_RTOL = 1e-8
BARE_DECK_RTOL = 1e-9  # the acceptance tests' tolerance, relative and times the peak
W_MIN_RTOL = 1e-12
FACTOR_RTOL = 1e-9


def read_json(path: str) -> tuple[dict | None, list[str]]:
    try:
        with open(path) as handle:
            return json.load(handle), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: not readable JSON: {exc}"]


def check_svg(path: str) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path}: not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path}: root element is {root.tag!r}, not svg"]
    return []


def _kv(tokens: list[str]) -> dict[str, float]:
    return {k: float(v) for k, sep, v in (t.partition("=") for t in tokens) if sep}


def vertical_loads(model_text: str) -> tuple[float, float]:
    """(sum of applied fy, sum of their magnitudes) for one model file.

    Self-weight lumps rho*A*L*g per member and m*g per point mass; a UDL
    w acts downward over its beam's length. Definitions are read before
    their use, in the order the serializer writes them.
    """
    nodes: dict[str, tuple[float, float]] = {}
    density: dict[str, float] = {}
    area: dict[str, float] = {}
    beams: dict[str, tuple[str, str]] = {}
    mass = 0.0  # kg, of members and point masses
    gravity = 0.0
    nodal_fy = nodal_abs = udl_fy = 0.0

    def length(node_i: str, node_j: str) -> float:
        (xi, yi), (xj, yj) = nodes[node_i], nodes[node_j]
        return math.hypot(xj - xi, yj - yi)

    for raw in model_text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "NODE":
            nodes[tokens[1]] = (float(tokens[2]), float(tokens[3]))
        elif key == "MATERIAL":
            density[tokens[1]] = _kv(tokens[2:])["RHO"]
        elif key == "SECTION":
            area[tokens[1]] = _kv(tokens[2:])["A"]
        elif key == "BEAM":
            beams[tokens[1]] = (tokens[2], tokens[3])
            mass += density[tokens[4]] * area[tokens[5]] * length(tokens[2], tokens[3])
        elif key == "CABLE":
            mass += density[tokens[4]] * _kv(tokens[5:])["A"] * length(tokens[2], tokens[3])
        elif key == "LOAD":
            sub, rest = tokens[1], tokens[2:]
            if sub == "NODE":
                fy = _kv(rest[1:]).get("FY", 0.0)
                nodal_fy += fy
                nodal_abs += abs(fy)
            elif sub == "UDL":
                udl_fy -= _kv(rest[1:])["W"] * length(*beams[rest[0]])
            elif sub == "MASS":
                mass += _kv(rest[1:])["M"]
            elif sub == "SELFWEIGHT":
                gravity += _kv(rest)["G"]
    weight = gravity * mass
    return nodal_fy + udl_fy - weight, nodal_abs + abs(udl_fy) + weight


def check_equilibrium(report: dict, model_text: str) -> list[str]:
    """The support reactions balance the applied vertical load."""
    applied, total = vertical_loads(model_text)
    reacted = sum(r["fy"] for r in report["reactions"])
    residual = abs(reacted + applied)
    if not residual <= EQUILIBRIUM_RTOL * total:
        return [f"vertical equilibrium off by {residual:.3g} N of {total:.6g} N"]
    return []


def check_bare_deck(report: dict, oracle_dy: dict[int, float]) -> list[str]:
    """Every rope slack, and the deck deflects like the bare deck."""
    problems = []
    active = report["summary"]["active_cable_count"]
    if active != 0:
        problems.append(f"{active} ropes taut on a floating replica")
    scale = max((abs(dy) for dy in oracle_dy.values()), default=0.0)
    dy = {node["id"]: node["dy"] for node in report["nodes"]}
    for nid, expected in oracle_dy.items():
        got = dy.get(nid)
        if got is None or not abs(got - expected) <= BARE_DECK_RTOL * max(abs(expected), scale):
            problems.append(f"deck node {nid}: dy {got!r}, bare deck {expected!r}")
            break
    return problems


def expected_stage_count(plan: dict) -> int:
    """Abutment, one stage per module, one per planted pillar, landing."""
    count, interval = plan["count"], plan["interval"]
    planted = (count - 1) // interval if count > 0 else 0
    return 1 + count + planted + (count > 0)


def check_plan(report: dict, plan: dict, exit_code: int) -> list[str]:
    """Closed-form counterweight, ballast balance and verdict of one plan."""
    problems = []
    w_min = minimal_counterweight(plan)
    got = report["minimal_counterweight"]
    if not abs(got - w_min) <= W_MIN_RTOL * w_min:
        problems.append(f"minimal_counterweight {got!r}, closed form {w_min!r}")
    stages = report["stages"]
    if len(stages) != expected_stage_count(plan):
        problems.append(f"{len(stages)} stages, expected {expected_stage_count(plan)}")
    w, module = plan["w"], plan["module"]
    for k in range(1, min(plan["interval"], plan["count"]) + 1):
        if k >= len(stages):
            break
        c = k * module
        expected = plan["cw"] * plan["lever"] / (w * c * c / 2.0)
        factor = stages[k]["overturning_factor"]
        if factor is None or not abs(factor - expected) <= FACTOR_RTOL * expected:
            problems.append(f"stage {k}: overturning factor {factor!r}, ballast balance {expected!r}")
    stable = report["stable"]
    if stable != (exit_code == 0):
        problems.append(f"exit code {exit_code} but stable={stable}")
    if plan["cw"] < w_min * (1 - W_MIN_RTOL) and stable:
        problems.append("counterweight below W_min, yet the plan is reported stable")
    return problems
