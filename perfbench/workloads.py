"""Seeded operation lists for the three workloads.

An op is one or more ``ponte`` argument vectors, run in order by
``ponte.cli.main`` inside the worker's working directory, plus what the
output checks need to know about it. Ops come in rounds; a run always
finishes the round it started, so every measured run covers whole,
stratified rounds and the mix does not drift with run length.

Only the standard library is used: the same seed gives byte-identical
op lists on any machine and at any commit of the program.

No op of a workload fails at the commit the benchmark was written at, so
a failed op always means a regression. The models the solver could not
analyze then are kept out of the workloads by rule (FLOATING_MAX_PILLARS,
DECK_MIN_SPAN), and the worker runs one of each kind (known_defects),
untimed, after measuring, so the defects still show in every run.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("ladder", "sweep", "erection")

# The fixed size ladder: the eight presets, then grounded replicas with
# 2 m bays whose free-dof counts are 141 / 573 / 2301, and the floating
# replica at the first rung.
PRESETS = (
    "LEONARDO_DRAWING",
    "FLORENCE",
    "GRANDE",
    "AMBOISE_SCALE",
    "AMBOISE_PARK",
    "BARE_DECK",
    "GROUNDED_STAYED",
    "UNDERSLUNG",
)
# Floating replicas with their pillars standing on the deck and no prop
# under it: the paper's null-rope claim applies to exactly these.
# AMBOISE_SCALE has a mid prop (the ropes work as a crane) and UNDERSLUNG
# hangs its post under the deck (an inverted king post with taut ropes).
NULL_ROPE_PRESETS = ("LEONARDO_DRAWING", "FLORENCE", "GRANDE", "AMBOISE_PARK")
LADDER_RUNGS = ((23, "d141"), (95, "d573"), (383, "d2301"))

# Floating replicas from 32 pillars up raise SingularSystem (exit 2), and
# so do suspension bridges with spans under about 9 m or bays under
# 0.9 m. So the sweep draws floating replicas of up to
# FLOATING_MAX_PILLARS pillars and the five deck kinds with bays of 1-2 m
# over spans of at least DECK_MIN_SPAN (the generator's default span),
# and the ladder's floating replica stops at its first rung.
FLOATING_MAX_PILLARS = 31
DECK_MIN_SPAN = 12.0

REPLICA_KINDS = ("LeonardoReplica", "LeonardoGrounded")
DECK_KINDS = ("BeamBridge", "CantileverBridge", "TrussBridge", "CableStayedBridge", "SuspensionBridge")

MODEL = "model.txt"
REPORT = "report.json"
SVG = "diagram.svg"
PLAN = "plan.txt"


def _op(name: str, kind: str, steps: list[list[str]], **extra) -> dict:
    """``key`` names the op's unit of work; runs with one key do the same
    work, and the figures take the median over them."""
    op = {
        "name": name,
        "key": name,
        "kind": kind,
        "steps": steps,
        "files": {},
        "model": None,
        "report": REPORT,
        "svg": None,
        "null_ropes": False,
        "rung": None,
        "plan": None,
    }
    op.update(extra)
    return op


def _analyze(model: str) -> list[str]:
    return ["analyze", model, "--report", REPORT, "--svg", SVG]


def _replica(kind: str, pillars: int, output: str) -> list[str]:
    return ["generate", kind, "--pillars", str(pillars), "--span", str(2 * (pillars + 1)), "-o", output]


def _ladder_replicas() -> list[tuple[str, int]]:
    return [("LeonardoGrounded", pillars) for pillars, _ in LADDER_RUNGS] + [("LeonardoReplica", LADDER_RUNGS[0][0])]


def ladder_setup() -> list[list[str]]:
    """``ponte generate`` calls that write the ladder's model files."""
    steps = [["generate", name, "-o", f"{name}.txt"] for name in PRESETS]
    steps += [_replica(kind, pillars, f"{kind}-{pillars}.txt") for kind, pillars in _ladder_replicas()]
    return steps


# Ops of a few milliseconds vary by a quarter from run to run on a shared
# host, so the small ladder entries run this many times a round and are
# judged by their median.
SMALL_REPEATS = 9


def ladder_round() -> list[dict]:
    """The 12 ladder entries, the small ones SMALL_REPEATS times over."""
    small = [
        _op(f"ladder/{name}", name, [_analyze(f"{name}.txt")], model=f"{name}.txt", svg=SVG,
            null_ropes=name in NULL_ROPE_PRESETS)
        for name in PRESETS
    ]
    large = []
    rungs = dict(LADDER_RUNGS)
    for kind, pillars in _ladder_replicas():
        model = f"{kind}-{pillars}.txt"
        op = _op(f"ladder/{kind}-{pillars}", kind, [_analyze(model)], model=model, svg=SVG,
                 null_ropes=kind == "LeonardoReplica", rung=rungs[pillars] if kind == "LeonardoGrounded" else None)
        (small if pillars == LADDER_RUNGS[0][0] else large).append(op)
    return small * SMALL_REPEATS + large


def _quarter(lo: int, hi: int, quarter: int) -> tuple[int, int]:
    """The bounds of one quarter of the whole numbers lo..hi."""
    n = hi - lo + 1
    return lo + n * quarter // 4, lo + n * (quarter + 1) // 4 - 1


def _sweep_op(rng: random.Random, kind: str, quarter: int, index: int) -> dict:
    generate = ["generate", kind, "-o", MODEL]
    if kind in REPLICA_KINDS:
        pillars = rng.randint(*_quarter(1, FLOATING_MAX_PILLARS if kind == "LeonardoReplica" else 60, quarter))
        generate += ["--pillars", str(pillars), "--span", str(2 * (pillars + 1)),
                     "--wheels", rng.choice(("none", "right", "both"))]
        if rng.random() < 0.5:
            generate.append("--crosswise")
    else:
        lo, hi = _quarter(6, 96, quarter)
        step = 3 if kind == "CantileverBridge" else 1  # its piers sit at the third points
        segments = rng.randrange(lo + (-lo % step), hi + 1, step)
        # Bays of 1-2 m: how far apart the deck nodes are changes the
        # conditioning of K, which is what the solver's robustness rests on.
        bay = rng.randint(max(100, math.ceil(100 * DECK_MIN_SPAN / segments)), 200) / 100
        generate += ["--segments", str(segments), "--span", f"{bay * segments:.2f}"]
    return _op(f"sweep/{kind}", kind, [generate, _analyze(MODEL)], key=f"sweep/{index}", model=MODEL, svg=SVG,
               null_ropes=kind == "LeonardoReplica")


def sweep_rounds(seed: int) -> Iterator[list[dict]]:
    """Rounds of 28 ops: each of the 7 kinds once from each quarter of its
    size range, in shuffled order, so the largest models, which set the
    tail, are the same share of every run."""
    rng = random.Random(f"sweep:{seed}")
    index = 0
    while True:
        block = []
        for kind in REPLICA_KINDS + DECK_KINDS:
            for quarter in range(4):
                block.append(_sweep_op(rng, kind, quarter, index))
                index += 1
        rng.shuffle(block)
        yield block


def minimal_counterweight(plan: dict) -> float:
    """Closed-form W_min: only the stages before the first pillar is
    planted are pure cantilevers, and the longest is min(interval, count)
    modules."""
    c = min(plan["interval"], plan["count"]) * plan["module"]
    return plan["safety"] * plan["w"] * c * c / (2.0 * plan["lever"])


def plan_text(plan: dict) -> str:
    # repr() round-trips every float exactly, so the checks see the same
    # numbers the program parses.
    return (
        "UNIT SI\n"
        f"PLAN MODULE={plan['module']!r} COUNT={plan['count']} W={plan['w']!r} CW={plan['cw']!r}"
        f" LEVER={plan['lever']!r} INTERVAL={plan['interval']} SAFETY={plan['safety']!r}\n"
    )


def _erection_shapes(count: int = 7) -> list[dict]:
    """The plan shapes every erection round uses: module counts on a grid
    from 20 to 60 with pillar intervals 1-4 in turn, and module length,
    lever and deck weight drawn once.

    They are the same for every seed on purpose. A plan's run time
    follows its shape: count squared, fewer stages at wider intervals,
    and about half when the W_min verification stops at an early stage
    that needs hold-down or is overstressed. With shapes drawn per seed,
    op_s.p50 spread by 21 % over five seeds. Seven shapes, so a 30 s run
    times each about ten times: with 15, about six times each, op_s.p50
    and op_s.p95 spread by 8.1 % and 8.6 % over ten runs. An odd count
    puts the median inside one shape's runs rather than between two."""
    rng = random.Random("erection shapes")
    return [
        {
            "module": rng.randint(100, 200) / 100,
            "count": 20 + 40 * k // (count - 1),
            "w": float(rng.randint(300, 3000)),
            "lever": rng.randint(100, 300) / 100,
            "interval": 1 + k % 4,
            "safety": 1.0,
        }
        for k in range(count)
    ]


ERECTION_SHAPES = _erection_shapes()


def erection_rounds(seed: int) -> Iterator[list[dict]]:
    """Rounds of one plan per shape, in seeded order, each with a seeded
    counterweight of 0.7-1.5 x its W_min, so plans pass and fail. The
    counterweight changes verdicts but not the work: every stage is
    analyzed, and the verification runs at W_min. So plans of one shape
    share a key."""
    rng = random.Random(f"erection:{seed}")
    while True:
        block = []
        for k, shape in enumerate(ERECTION_SHAPES):
            plan = dict(shape, cw=rng.uniform(0.7, 1.5) * minimal_counterweight(shape))
            block.append(_op(f"erection/{plan['count']}x{plan['interval']}", "stage",
                             [["stage", PLAN, "--report", REPORT]], key=f"erection/shape{k}",
                             files={PLAN: plan_text(plan)}, plan=plan))
        rng.shuffle(block)
        yield block


def rounds(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless rounds of ops for one workload; the ladder ignores the seed."""
    if workload == "ladder":
        def repeat():
            while True:
                yield ladder_round()
        return repeat()
    if workload == "sweep":
        return sweep_rounds(seed)
    if workload == "erection":
        return erection_rounds(seed)
    raise ValueError(f"unknown workload {workload!r}")


def known_defects(workload: str) -> list[dict]:
    """One model of each kind the solver could not analyze when the
    benchmark was written, for the worker to run once, untimed, after
    measuring. The ladder's floating replica at 383 pillars fails too; it
    is left out because it alone takes about 7 s."""
    if workload == "ladder":
        pillars = LADDER_RUNGS[1][0]
        return [_op(f"defect/LeonardoReplica-{pillars}", "LeonardoReplica",
                    [_replica("LeonardoReplica", pillars, MODEL), _analyze(MODEL)], model=MODEL, svg=SVG,
                    null_ropes=True)]
    if workload == "sweep":
        pillars = FLOATING_MAX_PILLARS + 1
        return [
            _op(f"defect/LeonardoReplica-{pillars}", "LeonardoReplica",
                [_replica("LeonardoReplica", pillars, MODEL), _analyze(MODEL)], model=MODEL, svg=SVG,
                null_ropes=True),
            _op("defect/SuspensionBridge-6x1m", "SuspensionBridge",
                [["generate", "SuspensionBridge", "-o", MODEL, "--segments", "6", "--span", "6.00"], _analyze(MODEL)],
                model=MODEL, svg=SVG),
        ]
    return []


def setup_steps(workload: str) -> list[list[str]]:
    """``ponte`` calls the worker makes once, untimed, before measuring."""
    return ladder_setup() if workload == "ladder" else []
