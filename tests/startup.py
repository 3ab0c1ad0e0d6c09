"""Compare how fast ponte's commands start in two source trees.

    python tests/startup.py OLD NEW [--pairs 45]

OLD and NEW are checkouts of ponte (each holds ``src/ponte``). Each tree's
``src`` is copied without its ``__pycache__`` into a temporary directory,
and four starts are timed, each in a fresh interpreter:

- ``import ponte.cli``;
- ``ponte generate GRANDE``;
- ``ponte analyze`` of that model with ``--report`` and ``--svg``;
- ``ponte stage`` of a 20-module plan with ``--report``.

The commands run as the ``ponte`` console script runs them, through
``ponte.cli.main``. A start is timed from ``Popen`` to ``wait()``, which
has no timeout, so no polling grid rounds it. Two bytecode states are
measured. In "none", ``PYTHONDONTWRITEBYTECODE=1`` is set, and ponte's
modules are compiled on every start (the library's installed bytecode is
read as usual). In "cached", each tree has its own ``PYTHONPYCACHEPREFIX``,
warmed by one untimed run of every command.

Each pair runs OLD and NEW back to back, alternating which goes first. For
each state and start the script prints each tree's median and quartiles in
ms, the ratio of the medians (NEW / OLD), and in how many pairs NEW was
faster. Exit codes are checked against the untimed run.

Standard library only. Not a test module: pytest does not collect it, and
it asserts nothing.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

MAIN = "import sys; from ponte.cli import main; sys.exit(main(sys.argv[1:]))"
PLAN = "PLAN MODULE=2 COUNT=20 W=500 CW=100000 LEVER=3 INTERVAL=2\n"
STATES = ("none", "cached")


def starts(work: Path, tag: str) -> dict[str, list[str]]:
    """Each timed start's command line; its outputs carry ``tag``."""
    model = str(work / "grande.txt")
    return {
        "import ponte.cli": [sys.executable, "-c", "import ponte.cli"],
        "generate": [sys.executable, "-c", MAIN, "generate", "GRANDE", "-o", str(work / f"{tag}.txt")],
        "analyze": [sys.executable, "-c", MAIN, "analyze", model, "--report", str(work / f"{tag}.json"),
                    "--svg", str(work / f"{tag}.svg")],
        "stage": [sys.executable, "-c", MAIN, "stage", str(work / "plan.txt"), "--report",
                  str(work / f"{tag}-plan.json")],
    }


def environment(src: Path, state: str, cache: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    if state == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def run(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[float, int]:
    """Seconds from start to exit, and the exit code."""
    start = perf_counter()
    process = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    code = process.wait()
    return perf_counter() - start, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=45)
    args = parser.parse_args(argv)
    trees = {"old": args.old, "new": args.new}
    for tree in trees.values():
        if not (tree / "src" / "ponte" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/ponte/cli.py")

    with tempfile.TemporaryDirectory(prefix="ponte-startup-") as tmp:
        root = Path(tmp)
        setups = {}
        for side, tree in trees.items():
            src, work = root / side / "src", root / side / "work"
            shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            work.mkdir()
            (work / "plan.txt").write_text(PLAN)
            setups[side] = src, work

        # One untimed run of each command per tree and state: it writes the
        # analyzed model, warms the cache and fixes the expected exit codes.
        expected: dict[tuple[str, str, str], int] = {}
        for side, (src, work) in setups.items():
            for state in STATES:
                env = environment(src, state, root / side / "pycache")
                run([sys.executable, "-c", MAIN, "generate", "GRANDE", "-o", str(work / "grande.txt")], env, work)
                for name, command in starts(work, "warm").items():
                    expected[side, state, name] = run(command, env, work)[1]

        times: dict[tuple[str, str, str], list[float]] = {key: [] for key in expected}
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            for state in STATES:
                for name in starts(root, "").keys():
                    for side in order:
                        src, work = setups[side]
                        command = starts(work, f"{state}-{pair}")[name]
                        seconds, code = run(command, environment(src, state, root / side / "pycache"), work)
                        if code != expected[side, state, name]:
                            print(f"{side} {state} {name}: exit {code}, expected {expected[side, state, name]}",
                                  file=sys.stderr)
                            return 1
                        times[side, state, name].append(seconds)

    print(f"{args.pairs} interleaved pairs; ms: median [q1, q3]; new/old of the medians; pairs new won")
    for state in STATES:
        for name in starts(Path("."), "").keys():
            old, new = times["old", state, name], times["new", state, name]
            (o1, o2, o3), (n1, n2, n3) = (statistics.quantiles([1e3 * t for t in side], n=4)
                                              for side in (old, new))
            won = sum(b < a for a, b in zip(old, new))
            print(f"{state:6} {name:16} old {o2:7.1f} [{o1:6.1f}, {o3:6.1f}]  new {n2:7.1f} [{n1:6.1f}, {n3:6.1f}]"
                  f"  {n2 / o2:5.3f}  {won}/{len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
