"""Time the analysis of wide cable-stayed decks and show their band heights.

    OPENBLAS_NUM_THREADS=1 python tests/wide_band.py

Each deck is a ``CableStayedBridge`` of 48, 96 or 192 segments with
1.5 m bays. Each tower top fans stays over half the deck, so with every
stay taut the band of K is half the free dofs wide; the long stays go
slack over the active-set iterations, and each iteration factors the
band its taut stays fill. For each deck the script prints the free dofs,
the active-set iterations, the height of the band each iteration
factors, and the median of 5 timed ``analyze`` calls, after one untimed
call. A banded factorization costs n kd^2, so the time follows the
heights. The figures are the host's: compare two checkouts on one host.

Not a test module: pytest does not collect it, and it asserts nothing.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ponte import solver  # noqa: E402
from ponte.catalog import BridgeKind, BridgeSpec, generate  # noqa: E402
from ponte.model import StructureModel  # noqa: E402

SEGMENTS = [48, 96, 192]
BAY = 1.5  # m
REPEATS = 5


def heights(model: StructureModel) -> list[int]:
    """The height of the band ``solver._solve`` receives in each iteration."""
    seen = []
    solve = solver._solve

    def recording(ab, F, names):
        seen.append(len(ab))
        return solve(ab, F, names)

    solver._solve = recording
    try:
        solver.analyze(model)
    finally:
        solver._solve = solve
    return seen


def median_seconds(model: StructureModel) -> float:
    """The median seconds of ``REPEATS`` analyses, after one untimed."""
    solver.analyze(model)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        solver.analyze(model)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def main() -> None:
    print(f"{'segments':>8} {'dofs':>5} {'iterations':>10} {'median ms':>10}  band heights")
    for segments in SEGMENTS:
        model = generate(BridgeSpec(BridgeKind.CABLE_STAYED, span=BAY * segments, deck_segments=segments))
        bands = heights(model)
        dofs = len(solver._elements(model).dofs)
        seconds = median_seconds(model)
        print(f"{segments:>8} {dofs:>5} {len(bands):>10} {seconds * 1e3:>10.1f}  {' '.join(map(str, bands))}")


if __name__ == "__main__":
    main()
