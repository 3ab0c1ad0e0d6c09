"""Time long erection plans and measure their peak memory.

    python tests/long_plan.py

Each plan has MODULE 2 m, W 500 N/m, CW 1e6 N, LEVER 2 m and SAFETY 1,
with COUNT 60, 120, 240 or 480 modules and a pillar every INTERVAL 1 or 3
modules. For each, the script prints the median of 5 timed ``run_plan``
calls, after one untimed call, and the ``tracemalloc`` peak of one more
call. Time grows with the (stage, beam) pairs, about 4x per doubling of
COUNT; the peak stays flat once a plan spans more than one batch of
stages. A last line times one ``_Deck.of`` of the longest plan accepted,
COUNT 10 920 at INTERVAL 1, and gives the ``tracemalloc`` peak of one
more: every plan builds its whole stage list before its first batch, and
stages that each held their planted modules would grow with COUNT squared.
The figures are the host's: compare two checkouts on one host.

Not a test module: pytest does not collect it, and it asserts nothing.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ponte.erection import _MAX_MODULES, ErectionPlan, _Deck, run_plan  # noqa: E402

COUNTS = [60, 120, 240, 480]
INTERVALS = [1, 3]
REPEATS = 5


def measure(plan: ErectionPlan) -> tuple[float, float]:
    """The median seconds of ``REPEATS`` runs, and the peak traced bytes of one."""
    run_plan(plan)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_plan(plan)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        run_plan(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), peak


def main() -> None:
    print(f"{'COUNT':>5} {'INTERVAL':>8} {'median ms':>10} {'peak MB':>8}")
    for count in COUNTS:
        for interval in INTERVALS:
            seconds, peak = measure(ErectionPlan(2.0, count, 500.0, 1e6, 2.0, interval, 1.0))
            print(f"{count:>5} {interval:>8} {seconds * 1e3:>10.1f} {peak / 1e6:>8.2f}")
    longest = ErectionPlan(2.0, _MAX_MODULES, 500.0, 1e6, 2.0, 1, 1.0)
    start = time.perf_counter()
    _Deck.of(longest)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        _Deck.of(longest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"_Deck.of at COUNT {_MAX_MODULES}, INTERVAL 1: {seconds * 1e3:.1f} ms, peak {peak / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
