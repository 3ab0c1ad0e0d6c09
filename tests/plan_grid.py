"""Run every erection plan of a fixed edge grid and summarize the outputs.

    python tests/plan_grid.py

The grid spans the extremes that ``_check_plan`` accepts: MODULE takes 13
values log-spaced over 1e-10..1e300 m, W (deck weight) is one of 1e-300,
1e-10, 1 and 1e300 N/m, CW (counterweight) one of 1e-300, 1 and 1e300 N,
LEVER takes 6 values log-spaced over 1e-8..1e100 m, COUNT is 0, 3 or 7,
INTERVAL 1 or 3, and SAFETY 1: 5 616 plans. Each plan's output is its plan
report (``run_plan``, then ``write_plan_report``), or ``ErrorType: text``
if either raises. The script prints the plan count, a SHA-256 digest of
all outputs in grid order, and the count and digest of each outcome class
(plan reports, and each error type by name), so that two checkouts show
which outputs moved. It then prints how many plans call ``solver._solve``
and how many calls there are in all, how many plans emit a
``RuntimeWarning`` (counted, not silenced), and the seconds the grid took.
Two checkouts whose digests agree write the same bytes for every plan of
the grid.

Not a test module: pytest does not collect it, and it asserts nothing.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ponte import solver  # noqa: E402
from ponte.erection import ErectionPlan, run_plan  # noqa: E402
from ponte.reporting import write_plan_report  # noqa: E402


def log_spaced(lo: int, hi: int, count: int) -> list[float]:
    """``count`` values from 10**lo to 10**hi, evenly spaced in exponent."""
    return [10.0 ** (lo + (hi - lo) * k / (count - 1)) for k in range(count)]


MODULES = log_spaced(-10, 300, 13)
WEIGHTS = [1e-300, 1e-10, 1.0, 1e300]
COUNTERWEIGHTS = [1e-300, 1.0, 1e300]
LEVERS = log_spaced(-8, 100, 6)
COUNTS = [0, 3, 7]
INTERVALS = [1, 3]


def plans() -> list[ErectionPlan]:
    """The grid, in a fixed order."""
    return [ErectionPlan(module, count, w, cw, lever, interval, 1.0)
            for module, w, cw, lever, count, interval
            in itertools.product(MODULES, WEIGHTS, COUNTERWEIGHTS, LEVERS, COUNTS, INTERVALS)]


def output(plan: ErectionPlan) -> tuple[str, str]:
    """The outcome class and output of ``plan``: ``report`` and the plan
    report, or the error type's name and ``ErrorType: text``."""
    try:
        return "report", write_plan_report(run_plan(plan))
    except Exception as error:  # noqa: BLE001 - every error text is part of the output
        name = type(error).__name__
        return name, f"{name}: {error}\n"


def main() -> None:
    grid = plans()
    calls = []
    solve = solver._solve

    def counted(ab, F, names):
        calls[-1] += 1
        return solve(ab, F, names)

    solver._solve = counted
    digest, counts, digests, warned = hashlib.sha256(), collections.Counter(), {}, 0
    start = time.perf_counter()
    try:
        for plan in grid:
            calls.append(0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome, text = output(plan)
            digest.update(text.encode())
            counts[outcome] += 1
            digests.setdefault(outcome, hashlib.sha256()).update(text.encode())
            warned += any(issubclass(w.category, RuntimeWarning) for w in caught)
    finally:
        solver._solve = solve
    seconds = time.perf_counter() - start
    print(f"plans: {len(grid)}")
    print(f"sha256: {digest.hexdigest()}")
    for outcome in sorted(digests):
        print(f"  {outcome}: {counts[outcome]} plans, sha256 {digests[outcome].hexdigest()}")
    print(f"plans calling _solve: {sum(map(bool, calls))}")
    print(f"_solve calls: {sum(calls)}")
    print(f"plans with a RuntimeWarning: {warned}")
    print(f"seconds: {seconds:.2f}")


if __name__ == "__main__":
    main()
