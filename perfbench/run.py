"""ponte's benchmark: one workload, one run, every metric on stdout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder|sweep|erection --seed N \
        --seconds S --trace 0|1

It times ``import ponte.cli`` in fresh interpreters (``setup_s``), then
runs the workload in a fresh worker process with BLAS pinned to one
thread (see ``worker.py``). The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Lines before it print the same figures and a few more
by name and unit, plus the machine they were measured on.

Everything it writes goes to ``.perfbench-out/`` in the checkout: the
worker's result as ``<workload>-seed<N>-trace<T>.json`` (with every op's
raw and calibrated time) and, with ``--trace 1``, the spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_STARTS = 5
DEADLINE_S = 170.0  # a run must end within 180 s

# In the order BENCHMARK.json lists them.
END_TO_END = ("setup_s", "ops_per_s", "op_s.p50", "op_s.p95", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(env: dict[str, str], deadline: float) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter to ``import ponte.cli``
    done: (calibrated median, raw median) of SETUP_STARTS starts, after
    one untimed start that writes the bytecode cache."""
    import calibrate  # loads numpy, so only after main() pinned the BLAS threads

    starts, kernel = [], [calibrate.kernel_seconds()]
    for k in range(SETUP_STARTS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import ponte.cli"], env=env, cwd=ROOT, check=True,
                       timeout=max(deadline - perf_counter(), 1.0))
        if k:
            starts.append(perf_counter() - start)
            kernel.append(calibrate.kernel_seconds())
    raw = statistics.median(starts)
    return raw * calibrate.REFERENCE_S / statistics.median(kernel), raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ponte's benchmark: one workload, one run.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    os.environ.update({name: "1" for name in THREAD_VARS})  # before numpy loads, here and in children

    if not (ROOT / "src" / "ponte" / "cli.py").is_file():
        print(f"perfbench: no ponte sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{tag}.json"
    env = child_env()
    try:
        setup, setup_raw = setup_seconds(env, deadline)
        worker = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(OUT / f"work-{os.getpid()}"), "--result", str(result_path),
        ]
        subprocess.run(worker, env=env, cwd=ROOT, check=True, timeout=max(deadline - perf_counter(), 1.0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(result_path) as handle:
        result = json.load(handle)

    n, m = result["attempted"], result["distinct_ops"]
    figures = {
        "setup_s": (setup, "s", f"median of {SETUP_STARTS} fresh interpreters; [{setup_raw:.4g}]"),
        "ops_per_s": (result["ops_per_s"], "1/s", f"[{result['raw']['ops_per_s']:.4g}]"),
        "op_s.p50": (result["op_s.p50"], "s", f"{m} distinct ops [{result['raw']['op_s.p50']:.4g}]"),
        "op_s.p95": (result["op_s.p95"], "s",
                     f"{m} distinct ops, {m - int(0.95 * (m - 1)) - 1} beyond [{result['raw']['op_s.p95']:.4g}]"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "fresh worker process"),
    }
    print(f"perfbench {tag} seconds={args.seconds:g}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(f"calibration: kernel median {result['kernel_s']:.4g} s in this run; times are scaled to a "
          f"{result['kernel_reference_s']:g} s kernel, raw figures in brackets")
    print(f"ops: {n} runs of {m} distinct ops, {result['failed']} runs failed, {result['wrong']} wrong; "
          f"failed_ratio = {result['failed_ratio']:.4f} of distinct ops; "
          f"failed runs by kind {json.dumps(result['failures'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, status, problems in result["known_defects"]:
        verdict = {"singular": "still raises SingularSystem", "ok": "now analyzed and checked"}.get(status, "wrong")
        print(f"known defect {name} (untimed, not counted): {verdict}" + "".join(f"; {p}" for p in problems))
    for name, (value, unit, note) in figures.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    for name, (value, unit, samples) in result["extra"].items():
        print(f"{name} = {value:.6g} {unit} (over {samples})")
    if args.trace:
        if result["missing"]:
            print("trace: not found, so 0 calls: " + ", ".join(result["missing"]))
        metrics = result["layers"]
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}" + (" per op" if unit != "ratio" and name != "trace.ops" else ""))
    else:
        metrics = {name: figures[name][:2] for name in END_TO_END}
    print(json.dumps({
        "correct": result["wrong"] == 0 and all(status != "wrong" for _, status, _ in result["known_defects"]),
        "attempted": n,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
