"""Runs one workload in this fresh process and writes its figures as JSON.

Started by ``run.py`` with BLAS pinned to one thread. Ops are in-process
calls of ``ponte.cli.main(argv)`` in a closed loop: one client, and the
next op starts only after the previous one has finished. Whole rounds
run until ``--seconds`` have passed. Output checks run between ops,
outside the timed region. Then the workload's known-defect models run
once, untimed and outside the counts (``workloads.known_defects``).

With ``--trace 1`` every op runs twice, once plain and once traced,
alternating which goes first; per-layer figures come from the traced
runs and the tracing overhead from comparing the two.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --workdir DIR --result FILE.json

With --trace 1 the spans go to FILE.spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import calibrate
import checks
import spans
import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LONG_OP_S = 2.0  # ops at least this long are not calibrated (see measure())


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Runner:
    """Runs ops through `ponte.cli.main` and judges what they wrote."""

    def __init__(self, cli, tracer: spans.Tracer):
        self.cli = cli
        self.tracer = tracer
        self._oracle: dict[str, dict[int, float]] = {}

    def execute(self, op: dict, traced: bool) -> tuple[float, list, str | None]:
        """One op, timed: (seconds, exit codes, error raised or None)."""
        for path in (op["report"], op["svg"], op["model"] if len(op["steps"]) > 1 else None):
            if path and os.path.exists(path):
                os.remove(path)
        for name, text in op["files"].items():
            with open(name, "w") as handle:
                handle.write(text)
        codes: list = []
        error = None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            self.tracer.recording = traced
            start = perf_counter()
            try:
                for argv in op["steps"]:
                    codes.append(self.cli.main(argv))
                    if codes[-1] != 0:
                        break
            except SystemExit as exc:
                error = f"SystemExit({exc.code!r})"
            except Exception as exc:  # an op that raises is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            self.tracer.recording = False
        return elapsed, codes, error

    def bare_deck_dy(self, model_text: str) -> dict[int, float]:
        """Deck dy of the stripped model, from the library (untraced)."""
        if model_text not in self._oracle:
            from ponte import catalog, solver, textio

            model = textio.parse_model_file(model_text)
            result = solver.analyze(catalog.strip_to_bare_deck(model))
            self._oracle[model_text] = {nid: d[1] for nid, d in result.node_displacements.items()}
        return self._oracle[model_text]

    def judge(self, op: dict, codes: list, error: str | None) -> tuple[str, list[str], dict]:
        """Status ('ok', 'singular' or 'wrong'), problems, and facts found."""
        if error is not None:
            return "wrong", [error], {}
        last = op["steps"][len(codes) - 1][0]
        code = codes[-1]
        if last == "analyze" and code == 2:
            return "singular", [], {}  # a documented exit, but a valid model failed
        if code != 0 and not (last == "stage" and code == 3):
            return "wrong", [f"ponte {last} exited {code}"], {}
        try:
            return self._check_outputs(op, code)
        except Exception as exc:  # a malformed output must not stop the run
            return "wrong", [f"check raised {type(exc).__name__}: {exc}"], {}

    def _check_outputs(self, op: dict, code: int) -> tuple[str, list[str], dict]:
        report, problems = checks.read_json(op["report"])
        facts: dict = {}
        if report is not None:
            if op["plan"] is not None:
                problems += checks.check_plan(report, op["plan"], code)
                facts = {"stages": len(report["stages"]), "minimal_verified": report["minimal_verified"]}
            else:
                with open(op["model"]) as handle:
                    model_text = handle.read()
                problems += checks.check_equilibrium(report, model_text)
                if op["null_ropes"]:
                    problems += checks.check_bare_deck(report, self.bare_deck_dy(model_text))
        if op["svg"]:
            problems += checks.check_svg(op["svg"])
        return ("wrong" if problems else "ok"), problems, facts


def measure(args) -> dict:
    import ponte.cli as cli

    tracer = spans.Tracer()
    missing = tracer.install() if args.trace else []
    runner = Runner(cli, tracer)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in workloads.setup_steps(args.workload):
            if cli.main(argv) != 0:
                raise RuntimeError(f"set-up step failed: ponte {' '.join(argv)}: {sink.getvalue()}")

    # One untimed op first, so first-call costs (lazy imports, LAPACK
    # symbol lookup) do not land on whichever op happens to run first.
    runner.execute(next(workloads.rounds(args.workload, args.seed))[0], False)
    records = []
    plain_total = traced_total = 0.0
    speed = [calibrate.kernel_seconds()]
    start = perf_counter()
    for block in workloads.rounds(args.workload, args.seed):
        for op in block:
            if args.trace:
                order = (False, True) if len(records) % 2 == 0 else (True, False)
                runs = {}
                for traced in order:
                    tracer.op = len(records)
                    runs[traced] = runner.execute(op, traced)
                plain_total += runs[False][0]
                traced_total += runs[True][0]
                elapsed, codes, error = runs[False]
                if runs[True][1:] != (codes, error):
                    error = f"traced run ended {runs[True][1:]!r}, plain run {(codes, error)!r}"
            else:
                elapsed, codes, error = runner.execute(op, False)
            speed.append(calibrate.kernel_seconds())
            status, problems, facts = runner.judge(op, codes, error)
            records.append({"op": op, "time": elapsed, "status": status, "problems": problems, **facts})
        if perf_counter() - start >= args.seconds:
            break

    for k, record in enumerate(records):
        # Kernel samples sit at op boundaries; the median of the six
        # nearest (three each side) rides out a single disturbed sample.
        # That tracks the host's speed over a short op. An op of seconds
        # is one dense LAPACK call on a matrix far larger than the
        # kernel's (the ladder's top rung), and its time does not follow
        # the kernel's: scaled, it made the ladder's ops_per_s spread
        # 12.4 % over ten runs, against 6.9 % left raw. So it stays raw.
        record["raw"] = record["time"]
        if record["time"] < LONG_OP_S:
            record["time"] *= calibrate.REFERENCE_S / statistics.median(speed[max(k - 2, 0):k + 4])
    result = summarize(args.workload, records)
    result["raw"] = summarize(args.workload, [dict(r, time=r["raw"]) for r in records])
    result["kernel_s"] = statistics.median(speed)
    result["kernel_reference_s"] = calibrate.REFERENCE_S
    result["ops"] = [(r["op"]["name"], r["status"], r["raw"], r["time"]) for r in records]
    result["machine"] = machine()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["layers"] = tracer.layer_metrics(len(records))
        result["layers"]["trace.overhead_ratio"] = (traced_total / plain_total - 1.0, "ratio")
        result["layers"]["trace.ops"] = (float(len(records)), "count")
        result["missing"] = missing
        tracer.write(args.result.removesuffix(".json") + ".spans.jsonl")
    result["known_defects"] = []
    for op in workloads.known_defects(args.workload):
        status, problems, _ = runner.judge(op, *runner.execute(op, False)[1:])
        result["known_defects"].append((op["name"], status, problems))
    return result


def summarize(workload: str, records: list[dict]) -> dict:
    """End-to-end figures of one run, over distinct ops (``key``), each
    at its median time over its runs. The ladder repeats its 12 ops and
    erection its 7 plan shapes; the median drops a run that a slow spell
    of the host hit, where a plain percentile over all runs would sit
    between the slowest run of one op and the fastest of the next."""
    ok = [r for r in records if r["status"] == "ok"]
    busy = sum(r["time"] for r in ok)
    by_op: dict[str, list[dict]] = {}
    for r in records:
        by_op.setdefault(r["op"]["key"], []).append(r)
    op_times = [statistics.median(r["time"] for r in runs) for runs in by_op.values()]
    ok_ops = sum(all(r["status"] == "ok" for r in runs) for runs in by_op.values())
    failures: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            key = f"{r['op']['kind']} {r['status']}"
            failures[key] = failures.get(key, 0) + 1
    out = {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "wrong": sum(r["status"] == "wrong" for r in records),
        "ops_per_s": ok_ops / sum(op_times),
        "failed_ratio": 1.0 - ok_ops / len(op_times),
        "distinct_ops": len(op_times),
        "op_s.p50": percentile(op_times, 0.50),
        "op_s.p95": percentile(op_times, 0.95),
        "failures": failures,
        "problems": sorted({p for r in records for p in r["problems"]})[:20],
        "extra": {},
    }
    extra = out["extra"]
    if workload == "ladder":
        for _, rung in workloads.LADDER_RUNGS:
            samples = [r["time"] for r in records if r["op"]["rung"] == rung]
            extra[f"analyze_s.{rung}"] = (statistics.median(samples), "s", len(samples))
    if workload == "erection":
        extra["stages_per_s"] = (sum(r.get("stages", 0) for r in ok) / busy, "1/s", len(ok))
        unverified = sum(r.get("minimal_verified") is False for r in ok)
        extra["minimal_unverified_plans"] = (unverified, "count", len(ok))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    args.result = os.path.abspath(args.result)

    home = os.getcwd()
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    try:
        result = measure(args)
    finally:
        os.chdir(home)
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
