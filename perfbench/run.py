"""Run one workload of the kgflrw benchmark and print its metrics.

    python3 perfbench/run.py --workload ode_positivity --seed 1 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory.  ``--trace 0`` measures the end-to-end
metrics with tracing off: set-up time over fresh interpreters, then passes
over the workload's items until ``--seconds`` (by default BENCHMARK.json's
``run_seconds``) have elapsed.  ``--trace 1`` runs one untraced pass and then
traced passes, two at least, for the per-layer metrics (see tracing.py),
checking that every count repeats between traced passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from BENCHMARK.json.  Scratch output goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
# each item's latency is the median of at least this many repeats
MIN_PASSES = 3


def tail_percentile(items_per_pass: int) -> int:
    """Highest whole percentile that leaves at least ten of one pass's items beyond it.

    Fixed per workload, so it does not move with the number of passes a
    run fits; never below the median.
    """
    return max(50, math.floor(100.0 - 1000.0 / items_per_pass))


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "run_seconds": spec["run_seconds"],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to having built the workload's inputs."""
    start = time.monotonic()  # system-wide clock, comparable with the child's reading
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def _passes(wl, inputs, out_dir: Path, seconds: float, jobs: int) -> list:
    """Untraced passes, MIN_PASSES at least; (wall, result) each.

    A further pass starts only when a pass of the mean length so far still
    ends within ``seconds``, so a run overruns its measuring time only to
    make MIN_PASSES.
    """
    from perfbench import workloads

    begin = time.perf_counter()
    runs = []
    while (len(runs) < MIN_PASSES
           or time.perf_counter() - begin + statistics.fmean(w for w, _ in runs) <= seconds):
        start = time.perf_counter()
        result = wl.run_pass(inputs, workloads.call, out_dir / f"pass{len(runs)}", jobs)
        runs.append((time.perf_counter() - start, result))
    return runs


def _report_errors(results) -> None:
    for result in results:
        for err in result.errors[:5]:
            print(f"check: {err}", file=sys.stderr)


def untraced_run(name, wl, seed, seconds, out_dir, smoke, jobs) -> tuple[dict, list]:
    """End-to-end figures: (value, sample count, note) per metric, and the pass results.

    Each item's latency is the median of its repeats over the run's passes,
    and a pass's time is the sum of these latencies.  On a shared machine
    the slowdown comes in bursts and phases that cover a varying share of a
    run; the fastest repeat then depends on whether a run met a rare fast
    phase, while the median repeat follows the machine's usual state.  Over
    two sets of ten runs, the median gave spreads 1.1 to 3.1 times smaller
    than the fastest repeat on every timing of both workloads.
    """
    setup = [_setup_probe(name, seed) for _ in range(1 if smoke else SETUP_SAMPLES)]
    inputs = wl.setup(seed, smoke, out_dir)
    runs = _passes(wl, inputs, out_dir, seconds, jobs)
    results = [r for _, r in runs]
    n_items = len(results[0].item_ms)
    if n_items == 0 or any(len(r.item_ms) != n_items for r in results):
        raise RuntimeError("passes did not time the same items")
    item_ms = np.median(np.array([r.item_ms for r in results]), axis=0)
    wall = float(item_ms.sum()) / 1e3
    samples = len(results) * n_items
    q = tail_percentile(n_items)
    figures = {
        "wall_s": (wall, len(results), ""),
        "items_per_s": (n_items / wall, samples, ""),
        "item_ms.p50": (float(np.percentile(item_ms, 50)), samples, ""),
        "item_ms.tail": (float(np.percentile(item_ms, q)), samples, f"p{q}"),
        "setup_s": (statistics.median(setup), len(setup), ""),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, ""),
    }
    return figures, results


def traced_pass(wl, inputs, pass_dir):
    """One pass with every public kgflrw function wrapped; (wall, result, tracer, counters)."""
    from perfbench import tracing, workloads

    counters = tracing.Counters()
    tracer = tracing.Tracer(observers=counters.observers())
    tracer.install(extra_namespaces=[vars(workloads)])
    try:
        start = time.perf_counter()
        result = wl.run_pass(inputs, tracer.run_item, pass_dir, 1)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return wall, result, tracer, counters


def traced_run(name, wl, seed, seconds, out_dir, smoke, jobs, count_names) -> tuple[dict, list]:
    from perfbench import machine, tracing, workloads

    begin = time.perf_counter()
    inputs = wl.setup(seed, smoke, out_dir)
    start = time.perf_counter()
    base = wl.run_pass(inputs, workloads.call, out_dir / "untraced", jobs)
    figures = base.figures
    # the traced pass runs the sweep serially: compare with its summed point time
    base_busy = (time.perf_counter() - start - figures.get("sweep_wall_s", 0.0)
                 + figures.get("sweep_busy_s", 0.0))
    results = [base]
    metrics = None
    differ = set()
    k = 0
    # two traced passes at least, however long they take, so the repeat check always runs
    while k < 2 or time.perf_counter() - begin < seconds:
        wall, result, tracer, counters = traced_pass(wl, inputs, out_dir / f"traced{k}")
        results.append(result)
        layer = tracing.layer_metrics(tracer, counters)
        if metrics is None:
            metrics = layer
            metrics["trace.overhead_ratio"] = wall / base_busy
            tracer.dump(ROOT / ".bench_out" / "traces" / f"{out_dir.name}.json",
                        {"workload": name, "seed": seed, "machine": machine.machine_info()})
        else:
            differ.update(n for n in count_names if layer[n] != metrics[n])
        k += 1
    if differ:
        results[-1].failed += 1
        results[-1].errors.append(f"counts differ between traced passes: {sorted(differ)}")
    metrics["cli.pool_efficiency"] = (
        figures["sweep_busy_s"] / (figures["jobs"] * figures["sweep_wall_s"])
        if "sweep_wall_s" in figures else 0.0)
    metrics["field_solver.energy_drift"] = figures.get("energy_drift", 0.0)
    metrics["testfn.identity_residual"] = figures.get("identity_residual", 0.0)
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = machine.import_times(ROOT / "src")
    return {n: (v, 1, "") for n, v in metrics.items()}, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kgflrw" / "__init__.py").is_file():
        print(f"perfbench: no kgflrw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import machine, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if args.setup_probe:
        wl.setup(args.seed, False, out_dir)
        print(time.monotonic())
        shutil.rmtree(out_dir, ignore_errors=True)
        return 0

    declared = _declared()
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared[kind]
    jobs = machine.nproc()
    try:
        if args.trace:
            counts = [n for n, u in declared["per_layer"].items() if u == "count"]
            figures, results = traced_run(args.workload, wl, args.seed, seconds,
                                          out_dir, args.smoke, jobs, counts)
        else:
            figures, results = untraced_run(args.workload, wl, args.seed, seconds,
                                            out_dir, args.smoke, jobs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if set(figures) != set(units):
        raise RuntimeError(f"metrics {sorted(set(figures) ^ set(units))} do not match BENCHMARK.json")

    attempted = sum(len(r.item_ms) for r in results)
    failed = sum(r.failed for r in results)
    _report_errors(results)
    seeded = "seeded" if wl.seeded else "seed-independent inputs"
    print(f"workload {args.workload}, seed {args.seed} ({seeded}), trace {args.trace}")
    metrics = {}
    for name in units:
        value, n, note = figures[name]
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={n} {note}".rstrip())
        metrics[name] = {"value": value, "unit": units[name]}
    print(f"  failed {failed} of {attempted} attempted items")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
