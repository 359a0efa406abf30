"""Run the benchmark over several seeds per workload and record the spread.

    python3 perfbench/collect.py --runs 10 --first-seed 1 --out perfbench/RECORD.json
    python3 perfbench/collect.py --runs 10 --first-seed 1 --out perfbench/RECORD.json --append
    python3 perfbench/collect.py --runs 1 --first-seed 7 --no-trace   # every workload, one seed

For each workload this makes ``--runs`` untraced runs, one per seed, and one
traced run; the results form one set of the record's ``sets``, and
``--append`` adds the set to an existing record instead of starting anew.
For every end-to-end metric it records the values in seed order, their
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound; a metric is
steady when that share stays below a third of the bound (``setup_s`` is
exempt, as its spread is not gated).  The record also holds the machine, the
computed kernel counts, sample counts, attempted and failed items, and the
traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: the result object plus the sample count printed per metric."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["samples"] = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] in result["metrics"] and fields[3].startswith("n="):
            result["samples"][fields[0]] = " ".join(fields[3:])
    return result


def summarise(values: list, bound: float) -> dict:
    if len(values) < 2:
        return {"median": values[0], "bound": bound}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--append", action="store_true", help="add a set to the --out record")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import machine, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {
        "machine": machine.machine_info(),
        "kernels": machine.kernel_record(),
        "run_seconds": spec["run_seconds"],
        "sets": [],
    }
    if args.append and args.out and args.out.exists():
        record["sets"] = json.loads(args.out.read_text())["sets"]
    current = {"seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": {}}
    record["sets"].append(current)
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(run)
            shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']} ({run['samples'].get(k, '')})"
                              for k, v in run["metrics"].items())
            print(f"{name} seed {seed}: {shown}; failed {run['failed']} of {run['attempted']}",
                  flush=True)
        entry = {
            "seeded": workloads.WORKLOADS[name].seeded,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "samples_per_run": runs[0]["samples"],
            "end_to_end": {
                metric: summarise([r["metrics"][metric]["value"] for r in runs], bound)
                for metric, bound in bounds.items()
            },
        }
        if not args.no_trace:
            traced = run_once(name, args.first_seed, spec["run_seconds"], 1)
            entry["traced_seed"] = args.first_seed
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        current["workloads"][name] = entry
        first = record["sets"][0]["workloads"].get(name) if len(record["sets"]) > 1 else None
        for metric, summary in entry["end_to_end"].items():
            if first:
                # share by which this set's median is worse than the first set's
                change = summary["median"] / first["end_to_end"][metric]["median"] - 1.0
                summary["worse_than_first"] = change if better[metric] == "lower" else -change
            if "spread" in summary:
                print(f"  {name} {metric}: median {summary['median']:.6g} spread "
                      f"{summary['spread']:.3f} (bound {summary['bound']})"
                      + (f", worse than set 1 by {summary['worse_than_first']:.3f}" if first else ""),
                      flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
