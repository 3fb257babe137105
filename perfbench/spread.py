#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads sweep dense_checks --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 1 \
        --out perfbench/baseline.json

Runs one process at a time, from the root of the checkout, with the command
and run_seconds of BENCHMARK.json.  For every end-to-end metric it prints the
median over seeds and the quartile spread (q3 - q1) / median, with
statistics.quantiles(n=4), next to the metric's bound; a spread above a third
of the bound is flagged.  --trace-seed adds one traced run per workload.
--out writes every value, the summaries, the input sizes from the traced run
and the machine description as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = args.workloads or list(why)
    doc = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "machine": machine(), "workloads": {}}
    for workload in workloads:
        runs = [run_once(spec, workload, seed, 0) for seed in args.seeds]
        entry = {"why": why[workload], "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        print(f"{workload}: correct={entry['correct']} "
              f"failed {entry['failed']} of {entry['attempted']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarise(values)
            entry["end_to_end"][name] = {**summary, "unit": metric["unit"], "values": values}
            flag = "" if name == "setup_s" or summary["spread"] < metric["bound"] / 3 else "  WIDE"
            print(f"  {name:18s} median {summary['median']:.6g} {metric['unit']:5s} "
                  f"spread {summary['spread']:.4f} bound {metric['bound']}{flag}")
        if args.trace_seed is not None:
            traced = run_once(spec, workload, args.trace_seed, 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_seed"] = args.trace_seed
            entry["inputs"] = {k: layers[k] for k in
                               ("potential.cells", "solver.segments", "solver.grid_points")}
            entry["per_layer"] = layers
            print(f"  inputs at seed {args.trace_seed}: {entry['inputs']}")
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
