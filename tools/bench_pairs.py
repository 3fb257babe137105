#!/usr/bin/env python3
"""Compare two revisions on perfbench in alternating pairs; write BENCH_<pr>.json.

Run from the root of the checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_<n>.json
    python3 tools/bench_pairs.py --summarise BENCH_*.json

Each revision is exported with `git archive` into its own temporary directory,
so both sides run the same benchmark code from their own tree, as committed.
For every workload of BENCHMARK.json and seeds 1 and 6, `perfbench/run.py`
runs 10 times on each side for the benchmark's run_seconds, the side that
goes first alternating from pair to pair.

For each end-to-end metric of BENCHMARK.json the file records both sides'
values, medians and quartiles, the pairs the change won (ties count for
neither), the median difference against the parent's interquartile range,
and the worsening against the benchmark's bound.  A gain is resolved when the
change won at least 9 in 10 pairs and the median difference exceeds the
parent's IQR; a worsening beyond the bound is unresolved, not a regression,
when the parent's own IQR is wider than the bound, unless every run of the
change is better than every run of the parent.  The output_sha256 of
every run is kept too, so the file shows whether the outputs were the same.
So are each run's minor page faults (RUSAGE_CHILDREN around the run's
process, start-up and set-up included) and its passes, as perfbench prints
them, with the median faults per pass of each side.

Speed drifts between pairs on a shared machine, which widens the parent's
IQR past the bound.  So the file also records each pair's ratio
change/parent, which cancels most of that drift, with its median and
quartiles, and `paired_within_bound`: the upper quartile of the paired
worsening is at most the bound.  It adds to the verdicts above and replaces
none of them.  --summarise prints these paired statistics, and the faults
per pass where a file has them, from the raw values of committed files,
without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 6)
PAIRS = 10  # a gain needs at least 9 wins in 10 pairs


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """Write the tree of git revision rev into dest; return its commit hash
    and the tree hashes of src/ and perfbench/, which stay the same across
    commits that change only documents."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    tar_path = Path(dest).with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return {"commit": sha, "src_tree": git("rev-parse", f"{sha}:src"),
            "perfbench_tree": git("rev-parse", f"{sha}:perfbench")}


def run_once(tree, workload, seed, seconds):
    """One perfbench run in tree: (metric values, output digests, correct,
    {"minflt": minor page faults of the run's process, "passes": passes})."""
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - minflt
    lines = out.splitlines()
    result = json.loads(lines[-1])
    digests = sorted(line.split()[1] for line in lines if line.startswith("output_sha256 "))
    passes = next(int(line.split()[1]) for line in lines if line.startswith("passes "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return (metrics, digests, result["correct"] and result["failed"] == 0,
            {"minflt": minflt, "passes": passes})


def faults_per_pass(runs):
    """Median over runs of minor page faults per pass."""
    return statistics.median(r["minflt"] / r["passes"] for r in runs)


def summary(parent, change, better, bound):
    """Medians, quartiles, wins and verdicts of one metric over the pairs,
    unpaired and paired (the metrics are positive)."""
    sign = 1.0 if better == "lower" else -1.0
    q_parent = statistics.quantiles(parent, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    ratios = [c / p for p, c in zip(parent, change)]
    q_ratio = statistics.quantiles(ratios, n=4, method="inclusive")
    # the upper quartile of the worsening: of r - 1, or of 1 - r when higher is better
    paired_worse = q_ratio[2] - 1.0 if sign > 0 else 1.0 - q_ratio[0]
    gain = sign * (q_parent[1] - q_change[1])  # positive when the change is better
    iqr = q_parent[2] - q_parent[0]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    worse = -gain / abs(q_parent[1]) if q_parent[1] else 0.0
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "parent": parent, "change": change,
        "parent_median": q_parent[1], "parent_quartiles": [q_parent[0], q_parent[2]],
        "change_median": q_change[1], "change_quartiles": [q_change[0], q_change[2]],
        "change_wins": wins, "pairs": len(parent),
        "median_gain": gain, "parent_iqr": iqr,
        "gain_resolved": wins >= 9 and gain > iqr,
        "relative_worsening": worse, "bound": bound,
        "within_bound": worse <= bound,
        "unresolved": iqr > bound * abs(q_parent[1]) and not separated,
        "paired_ratios": ratios, "paired_ratio_median": q_ratio[1],
        "paired_ratio_quartiles": [q_ratio[0], q_ratio[2]],
        "paired_within_bound": paired_worse <= bound,
    }


def summarise(paths, out=sys.stdout):
    """Print the paired statistics of the committed BENCH files at paths,
    from their raw values and bounds."""
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for path in paths:
        for row in json.loads(Path(path).read_text())["results"]:
            for name, m in row["metrics"].items():
                s = summary(m["parent"], m["change"], better[name], m["bound"])
                lo, hi = s["paired_ratio_quartiles"]
                print(f"{Path(path).name} {row['workload']} seed {row['seed']} {name}: "
                      f"unpaired {s['relative_worsening']:+.1%}"
                      f"{' unresolved' if s['unresolved'] else ''}, "
                      f"paired {s['paired_ratio_median'] - 1:+.1%} [{lo - 1:+.1%}, {hi - 1:+.1%}] "
                      f"{'within' if s['paired_within_bound'] else 'beyond'} bound "
                      f"{s['bound']:g}, wins {s['change_wins']}/{s['pairs']}", file=out)
            if "faults" in row:
                f = {side: faults_per_pass(runs) for side, runs in row["faults"].items()}
                print(f"{Path(path).name} {row['workload']} seed {row['seed']} minor faults "
                      f"per pass: parent {f['parent']:.1f}, change {f['change']:.1f}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change")
    parser.add_argument("--out", help="path of the BENCH_<pr>.json to write")
    parser.add_argument("--summarise", nargs="+", metavar="BENCH",
                        help="print the paired statistics of committed BENCH files")
    args = parser.parse_args(argv)
    if args.summarise:
        summarise(args.summarise)
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required unless --summarise is given")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__, "platform": platform.platform()},
              "run_seconds": seconds, "pairs": PAIRS, "results": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(tmp, side)
            report[side] = export(rev, trees[side])
        for workload in [w["name"] for w in bench["workloads"]]:
            for seed in SEEDS:
                values = {"parent": [], "change": []}
                digests = {"parent": set(), "change": set()}
                faults = {"parent": [], "change": []}
                correct = True
                for i in range(PAIRS):
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        metrics, sha, ok, run = run_once(trees[side], workload, seed, seconds)
                        values[side].append(metrics)
                        digests[side].update(sha)
                        faults[side].append(run)
                        correct &= ok
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}", file=sys.stderr)
                row = {"workload": workload, "seed": seed, "correct": correct,
                       "output_sha256": {side: sorted(d) for side, d in digests.items()},
                       "same_output": digests["parent"] == digests["change"],
                       "faults": faults,
                       "faults_per_pass": {side: faults_per_pass(runs)
                                           for side, runs in faults.items()},
                       "metrics": {}}
                for metric in bench["end_to_end"]:
                    name = metric["name"]
                    row["metrics"][name] = summary(
                        [m[name] for m in values["parent"]], [m[name] for m in values["change"]],
                        metric["better"], metric["bound"])
                report["results"].append(row)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
