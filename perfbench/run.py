#!/usr/bin/env python3
"""Benchmark of the schro1d verifier, end to end and layer by layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads.  Each draws its inputs from --seed; the package sees only the
generated inputs, through its public functions.

  sweep          sweep_scenarios(n_scenarios=50, lemma_samples=1000) through
                 run_scenarios, then SuiteReport.to_json: the `schro1d sweep`
                 corpus, dominated by propagation over 17 spike lattices.
  dense_checks   five few-cell potentials on a 1e-3 grid (about 82k points)
                 with every check kind, lemma31 at 2000 samples: dominated by
                 the verifier, propagation is under 1%.
  transfer_long  a 5000-cell spike lattice at E = 1: simon_stolz_curve
                 forward and transfer_matrix backward; solver and spectral
                 only, no harness and no verifier.

An operation is one scenario (sweep, dense_checks) or one call
(transfer_long).  A scenario fails if it raises or its report entry is not
ok; a call fails if it raises, returns a non-finite value or a transfer
matrix with det residual above 1e-8.  The output is correct when nothing
failed, every pass produced the same bytes, the constants echoed in the
report satisfy their defining identities and, on transfer_long, the backward
matrix has the same operator norm as the forward curve's last point.

--trace 0 runs untraced passes, starting another only if it should end
within --seconds (so at least one), and reports the end-to-end metrics:
median pass wall time, p50 and p90 of the operation latencies pooled over
the passes, set-up time and peak RSS.  --trace 1 runs one untraced pass,
then one pass with a span around every public function at the name its
caller looks up, and reports per-layer self times and counts (the traced
pass minus the untraced one is trace.overhead_s).  Lines before the last one
print each metric with its unit, sample counts, the error rate and the
sha256 of the deterministic output; the last line is one JSON object with
the keys correct, attempted, failed and metrics.

The benchmark runs in this one process and starts no threads:
SCHRO1D_THREADS is removed from the environment before the package loads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import math
import os
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MAX_DET_RESIDUAL = 1e-8
NORM_REL_TOL = 1e-6
CONSTANTS_REL_TOL = 1e-12

VERIFIER_FNS = (
    "check_derivative_bound",
    "check_persistence",
    "check_local_lp",
    "check_derivative_lp",
    "check_weighted",
    "check_decay",
    "sample_lemma31",
)

# (module, attribute, span name): every public function the workloads reach,
# wrapped where its caller looks it up.  constants_for and scenario_trace are
# left unwrapped, so their few microseconds fall into harness.run_scenario.
SPAN_SITES = (
    ("harness", "run_scenarios", "harness.run_scenarios"),
    ("harness", "run_scenario", "harness.run_scenario"),
    ("harness", "c1_sup", "potential.c1_sup"),
    ("harness", "propagate_exact", "solver.propagate_exact"),
    ("solver", "propagate_exact", "solver.propagate_exact"),
    ("solver", "build_grid", "solver.build_grid"),
    ("solver", "basis_traces", "solver.basis_traces"),
    ("spectral", "basis_traces", "solver.basis_traces"),
    ("solver", "transfer_matrix", "solver.transfer_matrix"),
    ("spectral", "simon_stolz_curve", "spectral.simon_stolz_curve"),
) + tuple(("harness", fn, f"verifier.{fn}") for fn in VERIFIER_FNS)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_SITES)) + ("harness.to_json",)


def load_package():
    """Import schro1d afresh from the checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "schro1d" or m.startswith("schro1d.")]:
        del sys.modules[name]
    pkg = importlib.import_module("schro1d")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"schro1d was loaded from {pkg.__file__}, not from {SRC}")
    return pkg


# ---------------------------------------------------------------- workloads


def sweep_inputs(pkg, seed, smoke):
    n, samples = (3, 30) if smoke else (50, 1000)
    return pkg.sweep_scenarios(n_scenarios=n, seed=seed, lemma_samples=samples)


ALL_CHECKS = (
    {"name": "derivative_bound"},
    {"name": "persistence"},
    {"name": "local_lp", "p": 1},
    {"name": "local_lp", "p": 2},
    {"name": "derivative_lp", "p": 1},
    {"name": "derivative_lp", "p": 2},
    {"name": "weighted", "p": 2, "weight": {"kind": "exponential", "rate": 0.5}},
)


def dense_inputs(pkg, seed, smoke):
    scale, cells, samples = (0.25, 8, 200) if smoke else (1.0, 30, 2000)
    rng = np.random.default_rng(seed)

    def init(real):
        u0 = round(float(rng.uniform(0.5, 1.5)), 6)
        du0 = complex(round(float(rng.uniform(-1.0, 1.0)), 6))
        if not real:
            du0 += 1j * round(float(rng.uniform(-0.5, 0.5)), 6)
        return {"u0": u0, "du0": {"re": du0.real, "im": du0.imag}}

    def lemma31():
        return {"name": "lemma31", "samples": samples, "seed": int(rng.integers(0, 2 ** 31))}

    def free(span):
        return {"breakpoints": [0.0, span], "values": [0.0]}

    def random_step():
        return {"family": "random_step", "cells": cells, "low": -3.0, "high": 3.0,
                "seed": int(rng.integers(0, 2 ** 31))}

    step_real, step_complex = random_step(), random_step()
    # A pure e^{-x} solution: its data lie on the decaying direction, which
    # keeps the growing mode at rounding level over the whole span.
    u_decay = round(float(rng.uniform(0.5, 1.5)), 6)
    configs = [
        ("free-oscillating", free(40.0 * scale), 1.0, init(True), 40.0 * scale),
        ("square-well", {"family": "square_well", "depth": 2.0, "width": 6.0 * scale},
         1.0, init(True), 14.0 * scale),
        ("random-step-real", step_real, 4.0, init(True), None),
        ("random-step-complex", step_complex, {"re": 2.0, "im": 1.0}, init(False), None),
    ]
    docs = []
    for sid, potential, energy, data, span in configs:
        pot = pkg.parse_potential(potential)
        docs.append({
            "id": sid, "potential": potential, "energy": energy, "init": data,
            "span": [0.0, span if span is not None else pot.support[1]],
            "max_step": 1e-3, "checks": [*ALL_CHECKS, lemma31()],
        })
    docs.append({
        "id": "free-decaying", "potential": free(12.0), "energy": -1.0,
        "init": {"u0": u_decay, "du0": -u_decay}, "span": [0.0, 12.0],
        "max_step": 1e-3,
        "checks": [
            {"name": "derivative_bound"},
            {"name": "persistence"},
            {"name": "local_lp", "p": 2},
            {"name": "derivative_lp", "p": 2},
            {"name": "decay", "tail_fraction": 0.2, "drop_factor": 100.0},
            lemma31(),
        ],
    })
    return [pkg.parse_scenario(doc, doc["id"]) for doc in docs]


def transfer_inputs(pkg, seed, smoke):
    span = 0.5 if smoke else 5.0
    rng = np.random.default_rng(seed)
    g = round(float(rng.uniform(0.5, 7.0)), 3)
    V = pkg.make_family("spike_lattice",
                        {"g": g, "period": 1.0, "cap": 100.0, "cell": 1e-3, "span": span})
    return V, 1.0, span, 1e-3


def _constants_ok(entry):
    """The report's constants satisfy C2 = C1 + |E|, C = C2 + 2 sqrt(C2),
    K = 1/sqrt(C2) and C2 delta (delta + 1) = 1/2."""
    c = entry["constants"]
    c2 = c["c2"]
    expected = (
        (c2, c["c1"] + math.hypot(c["energy"]["re"], c["energy"]["im"])),
        (c["c_bound"], c2 + 2.0 * math.sqrt(c2)),
        (c["k_radius"], 1.0 / math.sqrt(c2)),
        (c2 * c["delta"] * (c["delta"] + 1.0), 0.5),
    )
    return all(math.isclose(a, b, rel_tol=CONSTANTS_REL_TOL) for a, b in expected)


def suite_pass(pkg, scenarios, seed, ops):
    """run_scenarios + to_json; ops gets (latency_s, ok) per scenario."""
    harness = pkg.harness
    inner = harness.run_scenario

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            entry = inner(*args, **kwargs)
        except Exception:
            ops.append((time.perf_counter() - t0, False))
            raise
        ops.append((time.perf_counter() - t0, bool(entry["ok"])))
        return entry

    harness.run_scenario = timed
    try:
        report = harness.run_scenarios(scenarios, seed=seed)
        return report.to_json(include_wall_time=False)
    finally:
        harness.run_scenario = inner


def suite_check(pkg, text):
    """Report bytes, plus any scenario whose constants break their identities."""
    problems = [f"{e['id']}: constants violate their identities"
                for e in json.loads(text)["scenarios"] if not _constants_ok(e)]
    return text.encode(), problems


def _timed_call(ops, fn, healthy):
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:
        ops.append((time.perf_counter() - t0, False))
        traceback.print_exc()
        return None
    ops.append((time.perf_counter() - t0, bool(healthy(out))))
    return out


def _curve_healthy(curve):
    return all(np.all(np.isfinite(a))
               for a in (curve.xs, curve.norm_T, curve.integrand, curve.cumulative))


def _matrix_healthy(matrix):
    return bool(np.all(np.isfinite(matrix.entries))
                and matrix.det_residual() <= MAX_DET_RESIDUAL)


def transfer_pass(pkg, inputs, seed, ops):
    """Forward Simon-Stolz curve on [0, X], backward T(E, 0, X)."""
    V, E, X, step = inputs
    curve = _timed_call(ops, lambda: pkg.spectral.simon_stolz_curve(V, E, X, step),
                        _curve_healthy)
    matrix = _timed_call(ops, lambda: pkg.solver.transfer_matrix(V, E, 0.0, X, step),
                         _matrix_healthy)
    return curve, matrix


def transfer_check(pkg, result):
    """Curve and matrix bytes, plus any inconsistency between them.

    T(E, 0, X) is the inverse of T(E, X, 0) and both have det 1, so their
    operator norms agree; the curve's last point carries ||T(E, X, 0)||."""
    curve, matrix = result
    if curve is None or matrix is None:
        return None, []
    problems = []
    if np.any(np.diff(curve.cumulative) < 0):
        problems.append("Simon-Stolz cumulative integral decreases")
    back = pkg.spectral.operator_norm_2x2(matrix.entries)
    if not math.isclose(back, float(curve.norm_T[-1]), rel_tol=NORM_REL_TOL):
        problems.append(f"||T(E,0,X)|| = {back!r} but ||T(E,X,0)|| = {curve.norm_T[-1]!r}")
    arrays = (curve.xs, curve.norm_T, curve.integrand, curve.cumulative, matrix.entries)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays), problems


class Workload(NamedTuple):
    make_inputs: Callable  # (pkg, seed, smoke) -> inputs
    run: Callable          # (pkg, inputs, seed, ops) -> result; one timed pass
    check: Callable        # (pkg, result) -> (output bytes or None, problems)


WORKLOADS = {
    "sweep": Workload(sweep_inputs, suite_pass, suite_check),
    "dense_checks": Workload(dense_inputs, suite_pass, suite_check),
    "transfer_long": Workload(transfer_inputs, transfer_pass, transfer_check),
}


# ------------------------------------------------------------------ tracing


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus the counts
    taken from arguments and results at the same boundaries."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.cells_by_potential = {}
        self.installed = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), None, tracer.stack[-1] if tracer.stack else None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                tracer._count_error(name, err)
                raise
            span[2] = time.perf_counter()
            tracer.stack.pop()
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name == "solver.propagate_exact":
            V = args[0]
            self.cells_by_potential[id(V)] = len(V.values)
            c["solver.propagate_exact.calls"] += 1
            c["solver.grid_points"] += len(result.xs)
        elif name == "solver.build_grid":
            c["solver.segments"] += len(result[1]) - 1
        elif name.startswith("verifier."):
            c["verifier.points_checked"] += result.points_checked
            if name == "verifier.sample_lemma31":
                notes = dict(re.findall(r"(\w+)=(\d+)", result.margin_notes))
                c["lemma31.accepted"] += int(notes["accepted"])
                c["lemma31.attempts"] += int(notes["attempts"])

    def _count_error(self, name, err):
        if name.startswith("verifier.") and isinstance(err, self.pkg.harness.SKIPPABLE):
            self.counts["verifier.skipped"] += 1

    def install(self):
        for mod, attr, name in SPAN_SITES:
            module = getattr(self.pkg, mod)
            self.installed.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
        report_cls = self.pkg.harness.SuiteReport
        self.installed.append((report_cls, "to_json", report_cls.to_json))
        report_cls.to_json = self._wrap("harness.to_json", report_cls.to_json)

    def uninstall(self):
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-name sum of span duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out


# ---------------------------------------------------------------- measuring


def setup(workload, seed, smoke):
    """Fresh package import plus input generation, SETUP_REPEATS times; the
    inputs and package of the last repeat are used.  numpy is already loaded,
    so its import is not part of the set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = load_package()
        inputs = workload.make_inputs(pkg, seed, smoke)
        times.append(time.perf_counter() - t0)
    return pkg, inputs, statistics.median(times)


class Run:
    """Passes of one workload: wall times, operations and output digests."""

    def __init__(self, workload, pkg, inputs, seed):
        self.workload, self.pkg, self.inputs, self.seed = workload, pkg, inputs, seed
        self.walls = []
        self.ops = []
        self.digests = set()
        self.problems = []

    def one_pass(self):
        t0 = time.perf_counter()
        try:
            result = self.workload.run(self.pkg, self.inputs, self.seed, self.ops)
        except Exception:
            self.walls.append(time.perf_counter() - t0)
            traceback.print_exc()
            self.problems.append("a pass raised")
            return
        self.walls.append(time.perf_counter() - t0)
        output, problems = self.workload.check(self.pkg, result)
        if output is None:
            problems.append("an operation produced no output")
        else:
            self.digests.add(hashlib.sha256(output).hexdigest())
        self.problems += problems

    @property
    def failed(self):
        return sum(not ok for _, ok in self.ops)

    def verdict(self):
        """Whether the outputs are correct; adds a problem if passes differ."""
        if len(self.digests) > 1:
            self.problems.append("passes produced different outputs")
        return not self.problems and self.failed == 0 and len(self.digests) == 1


def end_to_end(run, setup_s, seconds):
    start = time.perf_counter()
    run.one_pass()
    while time.perf_counter() - start + run.walls[-1] <= seconds:
        run.one_pass()
    latencies_ms = [1e3 * t for t, _ in run.ops]
    p50, p90 = np.percentile(latencies_ms, [50, 90])
    info = [f"passes {len(run.walls)}", f"operation latency samples {len(latencies_ms)}"]
    return {
        "wall_s": (statistics.median(run.walls), "s"),
        "scenario_p50_ms": (float(p50), "ms"),
        "scenario_p90_ms": (float(p90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, info


def per_layer(run):
    run.one_pass()
    untraced = run.walls[-1]
    tracer = Tracer(run.pkg)
    tracer.install()
    try:
        run.one_pass()
    finally:
        tracer.uninstall()
    traced = run.walls[-1]
    selfs = tracer.self_times()
    c = tracer.counts
    verifier_s = sum(selfs[f"verifier.{fn}"] for fn in VERIFIER_FNS)
    propagate_s = selfs["solver.propagate_exact"]
    metrics = {f"{name}.self_s": (selfs[name], "s") for name in SPAN_NAMES}
    metrics.update({
        "potential.cells": (sum(tracer.cells_by_potential.values()), "count"),
        "solver.propagate_exact.calls": (c["solver.propagate_exact.calls"], "count"),
        "solver.propagate_exact.ns_per_point":
            (1e9 * propagate_s / max(c["solver.grid_points"], 1), "ns"),
        "solver.grid_points": (c["solver.grid_points"], "count"),
        "solver.segments": (c["solver.segments"], "count"),
        "verifier.points_checked": (c["verifier.points_checked"], "count"),
        "verifier.ns_per_point": (1e9 * verifier_s / max(c["verifier.points_checked"], 1), "ns"),
        "verifier.sample_lemma31.accept_ratio":
            (c["lemma31.accepted"] / max(c["lemma31.attempts"], 1), "ratio"),
        "verifier.skipped": (c["verifier.skipped"], "count"),
        "trace.wall_s": (traced, "s"),
        "trace.unattributed_s": (traced - sum(selfs.values()), "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    })
    info = [
        f"lemma31 accepted/attempts {c['lemma31.accepted']}/{c['lemma31.attempts']}",
        f"share of traced wall: solver.propagate_exact {propagate_s / traced:.3f}, "
        f"verifier.* {verifier_s / traced:.3f}",
    ]
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "schro1d" / "__init__.py").is_file():
        print(f"error: no schro1d package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SCHRO1D_THREADS", None)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    pkg, inputs, setup_s = setup(workload, args.seed, args.size == "smoke")
    run = Run(workload, pkg, inputs, args.seed)
    if args.trace:
        metrics, info = per_layer(run)
    else:
        metrics, info = end_to_end(run, setup_s, args.seconds)
    correct = run.verdict()

    attempted, failed = len(run.ops), run.failed
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations failed)")
    for digest in sorted(run.digests):
        print(f"output_sha256 {digest}")
    for problem in run.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
