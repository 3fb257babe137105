"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each test prints one pass/fail summary line so the acceptance status can be
read off a verbose test run directly.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from schro1d import (
    InitialData,
    c1_sup,
    WeightSpec,
    check_decay,
    check_derivative_bound,
    check_derivative_lp,
    check_weighted,
    constants_for,
    default_suite_path,
    make_family,
    propagate_exact,
    propagate_rk,
    prufer_decompose,
    random_sweep,
    run_suite,
    sample_lemma31,
    simon_stolz_curve,
    sweep_scenarios,
    transfer_matrix,
    wronskian,
)
from schro1d.harness import scenario_trace
from schro1d.verifier import analytic_trace

from conftest import frobenius_integrand, riemann_c1


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_acceptance_01_constants_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for c2 in np.logspace(-6, 6, 100):
        k = constants_for(c2, 0.0)
        worst = max(
            worst,
            abs(k.c_bound - k.c2 * (1 + 2 * k.k_radius)) / max(1.0, k.c_bound),
            abs(k.c2 * k.delta * (k.delta + 1) - 0.5),
        )
    spot1 = constants_for(1.0, 0.0)
    spot4 = constants_for(4.0, 0.0)
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-12
        and abs(spot1.c_bound - 3.0) <= 1e-12
        and abs(spot1.k_radius - 1.0) <= 1e-12
        and abs(spot1.delta - (math.sqrt(3) - 1) / 2) <= 1e-12
        and abs(spot4.c_bound - 8.0) <= 1e-12
        and abs(spot4.k_radius - 0.5) <= 1e-12
        and abs(spot4.delta - 0.1123724) <= 1e-7
        and elapsed < 1.0
    )
    _report(
        "constants-identities",
        ok,
        f"worst_identity_residual={worst:.3e}, elapsed={elapsed:.2f}s",
    )


def test_acceptance_02_c1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        V = make_family(
            "random_step", {"cells": 20, "low": -5.0, "high": 5.0, "seed": seed}
        )
        worst = max(worst, abs(c1_sup(V).supremum - riemann_c1(V, 1e-4)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(
        "c1-oracle-equivalence",
        ok,
        f"n=200, worst_abs_dev={worst:.3e}, elapsed={elapsed:.1f}s",
    )


def test_acceptance_03_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_dev = 0.0
    worst_wron = 0.0
    worst_det = 0.0
    for i in range(50):
        V = make_family(
            "random_step",
            {"cells": 25, "low": -1.5, "high": 1.5, "seed": 1000 + i,
             "min_width": 0.2, "max_width": 0.5},
        )
        span = min(10.0, V.support[1])
        E = complex(rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.0))
        init = InitialData(
            0.0,
            complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)),
        )
        ex = propagate_exact(V, E, init, span, 1e-4)
        rk = propagate_rk(V, E, init, span, 1e-4)
        assert np.array_equal(ex.xs, rk.xs)
        scale = ex.magnitude_scale()
        worst_dev = max(
            worst_dev,
            float(np.max(np.abs(ex.u - rk.u))) / scale,
            float(np.max(np.abs(ex.du - rk.du))) / scale,
        )
        init2 = InitialData(0.0, init.du0, -init.u0)
        ex2 = propagate_exact(V, E, init2, span, 1e-4)
        W = wronskian(ex, ex2)
        wr_scale = np.maximum(
            np.abs(ex.u * ex2.du) + np.abs(ex.du * ex2.u), 1.0
        )
        worst_wron = max(worst_wron, float(np.max(np.abs(W - W[0]) / wr_scale)))
        T = transfer_matrix(V, E, span, 0.0, 0.01)
        worst_det = max(worst_det, T.det_residual())
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-6 and worst_wron <= 1e-8 and worst_det <= 1e-8 and elapsed < 60.0
    _report(
        "solver-oracle-equivalence",
        ok,
        f"n=50, worst_rel_dev={worst_dev:.3e}, worst_wronskian={worst_wron:.3e}, "
        f"worst_det_residual={worst_det:.3e}, elapsed={elapsed:.1f}s",
    )


def test_acceptance_04_inequality_sweep():
    t0 = time.perf_counter()
    report = random_sweep(n_scenarios=50, seed=1, lemma_samples=1000)
    elapsed = time.perf_counter() - t0
    n_outcomes = sum(len(e["outcomes"]) for e in report.entries)
    violations = [
        (e["id"], o["name"], o["worst_ratio"])
        for e in report.entries
        for o in e["outcomes"]
        if not o["pass"]
    ]
    every_scenario_checked = all(e["outcomes"] for e in report.entries)
    ok = (
        report.all_ok
        and not violations
        and every_scenario_checked
        and len(report.entries) == 50
        and elapsed < 300.0
    )
    _report(
        "inequality-sweep",
        ok,
        f"scenarios=50, outcomes={n_outcomes}, violations={violations}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_acceptance_05_closed_form_fixtures(sin_trace, sin_consts):
    sin_out = check_derivative_bound(sin_trace, sin_consts)
    xs = np.linspace(0.0, 6.0, 3001)
    gauss = analytic_trace(
        xs,
        lambda x: np.exp(-x * x / 2.0),
        lambda x: -x * np.exp(-x * x / 2.0),
        1.0,
    )
    gauss_out = check_derivative_bound(gauss, constants_for(0.0, 1.0))
    analytic_ratio = math.exp(-0.5) / 3.0
    gauss_decay = check_decay(gauss, 0.2, 1e4)
    suite = run_suite(default_suite_path())
    nodecay = next(e for e in suite.entries if e["id"] == "sin-no-decay")
    ok = (
        sin_out.passed
        and sin_out.worst_ratio <= 0.40
        and gauss_out.passed
        and abs(gauss_out.worst_ratio - analytic_ratio) <= 0.05 * analytic_ratio
        and gauss_decay.passed
        and nodecay["expected"] == "expected_fail"
        and not nodecay["all_checks_pass"]
        and nodecay["ok"]
    )
    _report(
        "closed-form-fixtures",
        ok,
        f"sin_ratio={sin_out.worst_ratio:.4f} (<=0.40), "
        f"gaussian_ratio={gauss_out.worst_ratio:.4f} (analytic {analytic_ratio:.4f}), "
        f"expected_fail_reported={nodecay['ok']}",
    )


def test_acceptance_06_transfer_matrix_integral_free_case(free_potential):
    curve = simon_stolz_curve(free_potential, 1.0, 10.0, 1e-3)
    cum_err = abs(float(curve.cumulative[-1]) - 10.0)
    V = make_family("random_step", {"cells": 12, "low": -2.0, "high": 2.0, "seed": 8})
    mixed = simon_stolz_curve(V, 1.0, 6.0, 1e-3)
    xs_f, frob = frobenius_integrand(V, 1.0, 6.0, 1e-3)
    ratio = frob / mixed.integrand
    ratio_ok = bool(np.all(ratio >= 0.5 - 1e-12) and np.all(ratio <= 1.0 + 1e-12))
    ok = cum_err <= 1e-3 and ratio_ok
    _report(
        "transfer-matrix-integral",
        ok,
        f"free_cumulative_err={cum_err:.2e} (<=1e-3), "
        f"frobenius_ratio_range=[{float(np.min(ratio)):.4f}, {float(np.max(ratio)):.4f}]",
    )


def test_acceptance_07_prufer_identities():
    scenarios = [
        s for s in sweep_scenarios(n_scenarios=50, seed=1, lemma_samples=1000)
        if s.energy.im == 0.0
    ]
    assert scenarios, "the sweep must contain real-energy scenarios"
    worst_point = 0.0
    worst_window = 0.0
    for scn in scenarios:
        trace = scenario_trace(scn)
        k = math.sqrt(scn.energy.re)
        pt = prufer_decompose(trace, k)
        ur, dur = trace.real_parts()
        lhs = k * k * pt.R ** 2
        rhs = dur ** 2 + k * k * ur ** 2
        worst_point = max(worst_point, float(np.max(np.abs(lhs - rhs) / rhs)))
        xs = trace.xs
        lhs_i = k * k * np.trapezoid(pt.R ** 2, xs)
        rhs_i = np.trapezoid(dur ** 2, xs) + k * k * np.trapezoid(ur ** 2, xs)
        worst_window = max(worst_window, abs(lhs_i - rhs_i) / abs(rhs_i))
    ok = worst_point <= 1e-10 and worst_window <= 1e-8
    _report(
        "prufer-identities",
        ok,
        f"real_scenarios={len(scenarios)}, worst_pointwise={worst_point:.3e}, "
        f"worst_window={worst_window:.3e}",
    )


def test_acceptance_08_determinism():
    r1 = run_suite(default_suite_path())
    r2 = run_suite(default_suite_path())
    j1 = r1.to_json(include_wall_time=False)
    j2 = r2.to_json(include_wall_time=False)
    ok = j1 == j2 and r1.all_ok
    _report(
        "determinism",
        ok,
        f"bytes={len(j1)}, identical={j1 == j2}, suite_ok={r1.all_ok}",
    )


def test_acceptance_09_negative_controls(sin_trace, sin_consts):
    # A check whose ratio goes as C^-p must fail, at the predicted ratio, once
    # C is shrunk so that r (C/C')^p = 1.05; the sampled core inequality must
    # fail without its C2 penalty.
    checks = {
        "derivative_bound": (lambda k: check_derivative_bound(sin_trace, k), 1.0),
        "derivative_lp_p1": (lambda k: check_derivative_lp(sin_trace, k, 1.0), 1.0),
        "derivative_lp_p2": (lambda k: check_derivative_lp(sin_trace, k, 2.0), 2.0),
        "weighted_p2": (lambda k: check_weighted(sin_trace, k, 2.0, WeightSpec.exponential(0.5),
                                                 (2.0, 18.0)), 2.0),
    }
    ok, details = True, []
    for name, (check, p) in checks.items():
        r = check(sin_consts).worst_ratio
        shrunk = dataclasses.replace(sin_consts, c_bound=sin_consts.c_bound * (r / 1.05) ** (1 / p))
        out = check(shrunk)
        ok &= r <= 1.0 and not out.passed and out.worst_ratio == pytest.approx(1.05, rel=1e-12)
        details.append(f"{name}={out.worst_ratio:.12g}")
    no_penalty = dataclasses.replace(sin_consts, c2=0.0)
    lemma = sample_lemma31(sin_trace, no_penalty, 400, np.random.default_rng(11))
    ok &= not lemma.passed
    details.append(f"lemma31_sweep_c2_0={lemma.worst_ratio:.4f}")
    _report("negative-controls", ok, ", ".join(details))
