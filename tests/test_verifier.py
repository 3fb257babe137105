import cmath
import dataclasses
import functools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schro1d import (
    InitialData,
    NoEligiblePoints,
    PiecewisePotential,
    SolutionTrace,
    TraceTooShort,
    WeightSpec,
    analytic_trace,
    c1_sup,
    check_decay,
    check_derivative_bound,
    check_derivative_lp,
    check_local_lp,
    check_persistence,
    check_weighted,
    constants_for,
    make_family,
    propagate_exact,
    sample_lemma31,
)
from schro1d import solver, verifier
from schro1d.verifier import (
    ZERO_BAND,
    CheckOutcome,
    _interior_indices,
    _lemma31_worst,
    _outcome,
    _principal,
    _reduceat_extreme,
    _snap_indices,
    _table_extreme,
    _window_extreme,
    _window_integrals,
)
from schro1d.solver import cumtrapz


class TestDerivativeBound:
    def test_free_sin_ratio(self, sin_trace, sin_consts):
        out = check_derivative_bound(sin_trace, sin_consts)
        assert out.passed
        # |u'| <= 1, C = 3, window max >= sin(1): worst ratio near 1/(3 sin 1)
        assert out.worst_ratio <= 1.0 / 3.0 + 0.07
        assert out.worst_ratio == pytest.approx(1.0 / (3.0 * math.sin(1.0)), rel=0.02)

    def test_harmonic_ground_state(self, harmonic_trace):
        consts = constants_for(0.0, 1.0)
        out = check_derivative_bound(harmonic_trace, consts)
        assert out.passed
        # analytic worst ratio: max |x| e^{1/2 - x} / 3 = e^{-1/2}/3 at x = 1
        assert out.worst_ratio == pytest.approx(math.exp(-0.5) / 3.0, rel=0.01)
        assert abs(abs(out.witness_x) - 1.0) <= 0.05

    @pytest.mark.parametrize("h", [0.001, 0.2, 0.5])
    def test_coarse_grid_cannot_pass_a_violation(self, sin_consts, h):
        # u = sin x with u' = 3.3 cos x breaks the bound (C = 3, K = 1): the
        # true worst ratio is 3.3 / (3 sin 1) = 1.307 at the zeros of u.  A
        # window max over nodes is at most the true sup, so no grid passes it
        xs = np.linspace(0.0, 40.0, round(40.0 / h) + 1)
        trace = analytic_trace(xs, np.sin, lambda x: 3.3 * np.cos(x), 1.0)
        out = check_derivative_bound(trace, sin_consts)
        assert not out.passed
        assert 1.29 < out.worst_ratio < 1.31

    @pytest.mark.parametrize("prune", [0, 10 ** 9])
    def test_subnormal_window_max_reads_inf(self, monkeypatch, prune):
        # past x = 22.5 the window max of e^{-33x} is subnormal, so C * max
        # underflows to 0 while the max does not: the ratio is inf, never
        # 0/0 = NaN where |u'| underflows too
        monkeypatch.setattr(verifier, "PRUNE_NODES", prune)
        xs = np.arange(401) / 16.0
        trace = analytic_trace(xs, lambda x: np.exp(-33 * x), lambda x: -33 * np.exp(-33 * x),
                               1.0)
        consts = SimpleNamespace(k_radius=1 / 16, c_bound=0.5, delta=1 / 16)
        out = check_derivative_bound(trace, consts)
        assert out.worst_ratio == np.inf and out.witness_x == 22.625 and not out.passed

    def test_trace_too_short(self, sin_consts, free_potential):
        tr = propagate_exact(free_potential, 1.0, InitialData(0.0, 0.0, 1.0), 0.5, 0.01)
        with pytest.raises(TraceTooShort):
            check_derivative_bound(tr, sin_consts)  # K = 1 > half the span


class TestPersistence:
    def test_growing_exponential_has_margin(self, free_potential):
        tr = propagate_exact(free_potential, -1.0, InitialData(0.0, 1.0, 1.0), 10.0, 0.005)
        consts = constants_for(0.0, -1.0)
        out = check_persistence(tr, consts)
        assert out.passed
        assert out.worst_ratio <= 0.5 + 1e-9  # modulus never decreases

    def test_sin_passes(self, sin_trace, sin_consts):
        out = check_persistence(sin_trace, sin_consts)
        assert out.passed
        assert "near_zero_points_skipped" in out.margin_notes

    def test_no_eligible_points(self, free_potential):
        # e^{-x}: Re[conj(u) u'] < 0 everywhere
        tr = propagate_exact(free_potential, -1.0, InitialData(0.0, 1.0, -1.0), 10.0, 0.01)
        with pytest.raises(NoEligiblePoints):
            check_persistence(tr, constants_for(0.0, -1.0))


class TestLocalLp:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_constant_solution_closed_form(self, p):
        # u = const with injected constants (c2 = 1): ratio = 2^{-p-1}
        xs = np.linspace(0.0, 10.0, 4001)
        tr = analytic_trace(xs, lambda x: np.full_like(x, 2.0),
                            lambda x: np.zeros_like(x), 0.0)
        consts = constants_for(1.0, 0.0)
        out = check_local_lp(tr, consts, p)
        assert out.passed
        assert out.worst_ratio == pytest.approx(2.0 ** (-p - 1), rel=0.02)

    def test_sin_p2_cross_checked(self, sin_trace, sin_consts):
        out = check_local_lp(sin_trace, sin_consts, 2.0)
        assert out.passed
        # closed form at the worst point x* (grid search over sin^2 windows)
        d = sin_consts.delta
        xs = np.linspace(d, 20.0 - d, 2000)
        integral = d - np.cos(2 * xs) * math.sin(2 * d) / 2  # int sin^2 over window
        ratios = np.sin(xs) ** 2 / ((2.0 ** 2 / d) * integral)
        oracle = float(np.max(ratios))
        # window snapping enlarges the integral, so the check can only undershoot
        assert out.worst_ratio <= oracle * (1 + 1e-9)
        assert out.worst_ratio == pytest.approx(oracle, rel=0.02)

    def test_p1_and_p2_differ(self, sin_trace, sin_consts):
        r1 = check_local_lp(sin_trace, sin_consts, 1.0).worst_ratio
        r2 = check_local_lp(sin_trace, sin_consts, 2.0).worst_ratio
        assert r1 != r2

    def test_rejects_bad_p(self, sin_trace, sin_consts):
        with pytest.raises(ValueError):
            check_local_lp(sin_trace, sin_consts, 0.5)

    def test_window_integrals_equal_loop(self):
        # e^{-x} over a long, uneven grid: most windows drown in the rounding
        # of the global cumulative sum and are summed on their own, down into
        # subnormal values, where 0.5 * s * d and d * s / 2 can differ
        rng = np.random.default_rng(3)
        xs = np.cumsum(rng.uniform(0.02, 0.06, 20001))
        f = np.exp(-xs)
        idx = np.arange(0, len(xs), 3)
        trace = analytic_trace(xs, lambda x: f, lambda x: -f, 1.0)
        got = _window_integrals(trace, 1.0, idx, 1.1)
        want, drowned = _loop_window_integrals(xs, f, idx, 1.1)
        assert drowned > len(idx) // 2
        assert got.tobytes() == want.tobytes()


def _loop_window_integrals(xs, fvals, centers_idx, half_width):
    """The window integrals with one np.trapezoid call per drowned window,
    verbatim; also returns how many windows drowned."""
    cum = cumtrapz(fvals, xs)
    x = xs[centers_idx]
    i0 = np.searchsorted(xs, x - half_width, side="right") - 1
    i0 = np.clip(i0, 0, len(xs) - 1)
    i1 = np.searchsorted(xs, x + half_width, side="left")
    i1 = np.clip(i1, 0, len(xs) - 1)
    out = cum[i1] - cum[i0]
    suspicious = np.flatnonzero(out <= 1e-9 * max(cum[-1], 0.0))
    for j in suspicious:
        out[j] = np.trapezoid(fvals[i0[j]:i1[j] + 1], xs[i0[j]:i1[j] + 1])
    return out, len(suspicious)


class TestDerivativeLp:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_free_sin(self, sin_trace, sin_consts, p):
        assert check_derivative_lp(sin_trace, sin_consts, p).passed

    def test_harmonic_ground_state(self, harmonic_trace):
        out = check_derivative_lp(harmonic_trace, constants_for(0.0, 1.0), 2.0)
        assert out.passed

    def test_consistency_with_composed_bounds(self, sin_trace, sin_consts):
        # the derivative bound composed with the local bound gives
        # |u'|^p <= C^p max^p <= C^p * local integral bound, so the direct
        # check cannot be dramatically larger than their product
        d = check_derivative_lp(sin_trace, sin_consts, 2.0).worst_ratio
        assert d <= 1.0


class TestWeighted:
    def test_unit_weight_reduces_to_integrated_bound(self, sin_trace, sin_consts):
        w = WeightSpec("exponential", rate=0.0)
        assert w.admissibility_bound(1.366) == 1.0
        out = check_weighted(sin_trace, sin_consts, 2.0, w, (2.0, 18.0))
        assert out.passed
        assert out.worst_ratio <= 1.0

    def test_exponential_weight_bound_closed_form(self, sin_consts):
        w = WeightSpec("exponential", rate=1.0)
        h = sin_consts.k_radius + sin_consts.delta  # ~1.366
        assert w.admissibility_bound(h) == pytest.approx(math.exp(h), rel=1e-14)
        assert w.admissibility_bound(1.366) == pytest.approx(3.920, abs=2e-3)

    def test_polynomial_weight_bound_vs_grid_oracle(self):
        w = WeightSpec("polynomial", exponent=2.0)
        h = 1.366
        closed = w.admissibility_bound(h)
        xs = np.linspace(-10, 10, 4001)
        best = 0.0
        ws = (1.0 + np.abs(xs)) ** 2
        for i in range(0, len(xs), 7):
            sel = np.abs(xs - xs[i]) <= h
            best = max(best, float(ws[i] / np.min(ws[sel])))
        assert closed == pytest.approx((1.0 + h) ** 2, rel=1e-14)
        assert best <= closed * (1 + 1e-9)
        assert best >= closed * 0.99

    def test_weighted_check_exponential(self, sin_trace, sin_consts):
        out = check_weighted(sin_trace, sin_consts, 2.0,
                             WeightSpec("exponential", rate=0.5), (2.0, 18.0))
        assert out.passed

    @pytest.mark.parametrize("window", [(0.01, 0.05), (0.0, 0.05)])
    def test_window_without_two_nodes_is_too_short(self, window):
        # on a 0.1 grid these windows hold one node and none: the inward
        # snap used to give an LHS of 0 or below, and so a spurious pass
        tr = analytic_trace(np.linspace(-20.0, 20.0, 401), np.sin, np.cos, 1.0)
        with pytest.raises(TraceTooShort):
            check_weighted(tr, constants_for(0.0, 1.0), 2.0, WeightSpec("exponential", rate=0.5),
                           window)


    @staticmethod
    def _decaying_trace():
        # e^{-x} sampled every 1e-3 on [0, 40] at E = -1: far-out windows
        # drown in the rounding of the running integrals over the whole grid
        xs = np.linspace(0.0, 40.0, 40001)
        trace = analytic_trace(xs, lambda x: np.exp(-x), lambda x: -np.exp(-x), -1.0)
        return trace, constants_for(0.0, -1.0), WeightSpec("exponential", rate=0.0)

    @pytest.mark.parametrize("window", [(12.0, 17.0), (20.0, 25.0), (30.0, 35.0)])
    def test_drowned_windows_are_summed_from_their_own_terms(self, window):
        trace, consts, w = self._decaying_trace()
        xs, (a, b) = trace.xs, window
        half = consts.k_radius + consts.delta
        lo, hi = solver.windows(xs, a, b, False)
        r0, r1 = solver.windows(xs, a - half, b + half, True)
        lhs = np.trapezoid(trace.abs_du[lo:hi] ** 2, xs[lo:hi])
        rhs = np.trapezoid(trace.abs_u[r0:r1 + 1] ** 2, xs[r0:r1 + 1])
        expected = lhs / ((4.0 * consts.c_bound ** 2 / consts.delta) * 2.0 * half * rhs)
        ratio = check_weighted(trace, consts, 2.0, w, window).worst_ratio
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(2.41734818166e-4, rel=1e-11)

    def test_window_that_does_not_drown_keeps_its_value(self):
        trace, consts, w = self._decaying_trace()
        assert check_weighted(trace, consts, 2.0, w, (5.0, 10.0)).worst_ratio == (
            2.4173481814869965e-4)


class TestDecay:
    def test_gaussian_tail_passes(self):
        # one-sided gaussian: the symmetric fixture has equal head and tail
        xs = np.linspace(0.0, 6.0, 3001)
        tr = analytic_trace(xs, lambda x: np.exp(-x ** 2 / 2),
                            lambda x: -x * np.exp(-x ** 2 / 2), 1.0)
        out = check_decay(tr, 0.2, 1e4)
        assert out.passed

    def test_sin_fails(self, sin_trace):
        out = check_decay(sin_trace, 0.2, 2.0)
        assert not out.passed

    def test_decaying_exponential(self, free_potential):
        tr = propagate_exact(free_potential, -1.0, InitialData(0.0, 1.0, -1.0), 20.0, 0.01)
        out = check_decay(tr, 0.2, 100.0)
        assert out.passed
        # tail/head ratio is about e^{-16}
        assert out.worst_ratio <= 100.0 * math.exp(-15.0)

    def test_rejects_bad_fraction(self, sin_trace):
        with pytest.raises(ValueError):
            check_decay(sin_trace, 0.6, 10.0)


def _pair(trace, x, y):
    """The nodes nearest to x and to y, as one-element index arrays."""
    return _snap_indices(trace.xs, np.array([x])), _snap_indices(trace.xs, np.array([y]))


class TestLemma31:
    def test_trigonometric_example(self, sin_trace, sin_consts):
        # sin > 0 on [pi/4, pi/3] and D = sin(pi/3) - sin(pi/4) - dx cos(pi/4)
        # < 0, so the worst omega is 1 (phi = 0, inside the arc |phi| <= pi/2)
        ok, ratio, phi = _lemma31_worst(sin_trace, sin_consts.c2,
                                        *_pair(sin_trace, math.pi / 4, math.pi / 3))
        assert ok[0] and abs(phi[0]) < 1e-12
        # slack = lhs - rhs ~ 0.8660 - 0.6061; scale = dx(dx+1) max|sin|
        dx = math.pi / 3 - math.pi / 4
        scale = dx * (dx + 1) * math.sin(math.pi / 3)
        expected_ratio = 1.0 - (0.8660 - 0.6061) / scale
        assert ratio[0] == pytest.approx(expected_ratio, abs=0.02)

    def test_degenerate_interval(self, sin_trace, sin_consts):
        # one grid step from x = 1: D = O(h^2), so the ratio is 1 - C2 = 0 up to O(h)
        ix = _pair(sin_trace, 1.0, 1.0)[0]
        ok, ratio, _ = _lemma31_worst(sin_trace, sin_consts.c2, ix, ix + 1)
        assert ok[0] and abs(ratio[0] - (1.0 - sin_consts.c2)) < 0.01

    def test_precondition_violation_raises(self):
        # three nodes a turn: every window of three nodes or more spans 4 pi/3
        # of phase, more than a half-circle, so it admits no omega.  With
        # seed 3 every drawn gap 20 r1 is at least 1.5, so every y lies two
        # nodes or more after its x
        xs = np.arange(40.0)
        tr = analytic_trace(xs, lambda x: np.exp(2j * np.pi * x / 3),
                            lambda x: 2j * np.pi / 3 * np.exp(2j * np.pi * x / 3), 1.0)
        ok = _lemma31_worst(tr, 1.0, np.array([0, 0, 5]), np.array([1, 2, 30]))[0]
        assert ok.tolist() == [True, False, False]
        assert (np.random.default_rng(3).random((5, 2))[:, 1] * 20.0 >= 1.5).all()
        with pytest.raises(NoEligiblePoints, match="no sampled pair admits an omega"):
            sample_lemma31(tr, constants_for(1.0, 1.0), 5, np.random.default_rng(3), 20.0)

    def test_signed_zeros_keep_a_real_trace_admissible(self):
        # u = +-1 with imaginary parts +0.0 and -0.0 mixed: each sign change
        # is a phase step of +pi or -pi by the sign of a zero.  Taken as
        # they come, two steps the same way apart would cut every arc of a
        # window holding both; omega = i admits every window
        k = np.arange(60)
        u = np.empty(len(k), dtype=complex)
        u.real, u.imag = (-1.0) ** k, np.where(k % 3 == 0, -0.0, 0.0)
        assert np.signbit(u.imag).any() and not u.imag.any()
        tr = analytic_trace(0.1 * k, lambda x: u, lambda x: np.zeros_like(u), 1.0)
        ix = np.arange(50)
        ok, ratio, _ = _lemma31_worst(tr, 0.5, ix, ix + 10)
        assert ok.all()
        assert np.all(np.abs(ratio - 0.5) < 1e-6)  # 1 - C2, as Re[-i D] = 0

    def test_fast_rotation_and_zero_data_warn_nothing(self, sin_trace, sin_consts):
        # exp(40ix) turns 0.4 rad a step, so only windows of a few nodes admit
        # an omega; the sin trace starts at u(0) = 0, a node the phases leave out
        fast, consts = _lemma31_case("fast_rotating")
        assert sin_trace.u[0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sample_lemma31(fast, consts, 400, np.random.default_rng(3))
            on_sin = sample_lemma31(sin_trace, sin_consts, 400, np.random.default_rng(4))
        assert 0 < out.points_checked < 100
        ref = _loop_sample_lemma31(fast, consts, 400, np.random.default_rng(3))
        _assert_same_sweep(out, *ref)
        # a real trace admits omega = i on every window (and no x drawn with
        # seed 4 is the last node)
        assert on_sin.points_checked == 400

    def test_randomized_sweep_no_violations(self):
        rng = np.random.default_rng(17)
        V = make_family("random_step", {"cells": 20, "low": -2, "high": 2, "seed": 23})
        consts_e = 2 + 1j
        tr = propagate_exact(V, consts_e, InitialData(0.0, 1.0, 0.1j),
                             V.support[1], 0.005)
        consts = constants_for(c1_sup(V).supremum, consts_e)
        out = sample_lemma31(tr, consts, 200, rng)
        assert out.passed
        assert out.points_checked == 200


class TestOutcomeInvariants:
    def test_pass_flag_consistency_enforced(self):
        with pytest.raises(ValueError):
            CheckOutcome("x", 1, 2.0, 0.0, True, 1e-6)
        with pytest.raises(ValueError):
            CheckOutcome("x", 0, 0.5, 0.0, True, 1e-6)

    def test_scaling_invariance(self, square_well):
        tr = propagate_exact(square_well, 2 + 1j, InitialData(0.0, 1.0, -0.3 + 0.2j),
                             3.0, 0.002)
        consts = constants_for(c1_sup(square_well).supremum, 2 + 1j)
        lam = 2.0 - 3.0j
        scaled = dataclasses.replace(tr, u=lam * tr.u, du=lam * tr.du)
        for check in (
            lambda t: check_derivative_bound(t, consts),
            lambda t: check_persistence(t, consts),
            lambda t: check_local_lp(t, consts, 2.0),
            lambda t: check_derivative_lp(t, consts, 1.0),
        ):
            a, b = check(tr), check(scaled)
            assert a.passed == b.passed
            assert a.worst_ratio == pytest.approx(b.worst_ratio, rel=1e-12)

    def test_reflection_symmetry(self, square_well):
        tr = propagate_exact(square_well, 1.0, InitialData(0.0, 0.4, 1.0), 3.0, 0.002)
        consts = constants_for(2.0, 1.0)
        refl_tr = SolutionTrace(-tr.xs[::-1], tr.u[::-1], -tr.du[::-1], tr.energy,
                                tr.method)
        for check in (
            lambda t: check_derivative_bound(t, consts),
            lambda t: check_local_lp(t, consts, 2.0),
        ):
            a, b = check(tr), check(refl_tr)
            assert a.worst_ratio == pytest.approx(b.worst_ratio, rel=1e-10)
            assert a.witness_x == pytest.approx(-b.witness_x, abs=1e-10)

    def test_refinement_stability(self, free_potential, sin_consts):
        ratios = []
        for step in (0.02, 0.01, 0.005):
            tr = propagate_exact(free_potential, 1.0, InitialData(0.0, 0.0, 1.0),
                                 20.0, step)
            ratios.append(check_derivative_bound(tr, sin_consts).worst_ratio)
        assert abs(ratios[1] - ratios[2]) <= 5e-3

    @pytest.mark.parametrize("case", ["random_step_complex", "decaying"])
    def test_shared_arrays_do_not_leak_between_checks(self, case):
        # the checks read |u|, |u'| and the per-p integrals that the trace
        # keeps: on a trace that earlier checks have read, each must report
        # what it reports on a fresh copy.  The decaying trace drowns most
        # of its windows, so the integrals are summed again from |u|^p
        if case == "decaying":
            xs = np.linspace(0.0, 40.0, 8001)
            trace = analytic_trace(xs, lambda x: np.exp((1j - 1) * x) * (2 + np.sin(5 * x)),
                                   lambda x: np.exp((1j - 1) * x) * ((1j - 1) * (2 + np.sin(5 * x))
                                                                     + 5 * np.cos(5 * x)), 1.0)
            consts = constants_for(0.0, 1.0)
        else:
            trace, consts = _random_step_trace()
        xs, u, du = trace.xs.copy(), trace.u.copy(), trace.du.copy()
        half = consts.k_radius + consts.delta
        window = (trace.xs[0] + half, trace.xs[-1] - half)
        checks = [
            lambda t: check_local_lp(t, consts, 1.0),
            lambda t: check_local_lp(t, consts, 2.0),
            lambda t: check_local_lp(t, consts, 1.5),
            lambda t: check_local_lp(t, consts, 1.0),
            lambda t: check_derivative_lp(t, consts, 2.0),
            lambda t: check_derivative_lp(t, consts, 1.0),
            lambda t: check_weighted(t, consts, 2.0, WeightSpec("exponential", rate=0.5), window),
            lambda t: check_persistence(t, consts),
        ]
        for check in checks:
            fresh = SolutionTrace(xs.copy(), u.copy(), du.copy(), trace.energy, trace.method)
            assert check(trace).to_dict() == check(fresh).to_dict()

    def test_global_lp_corollary(self, sin_trace, sin_consts):
        # integrated form of the derivative bound with unit weight
        out = check_weighted(sin_trace, sin_consts, 1.0,
                             WeightSpec("exponential", rate=0.0), (2.0, 18.0))
        assert out.worst_ratio <= 1.0


# Reference implementations: the per-point loops the window layer replaced,
# kept as oracles.  Max and min are exact, so the vectorized checks
# must reproduce them bit for bit.


def _loop_derivative_bound(trace, consts, tolerance=1e-6):
    xs = trace.xs
    au = np.abs(trace.u)
    adu = np.abs(trace.du)
    K = consts.k_radius
    C = consts.c_bound
    idx = np.arange(len(xs))[_interior_indices(xs, K)]
    lo = np.searchsorted(xs, xs[idx] - K, side="left")
    hi = np.searchsorted(xs, xs[idx] + K, side="right")
    worst = -np.inf
    worst_i = idx[0]
    for j, i in enumerate(idx):
        m = float(np.max(au[lo[j]:hi[j]]))
        ratio = adu[i] / (C * m) if m > 0 else np.inf
        if ratio > worst:
            worst, worst_i = ratio, i
    return _outcome("derivative_bound", idx.size, worst, xs[worst_i], tolerance)


def _loop_persistence(trace, consts, tolerance=1e-6):
    xs = trace.xs
    au = np.abs(trace.u)
    delta = consts.delta
    radial = np.real(np.conj(trace.u) * trace.du)
    floor = ZERO_BAND * float(np.max(au))
    eligible = np.flatnonzero(
        (au > floor) & (radial >= 0.0) & (xs + delta <= xs[-1] + 1e-12)
    )
    skipped_zeros = int(np.count_nonzero(au <= floor))
    min_ratio = np.inf
    worst_i = eligible[0]
    for i in eligible:
        j = np.searchsorted(xs, xs[i] + delta, side="left")
        r = float(np.min(au[i:j]) / au[i])
        if r < min_ratio:
            min_ratio, worst_i = r, i
    worst = 0.5 / min_ratio
    eff_tol = 0.5 / (0.5 - tolerance) - 1.0 if tolerance < 0.5 else np.inf
    notes = f"min_modulus_ratio={min_ratio:.6f}; near_zero_points_skipped={skipped_zeros}"
    return _outcome("persistence", eligible.size, worst, xs[worst_i], eff_tol, notes)


def _snap_index(xs, x):
    i = int(np.searchsorted(xs, x))
    if i == 0:
        return 0
    if i >= len(xs):
        return len(xs) - 1
    return i if abs(xs[i] - x) < abs(xs[i - 1] - x) else i - 1


def _loop_lemma31(trace, c2, ix, iy):
    """(admissible, ratio) of the core inequality at the pair (ix, iy), one
    node at a time: the arcs of phases that the nodes with |u| > eps admit,
    pi/2 (1 + eps/|u|) either side of their phase, intersected on the circle
    relative to the phase of u(x) (so both slivers that two opposite nodes
    leave are kept), and the least of Re[e^{-i phi} D] over each piece."""
    u, au = trace.u, np.abs(trace.u)
    eps = 1e-10 * float(np.max(au))
    ref = complex(u[ix]) / float(au[ix])
    turn = 2.0 * math.pi
    pieces = [(-math.pi, math.pi)]
    for t in range(ix, iy + 1):
        if au[t] <= eps:
            continue
        reach = math.pi / 2 * (1.0 + eps / float(au[t]))
        lo = (cmath.phase(complex(u[t]) * ref.conjugate()) - reach + math.pi) % turn - math.pi
        hi = lo + 2.0 * reach
        arcs = [(lo, hi)] if hi <= math.pi else [(lo, math.pi), (-math.pi, hi - turn)]
        pieces = [(max(a, c), min(b, d)) for a, b in pieces for c, d in arcs
                  if max(a, c) <= min(b, d)]
    if not pieces:
        return False, math.nan
    dx = float(trace.xs[iy] - trace.xs[ix])
    D = complex(u[iy] - u[ix] - dx * trace.du[ix]) * ref.conjugate()  # in the frame of u(x)
    least = math.inf
    for a, b in pieces:
        if (cmath.phase(D) + math.pi - a) % turn <= b - a:
            least = min(least, -abs(D))
        else:
            least = min(least, *(D.real * math.cos(p) + D.imag * math.sin(p) for p in (a, b)))
    M = float(np.max(au[ix:iy + 1]))
    return True, 1.0 - c2 - least / (M * dx * (dx + 1.0))


def _loop_sample_lemma31(trace, consts, n, rng, max_gap=1.5, tolerance=1e-6):
    """sample_lemma31 one pair at a time, each pair from rng.random(2); with
    the outcome, the x of every pair whose ratio is within rounding of the
    worst (ties broken by rounding, which differs between the two)."""
    xs = trace.xs
    au = np.abs(trace.u)
    good = np.flatnonzero(au > 1e-3 * float(np.max(au)))
    pairs = []  # (x, ratio) of the admissible pairs
    for _ in range(n):
        r0, r1 = rng.random(2).tolist()  # the pick and the gap
        ix = int(good[min(math.floor(r0 * len(good)), len(good) - 1)])
        if ix == len(xs) - 1:
            continue
        iy = max(_snap_index(xs, xs[ix] + max_gap * r1), ix + 1)
        ok, ratio = _loop_lemma31(trace, consts.c2, ix, iy)
        if ok:
            pairs.append((xs[ix], ratio))
    worst, worst_x = -np.inf, xs[good[0]]
    for x, ratio in pairs:
        if ratio > worst:
            worst, worst_x = ratio, x
    notes = f"accepted={len(pairs)}; attempts={n}"
    near = {x for x, ratio in pairs if ratio >= worst - 1e-12 * (1.0 + abs(worst))}
    return _outcome("lemma31_sweep", len(pairs), worst, worst_x, tolerance, notes), near


def _assert_same_sweep(got, ref, near):
    """The same outcome, the worst ratio up to rounding and the witness one
    of the pairs within rounding of it."""
    got, ref = got.to_dict(), ref.to_dict()
    assert got.pop("worst_ratio") == pytest.approx(ref.pop("worst_ratio"), rel=1e-12, abs=1e-12)
    assert got.pop("witness_x") in near
    ref.pop("witness_x")
    assert got == ref


def _scan_lemma31(trace, c2, ix, iy, angles=4096):
    """The largest ratio over `angles` equally spaced phi whose omega =
    e^{i phi} passes the node-level hypothesis Re[conj(omega) u] >= -1e-10
    max|u| on the nodes of [x, y], or -inf where none does."""
    u, au, xs = trace.u, np.abs(trace.u), trace.xs
    phi = 2.0 * np.pi * np.arange(angles) / angles
    rot = np.stack([np.cos(phi), np.sin(phi)], axis=1)  # Re[e^{-i phi} z] = rot @ (Re z, Im z)
    window = u[ix:iy + 1]
    ok = np.min(rot @ np.stack([window.real, window.imag]), axis=1) >= -1e-10 * np.max(au)
    dx = xs[iy] - xs[ix]
    D = u[iy] - u[ix] - dx * trace.du[ix]
    M = np.max(au[ix:iy + 1])
    ratio = 1.0 - c2 - rot @ np.array([D.real, D.imag]) / (M * dx * (dx + 1.0))
    return float(np.max(ratio[ok], initial=-np.inf))


def _assert_closed_form_is_worst(trace, c2, ix, iy):
    """At every pair the closed form is at least the scan's worst ratio (up
    to rounding), admits the pair wherever the scan does, and is attained at
    its phi, which the tolerance arc admits: Re[e^{-i phi} u] >= -(pi/2) eps
    at the nodes."""
    xs, u, au = trace.xs, trace.u, np.abs(trace.u)
    ok, ratio, phi = _lemma31_worst(trace, c2, ix, iy)
    for k, (a, b) in enumerate(zip(ix.tolist(), iy.tolist())):
        scanned = _scan_lemma31(trace, c2, a, b)
        assert ok[k] or scanned == -np.inf
        if not ok[k]:
            continue
        assert scanned <= ratio[k] + 1e-12 * (1.0 + abs(ratio[k]))
        w = np.exp(-1j * phi[k])
        assert np.min((w * u[a:b + 1]).real) >= -2e-10 * np.max(au)
        dx = xs[b] - xs[a]
        at_phi = 1.0 - c2 - (w * (u[b] - u[a] - dx * trace.du[a])).real / (
            np.max(au[a:b + 1]) * dx * (dx + 1.0))
        assert at_phi == pytest.approx(ratio[k], rel=1e-12, abs=1e-12)
    return ok


def _random_pairs(trace, n, seed, longest=300):
    """n pairs of nodes, x where |u| > 1e-3 max|u|, up to `longest` nodes apart."""
    rng = np.random.default_rng(seed)
    au = np.abs(trace.u)
    good = np.flatnonzero(au[:-1] > 1e-3 * np.max(au))
    ix = rng.choice(good, n)
    return ix, np.minimum(ix + rng.integers(1, longest, n), len(au) - 1)


def _random_step_trace():
    V = make_family("random_step", {"cells": 20, "low": -3, "high": 3, "seed": 31})
    E = 2 + 1j
    tr = propagate_exact(V, E, InitialData(0.0, 1.0, -0.4 + 0.3j), V.support[1], 0.002)
    return tr, constants_for(c1_sup(V).supremum, E)


def _spike_lattice_trace():
    V = make_family("spike_lattice",
                    {"g": 3.7, "period": 1.0, "cap": 100.0, "cell": 1e-3, "span": 5.0})
    tr = propagate_exact(V, 1.0, InitialData(V.support[0], 0.8, 0.2), V.support[1], 0.002)
    return tr, constants_for(c1_sup(V).supremum, 1.0)


def _sampler_trace(name):
    """Small traces for the sampler oracle: low acceptance (a rotating phase),
    almost none (a fast rotation), none at all (a sign flip at every node),
    and a short trace whose last node is a usable x (it draws no phase)."""
    if name == "short":
        xs = np.linspace(0.0, 1.0, 6)
        return analytic_trace(xs, lambda x: 1.0 + x, np.ones_like, 0.0), constants_for(1.0, 0.0)
    if name == "sign_flips":
        xs = np.linspace(0.0, 5.0, 51)
        return (analytic_trace(xs, lambda x: (-1.0) ** np.arange(len(x)), np.zeros_like, 0.0),
                constants_for(1.0, 0.0))
    k = {"rotating": 4.0, "fast_rotating": 40.0}[name]
    xs = np.linspace(0.0, 10.0, 1001)
    return (analytic_trace(xs, lambda x: np.exp(1j * k * x), lambda x: 1j * k * np.exp(1j * k * x),
                           k * k), constants_for(0.0, k * k))


_SAMPLER_TRACES = {name: _sampler_trace(name)
                   for name in ("short", "sign_flips", "rotating", "fast_rotating")}


def _zero_node_trace():
    """u = (x - 5) e^{0.3ix}: complex, and exactly 0 at the node x = 5."""
    xs = np.linspace(0.0, 10.0, 1001)
    return (analytic_trace(xs, lambda x: (x - 5.0) * np.exp(0.3j * x),
                           lambda x: (1.0 + 0.3j * (x - 5.0)) * np.exp(0.3j * x), 0.09),
            constants_for(0.0, 0.09))


@functools.cache
def _lemma31_case(name):
    """(trace, constants) of the lemma31 oracle tests, by name."""
    if name == "sin":
        V = PiecewisePotential((0.0, 20.0), (0.0,))
        return (propagate_exact(V, 1.0, InitialData(0.0, 0.0, 1.0), 20.0, 0.005),
                constants_for(0.0, 1.0))
    if name == "harmonic":
        xs = np.linspace(-6.0, 6.0, 6001)
        return (analytic_trace(xs, lambda x: np.exp(-x * x / 2.0),
                               lambda x: -x * np.exp(-x * x / 2.0), 1.0), constants_for(0.0, 1.0))
    if name == "zero_node":
        return _zero_node_trace()
    if name == "random_step_complex":
        return _random_step_trace()
    if name == "spike_lattice":
        return _spike_lattice_trace()
    return _SAMPLER_TRACES[name]


@pytest.fixture(params=["sin", "harmonic", "random_step_complex", "spike_lattice", "constant"])
def oracle_case(request, sin_trace, sin_consts, harmonic_trace):
    if request.param == "sin":
        return sin_trace, sin_consts
    if request.param == "constant":
        # every ratio ties exactly, so the witness must be the first point
        xs = np.linspace(0.0, 10.0, 2001)
        tr = analytic_trace(xs, lambda x: np.full_like(x, 2.0), np.zeros_like, 0.0)
        return tr, constants_for(1.0, 0.0)
    if request.param == "harmonic":
        return harmonic_trace, constants_for(0.0, 1.0)
    if request.param == "random_step_complex":
        return _random_step_trace()
    return _spike_lattice_trace()


def _loop_lp_check(trace, consts, p, derivative, tolerance=1e-6):
    """local_lp or derivative_lp one point at a time: a search for the
    outward-snapped window, a difference of the cumulative integral, and
    np.trapezoid on the window when that drowns."""
    xs = trace.xs
    au = np.abs(trace.u)
    half = consts.k_radius + consts.delta if derivative else consts.delta
    c = consts.c_bound if derivative else 1.0
    powers = (np.abs(trace.du) if derivative else au) ** p
    fvals = au ** p
    cum = cumtrapz(fvals, xs)
    factor = 2.0 ** p * c ** p / consts.delta
    idx = np.arange(len(xs))[_interior_indices(xs, half)]
    worst, worst_i = -np.inf, idx[0]
    for i in idx:
        i0 = max(int(np.searchsorted(xs, xs[i] - half, side="right")) - 1, 0)
        i1 = min(int(np.searchsorted(xs, xs[i] + half, side="left")), len(xs) - 1)
        integral = cum[i1] - cum[i0]
        if integral <= 1e-9 * max(cum[-1], 0.0):
            integral = np.trapezoid(fvals[i0:i1 + 1], xs[i0:i1 + 1])
        rhs = factor * integral
        ratio = powers[i] / rhs if rhs > 0 else np.inf
        if ratio > worst:
            worst, worst_i = ratio, i
    name = "derivative_lp" if derivative else "local_lp"
    return _outcome(f"{name}_p{p:g}", idx.size, worst, xs[worst_i], tolerance)


def _copy(trace):
    """The trace with nothing kept yet."""
    return SolutionTrace(trace.xs, trace.u, trace.du, trace.energy, trace.method)


def _loop_weighted(trace, consts, p, weight, window, tolerance=1e-6):
    """check_weighted with scalar searches: the LHS window snapped inward,
    the RHS window outward."""
    xs = trace.xs
    a, b = window
    half = consts.k_radius + consts.delta
    bound = weight.admissibility_bound(half)
    w = weight.values(xs)
    cum_u = cumtrapz(np.abs(trace.u) ** p * w, xs)
    cum_du = cumtrapz(np.abs(trace.du) ** p * w, xs)
    i0 = int(np.searchsorted(xs, a, side="left"))
    i1 = int(np.searchsorted(xs, b, side="right")) - 1
    j0 = max(int(np.searchsorted(xs, a - half, side="right")) - 1, 0)
    j1 = min(int(np.searchsorted(xs, b + half, side="left")), len(xs) - 1)
    lhs = float(cum_du[i1] - cum_du[i0])
    factor = (2.0 ** p * consts.c_bound ** p / consts.delta) * bound * 2.0 * half
    rhs = factor * float(cum_u[j1] - cum_u[j0])
    ratio = lhs / rhs if rhs > 0 else np.inf
    notes = f"admissibility_bound={bound:.6g}; p={p:g}; window=({a},{b})"
    return _outcome(f"weighted_p{p:g}", len(xs), ratio, a, tolerance, notes)


class TestLoopOracles:
    def test_derivative_bound_equals_loop(self, oracle_case, monkeypatch):
        # with the ratios bounded first and without
        trace, consts = oracle_case
        want = _loop_derivative_bound(trace, consts).to_dict()
        for prune in (0, 10 ** 9):
            monkeypatch.setattr(verifier, "PRUNE_NODES", prune)
            assert check_derivative_bound(_copy(trace), consts).to_dict() == want

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("check, derivative", [(check_local_lp, False),
                                                   (check_derivative_lp, True)])
    def test_lp_check_equals_loop(self, oracle_case, monkeypatch, check, derivative, p):
        # with the ratios bounded first and without; on the constant case
        # every ratio ties, so the witness must be the first interior point
        trace, consts = oracle_case
        want = _loop_lp_check(trace, consts, p, derivative).to_dict()
        for prune in (0, 10 ** 9):
            monkeypatch.setattr(verifier, "PRUNE_NODES", prune)
            assert check(_copy(trace), consts, p).to_dict() == want

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("weight", [WeightSpec("exponential", rate=0.7),
                                        WeightSpec("polynomial", exponent=-1.5)])
    def test_weighted_equals_loop(self, oracle_case, weight, p):
        # window ends off the grid, so each snap direction matters
        trace, consts = oracle_case
        xs, half = trace.xs, consts.k_radius + consts.delta
        window = (xs[0] + half + 0.1234, xs[-1] - half - 0.0567)
        want = _loop_weighted(trace, consts, p, weight, window).to_dict()
        assert check_weighted(_copy(trace), consts, p, weight, window).to_dict() == want

    def test_persistence_equals_loop(self, oracle_case):
        trace, consts = oracle_case
        got = check_persistence(trace, consts).to_dict()
        assert got == _loop_persistence(trace, consts).to_dict()

    def test_sample_lemma31_equals_loop(self, oracle_case):
        trace, consts = oracle_case
        got = sample_lemma31(trace, consts, 200, np.random.default_rng(11))
        _assert_same_sweep(got, *_loop_sample_lemma31(trace, consts, 200,
                                                      np.random.default_rng(11)))

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(_SAMPLER_TRACES)), n=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1), max_gap=st.floats(1e-3, 3.0))
    def test_sample_lemma31_equals_loop_random(self, name, n, seed, max_gap):
        trace, consts = _SAMPLER_TRACES[name]
        try:
            ref = _loop_sample_lemma31(trace, consts, n, np.random.default_rng(seed), max_gap)
        except ValueError:  # the loop found no admissible pair
            with pytest.raises(NoEligiblePoints):
                sample_lemma31(trace, consts, n, np.random.default_rng(seed), max_gap)
            return
        got = sample_lemma31(trace, consts, n, np.random.default_rng(seed), max_gap)
        _assert_same_sweep(got, *ref)

    def test_sample_lemma31_first_of_ties(self):
        # u constant, so D = 0, and C2 so small that 1 - C2 rounds to 1:
        # every pair's ratio is exactly 1, and the witness is the x of the
        # first pair drawn
        xs = np.linspace(0.0, 10.0, 2001)
        tr = analytic_trace(xs, lambda x: np.full_like(x, 2.0), np.zeros_like, 0.0)
        consts = constants_for(0.0, 1e-30)
        got = sample_lemma31(tr, consts, 400, np.random.default_rng(11))
        first = min(int(np.random.default_rng(11).random(2)[0] * len(xs)), len(xs) - 1)
        assert first < len(xs) - 1  # the first draw makes a pair
        assert got.worst_ratio == 1.0 and got.points_checked == 400
        assert got.witness_x == xs[first]
        ref, near = _loop_sample_lemma31(tr, consts, 400, np.random.default_rng(11))
        assert got.to_dict() == ref.to_dict() and len(near) > 1

    @settings(max_examples=100, deadline=None)
    @given(xs=arrays(np.float64, st.integers(1, 40), elements=st.floats(-10, 10), unique=True),
           extra=st.lists(st.floats(-20, 20), max_size=10))
    def test_snap_indices_equal_scalar_snap(self, xs, extra):
        xs = np.sort(xs)
        # nodes, midpoints (ties go left), points outside, random points
        x = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2, [xs[0] - 1.0, xs[-1] + 1.0], extra])
        assert _snap_indices(xs, x).tolist() == [_snap_index(xs, float(v)) for v in x]

    def test_snap_indices_equal_unsorted_search(self):
        # the keys in draw order, searched one by one as before they were
        # sorted: random keys, keys on nodes and midpoints (ties go left),
        # repeated keys and keys outside the grid on both sides
        rng = np.random.default_rng(5)
        xs = np.cumsum(rng.uniform(1e-3, 1.0, 4001))
        x = np.concatenate([rng.uniform(xs[0] - 2.0, xs[-1] + 2.0, 3000), xs[::7],
                            (xs[1::5] + xs[:-1:5]) / 2, [xs[0] - 5.0, xs[-1] + 5.0] * 3])
        x = np.concatenate([x, x[:500]])[rng.permutation(len(x) + 500)]
        i = np.searchsorted(xs, x)
        right, left = np.minimum(i, len(xs) - 1), np.maximum(i - 1, 0)
        expected = np.where(np.abs(xs[right] - x) < np.abs(xs[left] - x), right, left)
        assert np.array_equal(_snap_indices(xs, x), expected)

    def test_principal_step_equals_mod(self):
        # the wrap points -pi, 0 and pi of d, and pi +- 2 pi, with their
        # float neighbours, and random steps of two phases in [-pi, pi]
        two_pi = 2.0 * math.pi
        wraps = np.array([-two_pi, -math.pi, 0.0, math.pi, two_pi])
        d = np.concatenate([wraps, -wraps, np.nextafter(wraps, np.inf),
                            np.nextafter(wraps, -np.inf), [-0.0, 5e-324, -5e-324],
                            np.random.default_rng(9).uniform(-two_pi, two_pi, 100_000)])
        expected = np.mod(d + np.pi, two_pi) - np.pi
        got = _principal(d.copy())
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_lemma31_equals_loop(self, oracle_case):
        # the closed form against a loop over 4096 phases of omega
        trace, consts = oracle_case
        ok = _assert_closed_form_is_worst(trace, consts.c2, *_random_pairs(trace, 30, 5))
        assert ok.any()

    def test_lemma31_equals_loop_zero_node(self):
        # windows around the node where u = 0, which admits every phase, and
        # random ones
        trace, consts = _zero_node_trace()
        ix, iy = _random_pairs(trace, 30, 5)
        ix, iy = np.append(ix, [499, 495, 400]), np.append(iy, [501, 505, 600])
        assert trace.u[500] == 0.0
        ok = _assert_closed_form_is_worst(trace, consts.c2, ix, iy)
        assert ok[-3:].all()


_WINDOW_CHECKS = {
    "derivative_bound": check_derivative_bound,
    "persistence": check_persistence,
    "local_lp_p1": lambda t, c: check_local_lp(t, c, 1.0),
    "local_lp_p2": lambda t, c: check_local_lp(t, c, 2.0),
    "derivative_lp_p1": lambda t, c: check_derivative_lp(t, c, 1.0),
    "derivative_lp_p2": lambda t, c: check_derivative_lp(t, c, 2.0),
}


def _window_outcomes(trace, consts):
    """Each window check's to_dict() on a fresh copy of trace, as its repr
    (so that a NaN ratio equals itself), or the type and message of what it
    raised."""
    outcomes = {}
    for name, check in _WINDOW_CHECKS.items():
        try:
            outcomes[name] = repr(check(_copy(trace), consts).to_dict())
        except (TraceTooShort, NoEligiblePoints) as err:
            outcomes[name] = (type(err), str(err))
    return outcomes


def _assert_pruning_changes_nothing(trace, consts):
    """The outcomes with the size rule forced above and below the trace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "PRUNE_NODES", 10 ** 9)
        exact = _window_outcomes(trace, consts)
        mp.setattr(verifier, "PRUNE_NODES", 0)
        assert _window_outcomes(trace, consts) == exact


@st.composite
def _piecewise_uniform_case(draw):
    """A trace on a grid of uniform runs with their own steps, mostly dyadic
    so that x +- r often lands exactly on a node, and constants whose radii
    are multiples of the steps or arbitrary."""
    xs = [draw(st.sampled_from([0.0, -3.0, 1.5]))]
    for _ in range(draw(st.integers(1, 4))):
        h = draw(st.sampled_from([2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 3 * 2.0 ** -7, 0.01]))
        xs.extend(xs[-1] + h * np.arange(1, draw(st.integers(1, 300)) + 1))
    xs = np.array(xs)
    span = xs[-1] - xs[0]
    radius = st.one_of(st.integers(1, 256).map(lambda j: j * 2.0 ** -6),
                       st.floats(1e-3, max(span, 2e-3)))
    consts = SimpleNamespace(k_radius=draw(radius), delta=draw(radius),
                             c_bound=draw(st.floats(0.1, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["smooth", "random", "decaying", "constant"]))
    if kind == "smooth":
        a, b = rng.uniform(0.5, 5.0, 2)
        u = np.exp(1j * a * xs) * (1.5 + np.sin(b * xs))
        du = np.gradient(u, xs)
    elif kind == "random":
        u, du = rng.normal(size=(2, len(xs))) + 1j * rng.normal(size=(2, len(xs)))
    elif kind == "decaying":  # deep tails: windows drown in the cumulative sum
        rate = rng.uniform(5.0, 40.0)
        u = np.exp(-rate * (xs - xs[0]))
        du = -rate * u
    else:  # every ratio ties
        u, du = np.full(len(xs), 2.0), np.ones(len(xs))
    return analytic_trace(xs, lambda x: u, lambda x: du, 1.0), consts


class TestWindowPruning:
    @settings(max_examples=150, deadline=None)
    @given(case=_piecewise_uniform_case())
    def test_size_rule_changes_no_outcome(self, case):
        _assert_pruning_changes_nothing(*case)

    def test_deep_tail_takes_the_drowned_path(self):
        xs = np.linspace(0.0, 30.0, 6001)
        trace = analytic_trace(xs, lambda x: np.exp(-20.0 * x), lambda x: -20.0 * np.exp(-20.0 * x),
                               1.0)
        consts = constants_for(0.0, 1.0)
        cum = trace.cum_abs_u(2.0)
        lo, hi = trace.window_bounds(consts.k_radius + consts.delta)
        assert np.count_nonzero(cum[np.minimum(hi, len(xs) - 1)] - cum[lo] <= 1e-9 * cum[-1]) > 1000
        _assert_pruning_changes_nothing(trace, consts)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_rounded_tail_is_never_pruned(self, p):
        # past x = 4 every trapezoid term of |u|^p is 0.6 ulp of the running
        # sum, so each add rounds up to one ulp and the cumulative integral
        # overstates these windows.  They drown, and their exact sums give
        # the worst ratio, above the bright part's 0.8 of it: a bound taken
        # from the cumulative integral there would prune the worst node
        xs = np.linspace(0.0, 10.0, 10001)
        tail = (0.6 * np.spacing(4.0) / (xs[1] - xs[0])) ** (1 / p)
        u = np.where(xs <= 4.0, 1.0, tail)
        du = np.where(xs <= 2.0, 10 * 0.8 ** (1 / p), np.where(xs <= 4.0, 0.0, 10 * tail))
        trace = analytic_trace(xs, lambda x: u, lambda x: du, 1.0)
        consts = constants_for(0.0, 1.0)
        assert check_derivative_lp(_copy(trace), consts, p).witness_x > 4.0
        _assert_pruning_changes_nothing(trace, consts)

    @pytest.mark.parametrize("case", ["sin", "random_step_complex"])
    def test_few_exact_windows(self, monkeypatch, sin_trace, sin_consts, case):
        # past PRUNE_NODES only the nodes whose bound reaches the worst ratio
        # search their windows
        trace, consts = (sin_trace, sin_consts) if case == "sin" else _random_step_trace()
        searched = []
        inner_extreme, inner_windows = verifier._window_extreme, verifier.windows
        monkeypatch.setattr(verifier, "_window_extreme",
                            lambda a, lo, hi, op: searched.append(len(lo)) or inner_extreme(a, lo, hi, op))
        monkeypatch.setattr(verifier, "windows", lambda xs, a, b, outward: searched.append(len(a))
                            or inner_windows(xs, a, b, outward))
        monkeypatch.setattr(verifier, "PRUNE_NODES", 0)
        n = len(trace.xs)
        for check in (check_derivative_bound, lambda t, c: check_derivative_lp(t, c, 2.0)):
            searched.clear()
            check(_copy(trace), consts)
            assert searched[0] == 1 and sum(searched) < n // 10

    def test_persistence_and_local_lp_share_one_delta_table(self, monkeypatch):
        trace, consts = _random_step_trace()
        seen = []
        inner = SolutionTrace.window_bounds

        def spy(self, r):
            seen.append((r, inner(self, r)))
            return seen[-1][1]

        monkeypatch.setattr(SolutionTrace, "window_bounds", spy)
        check_persistence(trace, consts)
        check_local_lp(trace, consts, 1.0)
        check_local_lp(trace, consts, 2.0)
        assert [r for r, _ in seen] == [consts.delta] * 3
        assert all(bounds is seen[0][1] for _, bounds in seen)
        assert list(trace._windows) == [consts.delta]  # searched once
        assert all(b.dtype == np.int32 and len(b) == len(trace.xs) for b in seen[0][1])


def _old_lemma31_hypothesis(u, du, au, scale_u, om_r, om_i, ix, iy, need):
    """The hypothesis test of the former sampler, which drew omega: with a
    scan of every candidate window, verbatim.  Returns (zero, ok, terms)."""
    abs_om = np.hypot(om_r, om_i)
    conj_om = np.empty(len(om_r), dtype=complex)
    conj_om.real, conj_om.imag = om_r, -om_i
    g_x = np.real(conj_om * u[ix])
    g_y = np.real(conj_om * u[iy])
    du_x = om_r * du[ix].real + om_i * du[ix].imag
    thr = -1e-10 * abs_om * scale_u
    zero = au[ix] <= 1e-13 * scale_u
    ok = np.zeros(len(om_r), dtype=bool)
    cand = np.flatnonzero(~zero & ~(g_x < thr) & ~(g_y < thr))
    found = 0
    for k, w, a, b, t in zip(cand.tolist(), conj_om[cand], ix[cand].tolist(),
                             iy[cand].tolist(), thr[cand].tolist()):
        if not np.minimum.reduce((w * u[a:b + 1]).real) < t:
            ok[k] = True
            found += 1
            if found == need:
                break
    return zero, ok, (abs_om, g_x, g_y, du_x)


def _old_lemma31_ratios(xs, au, c2, ix, iy, abs_omega, g_x, g_y, du_x):
    """The former sampler's ratio of each accepted (omega, x, y), verbatim."""
    M = _window_extreme(au, ix, iy + 1, np.maximum)  # M >= |u(x)| > 0
    dx = xs[iy] - xs[ix]
    penalty = c2 * dx * (dx + 1.0) * abs_omega * M
    rhs = g_x + dx * du_x - penalty
    scale = abs_omega * M * np.maximum(dx * (dx + 1.0), 1e-12)
    slack = g_y - rhs
    return 1.0 - slack / scale, slack, scale


def _assert_closed_form_bounds_old(trace, c2, om, ix, iy, need=10 ** 9):
    """Every (omega, x, y) that the former hypothesis accepts, up to its
    need-th, is admissible in the closed form, with a ratio at most the
    closed form's, up to rounding.  Returns the acceptances."""
    u, au = trace.u, np.abs(trace.u)
    zero, ok, terms = _old_lemma31_hypothesis(u, trace.du, au, float(np.max(au)), om.real.copy(),
                                              om.imag.copy(), ix, iy, need)
    old = _old_lemma31_ratios(trace.xs, au, c2, ix[ok], iy[ok], *(t[ok] for t in terms))[0]
    admissible, ratio, _ = _lemma31_worst(trace, c2, ix[ok], iy[ok])
    assert admissible.all()
    assert np.all(old <= ratio + 1e-12 * (1.0 + np.abs(ratio)))
    return ok


@pytest.fixture
def table_arrays(monkeypatch):
    """The arrays that sparse tables are built over while the test runs."""
    seen = []
    inner = verifier._table_extreme

    def spy(a, lo, hi, op):
        seen.append(a)
        return inner(a, lo, hi, op)

    monkeypatch.setattr(verifier, "_table_extreme", spy)
    return seen


class TestLemma31Certificate:
    @pytest.mark.parametrize("need", [1, 100, 10 ** 6])
    def test_complex_trace(self, need):
        # a phase swinging by 1.2 rad, and omega turned up to 1 rad away from
        # it: the former hypothesis rejects some windows for their omega.
        # The closed form bounds every acceptance up to the need-th, and
        # admits every window, since the phase spans less than pi
        n = 3000
        x = 0.01 * np.arange(n)
        u = (1.0 + 0.3 * np.sin(x)) * np.exp(1.2j * np.sin(2.0 * x))
        trace = analytic_trace(x, lambda _: u, lambda _: np.roll(u, 1) * (0.5 - 0.25j), 1.0)
        rng = np.random.default_rng(1)
        lo = rng.integers(0, n - 250, 800)
        hi = lo + rng.integers(100, 250, 800)
        om = np.exp(1j * rng.uniform(-1.0, 1.0, 800)) * u[lo] / np.abs(u[lo])
        ok = _assert_closed_form_bounds_old(trace, 1.0, om, lo, hi, need)
        assert np.count_nonzero(ok) == min(need, np.count_nonzero(
            _old_lemma31_hypothesis(u, trace.du, np.abs(u), float(np.max(np.abs(u))),
                                    om.real.copy(), om.imag.copy(), lo, hi, 10 ** 9)[1]))
        if need == 10 ** 6:
            assert 0 < np.count_nonzero(ok) < len(lo)
        assert _lemma31_worst(trace, 1.0, lo, hi)[0].all()

    @pytest.mark.parametrize("name, n, tables", [
        ("spike_lattice", 400, True), ("random_step_complex", 400, True),
        ("spike_lattice", 3, False), ("random_step_complex", 3, False),
    ])
    def test_sample_lemma31_equals_loop(self, table_arrays, name, n, tables):
        # many windows read sparse tables over the trace; a few are reduced
        # in place
        trace, consts = _lemma31_case(name)
        got = sample_lemma31(trace, consts, n, np.random.default_rng(23))
        _assert_same_sweep(got, *_loop_sample_lemma31(trace, consts, n,
                                                      np.random.default_rng(23)))
        assert any(np.shares_memory(a, trace.abs_u) for a in table_arrays) == tables

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["sin", "harmonic", "random_step_complex", "spike_lattice",
                                 "zero_node", "rotating", "fast_rotating"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_bounds_every_accepted_omega(self, name, seed):
        # the former sampler's omega, within 0.5 rad of the phase of u(x),
        # and omega of any phase, eight per pair
        trace, consts = _lemma31_case(name)
        ix, iy = _random_pairs(trace, 40, seed, longest=150)
        ix, iy = np.repeat(ix, 8), np.repeat(iy, 8)
        rng = np.random.default_rng(seed)
        turn = np.where(np.arange(len(ix)) % 2, rng.uniform(-0.5, 0.5, len(ix)),
                        rng.uniform(-np.pi, np.pi, len(ix)))
        om = np.exp(1j * turn) * trace.u[ix] / np.abs(trace.u[ix])
        _assert_closed_form_bounds_old(trace, consts.c2, om, ix, iy)


@st.composite
def _windows(draw):
    """An array and windows over it: random ones, plus the edge cases of the
    sparse table (length 1, powers of two and one past them, windows ending
    at len(a), the whole array)."""
    n = draw(st.integers(1, 300))
    a = draw(arrays(np.float64, n, elements=st.floats(allow_nan=False)
                    | st.sampled_from([0.0, -0.0, 1.0])))
    lengths = [1, n] + [L for k in range(9) for L in (1 << k, (1 << k) + 1) if L <= n]
    lengths += draw(st.lists(st.integers(1, n), max_size=20))
    lo, hi = [], []
    for L in lengths:
        start = draw(st.integers(0, n - L))
        lo += [start, n - L]
        hi += [start + L, n]
    return a, np.array(lo), np.array(hi)


class TestWindowExtreme:
    @settings(max_examples=200, deadline=None)
    @given(_windows())
    def test_equals_brute_force(self, case):
        a, lo, hi = case
        # all the windows; those of one shared level; and those of every
        # other level that holds any, so that levels between them are built
        # but hold no query.  Through either path and the choice between them
        level = np.frexp(hi - lo)[1] - 1
        held = np.unique(level)
        for sel in (level >= 0, level == held[-1], np.isin(level, held[::2])):
            for op, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
                want = np.array([reduce(a[i:j]) for i, j in zip(lo[sel], hi[sel])])
                for extreme in (_window_extreme, _table_extreme, _reduceat_extreme):
                    got = extreme(a, lo[sel], hi[sel], op)
                    assert got.dtype == a.dtype
                    assert np.array_equal(got, want)
                    if not np.any(np.signbit(a) & (a == 0.0)):  # no -0.0: bitwise too
                        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo, hi", [
        ([40, 3, 17, 3, 90], [60, 9, 18, 100, 91]),  # unsorted and overlapping
        ([0, 5, 99, 5], [1, 6, 100, 6]),  # single nodes, the last one among them
        ([10, 0, 60, 99], [100, 100, 100, 100]),  # ending at len(a)
        ([], []),  # no window
    ])
    def test_reduceat_equals_table(self, lo, hi):
        a = np.random.default_rng(0).normal(size=100)
        lo, hi = np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)
        for op in (np.maximum, np.minimum):
            want = _table_extreme(a, lo, hi, op)
            assert want.dtype == a.dtype and len(want) == len(lo)
            assert _reduceat_extreme(a, lo, hi, op).tobytes() == want.tobytes()
            assert _window_extreme(a, lo, hi, op).tobytes() == want.tobytes()

    def test_few_short_windows_read_in_place(self, monkeypatch):
        # two windows of 45 elements over 1000 read fewer than the 5 levels
        # of 1000 a table would build; 225 such windows read more
        a = np.arange(1000.0)
        for path in ("_table_extreme", "_reduceat_extreme"):
            with monkeypatch.context() as mp:
                mp.setattr(verifier, path, None)  # calling the other path fails
                lo = np.arange(0, 900, 450 if path == "_table_extreme" else 4)
                got = _window_extreme(a, lo, lo + 45, np.maximum)
                assert got.tolist() == (lo + 44).tolist()

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            _window_extreme(np.arange(4.0), [1], [1], np.maximum)
