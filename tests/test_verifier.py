import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schro1d import (
    InitialData,
    NoEligiblePoints,
    PreconditionFailed,
    TraceTooShort,
    WeightSpec,
    analytic_trace,
    c1_sup,
    check_decay,
    check_derivative_bound,
    check_derivative_lp,
    check_lemma31,
    check_local_lp,
    check_persistence,
    check_weighted,
    constants_for,
    propagate_exact,
    sample_lemma31,
)
from schro1d import verifier
from schro1d.errors import InadmissibleWeight
from schro1d.potential import make_family
from schro1d.verifier import (
    ZERO_BAND,
    CheckOutcome,
    _draw_attempts,
    _grid_spacing,
    _interior_indices,
    _outcome,
    _lemma31_hypothesis,
    _snap_indices,
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
        got = _window_integrals(xs, f, idx, 1.1)
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


def _loop_admissibility_bound(xs, ws, h):
    """The per-sample loop the custom bound replaced, kept as its oracle."""
    best = 1.0
    for i in range(len(xs)):
        sel = np.abs(xs - xs[i]) <= h
        best = max(best, float(ws[i] / np.min(ws[sel])))
    return best


@st.composite
def _custom_weights(draw):
    """Increasing abscissae (random, or a grid whose spacings make |x - y| = h
    round either way), positive weights (random or monotone) and a radius,
    often one of the differences itself."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        xs = np.unique(draw(arrays(np.float64, n, elements=st.floats(-50, 50))))
    else:
        start = draw(st.floats(-50, 50))
        step = draw(st.sampled_from([0.1, 0.3, 1e-3, 0.7, 1.0 / 3.0]))
        xs = np.unique(start + step * np.arange(n))
    ws = draw(st.sampled_from([None, 1.0, -1.0]))
    if ws is None:
        ws = np.asarray(draw(st.lists(st.floats(1e-6, 1e6), min_size=len(xs), max_size=len(xs))))
    else:  # monotone: the ends of each window set the bound
        ws = np.exp(ws * (xs - xs[0]))
    i, j = draw(st.integers(0, len(xs) - 1)), draw(st.integers(0, len(xs) - 1))
    h = draw(st.sampled_from([abs(float(xs[j] - xs[i])), float(xs[j] - xs[i]) ** 2])
             | st.floats(0.0, 120.0))
    return xs, ws, h


class TestWeighted:
    def test_unit_weight_reduces_to_integrated_bound(self, sin_trace, sin_consts):
        w = WeightSpec.exponential(0.0)
        assert w.admissibility_bound(1.366) == 1.0
        out = check_weighted(sin_trace, sin_consts, 2.0, w, (2.0, 18.0))
        assert out.passed
        assert out.worst_ratio <= 1.0

    def test_exponential_weight_bound_closed_form(self, sin_consts):
        w = WeightSpec.exponential(1.0)
        h = sin_consts.k_radius + sin_consts.delta  # ~1.366
        assert w.admissibility_bound(h) == pytest.approx(math.exp(h), rel=1e-14)
        assert w.admissibility_bound(1.366) == pytest.approx(3.920, abs=2e-3)

    def test_polynomial_weight_bound_vs_grid_oracle(self):
        w = WeightSpec.polynomial(2.0)
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
                             WeightSpec.exponential(0.5), (2.0, 18.0))
        assert out.passed

    @pytest.mark.parametrize("window", [(0.01, 0.05), (0.0, 0.05)])
    def test_window_without_two_nodes_is_too_short(self, window):
        # on a 0.1 grid these windows hold one node and none: the inward
        # snap used to give an LHS of 0 or below, and so a spurious pass
        tr = analytic_trace(np.linspace(-20.0, 20.0, 401), np.sin, np.cos, 1.0)
        with pytest.raises(TraceTooShort):
            check_weighted(tr, constants_for(0.0, 1.0), 2.0, WeightSpec.exponential(0.5),
                           window)

    def test_custom_weight_rejects_nonpositive(self):
        with pytest.raises(InadmissibleWeight):
            WeightSpec.from_samples([0.0, 1.0], [1.0, -1.0])

    @pytest.mark.parametrize("xs", [[1.0, 0.0], [0.0, 0.0, 1.0], [0.0, np.nan], [0.0, np.inf]])
    def test_custom_weight_rejects_unsorted_abscissae(self, xs):
        # np.interp(0.5, [1, 0], [2, 1]) returns 1.0, not an interpolated value
        with pytest.raises(InadmissibleWeight):
            WeightSpec.from_samples(xs, np.arange(1.0, len(xs) + 1.0))

    @pytest.mark.parametrize("start, n, i, j, sign", [
        (-1.8, 5, 3, 0, 1.0), (-4.6, 4, 1, 3, 1.0), (-1.8, 5, 3, 0, -1.0), (3.6, 5, 3, 1, -1.0),
    ])
    def test_custom_weight_bound_at_rounding_edges(self, start, n, i, j, sign):
        # h is a difference of two nodes, and x -+ h rounds across a node at
        # one end of some window, so a plain search for the ends is off by
        # one node there; monotone weights make that end set the bound
        xs = start + 0.7 * np.arange(n)
        ws = np.exp(sign * (xs - xs[0]))
        h = abs(float(xs[j] - xs[i]))
        got = WeightSpec.from_samples(xs, ws).admissibility_bound(h)
        assert got == _loop_admissibility_bound(xs, ws, h)

    @settings(max_examples=200, deadline=None)
    @given(_custom_weights())
    def test_custom_weight_bound_equals_loop(self, case):
        xs, ws, h = case
        w = WeightSpec.from_samples(xs, ws)
        assert w.admissibility_bound(h) == _loop_admissibility_bound(xs, ws, h)


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


class TestLemma31:
    def test_trigonometric_example(self, sin_trace, sin_consts):
        out = check_lemma31(sin_trace, sin_consts, 1.0, math.pi / 4, math.pi / 3)
        assert out.passed
        # slack = lhs - rhs ~ 0.8660 - 0.6061; scale = dx(dx+1) max|sin|
        dx = math.pi / 3 - math.pi / 4
        scale = dx * (dx + 1) * math.sin(math.pi / 3)
        expected_ratio = 1.0 - (0.8660 - 0.6061) / scale
        assert out.worst_ratio == pytest.approx(expected_ratio, abs=0.02)

    def test_degenerate_interval(self, sin_trace, sin_consts):
        out = check_lemma31(sin_trace, sin_consts, 1.0, 1.0, 1.0)
        assert out.passed  # collapses to 0 >= 0

    def test_precondition_violation_raises(self, sin_trace, sin_consts):
        # Re[conj(omega) u] = sin changes sign across pi
        with pytest.raises(PreconditionFailed):
            check_lemma31(sin_trace, sin_consts, 1.0, 2.0, 4.0)

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
        scaled = tr.scaled(lam)
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
        refl_tr = tr.reflected()
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

    def test_global_lp_corollary(self, sin_trace, sin_consts):
        # integrated form of the derivative bound with unit weight
        out = check_weighted(sin_trace, sin_consts, 1.0,
                             WeightSpec.exponential(0.0), (2.0, 18.0))
        assert out.worst_ratio <= 1.0


# Reference implementations: the per-point loops the window layer replaced,
# kept verbatim as oracles.  Max and min are exact, so the vectorized checks
# must reproduce them bit for bit.


def _loop_derivative_bound(trace, consts, tolerance=1e-6):
    xs = trace.xs
    au = np.abs(trace.u)
    adu = np.abs(trace.du)
    K = consts.k_radius
    C = consts.c_bound
    idx = _interior_indices(xs, K)
    h = _grid_spacing(xs)
    lo = np.searchsorted(xs, xs[idx] - K, side="left")
    hi = np.searchsorted(xs, xs[idx] + K, side="right")
    worst = -np.inf
    worst_i = idx[0]
    worst_eps = 0.0
    for j, i in enumerate(idx):
        m = float(np.max(au[lo[j]:hi[j]]))
        eps = 0.5 * h * float(np.max(adu[lo[j]:hi[j]])) / m if m > 0 else 0.0
        ratio = adu[i] / (C * m * (1.0 + eps)) if m > 0 else np.inf
        if ratio > worst:
            worst, worst_i, worst_eps = ratio, i, eps
    notes = f"grid_slack_at_worst={worst_eps:.3e}"
    return _outcome("derivative_bound", idx.size, worst, xs[worst_i], tolerance, notes)


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


def _loop_lemma31(trace, consts, omega, x, y, tolerance=1e-6):
    omega = complex(omega)
    xs = trace.xs
    ix = _snap_index(xs, float(x))
    iy = _snap_index(xs, float(y))
    au = np.abs(trace.u)
    scale_u = float(np.max(au))
    if au[ix] <= 1e-13 * scale_u:
        raise PreconditionFailed("u(x) = 0 at the requested point")
    g = np.real(np.conj(omega) * trace.u)
    if np.min(g[ix:iy + 1]) < -1e-10 * abs(omega) * scale_u:
        raise PreconditionFailed("Re[conj(omega) u] changes sign on [x, y]")
    dx = float(xs[iy] - xs[ix])
    h = _grid_spacing(xs)
    m = float(np.max(au[ix:iy + 1]))
    eps = 0.5 * h * float(np.max(np.abs(trace.du[ix:iy + 1]))) / m if m > 0 else 0.0
    M = m * (1.0 + eps)
    lhs = float(g[iy])
    drift = dx * float(np.real(np.conj(omega) * trace.du[ix]))
    penalty = consts.c2 * dx * (dx + 1.0) * abs(omega) * M
    rhs = float(g[ix]) + drift - penalty
    scale = abs(omega) * M * max(dx * (dx + 1.0), 1e-12)
    slack = lhs - rhs
    ratio = 1.0 - slack / scale
    notes = f"slack={slack:.6g}; scale={scale:.6g}; grid_slack={eps:.3e}"
    return _outcome("lemma31", iy - ix + 1, ratio, xs[ix], tolerance, notes)


def _loop_sample_lemma31(trace, consts, n, rng, max_gap=1.5, tolerance=1e-6):
    xs = trace.xs
    au = np.abs(trace.u)
    floor = 1e-3 * float(np.max(au))
    good = np.flatnonzero(au > floor)
    accepted = 0
    worst = -np.inf
    worst_x = xs[good[0]]
    attempts = 0
    limit = 200 * n
    while accepted < n and attempts < limit:
        attempts += 1
        ix = int(rng.choice(good))
        gap = float(rng.uniform(0.0, max_gap))
        iy = _snap_index(xs, xs[ix] + gap)
        if iy <= ix:
            iy = min(ix + 1, len(xs) - 1)
            if iy == ix:
                continue
        phase = float(rng.uniform(-0.5, 0.5))
        omega = trace.u[ix] / au[ix] * complex(math.cos(phase), math.sin(phase))
        try:
            out = _loop_lemma31(trace, consts, omega, xs[ix], xs[iy], tolerance)
        except PreconditionFailed:
            continue
        accepted += 1
        if out.worst_ratio > worst:
            worst, worst_x = out.worst_ratio, out.witness_x
    notes = f"accepted={accepted}; attempts={attempts}"
    return _outcome("lemma31_sweep", accepted, worst, worst_x, tolerance, notes)


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


class TestLoopOracles:
    def test_derivative_bound_equals_loop(self, oracle_case):
        trace, consts = oracle_case
        got = check_derivative_bound(trace, consts).to_dict()
        assert got == _loop_derivative_bound(trace, consts).to_dict()

    def test_persistence_equals_loop(self, oracle_case):
        trace, consts = oracle_case
        got = check_persistence(trace, consts).to_dict()
        assert got == _loop_persistence(trace, consts).to_dict()

    def test_sample_lemma31_equals_loop(self, oracle_case):
        trace, consts = oracle_case
        got = sample_lemma31(trace, consts, 400, np.random.default_rng(11)).to_dict()
        ref = _loop_sample_lemma31(trace, consts, 400, np.random.default_rng(11)).to_dict()
        assert got == ref

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(_SAMPLER_TRACES)), n=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1), max_gap=st.floats(1e-3, 3.0))
    def test_sample_lemma31_equals_loop_random(self, name, n, seed, max_gap):
        trace, consts = _SAMPLER_TRACES[name]
        try:
            ref = _loop_sample_lemma31(trace, consts, n, np.random.default_rng(seed), max_gap)
        except ValueError:  # the loop accepted no triple in 200 n attempts
            with pytest.raises(NoEligiblePoints):
                sample_lemma31(trace, consts, n, np.random.default_rng(seed), max_gap)
            return
        got = sample_lemma31(trace, consts, n, np.random.default_rng(seed), max_gap)
        assert got.to_dict() == ref.to_dict()

    def test_sample_lemma31_equals_loop_mt19937(self, oracle_case):
        # a bit generator other than PCG64 takes the scalar calls
        trace, consts = oracle_case
        got = sample_lemma31(trace, consts, 400, np.random.Generator(np.random.MT19937(11)))
        ref = _loop_sample_lemma31(trace, consts, 400, np.random.Generator(np.random.MT19937(11)))
        assert got.to_dict() == ref.to_dict()

    def test_sample_lemma31_first_of_ties(self):
        # u constant and C2 so small that the penalty vanishes against u:
        # every accepted triple's ratio is exactly 1, so the witness is the x
        # of the first accepted triple
        xs = np.linspace(0.0, 10.0, 2001)
        tr = analytic_trace(xs, lambda x: np.full_like(x, 2.0), np.zeros_like, 0.0)
        consts = constants_for(0.0, 1e-30)
        got = sample_lemma31(tr, consts, 400, np.random.default_rng(11))
        ref = _loop_sample_lemma31(tr, consts, 400, np.random.default_rng(11))
        assert got.worst_ratio == 1.0
        assert got.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.5), (0.0, 1e-3), (0.0, 2.9), (-0.5, 0.5)])
    def test_uniform_is_affine_in_random(self, lo, hi):
        # the sampler draws uniform(lo, hi) as lo + (hi - lo) * random()
        a, b = np.random.default_rng(19), np.random.default_rng(19)
        for _ in range(2000):
            assert a.uniform(lo, hi) == lo + (hi - lo) * b.random()
        many = a.uniform(lo, hi, 100_000)
        assert np.array_equal(many, lo + (hi - lo) * b.random(100_000))

    @settings(max_examples=100, deadline=None)
    @given(xs=arrays(np.float64, st.integers(1, 40), elements=st.floats(-10, 10), unique=True),
           extra=st.lists(st.floats(-20, 20), max_size=10))
    def test_snap_indices_equal_scalar_snap(self, xs, extra):
        xs = np.sort(xs)
        # nodes, midpoints (ties go left), points outside, random points
        x = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2, [xs[0] - 1.0, xs[-1] + 1.0], extra])
        assert _snap_indices(xs, x).tolist() == [_snap_index(xs, float(v)) for v in x]

    def test_lemma31_equals_loop(self, oracle_case):
        trace, consts = oracle_case
        xs = trace.xs
        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(200):
            x = float(rng.uniform(xs[0], xs[-1]))
            y = min(x + float(rng.uniform(0.0, 1.5)), float(xs[-1]))
            omega = complex(rng.normal(), rng.normal())
            try:
                ref = _loop_lemma31(trace, consts, omega, x, y).to_dict()
            except PreconditionFailed as err:
                with pytest.raises(PreconditionFailed, match=re.escape(str(err))):
                    check_lemma31(trace, consts, omega, x, y)
                continue
            assert check_lemma31(trace, consts, omega, x, y).to_dict() == ref
            compared += 1
        assert compared >= 20


def _loop_lemma31_hypothesis(u, du, au, scale_u, om_r, om_i, ix, iy, need):
    """The hypothesis test with a scan of every candidate window, verbatim."""
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


class _ScanCounter(np.ndarray):
    """A view of u that counts the window scans, which are its slices."""

    scans = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.scans += 1
        return super().__getitem__(key)


@pytest.fixture
def table_arrays(monkeypatch):
    """The arrays that sparse tables are built over while the test runs."""
    seen = []
    inner = verifier._window_extreme

    def spy(a, lo, hi, op):
        seen.append(a)
        return inner(a, lo, hi, op)

    monkeypatch.setattr(verifier, "_window_extreme", spy)
    return seen


def _certificate_case(n_padding):
    """A real trace with hand-placed features, and windows over it: n_padding
    plain windows up to 250 nodes long, with omega near +-1, and ten short
    windows around features.  Eight of those must be scanned: an interior
    sign change (rejected), and a minimum inside the slack at an interior
    node, at the last node and at the first node (accepted), each once where
    u > 0 (omega = 1) and once where u < 0 (omega = -1).  The other two have
    a sign change just outside the window, and are certified.  Returns (u,
    omega, windows, the positions of the eight in the window order)."""
    n = 3000
    x = 0.01 * np.arange(n)
    u = np.concatenate([1.0 + 0.5 * np.sin(x[:1200]), -1.0 - 0.5 * np.sin(x[1200:2400]),
                        np.ones(300), -np.ones(300)])
    scale = float(np.max(np.abs(u)))
    in_slack = -1e-10 * scale + 2.0 ** -49 * scale  # thr + half the slack
    rng = np.random.default_rng(0)
    windows, om = [], []
    for sign, base in ((1.0, 2400), (-1.0, 2700)):
        u[base + 10] = -0.3 * sign
        u[[base + 30, base + 50, base + 60]] = sign * in_slack
        u[[base + 79, base + 91]] = -0.3 * sign
        for lo, hi, scan in ((5, 15, True), (25, 35, True), (40, 50, True), (60, 70, True),
                             (80, 90, False)):
            windows.append((base + lo, base + hi, scan))
            om.append((sign, 0.0))
    for k in range(n_padding):
        sign, start = (1.0, 0) if k % 2 else (-1.0, 1200)
        lo = start + int(rng.integers(0, 950))
        phase = rng.uniform(-0.5, 0.5)
        windows.append((lo, lo + int(rng.integers(100, 250)), False))
        om.append((sign * math.cos(phase), sign * math.sin(phase)))
    order = rng.permutation(len(windows))
    windows = [windows[k] for k in order]
    scanned = [pos for pos, w in enumerate(windows) if w[2]]
    om = np.array([om[k] for k in order])
    return u.astype(complex), om, np.array([w[:2] for w in windows]), scanned


def _run_hypothesis(u, om, windows, need):
    """(_lemma31_hypothesis, its loop oracle, the number of scans made)."""
    counted = u.view(_ScanCounter)
    du = np.roll(u, 1) * (0.5 - 0.25j)
    au = np.abs(u)
    args = (au, float(np.max(au)), om[:, 0].copy(), om[:, 1].copy(),
            windows[:, 0].copy(), windows[:, 1].copy(), need)
    got = _lemma31_hypothesis(counted, du, *args)
    want = _loop_lemma31_hypothesis(u, du, *args)
    return got, want, counted.scans


def _assert_same_hypothesis(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for a, b in zip(got[2], want[2]):
        assert a.tobytes() == b.tobytes()


def _stop(ok, need):
    """Position of the need-th acceptance (the last one scanned at most)."""
    acc = np.flatnonzero(ok)
    return acc[need - 1] if len(acc) >= need else len(ok)


class TestLemma31Certificate:
    @pytest.mark.parametrize("need", [1, 60, 200, 10 ** 6])
    def test_table_branch_scans_only_uncertified(self, table_arrays, need):
        u, om, windows, scanned = _certificate_case(400)
        got, want, scans = _run_hypothesis(u, om, windows, need)
        _assert_same_hypothesis(got, want)
        assert any(np.shares_memory(a, u) for a in table_arrays)  # tables over u
        stop = _stop(want[1], need)
        assert scans == sum(pos <= stop for pos in scanned)
        if need == 10 ** 6:
            assert scans == 8 and np.count_nonzero(~want[1]) == 2  # the two dips

    @pytest.mark.parametrize("need", [1, 4, 10 ** 6])
    def test_scan_branch_scans_every_candidate(self, table_arrays, need):
        u, om, windows, _ = _certificate_case(4)  # 14 windows, 250 nodes at most
        got, want, scans = _run_hypothesis(u, om, windows, need)
        _assert_same_hypothesis(got, want)
        assert not table_arrays
        assert scans == min(_stop(want[1], need) + 1, len(windows))

    @pytest.mark.parametrize("need", [1, 100, 10 ** 6])
    def test_complex_trace(self, table_arrays, need):
        # a phase swinging by 1.2 rad, and omega turned up to 1 rad away from
        # it: some windows change sign inside, the others pass
        n = 3000
        x = 0.01 * np.arange(n)
        u = (1.0 + 0.3 * np.sin(x)) * np.exp(1.2j * np.sin(2.0 * x))
        rng = np.random.default_rng(1)
        lo = rng.integers(0, n - 250, 800)
        windows = np.stack([lo, lo + rng.integers(100, 250, 800)], axis=1)
        turn = np.exp(1j * rng.uniform(-1.0, 1.0, 800)) * u[lo] / np.abs(u[lo])
        om = np.stack([turn.real, turn.imag], axis=1)
        got, want, scans = _run_hypothesis(u, om, windows, need)
        _assert_same_hypothesis(got, want)
        assert any(np.shares_memory(a, u) for a in table_arrays)
        assert scans < _stop(want[1], need) + 1  # some windows certified
        if need == 10 ** 6:  # interior sign changes occur, and each is scanned
            abs_om, g_x, g_y, _ = want[2]
            thr = -1e-10 * abs_om * np.max(np.abs(u))
            interior = np.count_nonzero(~want[1] & (g_x >= thr) & (g_y >= thr))
            assert 0 < interior <= scans

    def test_subnormal_scale_certifies_nothing(self, table_arrays):
        # relative rounding bounds fail below the normal range
        u, om, windows, _ = _certificate_case(400)
        u *= 1e-300 * 1e-10
        got, want, scans = _run_hypothesis(u, om, windows, 10 ** 6)
        _assert_same_hypothesis(got, want)
        assert any(np.shares_memory(a, u) for a in table_arrays)
        zero, ok, (abs_om, g_x, g_y, _) = want
        thr = -1e-10 * abs_om * np.max(np.abs(u))
        assert scans == np.count_nonzero(~zero & (g_x >= thr) & (g_y >= thr)) > 300

    @pytest.mark.parametrize("name, n, tables", [
        ("spike_lattice", 400, True), ("random_step_complex", 400, True),
        ("spike_lattice", 3, False), ("random_step_complex", 3, False),
    ])
    def test_sample_lemma31_equals_loop(self, table_arrays, name, n, tables):
        trace, consts = _spike_lattice_trace() if name == "spike_lattice" else _random_step_trace()
        got = sample_lemma31(trace, consts, n, np.random.default_rng(23)).to_dict()
        ref = _loop_sample_lemma31(trace, consts, n, np.random.default_rng(23)).to_dict()
        assert got == ref
        assert any(np.shares_memory(a, trace.u) for a in table_arrays) == tables


def _scalar_attempts(rng, n, no_phase, k):
    """The draws of k sampler attempts, one generator call at a time."""
    picks, gaps, phases = [], [], []
    for _ in range(k):
        picks.append(int(rng.integers(0, n)))
        gaps.append(rng.random())
        phases.append(-0.5 + rng.random() if picks[-1] != no_phase else math.nan)
    return np.array(picks, dtype=np.intp), np.array(gaps), np.array(phases)


def _same_state(a, b):
    """Whether two bit generator states are equal, arrays and int types too."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestDrawAttempts:
    # 2**31 + 1 rejects about half of its 32-bit draws; 2**32 - 1 takes
    # products up to 2**64 - 2**33 + 1
    @settings(max_examples=150, deadline=None)
    @given(bit_generator=st.sampled_from([np.random.PCG64] * 3 + [np.random.MT19937,
                                                                   np.random.Philox]),
           seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([2, 3, 40001, 2 ** 31 + 1, 2 ** 32 - 1]),
           no_phase=st.sampled_from([-1, 0, 1, "last"]),
           earlier=st.integers(0, 3), ks=st.lists(st.integers(1, 300), min_size=1, max_size=3))
    def test_equals_scalar_calls(self, bit_generator, seed, n, no_phase, earlier, ks):
        no_phase = n - 1 if no_phase == "last" else no_phase
        got, want = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        for rng in got, want:  # an odd number fills the uint32 cache
            for _ in range(earlier):
                rng.integers(0, 7)
        for k in ks:
            drawn = _draw_attempts(got, n, no_phase, k)
            expected = _scalar_attempts(want, n, no_phase, k)
            for a, b in zip(drawn, expected):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=True)
            assert _same_state(got.bit_generator.state, want.bit_generator.state)

    @pytest.mark.parametrize("n, no_phase", [(2, 1), (3, 0), (2 ** 31 + 1, -1)])
    @pytest.mark.parametrize("earlier", [0, 1])
    def test_exceptions_are_taken(self, n, no_phase, earlier):
        # no_phase picks, or rejections, come every few attempts
        got, want = np.random.default_rng(3), np.random.default_rng(3)
        for rng in got, want:
            for _ in range(earlier):
                rng.integers(0, 7)
        drawn = _draw_attempts(got, n, no_phase, 200)
        expected = _scalar_attempts(want, n, no_phase, 200)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(drawn, expected))
        assert _same_state(got.bit_generator.state, want.bit_generator.state)
        if no_phase >= 0:
            assert np.count_nonzero(drawn[0] == no_phase) > 10


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
        for op, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
            got = _window_extreme(a, lo, hi, op)
            want = np.array([reduce(a[i:j]) for i, j in zip(lo, hi)])
            assert got.dtype == a.dtype
            assert np.array_equal(got, want)
            if not np.any(np.signbit(a) & (a == 0.0)):  # no -0.0: bitwise too
                assert got.tobytes() == want.tobytes()

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            _window_extreme(np.arange(4.0), [1], [1], np.maximum)
