import dataclasses
import math

import numpy as np
import pytest

from schro1d import (
    GridTooCoarse,
    InitialData,
    NotRealSolution,
    PiecewisePotential,
    make_family,
    propagate_exact,
    prufer_decompose,
    simon_stolz_curve,
)
from schro1d.spectral import operator_norm_2x2, singular_values_2x2

from conftest import frobenius_integrand


class TestMatrixNorm:
    def test_rotation_has_unit_norm(self):
        m = np.array([[math.cos(0.7), math.sin(0.7)], [-math.sin(0.7), math.cos(0.7)]])
        assert operator_norm_2x2(m) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_numpy_svd(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = operator_norm_2x2(m)
            ref = np.linalg.svd(m, compute_uv=False)
            assert got == pytest.approx(ref[0], rel=1e-12)
            _, smin = singular_values_2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
            assert smin == pytest.approx(ref[1], rel=1e-9, abs=1e-12)


class TestSimonStolzCurve:
    def test_free_rotation_case(self, free_potential):
        curve = simon_stolz_curve(free_potential, 1.0, 10.0, 1e-3)
        # the closed-form singular value has a sqrt-cancellation floor ~1e-8
        assert np.max(np.abs(curve.norm_T - 1.0)) <= 1e-7
        assert curve.cumulative[0] == 0.0
        assert curve.xs[0] == 0.0
        assert curve.cumulative[-1] == pytest.approx(10.0, abs=1e-6)

    def test_below_spectrum_curve_saturates(self, free_potential):
        # E = -1: ||T|| grows like e^x, the integral converges
        curve = simon_stolz_curve(free_potential, -1.0, 10.0, 1e-3)
        total = curve.cumulative[-1]
        at_8 = np.interp(8.0, curve.xs, curve.cumulative)
        assert total < 2.0
        assert total - at_8 <= 1e-6  # visibly saturated tail
        # log-log slope of the trailing half: near 1 for linear growth, near 0
        # for saturation
        tail = slice(len(curve.xs) // 2, None)
        lx, ly = np.log(curve.xs[tail]), np.log(np.maximum(curve.cumulative[tail], 1e-300))
        assert np.polyfit(lx, ly, 1)[0] < 0.1

    def test_zero_length(self, free_potential):
        curve = simon_stolz_curve(free_potential, 1.0, 0.0, 1e-3)
        assert np.all(curve.cumulative == 0.0)

    def test_rejects_complex_energy(self, free_potential):
        with pytest.raises(ValueError, match="real"):
            simon_stolz_curve(free_potential, 1 + 1j, 5.0, 1e-3)

    def test_cumulative_nondecreasing_positive_integrand(self):
        V = make_family("random_step", {"cells": 10, "low": -2, "high": 2, "seed": 9})
        curve = simon_stolz_curve(V, 2.0, 6.0, 1e-3)
        assert np.all(curve.integrand > 0)
        assert np.all(np.diff(curve.cumulative) >= 0)

    def test_frobenius_vs_operator_norm_ratio(self):
        # 1/2 <= (sigma_max / ||.||_F)^2 <= 1 pointwise
        V = make_family("random_step", {"cells": 10, "low": -2, "high": 2, "seed": 4})
        curve = simon_stolz_curve(V, 1.0, 6.0, 1e-3)
        xs_f, integrand_f = frobenius_integrand(V, 1.0, 6.0, 1e-3)
        assert np.array_equal(curve.xs, xs_f)
        ratio = integrand_f / curve.integrand
        assert np.all(ratio >= 0.5 - 1e-12)
        assert np.all(ratio <= 1.0 + 1e-12)

    def test_csv_export(self, tmp_path, free_potential):
        curve = simon_stolz_curve(free_potential, 1.0, 2.0, 1e-2)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,norm_T,integrand,cumulative"


class TestPrufer:
    def test_sin_defining_case(self, sin_trace):
        pt = prufer_decompose(sin_trace, 1.0)
        assert np.max(np.abs(pt.R - 1.0)) <= 1e-10
        # theta(0) = 0 branch, theta(x) = x
        assert np.max(np.abs(pt.theta - pt.xs)) <= 1e-10

    def test_scaling_scales_amplitude_not_phase(self, sin_trace):
        pt1 = prufer_decompose(sin_trace, 1.0)
        scaled = dataclasses.replace(sin_trace, u=2.0 * sin_trace.u, du=2.0 * sin_trace.du)
        pt2 = prufer_decompose(scaled, 1.0)
        assert np.max(np.abs(pt2.R - 2.0 * pt1.R)) <= 1e-10
        assert np.max(np.abs(pt2.theta - pt1.theta)) <= 1e-12

    def test_identity_on_square_well(self, square_well):
        tr = propagate_exact(square_well, 1.0, InitialData(0.0, 0.3, 1.0), 3.0, 0.005)
        pt = prufer_decompose(tr, 1.0)
        ur, dur = tr.real_parts()
        lhs = pt.k ** 2 * pt.R ** 2
        rhs = dur ** 2 + pt.k ** 2 * ur ** 2
        assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-10

    def test_round_trip(self, square_well):
        tr = propagate_exact(square_well, 4.0, InitialData(0.0, 1.0, -0.7), 3.0, 0.005)
        pt = prufer_decompose(tr, 2.0)
        u, du = pt.R * np.sin(pt.theta), pt.k * pt.R * np.cos(pt.theta)
        ur, dur = tr.real_parts()
        scale = tr.magnitude_scale()
        assert np.max(np.abs(u - ur)) / scale <= 1e-10
        assert np.max(np.abs(du - dur)) / scale <= 1e-10

    def test_finite_window_l2_identity(self, sin_trace):
        pt = prufer_decompose(sin_trace, 1.0)
        ur, dur = sin_trace.real_parts()
        xs = sin_trace.xs
        lhs = pt.k ** 2 * np.trapezoid(pt.R ** 2, xs)
        rhs = np.trapezoid(dur ** 2, xs) + pt.k ** 2 * np.trapezoid(ur ** 2, xs)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_rejects_energy_mismatch(self, sin_trace):
        with pytest.raises(ValueError, match="match"):
            prufer_decompose(sin_trace, 2.0)

    def test_rejects_complex_solution(self, square_well):
        # the imaginary parts are measured against the trace's own amplitude,
        # so a small complex solution is as complex as a large one
        for amplitude in (1.0, 1e-11, 1e-200):
            tr = propagate_exact(square_well, 1.0,
                                 InitialData(0.0, amplitude, amplitude * 1j), 3.0, 0.01)
            with pytest.raises(NotRealSolution):
                prufer_decompose(tr, 1.0)

    def test_grid_too_coarse(self, free_potential):
        # phase advances by ~2.5 rad per step at k=5 with step 0.5
        tr = propagate_exact(free_potential, 25.0, InitialData(0.0, 0.0, 1.0), 20.0, 0.5)
        with pytest.raises(GridTooCoarse):
            prufer_decompose(tr, 5.0)
