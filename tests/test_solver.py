import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schro1d import (
    InitialData,
    OverflowAtX,
    PiecewisePotential,
    make_family,
    propagate_exact,
    simon_stolz_curve,
    transfer_matrix,
)
from schro1d import harness, solver, verifier
from schro1d.solver import (
    OVERFLOW_GUARD,
    SERIES_THRESHOLD,
    _exact_kernel,
    _propagator_terms,
    _traces,
    _use_series,
    basis_traces,
    build_grid,
)

from oracles import propagate_rk, wronskian


class TestExactPropagator:
    def test_free_particle_sin(self, free_potential):
        tr = propagate_exact(free_potential, 1.0, InitialData(0.0, 0.0, 1.0),
                             math.pi, 0.01)
        assert np.max(np.abs(tr.u - np.sin(tr.xs))) <= 1e-12
        assert np.max(np.abs(tr.du - np.cos(tr.xs))) <= 1e-12

    def test_free_particle_decaying_exponential(self, free_potential):
        # e^{-x} lies on the decaying direction, so any product taken over a
        # long stretch amplifies its rounding by the growing mode e^{x}: the
        # anchor scan's growth cap on its groups keeps the long spans accurate
        for span in (5.0, 12.0, 40.0, 400.0):
            tr = propagate_exact(free_potential, -1.0, InitialData(0.0, 1.0, -1.0),
                                 span, 0.01)
            exact = np.exp(-tr.xs)
            assert np.max(np.abs(tr.u - exact) / exact) <= 1e-12
            assert np.max(np.abs(tr.du + exact) / exact) <= 1e-12

    def test_square_well_matches_closed_form_and_rk(self, square_well):
        tr = propagate_exact(square_well, 0.0, InitialData(0.0, 1.0, 0.0), 3.0, 0.01)
        assert np.max(np.abs(tr.u - np.cos(math.sqrt(2) * tr.xs))) <= 1e-12
        rk = propagate_rk(square_well, 0.0, InitialData(0.0, 1.0, 0.0), 3.0, 1e-4)
        assert np.max(np.abs(rk.u - np.cos(math.sqrt(2) * rk.xs))) <= 1e-6

    def test_backward_propagation(self, free_potential):
        tr = propagate_exact(free_potential, 1.0, InitialData(math.pi, 0.0, -1.0),
                             0.0, 0.01)
        assert tr.xs[0] == 0.0 and tr.xs[-1] == math.pi
        assert np.max(np.abs(tr.u - np.sin(tr.xs))) <= 1e-12

    def test_rejects_zero_length(self, free_potential):
        with pytest.raises(ValueError):
            propagate_exact(free_potential, 1.0, InitialData(0.0, 1.0, 0.0), 0.0, 0.01)

    @pytest.mark.parametrize("propagate", [propagate_exact, propagate_rk])
    def test_overflow_guard_reports_abscissa(self, propagate):
        # growth rate 10 blows past the guard in either direction; x is
        # reported in the caller's coordinates, at the first node over the
        # guard.  The kernels compute past that node, over [0, 80] on to inf,
        # so no overflow or invalid-value warning may escape
        for x_max, x0, du0, x_end, x in ((40.0, 0.0, 10.0, 40.0, 34.31),
                                         (40.0, 40.0, -10.0, 0.0, 5.689999999999998),
                                         (80.0, 0.0, 10.0, 80.0, 34.31),
                                         (80.0, 80.0, -10.0, 0.0, 45.69)):
            V = PiecewisePotential((0.0, x_max), (0.0,))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowAtX) as exc:
                    propagate(V, -100.0, InitialData(x0, 1.0, du0), x_end, 0.01)
            assert exc.value.x == x
            if propagate is propagate_rk:
                assert exc.value.magnitude == 1.0146645462888317e+150

    def test_trace_holds_initial_data_at_x0(self):
        # bit for bit, signed zeros included: a backward run starts from
        # (u0, -du0) on the reflected potential, and its trace must hand back
        # du0 = 0 as +0.0.  Backward from 3 the first fill chunk holds only
        # block anchors; backward from 8 it mixes both kinds
        traces = [(propagate_exact(_LATTICE_THEN_FREE, 1.0, InitialData(x0, 1.0, 0.0),
                                   x_end, 1e-2), x0, [1.0, 0.0])
                  for x0, x_end in ((3.0, 0.0), (8.0, 0.0), (0.0, 3.0))]
        basis = basis_traces(_LATTICE_THEN_FREE, 1.0, 3.0, 0.0, 1e-2)
        traces += [(t, 3.0, data) for t, data in zip(basis, np.eye(2))]
        for tr, x0, data in traces:
            i = np.flatnonzero(tr.xs == x0)
            assert len(i) == 1 and i[0] in (0, len(tr.xs) - 1)
            expected = np.array(data, dtype=complex).tobytes()
            assert np.concatenate([tr.u[i], tr.du[i]]).tobytes() == expected

    @pytest.mark.parametrize("x0, x_end", [(0.0, 8.0), (8.0, 0.0)])
    def test_traces_keep_the_moduli_of_their_run(self, x0, x_end):
        # every trace's |u| and |u'| are its own moduli, bit for bit, in
        # either direction: a backward trace holds a reversed view of the
        # run, whose np.abs may differ in the last bit from the run's
        traces = [propagate_exact(_LATTICE_THEN_FREE, 1 + 0.5j, InitialData(x0, 1.0, 0.3j),
                                  x_end, 1e-2),
                  *basis_traces(_LATTICE_THEN_FREE, 1.0, x0, x_end, 1e-2)]
        for tr in traces:
            assert tr.abs_u.tobytes() == np.abs(tr.u).tobytes()
            assert tr.abs_du.tobytes() == np.abs(tr.du).tobytes()

    @pytest.mark.parametrize("call", [
        lambda V: propagate_exact(V, 1.0, InitialData(0.0, 1.0, 0.0), math.nan, 0.01),
        lambda V: propagate_exact(V, 1.0, InitialData(0.0, 1.0, 0.0), 1.0, math.nan),
        lambda V: basis_traces(V, 1.0, 0.0, math.inf, 0.01),
        lambda V: basis_traces(V, 1.0, math.nan, 1.0, 0.01),
        lambda V: basis_traces(V, 1.0, 1.0, 0.0, math.nan),
        lambda V: simon_stolz_curve(V, 1.0, math.nan, 0.01),
        # x == y would otherwise give the identity
        lambda V: transfer_matrix(V, 1.0, math.inf, math.inf, 0.01),
        lambda V: transfer_matrix(V, 1.0, 0.0, 1.0, math.nan),
    ], ids=["propagate_to_nan", "propagate_step_nan", "basis_to_inf", "basis_from_nan",
            "basis_step_nan", "simon_stolz_to_nan", "transfer_inf_to_inf",
            "transfer_step_nan"])
    def test_rejects_non_finite_endpoint_or_step(self, free_potential, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite|positive"):
                call(free_potential)

    def test_real_inputs_stay_real(self):
        V = make_family("random_step", {"cells": 10, "low": -2, "high": 2, "seed": 5})
        tr = propagate_exact(V, 2.0, InitialData(0.0, 1.0, -0.5),
                             V.support[1], 0.01)
        assert tr.is_real(1e-12)


class TestGrid:
    def test_breakpoints_always_on_grid(self):
        V = PiecewisePotential((0.0, 1.0005, 2.0), (1.0, -1.0))
        xs, _ = build_grid(V, 0.0, 2.0, 1e-2)
        assert np.min(np.abs(xs - 1.0005)) == 0.0
        assert np.max(np.diff(xs)) <= 1e-2 + 1e-12

    def test_rk_grid_contains_offgrid_breakpoint(self):
        V = PiecewisePotential((0.0, 1.0005, 2.0), (1.0, -1.0))
        tr = propagate_rk(V, 1.0, InitialData(0.0, 1.0, 0.0), 2.0, 1e-2)
        assert np.min(np.abs(tr.xs - 1.0005)) == 0.0


class TestRkCrossValidation:
    def test_free_particle_error_bound(self, free_potential):
        rk = propagate_rk(free_potential, 1.0, InitialData(0.0, 0.0, 1.0),
                          math.pi, 1e-3)
        assert np.max(np.abs(rk.u - np.sin(rk.xs))) <= 1e-9

    def test_random_step_complex_energy(self):
        V = make_family("random_step", {"cells": 15, "low": -1.5, "high": 1.5, "seed": 3})
        E = 2 + 1j
        for x0, x_end in ((0.0, 10.0), (10.0, 0.0)):
            init = InitialData(x0, 1.0, 0.2 - 0.3j)
            ex = propagate_exact(V, E, init, x_end, 1e-4)
            rk = propagate_rk(V, E, init, x_end, 1e-4)
            assert np.array_equal(ex.xs, rk.xs)
            scale = ex.magnitude_scale()
            assert np.max(np.abs(ex.u - rk.u)) / scale <= 1e-6
            assert np.max(np.abs(ex.du - rk.du)) / scale <= 1e-6

    def test_oracle_is_rk4(self):
        # the oracle runs propagate_exact with RK4 patched in for the exact
        # kernel: had the patch not applied, it would compare that kernel
        # with itself.  It must differ by RK4's error, and restore the kernel
        V = make_family("random_step", {"cells": 15, "low": -1.5, "high": 1.5, "seed": 3})
        init = InitialData(0.0, 1.0, 0.2 - 0.3j)
        ex = propagate_exact(V, 2 + 1j, init, 10.0, 1e-3)
        rk = propagate_rk(V, 2 + 1j, init, 10.0, 1e-3)
        assert rk.method == "rk4" and np.array_equal(ex.xs, rk.xs)
        dev = max(np.max(np.abs(ex.u - rk.u)), np.max(np.abs(ex.du - rk.du)))
        assert 0.0 < dev <= 1e-6 * ex.magnitude_scale()
        assert solver._exact_kernel is _exact_kernel


def _basis_trace_entries(V, E, x, y, step):
    """T(E, x, y) read from the basis traces: the node at x of each trace."""
    t1, t2 = basis_traces(V, E, y, x, step)
    i = -1 if x > y else 0
    return np.array([[t1.u[i], t2.u[i]], [t1.du[i], t2.du[i]]], dtype=complex)


class TestTransferMatrix:
    def test_free_case_is_rotation(self, free_potential):
        for x in (0.7, 2.0, 9.3):
            T = transfer_matrix(free_potential, 1.0, x, 0.0, 0.01)
            expect = np.array([[math.cos(x), math.sin(x)],
                               [-math.sin(x), math.cos(x)]])
            assert np.max(np.abs(T.entries - expect)) <= 1e-12

    def test_equal_endpoints_give_identity(self, square_well):
        T = transfer_matrix(square_well, 5.0 + 1j, 1.3, 1.3, 0.01)
        assert np.array_equal(T.entries, np.eye(2))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                solver.TransferMatrix([[1.0, bad], [0.0, 1.0]], 0.0, 1.0, 1.0 + 0j)

    def test_determinant_conservation_complex_energy(self, square_well):
        T = transfer_matrix(square_well, 2j, 2.0, 0.0, 0.01)
        assert abs(T.det - 1.0) <= 1e-10

    @pytest.mark.parametrize("E", [3.0, 1.0 + 0.3j])
    @pytest.mark.parametrize("x_from, x_to", [(0.0, 8.0), (8.0, 0.0)])
    def test_basis_traces_match_separate_propagation(self, E, x_from, x_to):
        V = make_family("random_step", {"cells": 12, "low": -2, "high": 2, "seed": 11})
        t1, t2 = basis_traces(V, E, x_from, x_to, 0.01)
        s1 = propagate_exact(V, E, InitialData(x_from, 1.0, 0.0), x_to, 0.01)
        s2 = propagate_exact(V, E, InitialData(x_from, 0.0, 1.0), x_to, 0.01)
        for batched, single in ((t1, s1), (t2, s2)):
            assert np.array_equal(batched.xs, single.xs)
            assert np.array_equal(batched.u, single.u)
            assert np.array_equal(batched.du, single.du)

    @pytest.mark.parametrize("E", [1.0, 2.0 - 0.7j])
    @pytest.mark.parametrize("x, y", [(5.0, 0.0), (0.0, 5.0)])
    def test_entries_are_basis_trace_bytes_on_spike_lattice(self, E, x, y):
        V = make_family("spike_lattice", {"g": 3.0, "span": 5.0, "cell": 1e-3})
        assert len(V.values) == 5000
        T = transfer_matrix(V, E, x, y, 1e-3)
        assert T.entries.tobytes() == _basis_trace_entries(V, E, x, y, 1e-3).tobytes()

    @given(seed=st.integers(0, 2 ** 31 - 1), cells=st.integers(1, 12),
           step=st.floats(1e-3, 0.3), energy=st.one_of(st.floats(-20.0, 20.0),
                                                      st.complex_numbers(max_magnitude=20.0)),
           backward=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_entries_are_basis_trace_bytes(self, seed, cells, step, energy, backward):
        V = make_family("random_step", {"cells": cells, "low": -10, "high": 10,
                                        "seed": seed})
        a, b = V.support
        x, y = (a - 0.3, b) if backward else (b, a - 0.3)
        try:
            old = _basis_trace_entries(V, energy, x, y, step)
        except OverflowAtX as err:
            with pytest.raises(OverflowAtX) as exc:
                transfer_matrix(V, energy, x, y, step)
            assert (exc.value.x, exc.value.magnitude) == (err.x, err.magnitude)
            return
        assert transfer_matrix(V, energy, x, y, step).entries.tobytes() == old.tobytes()

    @pytest.mark.parametrize("x, y", [(40.0, 0.0), (0.0, 40.0)])
    def test_overflow_is_the_basis_traces_overflow(self, x, y):
        V = PiecewisePotential((0.0, 40.0), (0.0,))
        with pytest.raises(OverflowAtX) as old:
            basis_traces(V, -100.0, y, x, 0.01)
        with pytest.raises(OverflowAtX) as new:
            transfer_matrix(V, -100.0, x, y, 0.01)
        assert new.value.x == old.value.x and 0.0 < new.value.x < 40.0
        assert new.value.magnitude == old.value.magnitude

    def test_composition(self, square_well):
        E = 1.5 + 0.5j
        T20 = transfer_matrix(square_well, E, 2.0, 0.0, 0.005)
        T21 = transfer_matrix(square_well, E, 2.0, 1.0, 0.005)
        T10 = transfer_matrix(square_well, E, 1.0, 0.0, 0.005)
        assert np.max(np.abs(T20.entries - T21.entries @ T10.entries)) <= 1e-8


class TestSolutionSpaceStructure:
    def test_wronskian_constant(self):
        V = make_family("random_step", {"cells": 12, "low": -2, "high": 2, "seed": 11})
        E = 1.0 + 0.3j
        t1 = propagate_exact(V, E, InitialData(0.0, 1.0, 0.0), 8.0, 0.01)
        t2 = propagate_exact(V, E, InitialData(0.0, 0.0, 1.0), 8.0, 0.01)
        W = wronskian(t1, t2)
        scale = np.abs(t1.u * t2.du) + np.abs(t1.du * t2.u)
        assert np.max(np.abs(W - W[0]) / scale) <= 1e-8

    def test_linearity(self, square_well):
        E = 2.0 + 1j
        a, b = 1.5 - 0.5j, -0.25 + 2j
        t1 = propagate_exact(square_well, E, InitialData(0.0, 1.0, 0.0), 3.0, 0.01)
        t2 = propagate_exact(square_well, E, InitialData(0.0, 0.0, 1.0), 3.0, 0.01)
        tc = propagate_exact(square_well, E, InitialData(0.0, a, b), 3.0, 0.01)
        scale = tc.magnitude_scale()
        assert np.max(np.abs(tc.u - (a * t1.u + b * t2.u))) / scale <= 1e-10
        assert np.max(np.abs(tc.du - (a * t1.du + b * t2.du))) / scale <= 1e-10

    def test_reversal_recovers_initial_data(self):
        V = make_family("random_step", {"cells": 10, "low": -2, "high": 2, "seed": 2})
        E = 3.0
        fwd = propagate_exact(V, E, InitialData(0.0, 0.7, -0.4), 6.0, 0.01)
        back = propagate_exact(
            V, E, InitialData(6.0, fwd.u[-1], fwd.du[-1]), 0.0, 0.01
        )
        scale = fwd.magnitude_scale()
        assert abs(back.u[0] - 0.7) / scale <= 1e-8
        assert abs(back.du[0] + 0.4) / scale <= 1e-8


def test_propagator_terms_branch_independent():
    # entries are even in sqrt(q): evaluating with the opposite branch of the
    # square root must give identical results
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        dt = np.array([rng.uniform(-1, 1)])
        c, sl = _propagator_terms(q, dt, _use_series(q, float(np.max(np.abs(dt)))))
        s = -np.sqrt(complex(q))
        c2 = np.cosh(s * dt)
        sl2 = np.sinh(s * dt) / s if q != 0 else dt
        if abs(q) * float(np.max(np.abs(dt))) ** 2 >= 1e-8:
            assert np.allclose(c, c2, rtol=1e-12)
            assert np.allclose(sl, sl2, rtol=1e-12)


def test_propagator_terms_series_matches_exact_at_threshold():
    q = 1e-9 + 1e-9j
    dt = np.array([0.5])
    c_series, sl_series = _propagator_terms(q, dt, _use_series(q, float(np.max(np.abs(dt)))))
    s = np.sqrt(complex(q))
    assert np.allclose(c_series, np.cosh(s * dt), rtol=1e-14)
    assert np.allclose(sl_series, np.sinh(s * dt) / s, rtol=1e-14)


def test_trace_csv_roundtrip(tmp_path, sin_trace):
    path = tmp_path / "trace.csv"
    sin_trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,re_u,im_u,re_du,im_du"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(sin_trace.xs), 5)
    assert np.allclose(data[:, 1], sin_trace.u.real)


# Reference implementation: the per-cell grid build and the per-block kernel
# that the whole-array passes replaced, kept verbatim as oracles.  The grids
# must agree bit for bit.  The new kernel's anchor scan carries the data from
# group start to group start with products of the groups' block matrices, so
# only the group start rows are reassociated: every node before the second
# group, and every trace whose groups are single blocks, must agree bit for
# bit; elsewhere u and u' must agree within REL_TOL of the trace's magnitude.
REL_TOL = 1e-12
REPORT_TOL = 1e-10  # relative, on every float of a report


def _old_propagator_terms(q: complex, dt: np.ndarray):
    """cosh(s*dt) and sinh(s*dt)/s for s = sqrt(q), series near q = 0."""
    dt = np.asarray(dt)
    hmax = float(np.max(np.abs(dt))) if dt.size else 0.0
    if abs(q) * hmax * hmax < SERIES_THRESHOLD:
        z = q * dt * dt
        c = 1.0 + z / 2.0 + z * z / 24.0
        sl = dt * (1.0 + z / 6.0 + z * z / 120.0)
    else:
        s = np.sqrt(complex(q))
        c = np.cosh(s * dt)
        sl = np.sinh(s * dt) / s
    return c, sl


def _old_build_grid(V: PiecewisePotential, a: float, b: float, max_step: float):
    """Strictly increasing grid on [a, b]: every potential breakpoint inside,
    uniform refinement to spacing <= max_step.  Returns (xs, edge_indices)
    where edge_indices locate the constant-q segment boundaries in xs."""
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    tol = 1e-12 * (1.0 + max(abs(a), abs(b)))
    edges = [a]
    for p in V.breakpoints:
        if p > a + tol and p < b - tol:
            edges.append(p)
    edges.append(b)
    nodes = []
    edge_idx = [0]
    count = 0
    for l, r in zip(edges, edges[1:]):
        n = max(1, int(math.ceil((r - l) / max_step - 1e-12)))
        seg = np.linspace(l, r, n + 1)
        nodes.append(seg[:-1])
        count += n
        edge_idx.append(count)
    nodes.append(np.array([b]))
    return np.concatenate(nodes), edge_idx


def _old_check_overflow(xs, us, dus, i0, i1):
    mag = np.max(np.maximum(np.abs(us[:, i0:i1 + 1]), np.abs(dus[:, i0:i1 + 1])), axis=0)
    bad = np.flatnonzero(mag > OVERFLOW_GUARD)
    if bad.size:
        raise OverflowAtX(float(xs[i0 + bad[0]]), float(mag[bad[0]]))


def _old_exact_kernel(xs, edge_idx, qs, u, du):
    """Closed-form flow of the data columns (u, du) at xs[0] along xs."""
    us = np.empty((len(u), len(xs)), dtype=complex)
    dus = np.empty_like(us)
    for i0, i1, q in zip(edge_idx, edge_idx[1:], qs):
        # bound the per-evaluation growth factor: evaluating far from the
        # block base cancels catastrophically for decaying solutions, so the
        # cell is split into blocks with |Re sqrt(q)| * length <= ~1
        growth = abs(np.sqrt(q).real)
        seg_len = xs[i1] - xs[i0]
        block = seg_len if growth * seg_len <= 1.0 else 1.0 / growth
        j0 = i0
        while j0 < i1:
            j1 = min(int(np.searchsorted(xs, xs[j0] + block, side="right")) - 1, i1)
            j1 = max(j1, j0 + 1)
            sl = slice(j0, j1 + 1)
            c, slh = _old_propagator_terms(q, xs[sl] - xs[j0])
            us[:, sl] = c * u[:, None] + slh * du[:, None]
            dus[:, sl] = q * slh * u[:, None] + c * du[:, None]
            _old_check_overflow(xs, us, dus, j0, j1)
            u, du = us[:, j1].copy(), dus[:, j1].copy()
            j0 = j1
    return us, dus


def _outcome(monkeypatch, kernel, grid, V, E, x0, x_end, u0, du0, step):
    """Traces from `kernel` on `grid`, both patched into the solver and run
    through `_traces` (so backward runs take the same reflection path), or
    the overflow's (x, magnitude).
    The per-block oracle guards its own nodes, so on a backward run its x is
    that of the reflected run, which is negated here."""
    with monkeypatch.context() as m:
        m.setattr(solver, "build_grid", grid)
        m.setattr(solver, "_exact_kernel", kernel)
        try:
            return _traces(V, E, x0, x_end, np.asarray(u0, dtype=complex),
                           np.asarray(du0, dtype=complex), step)
        except OverflowAtX as err:
            oracle_reflected = kernel is _old_exact_kernel and x_end < x0
            return -err.x if oracle_reflected else err.x, err.magnitude


def _group_size(q, h):
    """Blocks per group of the anchor scan over blocks (q, h): at most
    isqrt(nblk // 2), and at most GROUP_GROWTH / max |Re sqrt(q)| h, but 1 at
    least."""
    b = math.isqrt(len(q) // 2)
    grow = float(np.max(np.abs(np.sqrt(q).real) * h))
    if grow > 0:
        b = math.floor(min(b, solver.GROUP_GROWTH / grow))
    return max(1, b)


def _exact_nodes(V, E, x0, x_end, step):
    """How many nodes, counted from x0, keep the per-block arithmetic: those
    before the second group's first anchor, or all of them when every group
    of the anchor scan is a single block."""
    if x_end < x0:
        V, x0, x_end = V.reflected(), -x0, -x_end
    xs, edge_idx = build_grid(V, x0, x_end, step)
    mids = (xs[edge_idx[:-1]] + xs[edge_idx[1:]]) / 2.0
    qs = V.value_at(mids) - complex(E)
    growth = np.abs(np.sqrt(qs).real)
    row_node = np.append(np.sort(solver._block_anchors(xs, edge_idx, growth)), len(xs) - 1)
    q = qs[np.searchsorted(edge_idx, row_node[:-1], side="right") - 1]
    b = _group_size(q, np.diff(xs[row_node]))
    return len(xs) if b == 1 else int(row_node[b])


def _assert_close_traces(new, old, exact):
    """new and old traces agree bit for bit on the `exact` nodes (a slice),
    and within REL_TOL of the old trace's magnitude everywhere."""
    assert len(new) == len(old)
    for t, ref in zip(new, old):
        assert np.array_equal(t.xs, ref.xs)
        assert np.array_equal(t.u[exact], ref.u[exact])
        assert np.array_equal(t.du[exact], ref.du[exact])
        tol = REL_TOL * ref.magnitude_scale()
        assert np.max(np.abs(t.u - ref.u)) <= tol
        assert np.max(np.abs(t.du - ref.du)) <= tol


def _assert_same_traces(monkeypatch, V, E, x0, x_end, u0, du0, step):
    a, b = sorted((x0, x_end))
    xs, edge_idx = build_grid(V, a, b, step)
    xs_old, edge_old = _old_build_grid(V, a, b, step)
    assert np.array_equal(xs, xs_old)
    assert np.array_equal(edge_idx, edge_old)
    args = (V, E, x0, x_end, u0, du0, step)
    new = _outcome(monkeypatch, _exact_kernel, build_grid, *args)
    old = _outcome(monkeypatch, _old_exact_kernel, _old_build_grid, *args)
    if isinstance(old, tuple):
        assert new[0] == old[0]
        assert new[1] == pytest.approx(old[1], rel=REL_TOL, abs=0.0)
        return
    assert len(new) == len(u0)
    k = _exact_nodes(*args[:4], step)
    _assert_close_traces(new, old, slice(0, k) if x_end > x0 else slice(len(xs) - k, None))


def _block_step(mk, row):
    """Block matrix mk (laid out as the anchor scan lays it out) applied to
    the data row, by the per-block expression of the block-by-block scan."""
    p = np.empty((2, 2, row.shape[-1]), dtype=complex)
    np.multiply(mk, row.reshape(2, 1, -1), p)
    return p[0] + p[1]


_RANDOM_STEP = make_family("random_step", {"cells": 20, "low": -3, "high": 3, "seed": 8})
_FREE = PiecewisePotential((0.0, 1.0), (0.0,))
# 3,000 one-step cells, then a free cell of length 5: at step 1e-2 the first
# fill chunk holds only block anchors and the second one mixes both kinds
_LATTICE_THEN_FREE = PiecewisePotential(
    tuple((np.arange(3001) * 1e-3).tolist()) + (8.0,),
    tuple(np.random.default_rng(3).uniform(-40.0, 40.0, 3000).tolist()) + (0.0,))

# (V, E, x0, x_end, u0, du0, max_step)
_ORACLE_CASES = {
    "spike_lattice": (make_family("spike_lattice", {"span": 2.0}), 1.0,
                      0.0, 2.0, [1.0], [0.0], 1e-3),
    "random_step_real": (_RANDOM_STEP, 2.5, 0.0, _RANDOM_STEP.support[1],
                         [0.7], [-0.4], 1e-2),
    "random_step_complex": (_RANDOM_STEP, 1.0 + 0.5j, 0.0, _RANDOM_STEP.support[1],
                            [1.0], [0.2 - 0.3j], 3e-2),
    "free_multi_block": (_FREE, -1.0, 0.0, 12.0, [1.0], [-1.0], 1e-2),
    "free_coarse_blocks": (_FREE, -30.0, 0.0, 6.0, [1.0], [-1.0], 0.37),
    "series_branch": (_FREE, 1e-9, 0.0, 3.0, [1.0], [0.5], 1e-2),
    # closed form per block, though the series rule would pick nodes near anchors
    "small_q_closed_form": (_FREE, -1e-6 + 1e-6j, 0.0, 3.0, [1.0], [0.5], 1e-2),
    "offgrid_breakpoint": (PiecewisePotential((0.0, 1.0005, 2.0), (1.0, -1.0)), 0.5,
                           0.0, 2.0, [1.0], [0.0], 1e-2),
    "breakpoint_near_endpoint": (PiecewisePotential((0.0, 1e-13, 1.0, 2.0 - 1e-13),
                                                    (4.0, -1.0, 2.0)), 0.5,
                                 0.0, 2.0, [1.0], [0.3], 1e-2),
    "backward": (_RANDOM_STEP, 1.5 - 0.2j, _RANDOM_STEP.support[1], -0.5,
                 [1.0], [0.25j], 1e-2),
    "basis_columns_backward": (_RANDOM_STEP, -1.0, 6.0, 0.0, [1.0, 0.0], [0.0, 1.0], 1e-2),
    "anchor_chunk_then_mixed": (_LATTICE_THEN_FREE, 1.0, 0.0, 8.0, [1.0], [0.0], 1e-2),
    "mixed_chunk_then_anchors": (_LATTICE_THEN_FREE, 1.0 + 0.5j, 8.0, 0.0,
                                 [1.0], [0.5j], 1e-2),
    "anchor_chunk_basis_columns": (_LATTICE_THEN_FREE, 1.0, 0.0, 8.0,
                                   [1.0, 0.0], [0.0, 1.0], 1e-2),
}


class TestKernelOracle:
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_matches_per_block_kernel(self, monkeypatch, case):
        _assert_same_traces(monkeypatch, *_ORACLE_CASES[case])

    def test_free_case_splits_cells_into_blocks(self):
        xs, edge_idx = build_grid(_FREE, 0.0, 12.0, 1e-2)
        growth = np.ones(len(edge_idx) - 1)  # |Re sqrt(q)| for q = 1
        assert len(solver._block_anchors(xs, edge_idx, growth)) >= 12

    def test_basis_traces_match_oracle(self, monkeypatch):
        t1, t2 = basis_traces(_RANDOM_STEP, 0.5 + 0.5j, 0.0, 6.0, 1e-2)
        old = _outcome(monkeypatch, _old_exact_kernel, _old_build_grid, _RANDOM_STEP,
                       0.5 + 0.5j, 0.0, 6.0, [1.0, 0.0], [0.0, 1.0], 1e-2)
        k = _exact_nodes(_RANDOM_STEP, 0.5 + 0.5j, 0.0, 6.0, 1e-2)
        _assert_close_traces((t1, t2), old, slice(0, k))

    @pytest.mark.parametrize("nblk", [1, 2, 3, 8, 50, 51, 5000, 5001])
    @pytest.mark.parametrize("growing", [False, True])
    def test_rows_inside_groups_are_block_steps(self, nblk, growing):
        # nblk = 8, 50, 5000 fill their groups exactly (b = 2, 5, 50 when
        # oscillating); one more block opens the last group
        rng = np.random.default_rng(nblk)
        h = rng.uniform(1e-3, 0.05, nblk)
        q = -rng.uniform(1.0, 60.0, nblk) + 1e-3j * rng.uniform(-1.0, 1.0, nblk)
        if growing:  # one block with |Re sqrt(q)| h = 1: the growth cap sets b = 2
            q[-1], h[-1] = 400.0, 0.05
        series = _use_series(q, h)
        u, du = np.array([1.0, 0.5j]), np.array([0.0, -1.0])
        rows = solver._anchor_scan(q, h, series, u, du, np.abs(np.sqrt(q).real))
        assert rows.shape == (nblk + 1, 2, 2)
        assert np.array_equal(rows[0], [u, du])
        c, sl = _propagator_terms(q, h, series)
        m = np.stack([c, q * sl, sl, c], axis=1).reshape(nblk, 2, 2, 1)
        b = _group_size(q, h)
        for k in range(nblk):
            step = _block_step(m[k], rows[k])
            if b == 1 or (k + 1) % b:  # not a group start: the per-block step
                assert np.array_equal(rows[k + 1], step)
            else:  # a group start, carried by the product over its group
                scale = np.max(np.abs(rows[:k + 2]))
                assert np.max(np.abs(rows[k + 1] - step)) <= REL_TOL * scale

    @pytest.mark.parametrize("x0, du0, x_end", [(0.0, 10.0, 40.0), (40.0, -10.0, 0.0)])
    def test_overflow_parity(self, monkeypatch, x0, du0, x_end):
        # the [0, 40] inputs of test_overflow_guard_reports_abscissa; no
        # overflow or invalid-value warning may escape
        V = PiecewisePotential((0.0, 40.0), (0.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowAtX) as exc:
                propagate_exact(V, -100.0, InitialData(x0, 1.0, du0), x_end, 0.01)
            old = _outcome(monkeypatch, _old_exact_kernel, _old_build_grid, V, -100.0,
                           x0, x_end, [1.0], [du0], 0.01)
        assert exc.value.x == old[0]
        assert exc.value.magnitude == pytest.approx(old[1], rel=REL_TOL, abs=0.0)

    def test_overflow_parity_in_anchor_chunk(self, monkeypatch):
        # 5,000 one-step cells: the first node over the guard lies in the
        # second fill chunk, which holds only block anchors
        V = PiecewisePotential(tuple((np.arange(5001) * 1e-3).tolist()), (1e4,) * 5000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowAtX) as exc:
                propagate_exact(V, 0.0, InitialData(0.0, 1.0, 0.0), 5.0, 1e-2)
            old = _outcome(monkeypatch, _old_exact_kernel, _old_build_grid, V, 0.0,
                           0.0, 5.0, [1.0], [0.0], 1e-2)
        assert solver._FILL_CHUNK < round(exc.value.x / 1e-3) < 2 * solver._FILL_CHUNK
        assert exc.value.x == old[0]
        assert exc.value.magnitude == pytest.approx(old[1], rel=REL_TOL, abs=0.0)

    @given(seed=st.integers(0, 2 ** 31 - 1), cells=st.integers(1, 12),
           step=st.floats(1e-3, 0.6), energy=st.complex_numbers(max_magnitude=40.0),
           backward=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_step_property(self, seed, cells, step, energy, backward):
        V = make_family("random_step", {"cells": cells, "low": -20, "high": 20,
                                        "seed": seed})
        a, b = V.support
        x0, x_end = (b, a - 0.3) if backward else (a - 0.3, b)
        with pytest.MonkeyPatch.context() as mp:
            _assert_same_traces(mp, V, energy, x0, x_end, [1.0, 0.5j], [0.0, -1.0], step)

    def test_reports_within_tolerance(self, monkeypatch):
        # A seeded sweep with a 5000-block spike lattice, and the default
        # suite.  A witness may move only to a node whose ratio ties with the
        # old witness's within REPORT_TOL: the flat profiles of e^{-x}
        # (exp-decay's derivative_lp_p2 varies by 1e-11 over its plateau).
        doc = harness.load_suite_config(harness.default_suite_path())
        suites = [harness.sweep_scenarios(n_scenarios=3, seed=1),
                  [harness.parse_scenario(o) for o in doc["scenarios"]]]
        for scenarios in suites:
            def report():
                return json.loads(harness.run_scenarios(scenarios).to_json(False))

            spy = _ArgmaxSpy()
            with monkeypatch.context() as m:
                m.setattr(verifier, "np", spy)
                new = report()
            with monkeypatch.context() as m:
                m.setattr(solver, "_exact_kernel", _old_exact_kernel)
                old = report()
            by_id = {s.id: s for s in scenarios}
            for e_new, e_old in zip(new["scenarios"], old["scenarios"]):
                for o_new, o_old in zip(e_new["outcomes"], e_old["outcomes"]):
                    if o_new["witness_x"] != o_old["witness_x"]:
                        xs = harness.scenario_trace(by_id[e_new["id"]]).xs
                        assert spy.near_tie(xs, o_new, o_old["witness_x"]), o_new
                        o_new["witness_x"] = o_old["witness_x"]
            _assert_reports_close(new, old)


def _old_block_anchors(xs, edge_idx, growth):
    """`solver._block_anchors` with every segment in the rounds, one step
    long or not."""
    i0, i1 = edge_idx[:-1], edge_idx[1:]
    block = xs[i1] - xs[i0]
    wide = growth * block > 1.0
    block[wide] = 1.0 / growth[wide]
    anchors, j0 = [i0], i0
    while True:
        j1 = np.searchsorted(xs, xs[j0] + block, side="right") - 1
        j1 = np.maximum(np.minimum(j1, i1), j0 + 1)
        more = j1 < i1
        if not more.any():
            return np.concatenate(anchors)
        j0, i1, block = j1[more], i1[more], block[more]
        anchors.append(j0)


@pytest.mark.parametrize("V, step", [(_LATTICE_THEN_FREE, 1e-2), (_RANDOM_STEP, 3e-2),
                                     (make_family("spike_lattice", {"span": 2.0}), 1e-3)])
@pytest.mark.parametrize("energy", [1.0, -30.0, 2.0 + 5.0j])
def test_block_anchors_equal_all_segment_rounds(V, step, energy):
    xs, edge_idx = build_grid(V, V.support[0], V.support[1], step)
    mids = (xs[edge_idx[:-1]] + xs[edge_idx[1:]]) / 2.0
    growth = np.abs(np.sqrt(V.value_at(mids) - complex(energy)).real)
    assert np.array_equal(solver._block_anchors(xs, edge_idx, growth),
                          _old_block_anchors(xs, edge_idx, growth))


# (V, E, x0, x_end, max_step): a lattice of one-step cells, a 3-cell step and
# a random step, each of which the scan cuts into a different number of blocks
_WORKSPACE_CASES = {
    "lattice": (make_family("spike_lattice", {"span": 2.0, "g": 3.0}), 1.0, 0.0, 2.0, 1e-3),
    "step3": (PiecewisePotential((0.0, 1.0, 2.5, 3.0), (4.0, -2.0, 0.5)), 0.5 + 0.25j,
              0.0, 3.0, 1e-2),
    "random_step": (_RANDOM_STEP, -1.0, _RANDOM_STEP.support[1], 0.0, 1e-2),
}
_COLUMNS = {1: ([1.0], [0.3j]), 2: ([1.0, 0.0], [0.0, 1.0])}


def _trace_bytes(case, ncol):
    """The bytes of the traces of one workspace case, run in this thread."""
    V, E, x0, x_end, step = _WORKSPACE_CASES[case]
    u0, du0 = (np.array(a, dtype=complex) for a in _COLUMNS[ncol])
    return b"".join(t.xs.tobytes() + t.u.tobytes() + t.du.tobytes()
                    for t in _traces(V, E, x0, x_end, u0, du0, step))


def _in_threads(jobs, timeout=60.0):
    """Run each job in a thread of its own; return their results."""
    results = [None] * len(jobs)

    def run(i):
        results[i] = jobs[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)
    return results


@pytest.fixture(scope="module")
def fresh_bytes():
    """The bytes of every workspace case, each run first in a fresh thread."""
    keys = [(case, ncol) for case in _WORKSPACE_CASES for ncol in _COLUMNS]
    return dict(zip(keys, _in_threads([lambda k=k: _trace_bytes(*k) for k in keys])))


class TestScanWorkspace:
    """The anchor scan's work arrays, kept per thread (`solver._scan_arrays`)."""

    def test_one_thread_reuses_its_workspace(self, fresh_bytes):
        # lattice -> 3-cell step -> lattice, one column -> two columns: every
        # scan finds the arrays of the one before it in the workspace
        order = [("lattice", 1), ("step3", 1), ("lattice", 1), ("lattice", 2),
                 ("step3", 2), ("random_step", 1), ("random_step", 2), ("lattice", 2)]
        for key in order:
            assert _trace_bytes(*key) == fresh_bytes[key], key

    @pytest.mark.parametrize("nthreads", [2, 4])
    def test_threads_equal_serial_bytes(self, fresh_bytes, nthreads):
        keys = list(fresh_bytes)

        def job(i):
            # each thread its own order of potentials and column counts
            order = keys[i:] + keys[:i]
            return [(key, _trace_bytes(*key)) for _ in range(3) for key in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _in_threads([lambda i=i: job(i) for i in range(nthreads)])
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert len(result) == 3 * len(keys)
            for key, got in result:
                assert got == fresh_bytes[key], key

    def test_scan_past_the_cap_keeps_no_larger_workspace(self, monkeypatch, fresh_bytes):
        cap = 1 << 16  # room for the 3-cell step's scan, not for the lattice's
        monkeypatch.setattr(solver, "SCAN_WORKSPACE_BYTES", cap)

        def job():
            sizes = []
            for key in [("step3", 2), ("lattice", 2), ("lattice", 1), ("step3", 1)]:
                assert _trace_bytes(*key) == fresh_bytes[key], key
                sizes.append(solver._workspace.buf.nbytes)
            return sizes

        (sizes,) = _in_threads([job])
        assert sizes[0] <= cap and sizes == [sizes[0]] * 4


class _ArgmaxSpy:
    """numpy as the verifier sees it, keeping every array it takes an argmax
    of: the ratio profiles of the checks."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, a, *args, **kwargs):
        self.seen.append(np.asarray(a))
        return np.argmax(a, *args, **kwargs)

    def near_tie(self, xs, outcome, x_old):
        """Whether the outcome's ratio profile, over consecutive nodes of xs,
        is within REPORT_TOL of its worst ratio at x_old too."""
        for ratios in self.seen:
            if len(ratios) == outcome["points_checked"] and \
                    ratios.max() == outcome["worst_ratio"]:
                i_new, i_old = np.searchsorted(xs, [outcome["witness_x"], x_old])
                at_old = ratios[int(np.argmax(ratios)) + i_old - i_new]
                return bool(at_old >= ratios.max() * (1.0 - REPORT_TOL))
        return False


def _assert_reports_close(new, old, path=""):
    """Every field of two reports the same, but floats within REPORT_TOL."""
    if isinstance(old, dict):
        assert new.keys() == old.keys(), path
        for key in old:
            _assert_reports_close(new[key], old[key], f"{path}/{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), path
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_reports_close(a, b, f"{path}[{i}]")
    elif isinstance(old, float):
        assert new == pytest.approx(old, rel=REPORT_TOL, abs=0.0), path
    else:
        assert new == old, path
