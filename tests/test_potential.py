import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schro1d import (
    ConfigError,
    PiecewisePotential,
    c1_sup,
    make_family,
)
from conftest import riemann_c1, riemann_negative_integral
from oracles import negative_part_integral, window_integral


@st.composite
def potentials(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    widths = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    x0 = draw(st.floats(-5.0, 5.0))
    # tiny magnitudes underflow under multiplication, breaking exact scaling;
    # snap them to zero (zero cells stay interesting for the sup)
    raw = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    vals = [0.0 if abs(v) < 1e-6 else v for v in raw]
    bp = x0 + np.concatenate([[0.0], np.cumsum(widths)])
    return PiecewisePotential(tuple(bp.tolist()), tuple(vals))


THREE_CELL = PiecewisePotential((0.0, 0.4, 1.2, 2.0), (-3.0, 0.0, -5.0))


class TestConstruction:
    def test_rejects_single_breakpoint(self):
        with pytest.raises(ValueError):
            PiecewisePotential((0.0,), ())

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewisePotential((0.0, 1.0, 0.5), (1.0, 2.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PiecewisePotential((0.0, np.inf), (1.0,))
        with pytest.raises(ValueError):
            PiecewisePotential((0.0, 1.0), (np.nan,))

    @pytest.mark.parametrize("bp, vals, message", [
        ((0.0, np.inf), (1.0,), "breakpoints must be finite"),
        ((np.nan, 1.0, 2.0), (1.0, 2.0), "breakpoints must be finite"),
        ((0.0, 1.0, 2.0), (1.0, np.nan), "values must be finite"),
        ((0.0, 1.0, 1.0, 2.0), (1.0, 2.0, 3.0), "breakpoints must be strictly increasing"),
    ])
    def test_rejection_messages(self, bp, vals, message):
        with pytest.raises(ValueError, match=message):
            PiecewisePotential(bp, vals)

    def test_long_lattice_transforms_match_per_element_construction(self):
        V = make_family("spike_lattice", {"span": 5.0})
        assert len(V.values) == 5000
        bps, vals = V.breakpoints.tolist(), V.values.tolist()
        expected = (
            (V.reflected(), [-b for b in bps[::-1]], vals[::-1]),
            (PiecewisePotential(V.breakpoints + 0.25, V.values), [b + 0.25 for b in bps], vals),
        )
        for W, bp, cells in expected:
            built = PiecewisePotential(tuple(bp), tuple(cells))
            for arr, ref, numbers in ((W.breakpoints, built.breakpoints, bp),
                                      (W.values, built.values, cells)):
                assert arr.dtype == ref.dtype == np.float64
                assert arr.tobytes() == ref.tobytes() == np.array(numbers).tobytes()

    def test_arrays_are_read_only(self):
        V = PiecewisePotential((0.0, 1.0, 2.0), (-1.0, 3.0))
        assert V.breakpoints is V.breakpoints
        assert V.breakpoints.tobytes() == np.array([0.0, 1.0, 2.0]).tobytes()
        assert V.values.tobytes() == np.array([-1.0, 3.0]).tobytes()
        for arr in (V.breakpoints, V.values):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5.0
        assert V.support == (0.0, 2.0)
        assert all(type(x) is float for x in V.support)

    def test_caller_array_mutation_does_not_change_potential(self):
        bp, vals = np.array([0.0, 1.0, 2.0]), np.array([-1.0, 3.0])
        V = PiecewisePotential(bp, vals)
        bp[1], vals[0] = 0.5, 7.0
        assert V.breakpoints.tobytes() == np.array([0.0, 1.0, 2.0]).tobytes()
        assert V.values.tobytes() == np.array([-1.0, 3.0]).tobytes()
        assert V.value_at(0.75) == -1.0

    @given(V=potentials(), through_zero=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_reflected_equals_validated_construction(self, V, through_zero):
        # a breakpoint at 0.0 reflects to -0.0, whose sign the arrays must
        # keep: arrays are compared by their bytes
        if through_zero:
            t = -V.breakpoints[len(V.breakpoints) // 2]
            V = PiecewisePotential(V.breakpoints + t, V.values)
        W = V.reflected()
        built = PiecewisePotential(tuple(-b for b in reversed(V.breakpoints.tolist())),
                                   tuple(reversed(V.values.tolist())))
        for arr, ref in ((W.breakpoints, built.breakpoints), (W.values, built.values)):
            assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5.0
        if through_zero:
            zero = W.breakpoints == 0.0
            assert zero.any() and np.signbit(W.breakpoints[zero]).all()
        WW = W.reflected()
        assert WW.breakpoints.tobytes() == V.breakpoints.tobytes()
        assert WW.values.tobytes() == V.values.tobytes()

    def test_value_at_zero_extension(self):
        V = THREE_CELL
        assert V.value_at(-0.5) == 0.0
        assert V.value_at(5.0) == 0.0
        assert V.value_at(0.2) == -3.0
        assert V.value_at(0.4) == 0.0  # right-continuous at the breakpoint


class TestNegativePartIntegral:
    def test_nonnegative_potential_gives_zero(self):
        V = PiecewisePotential((0.0, 10.0), (0.0,))
        assert negative_part_integral(V, 2.0, 5.0) == 0.0

    def test_constant_well(self):
        V = PiecewisePotential((0.0, 3.0), (-2.0,))
        assert negative_part_integral(V, 0.5, 1.5) == pytest.approx(2.0, abs=1e-14)

    def test_three_cell_against_riemann_oracle(self):
        got = negative_part_integral(THREE_CELL, 1.0, 2.0)
        assert got == pytest.approx(4.0, abs=1e-12)
        assert got == pytest.approx(riemann_negative_integral(THREE_CELL, 1.0, 2.0), abs=1e-9)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError, match="empty interval"):
            negative_part_integral(THREE_CELL, 2.0, 1.0)

    def test_rejects_nonfinite_endpoints(self):
        with pytest.raises(ValueError):
            negative_part_integral(THREE_CELL, 0.0, np.inf)

    @given(potentials(), st.floats(-8, 8), st.floats(0, 3), st.floats(0, 3))
    def test_additivity(self, V, a, w1, w2):
        b, c = a + w1, a + w1 + w2
        total = negative_part_integral(V, a, c)
        split = negative_part_integral(V, a, b) + negative_part_integral(V, b, c)
        assert abs(total - split) <= 1e-12 * (1.0 + abs(total))


class TestC1Sup:
    def test_zero_potential(self):
        V = PiecewisePotential((0.0, 10.0), (0.0,))
        assert c1_sup(V).supremum == 0.0

    def test_constant_well_matches_brute_force(self):
        V = PiecewisePotential((0.0, 3.0), (-2.0,))
        prof = c1_sup(V)
        assert prof.supremum == pytest.approx(2.0, abs=1e-12)
        assert prof.supremum == pytest.approx(riemann_c1(V), abs=1e-9)

    def test_three_cell_sup_and_argmax(self):
        prof = c1_sup(THREE_CELL)
        assert prof.supremum == pytest.approx(4.0, abs=1e-12)
        # smallest maximizing window start; F(1.0) = F(1.2) = 4
        assert prof.argmax == pytest.approx(1.0, abs=1e-12)
        assert prof.supremum == pytest.approx(riemann_c1(THREE_CELL), abs=1e-9)

    def test_sup_dominates_sampled_windows(self):
        rng = np.random.default_rng(42)
        prof = c1_sup(THREE_CELL)
        xs = rng.uniform(THREE_CELL.breakpoints[0] - 1.0,
                         THREE_CELL.breakpoints[-1], size=1000)
        F = window_integral(THREE_CELL, xs)
        assert np.all(prof.supremum - F >= -1e-12)

    @given(potentials(), st.floats(-10, 10))
    def test_translation_invariance(self, V, t):
        s0 = c1_sup(V).supremum
        s1 = c1_sup(PiecewisePotential(tuple(b + t for b in V.breakpoints), V.values)).supremum
        assert abs(s0 - s1) <= 1e-12 * (1.0 + abs(s0))

    @given(potentials())
    def test_scaling_by_power_of_two_is_exact(self, V):
        scaled = PiecewisePotential(V.breakpoints, tuple(4.0 * v for v in V.values))
        assert c1_sup(scaled).supremum == 4.0 * c1_sup(V).supremum

    @given(potentials(), st.floats(0.1, 7.0))
    @settings(max_examples=50)
    def test_scaling_general(self, V, lam):
        s = c1_sup(V).supremum
        scaled = PiecewisePotential(V.breakpoints, tuple(lam * v for v in V.values))
        assert c1_sup(scaled).supremum == pytest.approx(lam * s, rel=1e-12, abs=1e-13)

    def test_supremum_equals_max_of_profile(self):
        # F at every kink of the profile: where x or x + 1 is a breakpoint
        bp = THREE_CELL.breakpoints
        kinks = np.unique(np.clip(np.concatenate([bp, bp - 1.0]), bp[0] - 1.0, bp[-1]))
        F = window_integral(THREE_CELL, kinks)
        prof = c1_sup(THREE_CELL)
        assert prof.supremum == np.max(F)
        assert prof.argmax == kinks[np.argmax(F)]
        assert prof.supremum >= 0.0


class TestMakeFamily:
    def test_square_well(self):
        V = make_family("square_well", {"depth": 2, "width": 3})
        assert V.breakpoints.tobytes() == np.array([0.0, 3.0]).tobytes()
        assert V.values.tobytes() == np.array([-2.0]).tobytes()

    def test_square_well_rejects_bad_width(self):
        with pytest.raises(ConfigError, match="width"):
            make_family("square_well", {"depth": 2, "width": 0})

    def test_random_step_deterministic(self):
        V1 = make_family("random_step", {"cells": 12, "low": -2, "high": 2, "seed": 7})
        V2 = make_family("random_step", {"cells": 12, "low": -2, "high": 2, "seed": 7})
        assert V1.breakpoints.tobytes() == V2.breakpoints.tobytes()
        assert V1.values.tobytes() == V2.values.tobytes()

    def test_random_step_rejects_empty_range(self):
        with pytest.raises(ConfigError, match="range"):
            make_family("random_step", {"cells": 5, "low": 1.0, "high": 1.0, "seed": 0})

    def test_spike_lattice_c1_matches_riemann_oracle(self):
        V = make_family(
            "spike_lattice",
            {"g": 1.0, "period": 1.0, "cap": 100.0, "cell": 1e-3, "span": 5.0},
        )
        c1 = c1_sup(V).supremum
        # roughly the integral of min(1/sqrt|t|, 100) over one period
        assert 2.0 < c1 < 3.2
        assert c1 == pytest.approx(riemann_c1(V, step=1e-4), abs=1e-9)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family 'morse'"):
            make_family("morse", {})
