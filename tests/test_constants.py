import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schro1d import (
    DegenerateConstants,
    InitialData,
    PiecewisePotential,
    constants_for,
    energy_of,
    parse_scenario,
    propagate_exact,
    simon_stolz_curve,
    transfer_matrix,
)
from schro1d.solver import basis_traces
from schro1d.verifier import analytic_trace

FREE = PiecewisePotential((0.0, 1.0), (0.0,))
# every library entry that takes an energy, called with E
ENTRIES = {
    "constants_for": lambda E: constants_for(0.0, E),
    "propagate_exact": lambda E: propagate_exact(FREE, E, InitialData(0.0, 1.0, 0.0), 1.0, 0.1),
    "basis_traces": lambda E: basis_traces(FREE, E, 0.0, 1.0, 0.1)[0],
    "transfer_matrix": lambda E: transfer_matrix(FREE, E, 1.0, 0.0, 0.1),
    "simon_stolz_curve": lambda E: simon_stolz_curve(FREE, E, 1.0, 0.1),
    "analytic_trace": lambda E: analytic_trace([0.0, 1.0], np.cos, np.sin, E),
}


def test_spot_values_unit_c2():
    c = constants_for(0.0, 1.0)
    assert c.c2 == 1.0
    assert c.c_bound == pytest.approx(3.0, abs=1e-14)
    assert c.k_radius == pytest.approx(1.0, abs=1e-14)
    assert c.delta == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-14)


def test_spot_values_c2_four():
    c = constants_for(2.0, 2j)
    assert c.c2 == 4.0
    assert c.c_bound == pytest.approx(8.0, abs=1e-14)
    assert c.k_radius == pytest.approx(0.5, abs=1e-14)
    assert c.delta == pytest.approx(-0.5 + math.sqrt(0.375), abs=1e-12)
    assert c.delta == pytest.approx(0.1123724, abs=1e-7)


def test_degenerate_refused():
    with pytest.raises(DegenerateConstants):
        constants_for(0.0, 0.0)


def test_c2_floor_opt_in():
    c = constants_for(0.0, 0.0, c2_floor=0.5)
    assert c.c2 == 0.5
    c.validate()


def test_rejects_negative_c1():
    with pytest.raises(ValueError):
        constants_for(-1.0, 1.0)


def test_energy_parsing():
    assert energy_of(2 + 1j) == complex(2.0, 1.0)
    assert type(energy_of(np.float64(3.0))) is complex and energy_of(3) == 3.0
    with pytest.raises(TypeError):  # a config's {"re", "im"} is read by the harness
        energy_of({"re": 3})
    assert abs(energy_of(energy_of(1 + 2j))) == pytest.approx(math.sqrt(5))
    for bad in (math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            energy_of(bad)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, -math.inf)],
                         ids=["nan", "inf"])
def test_every_entry_rejects_a_non_finite_energy(entry, bad):
    with pytest.raises(ValueError, match="energy components must be finite"):
        entry(bad)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
def test_every_energy_is_a_complex(entry):
    energy = entry(np.float64(2.0)).energy
    assert type(energy) is complex and energy == 2.0


def test_scenario_energy_is_a_complex():
    scn = parse_scenario({"id": "free", "potential": {"breakpoints": [0.0, 1.0], "values": [0.0]},
                          "energy": {"re": 2.0, "im": -1.0}})
    assert type(scn.energy) is complex and scn.energy == 2.0 - 1.0j


@given(st.floats(1e-6, 1e6))
def test_quadratic_identity(c2):
    c = constants_for(c2, 0.0)
    assert abs(c.c2 * c.delta * (c.delta + 1) - 0.5) <= 1e-12
    assert abs(c.c_bound - c.c2 * (1 + 2 * c.k_radius)) <= 1e-12 * max(1.0, c.c_bound)


def test_monotonicity_over_log_grid():
    grid = np.logspace(-6, 6, 200)
    cs = [constants_for(c2, 0.0) for c2 in grid]
    deltas = [c.delta for c in cs]
    ks = [c.k_radius for c in cs]
    cbs = [c.c_bound for c in cs]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert all(a < b for a, b in zip(cbs, cbs[1:]))


@given(st.floats(0, 10), st.floats(-5, 5), st.floats(-5, 5))
def test_energy_enters_only_via_modulus(c1, re, im):
    e = complex(re, im)
    if c1 + abs(e) == 0:
        return
    a = constants_for(c1, e)
    b = constants_for(c1, abs(e))
    assert (a.c2, a.c_bound, a.k_radius, a.delta) == (b.c2, b.c_bound, b.k_radius, b.delta)


def test_validate_catches_corruption():
    c = constants_for(1.0, 1.0)
    c.validate()
    from dataclasses import replace

    bad = replace(c, delta=c.delta * 1.01)
    with pytest.raises(AssertionError):
        bad.validate()
