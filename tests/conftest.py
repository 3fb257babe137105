import numpy as np
import pytest

from schro1d import (
    InitialData,
    PiecewisePotential,
    constants_for,
    propagate_exact,
)
from schro1d.solver import basis_traces
from schro1d.verifier import analytic_trace


def riemann_negative_integral(V, a, b, step=1e-6):
    """Dense midpoint Riemann sum of V_- over [a, b]; independent oracle."""
    n = max(1, int(round((b - a) / step)))
    mids = a + (np.arange(n) + 0.5) * (b - a) / n
    vm = np.maximum(-V.value_at(mids), 0.0)
    return float(np.sum(vm) * (b - a) / n)


def riemann_c1(V, step=1e-4):
    """Brute-force sliding-window sup of the unit-window integral of V_-.

    Samples V_- at midpoints of a uniform grid over [x0-1, xn+1] and slides
    a unit window over the cumulative sums.  Exact when all breakpoints are
    multiples of the step.
    """
    a = V.breakpoints[0] - 1.0
    b = V.breakpoints[-1] + 1.0
    n = int(round((b - a) / step))
    mids = a + (np.arange(n) + 0.5) * step
    vm = np.maximum(-V.value_at(mids), 0.0)
    cum = np.concatenate([[0.0], np.cumsum(vm * step)])
    w = int(round(1.0 / step))
    F = cum[w:] - cum[:-w]
    return float(np.max(F))


def frobenius_integrand(V, E, X, step):
    """Simon-Stolz integrand 1/||T(E,x,0)||^2 with the Frobenius norm in
    place of the operator 2-norm, for the norm-robustness checks."""
    t1, t2 = basis_traces(V, E, 0.0, X, step)
    f = (np.abs(t1.u) ** 2 + np.abs(t2.u) ** 2
         + np.abs(t1.du) ** 2 + np.abs(t2.du) ** 2)
    return t1.xs, 1.0 / f


@pytest.fixture
def free_potential():
    return PiecewisePotential((0.0, 20.0), (0.0,))


@pytest.fixture
def square_well():
    return PiecewisePotential((0.0, 3.0), (-2.0,))


@pytest.fixture
def sin_trace(free_potential):
    # u = sin(x), u' = cos(x) for V = 0, E = 1
    return propagate_exact(free_potential, 1.0, InitialData(0.0, 0.0, 1.0), 20.0, 0.005)


@pytest.fixture
def sin_consts():
    return constants_for(0.0, 1.0)


@pytest.fixture
def harmonic_trace():
    # analytic ground state of -u'' + x^2 u = u: u = exp(-x^2/2)
    xs = np.linspace(-6.0, 6.0, 6001)
    return analytic_trace(
        xs,
        lambda x: np.exp(-x * x / 2.0),
        lambda x: -x * np.exp(-x * x / 2.0),
        1.0,
    )
