"""Independent oracles for the solver and the potential, used only by the tests.

A classical fixed-step RK4 integrator cross-checks the closed-form kernel:
`propagate_rk` runs `solver.propagate_exact` with `_rk_kernel` in place of
`solver._exact_kernel`, so it shares the grid, the reflection of backward runs
and the overflow guard, and only the flow between nodes differs.
`negative_part_integral` integrates V_- cell by cell, and `window_integral`
interpolates its cumulative knots, the unit-window integral whose supremum
`potential.c1_sup` takes.
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np

from schro1d import solver
from schro1d.potential import PiecewisePotential
from schro1d.solver import InitialData, SolutionTrace


def _step_powers(alpha, beta, qbeta, n):
    """Entries (0,0), (0,1), (1,0), (1,1) of S^1 .. S^n for the step matrix
    S = [[alpha, beta], [qbeta, alpha]], by doubling: S^(m+k) = S^m S^k for
    every k <= m at once, as explicit elementwise 2x2 products."""
    p = np.empty((4, n), dtype=complex)
    p[:, 0] = alpha, beta, qbeta, alpha
    m = 1
    while m < n:
        k = min(m, n - m)
        a, b, c, d = p[:, m - 1]  # S^m
        ka, kb, kc, kd = p[:, :k]
        p[0, m:m + k] = a * ka + b * kc
        p[1, m:m + k] = a * kb + b * kd
        p[2, m:m + k] = c * ka + d * kc
        p[3, m:m + k] = c * kb + d * kd
        m += k
    return p


def _rk_kernel(xs, edge_idx, qs, u, du):
    """Fixed-step RK4 flow of the data columns (u, du) at xs[0] along xs.

    On the linear system RK4 collapses to one constant 2x2 step matrix S per
    cell, so node k of a cell is S^k times the data at the cell's start; the
    last node carries the data into the next cell.  It uses no blocks and no
    anchors, which keeps it independent of the exact kernel.
    """
    us = np.empty((len(u), len(xs)), dtype=complex)
    dus = np.empty_like(us)
    us[:, 0], dus[:, 0] = u, du
    for i0, i1, q in zip(edge_idx, edge_idx[1:], qs.tolist()):
        h = (xs[i1] - xs[i0]) / (i1 - i0)
        alpha = 1.0 + q * h * h / 2.0 + q * q * h ** 4 / 24.0
        beta = h + q * h ** 3 / 6.0
        p = _step_powers(alpha, beta, q * beta, i1 - i0)
        u, du = us[:, i0, None], dus[:, i0, None]
        us[:, i0 + 1:i1 + 1] = p[0] * u + p[1] * du
        dus[:, i0 + 1:i1 + 1] = p[2] * u + p[3] * du
    return us, dus


def propagate_rk(V, E, init: InitialData, x_end: float, step: float) -> SolutionTrace:
    """Classical fixed-step RK4 on (u, u')' = (u', (V - E) u).

    Steps are split at cell boundaries so every stage sees the cell's constant
    potential value; used to cross-validate propagate_exact.
    """
    with mock.patch.object(solver, "_exact_kernel", _rk_kernel):
        trace = solver.propagate_exact(V, E, init, x_end, step)
    return dataclasses.replace(trace, method="rk4")


def wronskian(t1: SolutionTrace, t2: SolutionTrace) -> np.ndarray:
    """u v' - u' v along the shared grid (constant for solutions of the same
    equation); callers normalize by the product magnitude when asserting."""
    if len(t1.xs) != len(t2.xs) or np.max(np.abs(t1.xs - t2.xs)) > 0:
        raise ValueError("traces must share the same grid")
    return t1.u * t2.du - t1.du * t2.u


def negative_part_integral(V: PiecewisePotential, a: float, b: float) -> float:
    """Exact integral of V_- over [a, b] (zero extension outside the cells)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    bp = V.breakpoints
    lo = np.maximum(bp[:-1], a)
    hi = np.minimum(bp[1:], b)
    return float(np.dot(np.maximum(hi - lo, 0.0), np.maximum(-V.values, 0.0)))


def window_integral(V: PiecewisePotential, x, length: float = 1.0):
    """F(x) = integral over [x, x+length] of V_-, vectorized in x."""
    bp = V.breakpoints
    cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * np.maximum(-V.values, 0.0))])
    x = np.asarray(x, dtype=float)
    g_hi = np.interp(x + length, bp, cum, left=0.0, right=cum[-1])
    g_lo = np.interp(x, bp, cum, left=0.0, right=cum[-1])
    out = g_hi - g_lo
    return out if out.ndim else float(out)
