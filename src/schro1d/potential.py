"""Piecewise-constant potentials and the uniform local L1 constant of their
negative part.

A potential is described by finitely many constant cells and extended by zero
outside the described interval.  All integrals of the negative part are closed
form, and the sliding-window supremum

    sup_x  integral_{x}^{x+1} max(-V(y), 0) dy

is computed exactly: the window integral is piecewise linear in x, so its
maximum is attained at a breakpoint of either window edge.

The families square_well, spike_lattice and random_step take typed arguments:
harness.FAMILIES reads and tests each field, a builder what relates two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _read_only(numbers):
    """A read-only float64 copy of numbers."""
    arr = np.array(numbers, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PiecewisePotential:
    """Real potential, constant on cells [x_i, x_{i+1}), zero outside.

    breakpoints: strictly increasing abscissae x_0 < ... < x_n (n+1 of them)
    values: n cell values

    Both are kept as read-only float64 arrays, copied from the arguments
    once, so a potential never changes with the caller's arrays.  Arrays
    have no value equality: two potentials compare by identity.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _read_only(self.breakpoints)
        vals = _read_only(self.values)
        if bp.ndim != 1 or len(bp) < 2:
            raise ValueError("need at least two breakpoints (one cell)")
        if vals.shape != (len(bp) - 1,):
            raise ValueError("values must have one entry per cell")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        if not (np.diff(bp) > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def support(self):
        """Described interval [x_0, x_n], as Python floats; V vanishes outside it."""
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def value_at(self, x):
        """Evaluate V at x (scalar or array); right-continuous on cells,
        zero outside the described interval."""
        x = np.asarray(x, dtype=float)
        bp = self.breakpoints
        idx = np.searchsorted(bp, x, side="right") - 1
        inside = (x >= bp[0]) & (x <= bp[-1])
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = np.where(inside, self.values[idx], 0.0)
        return out if out.ndim else float(out)

    def reflected(self):
        """V(-x): cells mirrored about the origin, through the validating
        constructor (a breakpoint at 0.0 reflects to -0.0)."""
        return PiecewisePotential(-self.breakpoints[::-1], self.values[::-1])


@dataclass(frozen=True)
class WindowIntegralProfile:
    """Supremum of F(x) = integral_x^{x+1} V_- and its (smallest) maximizer."""

    supremum: float
    argmax: float


def c1_sup(V: PiecewisePotential) -> WindowIntegralProfile:
    """Exact supremum of the unit-window integral of V_-.

    F is continuous, piecewise linear, with kinks only where x or x+1 crosses
    a breakpoint; it vanishes for x <= x_0 - 1 and x >= x_n.  Evaluating F at
    all kinks (clipped to [x_0 - 1, x_n]) therefore yields the exact sup.
    Ties are broken toward the smallest abscissa.
    """
    bp = V.breakpoints
    # G(t) = integral_{x_0}^{t} V_-, linear between its knots bp
    cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * np.maximum(-V.values, 0.0))])
    lo, hi = bp[0] - 1.0, bp[-1]
    cands = np.unique(np.clip(np.concatenate([bp, bp - 1.0]), lo, hi))
    F = (np.interp(cands + 1.0, bp, cum, left=0.0, right=cum[-1])
         - np.interp(cands, bp, cum, left=0.0, right=cum[-1]))
    sup = float(np.max(F))
    tol = 1e-12 * (1.0 + abs(sup))
    arg = float(cands[np.flatnonzero(F >= sup - tol)[0]])
    return WindowIntegralProfile(supremum=sup, argmax=arg)


def square_well(depth, width):
    """V = -depth on [0, width]."""
    return PiecewisePotential((0.0, width), (-depth,))


def spike_lattice(g, period, cap, cell, span):
    """-g/sqrt(|x - m|) spikes, one centred in each period, truncated at depth
    cap and sampled on cells of width cell over [0, span]."""
    n = int(round(span / cell))
    if n < 1:
        raise ValueError("span too small for the requested cell width")
    bp = np.arange(n + 1) * cell
    mids = (bp[:-1] + bp[1:]) / 2
    # one spike per period, centered in the period
    centers = (np.floor(mids / period) + 0.5) * period
    dist = np.abs(mids - centers)
    with np.errstate(divide="ignore"):
        depth = np.where(dist > 0, g / np.sqrt(dist), np.inf)
    vals = -np.minimum(depth, cap)
    return PiecewisePotential(bp, vals)


def random_step(cells, low, high, seed, min_width, max_width):
    """cells seeded cells, widths in [min_width, max_width], values in [low, high)."""
    if high <= low:
        raise ValueError("random_step value range is empty")
    if min_width > max_width:
        raise ValueError("random_step width range invalid")
    rng = np.random.default_rng(seed)
    # widths quantized to 1e-3 so breakpoints land on any grid of step 1e-4
    wlo = max(1, int(round(min_width * 1000)))
    whi = max(wlo, int(round(max_width * 1000)))
    widths = rng.integers(wlo, whi + 1, size=cells) * 1e-3
    bp = np.concatenate([[0.0], np.cumsum(widths)])
    vals = rng.uniform(low, high, size=cells)
    return PiecewisePotential(bp, vals)
