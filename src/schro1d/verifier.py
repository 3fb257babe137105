"""Numerical checks of the eigenfunction estimates on solution traces.

Each check evaluates one inequality pointwise on a trace and reports the worst
LHS/RHS ratio together with the witness abscissa.  Window maxima and window
integrals are taken over grid nodes; the documented grid-slack correction
inflates window maxima by a Lipschitz term (derived from the |u'| samples) so
that under-sampling can only make the check more conservative, never produce
a false pass.

Window operations are answered for all centres at once: sliding maxima and
minima over windows given in x (the grid is non-uniform at breakpoints) go
through `_window_extreme`, a sparse-table range query that is exact, and
window integrals are differences of one cumulative trapezoid (`cumtrapz`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import Energy, EstimateConstants
from .errors import (
    InadmissibleWeight,
    NoEligiblePoints,
    PreconditionFailed,
    TraceTooShort,
)
from .solver import SolutionTrace, cumtrapz

DEFAULT_TOL = 1e-6
ZERO_BAND = 1e-3  # relative threshold below which u(x) counts as a zero


@dataclass
class CheckOutcome:
    """Result of one inequality check; pass iff worst_ratio <= 1 + tolerance."""

    name: str
    points_checked: int
    worst_ratio: float
    witness_x: float
    passed: bool
    tolerance: float
    margin_notes: str = ""

    def __post_init__(self):
        if self.points_checked < 1:
            raise ValueError("an outcome must cover at least one point")
        expected = self.worst_ratio <= 1.0 + self.tolerance
        if self.passed != expected:
            raise ValueError("pass flag inconsistent with worst_ratio/tolerance")

    def to_dict(self):
        return {
            "name": self.name,
            "points_checked": self.points_checked,
            "worst_ratio": self.worst_ratio,
            "witness_x": self.witness_x,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "margin_notes": self.margin_notes,
        }


def _outcome(name, n, worst, witness, tol, notes=""):
    return CheckOutcome(
        name=name,
        points_checked=int(n),
        worst_ratio=float(worst),
        witness_x=float(witness),
        passed=bool(worst <= 1.0 + tol),
        tolerance=float(tol),
        margin_notes=notes,
    )


def analytic_trace(xs, u_fn, du_fn, energy) -> SolutionTrace:
    """Wrap closed-form u, u' samples as a trace (method 'analytic')."""
    xs = np.asarray(xs, dtype=float)
    return SolutionTrace(
        xs=xs,
        u=np.asarray(u_fn(xs), dtype=complex),
        du=np.asarray(du_fn(xs), dtype=complex),
        energy=Energy.of(energy),
        method="analytic",
        max_step=float(np.max(np.diff(xs))),
    )


def _grid_spacing(xs):
    return float(np.max(np.diff(xs)))


def _window_extreme(a, lo, hi, op):
    """op-reduction of a[lo[j]:hi[j]] for every query j, op being np.maximum
    or np.minimum; every window must be nonempty.

    Sparse-table range query (Bender & Farach-Colton, LATIN 2000): level k
    holds the reduction of every run of 2^k consecutive entries, and a window
    of length n with 2^k <= n < 2^(k+1) is covered by its first and last such
    runs.  Levels are built one at a time and dropped once their queries are
    answered, so memory stays O(len(a) + len(lo)).  max and min are exact, so
    the result equals the per-window reduction bit for bit, except that a zero
    extreme of a window holding both +0.0 and -0.0 may carry either sign (the
    order-dependent case of np.max too; moduli hold no -0.0).
    """
    lo = np.asarray(lo, dtype=np.intp)
    hi = np.asarray(hi, dtype=np.intp)
    if np.any(hi <= lo):
        raise ValueError("every window must be nonempty")
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(length)), exact for ints
    table = np.asarray(a)
    out = np.empty(lo.shape, dtype=table.dtype)
    for k in range(int(level.max(initial=0)) + 1):
        if k:
            half = 1 << (k - 1)
            table = op(table[:-half], table[half:])
        sel = level == k
        part = table[lo[sel]]
        out[sel] = op(part, table[hi[sel] - (1 << k)], out=part)
    return out


def _interior_indices(xs, pad):
    lo, hi = xs[0] + pad, xs[-1] - pad
    eps = 1e-12 * (1.0 + abs(xs[-1]) + abs(xs[0]))
    idx = np.flatnonzero((xs >= lo - eps) & (xs <= hi + eps))
    return idx


def check_derivative_bound(
    trace: SolutionTrace, consts: EstimateConstants, tolerance: float = DEFAULT_TOL
) -> CheckOutcome:
    """|u'(x)| <= C * max_{|y-x| <= K} |u(y)| at every K-interior grid point."""
    xs = trace.xs
    au = np.abs(trace.u)
    adu = np.abs(trace.du)
    K = consts.k_radius
    C = consts.c_bound
    idx = _interior_indices(xs, K)
    if idx.size == 0:
        raise TraceTooShort(f"no grid point is {K}-interior to the trace")
    h = _grid_spacing(xs)
    lo = np.searchsorted(xs, xs[idx] - K, side="left")
    hi = np.searchsorted(xs, xs[idx] + K, side="right")
    m = _window_extreme(au, lo, hi, np.maximum)
    m_du = _window_extreme(adu, lo, hi, np.maximum)
    pos = m > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.where(pos, 0.5 * h * m_du / m, 0.0)
        ratios = np.where(pos, adu[idx] / (C * m * (1.0 + eps)), np.inf)
    j = int(np.argmax(ratios))  # first of the ties
    worst, worst_i, worst_eps = ratios[j], idx[j], eps[j]
    notes = f"grid_slack_at_worst={worst_eps:.3e}"
    return _outcome("derivative_bound", idx.size, worst, xs[worst_i], tolerance, notes)


def check_persistence(
    trace: SolutionTrace, consts: EstimateConstants, tolerance: float = DEFAULT_TOL
) -> CheckOutcome:
    """|u(y)| > |u(x)|/2 on [x, x+delta) where |u(x)| is away from zero and
    Re[conj(u) u'](x) >= 0.  Reported ratio is (1/2) / min |u(y)|/|u(x)|."""
    xs = trace.xs
    au = np.abs(trace.u)
    delta = consts.delta
    radial = np.real(np.conj(trace.u) * trace.du)
    floor = ZERO_BAND * float(np.max(au))
    eligible = np.flatnonzero(
        (au > floor) & (radial >= 0.0) & (xs + delta <= xs[-1] + 1e-12)
    )
    skipped_zeros = int(np.count_nonzero(au <= floor))
    if eligible.size == 0:
        raise NoEligiblePoints("no grid point satisfies the persistence hypothesis")
    end = np.searchsorted(xs, xs[eligible] + delta, side="left")  # [x, x+delta)
    ratios = _window_extreme(au, eligible, end, np.minimum) / au[eligible]
    j = int(np.argmin(ratios))  # first of the ties
    min_ratio, worst_i = float(ratios[j]), eligible[j]
    worst = 0.5 / min_ratio
    # pass iff min_ratio >= 1/2 - tolerance, expressed in ratio form
    eff_tol = 0.5 / (0.5 - tolerance) - 1.0 if tolerance < 0.5 else np.inf
    notes = f"min_modulus_ratio={min_ratio:.6f}; near_zero_points_skipped={skipped_zeros}"
    return _outcome("persistence", eligible.size, worst, xs[worst_i], eff_tol, notes)


def _window_integrals(xs, fvals, centers_idx, half_width):
    """Trapezoid integrals of fvals over [x-h, x+h], windows snapped outward
    to grid nodes (enlarging the domain; conservative for upper bounds)."""
    cum = cumtrapz(fvals, xs)
    x = xs[centers_idx]
    i0 = np.searchsorted(xs, x - half_width, side="right") - 1
    i0 = np.clip(i0, 0, len(xs) - 1)
    i1 = np.searchsorted(xs, x + half_width, side="left")
    i1 = np.clip(i1, 0, len(xs) - 1)
    out = cum[i1] - cum[i0]
    # the global cumsum has absolute error ~ulp(total); recompute windows
    # whose value drowns in it (deep tails) directly on the slice
    suspicious = np.flatnonzero(out <= 1e-9 * max(cum[-1], 0.0))
    for j in suspicious:
        out[j] = np.trapezoid(fvals[i0[j]:i1[j] + 1], xs[i0[j]:i1[j] + 1])
    return out


def check_local_lp(
    trace: SolutionTrace,
    consts: EstimateConstants,
    p: float,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """|u(x)|^p <= (2^p/delta) * integral_{x-delta}^{x+delta} |u|^p."""
    if not (1.0 <= p < np.inf):
        raise ValueError("p must lie in [1, inf)")
    xs = trace.xs
    au = np.abs(trace.u)
    delta = consts.delta
    idx = _interior_indices(xs, delta)
    if idx.size == 0:
        raise TraceTooShort(f"no grid point is {delta}-interior to the trace")
    integ = _window_integrals(xs, au ** p, idx, delta)
    rhs = (2.0 ** p / delta) * integ
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, au[idx] ** p / rhs, np.inf)
    j = int(np.argmax(ratios))
    return _outcome(f"local_lp_p{p:g}", idx.size, ratios[j], xs[idx[j]], tolerance)


def check_derivative_lp(
    trace: SolutionTrace,
    consts: EstimateConstants,
    p: float,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """|u'(x)|^p <= (2^p C^p/delta) * integral over |y-x| <= K+delta of |u|^p."""
    if not (1.0 <= p < np.inf):
        raise ValueError("p must lie in [1, inf)")
    xs = trace.xs
    au = np.abs(trace.u)
    adu = np.abs(trace.du)
    half = consts.k_radius + consts.delta
    idx = _interior_indices(xs, half)
    if idx.size == 0:
        raise TraceTooShort(f"no grid point is {half}-interior to the trace")
    integ = _window_integrals(xs, au ** p, idx, half)
    rhs = (2.0 ** p * consts.c_bound ** p / consts.delta) * integ
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, adu[idx] ** p / rhs, np.inf)
    j = int(np.argmax(ratios))
    return _outcome(f"derivative_lp_p{p:g}", idx.size, ratios[j], xs[idx[j]], tolerance)


@dataclass
class WeightSpec:
    """Positive weight with a finite ratio bound over |x-y| <= K+delta.

    kinds: exponential (w = exp(rate*|x|)), polynomial (w = (1+|x|)^exponent),
    custom (positive samples, interpolated).
    """

    kind: str
    rate: float = 0.0
    exponent: float = 0.0
    sample_xs: np.ndarray | None = None
    sample_ws: np.ndarray | None = None

    @classmethod
    def exponential(cls, rate):
        return cls(kind="exponential", rate=float(rate))

    @classmethod
    def polynomial(cls, exponent):
        return cls(kind="polynomial", exponent=float(exponent))

    @classmethod
    def from_samples(cls, xs, ws):
        xs = np.asarray(xs, dtype=float)
        ws = np.asarray(ws, dtype=float)
        if np.any(ws <= 0) or not np.all(np.isfinite(ws)):
            raise InadmissibleWeight("custom weight samples must be positive and finite")
        return cls(kind="custom", sample_xs=xs, sample_ws=ws)

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.kind == "exponential":
            return np.exp(self.rate * np.abs(xs))
        if self.kind == "polynomial":
            return (1.0 + np.abs(xs)) ** self.exponent
        if self.kind == "custom":
            return np.interp(xs, self.sample_xs, self.sample_ws)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def admissibility_bound(self, h: float) -> float:
        """sup of w(x)/w(y) over |x - y| <= h; raises if not finite."""
        if h < 0:
            raise ValueError("h must be nonnegative")
        if self.kind == "exponential":
            return math.exp(abs(self.rate) * h)
        if self.kind == "polynomial":
            return (1.0 + h) ** abs(self.exponent)
        if self.kind == "custom":
            xs, ws = self.sample_xs, self.sample_ws
            best = 1.0
            for i in range(len(xs)):
                sel = np.abs(xs - xs[i]) <= h
                best = max(best, float(ws[i] / np.min(ws[sel])))
            return best
        raise ValueError(f"unknown weight kind {self.kind!r}")


def check_weighted(
    trace: SolutionTrace,
    consts: EstimateConstants,
    p: float,
    weight: WeightSpec,
    window,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """Finite-window form of the weighted implication: integrating the
    derivative L^p bound against w and applying the ratio bound gives

      int_a^b |u'|^p w <= (2^p C^p/delta) * B * 2(K+delta)
                          * int_{a-K-delta}^{b+K+delta} |u|^p w
    """
    if not (1.0 <= p < np.inf):
        raise ValueError("p must lie in [1, inf)")
    a, b = float(window[0]), float(window[1])
    if a >= b:
        raise ValueError("empty window")
    half = consts.k_radius + consts.delta
    bound = weight.admissibility_bound(half)
    if not math.isfinite(bound):
        raise InadmissibleWeight("weight ratio bound is not finite")
    xs = trace.xs
    if xs[0] > a - half + 1e-9 or xs[-1] < b + half - 1e-9:
        raise TraceTooShort("trace does not cover the enlarged window")
    w = weight.values(xs)
    au_p_w = np.abs(trace.u) ** p * w
    adu_p_w = np.abs(trace.du) ** p * w
    cum_u = cumtrapz(au_p_w, xs)
    cum_du = cumtrapz(adu_p_w, xs)

    def _seg(cum, lo, hi, snap_out):
        if snap_out:
            i0 = max(int(np.searchsorted(xs, lo, side="right")) - 1, 0)
            i1 = min(int(np.searchsorted(xs, hi, side="left")), len(xs) - 1)
        else:
            i0 = int(np.searchsorted(xs, lo, side="left"))
            i1 = int(np.searchsorted(xs, hi, side="right")) - 1
        return float(cum[i1] - cum[i0])

    lhs = _seg(cum_du, a, b, snap_out=False)
    rhs_int = _seg(cum_u, a - half, b + half, snap_out=True)
    factor = (2.0 ** p * consts.c_bound ** p / consts.delta) * bound * 2.0 * half
    rhs = factor * rhs_int
    ratio = lhs / rhs if rhs > 0 else np.inf
    notes = f"admissibility_bound={bound:.6g}; p={p:g}; window=({a},{b})"
    return _outcome(f"weighted_p{p:g}", len(xs), ratio, a, tolerance, notes)


def check_decay(
    trace: SolutionTrace,
    tail_fraction: float,
    drop_factor: float,
    tolerance: float = 0.0,
) -> CheckOutcome:
    """Trend surrogate for decay at infinity: the max of |u|, |u'| over the
    trailing tail_fraction of the span must be below the leading maximum
    divided by drop_factor.  Not a limit proof."""
    if not (0.0 < tail_fraction < 0.5):
        raise ValueError("tail_fraction must lie in (0, 1/2)")
    if drop_factor <= 1.0:
        raise ValueError("drop_factor must exceed 1")
    xs = trace.xs
    span = xs[-1] - xs[0]
    mag = np.maximum(np.abs(trace.u), np.abs(trace.du))
    head = mag[xs <= xs[0] + tail_fraction * span]
    tail_sel = xs >= xs[-1] - tail_fraction * span
    tail = mag[tail_sel]
    head_max = float(np.max(head))
    tail_max = float(np.max(tail))
    ratio = tail_max * drop_factor / head_max if head_max > 0 else np.inf
    witness = float(xs[tail_sel][int(np.argmax(tail))])
    notes = f"head_max={head_max:.6g}; tail_max={tail_max:.6g}; drop_factor={drop_factor:g}"
    return _outcome("decay_trend", len(xs), ratio, witness, tolerance, notes)


def _snap_index(xs, x):
    i = int(np.searchsorted(xs, x))
    if i == 0:
        return 0
    if i >= len(xs):
        return len(xs) - 1
    return i if abs(xs[i] - x) < abs(xs[i - 1] - x) else i - 1


def _lemma31_terms(u, du, au, scale_u, omega, ix, iy):
    """(|omega|, Re[conj(omega) u] at nodes ix and iy, Re[conj(omega) u'] at
    ix) for one triple; raises PreconditionFailed unless u(x) != 0 and
    Re[conj(omega) u] >= 0 on [ix, iy].  scale_u is max |u| over the trace."""
    if au[ix] <= 1e-13 * scale_u:
        raise PreconditionFailed("u(x) = 0 at the requested point")
    g = np.real(np.conj(omega) * u[ix:iy + 1])
    if g.min() < -1e-10 * abs(omega) * scale_u:
        raise PreconditionFailed("Re[conj(omega) u] changes sign on [x, y]")
    return abs(omega), float(g[0]), float(g[-1]), float(np.real(np.conj(omega) * du[ix]))


def _lemma31_ratios(xs, au, adu, h, c2, ix, iy, abs_omega, g_x, g_y, du_x):
    """(ratio, slack, scale, grid_slack) of the core inequality, vectorized
    over triples whose _lemma31_terms are given."""
    m = _window_extreme(au, ix, iy + 1, np.maximum)  # m >= |u(x)| > 0
    eps = 0.5 * h * _window_extreme(adu, ix, iy + 1, np.maximum) / m
    M = m * (1.0 + eps)
    dx = xs[iy] - xs[ix]
    penalty = c2 * dx * (dx + 1.0) * abs_omega * M
    rhs = g_x + dx * du_x - penalty
    scale = abs_omega * M * np.maximum(dx * (dx + 1.0), 1e-12)
    slack = g_y - rhs
    return 1.0 - slack / scale, slack, scale, eps


def check_lemma31(
    trace: SolutionTrace,
    consts: EstimateConstants,
    omega: complex,
    x: float,
    y: float,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """Core integral inequality: when Re[conj(w) u] >= 0 on [x, y],

      Re[conj(w) u(y)] >= Re[conj(w) u(x)] + (y-x) Re[conj(w) u'(x)]
                          - C2 (y-x)(y-x+1) |w| max_{[x,y]} |u|.

    x, y are snapped to grid nodes; the window max of |u| is inflated by the
    grid-slack term so that sampling error cannot cause a spurious pass.
    """
    omega = complex(omega)
    if omega == 0:
        raise ValueError("omega must be nonzero")
    xs = trace.xs
    ix = _snap_index(xs, float(x))
    iy = _snap_index(xs, float(y))
    if ix > iy:
        raise ValueError("need x <= y within the trace")
    au = np.abs(trace.u)
    terms = _lemma31_terms(trace.u, trace.du, au, float(np.max(au)), omega, ix, iy)
    ratio, slack, scale, eps = map(float, _lemma31_ratios(
        xs, au, np.abs(trace.du), _grid_spacing(xs), consts.c2, ix, iy, *terms
    ))
    notes = f"slack={slack:.6g}; scale={scale:.6g}; grid_slack={eps:.3e}"
    return _outcome("lemma31", iy - ix + 1, ratio, xs[ix], tolerance, notes)


def sample_lemma31(
    trace: SolutionTrace,
    consts: EstimateConstants,
    n: int,
    rng: np.random.Generator,
    max_gap: float = 1.5,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """Randomized sweep of the core inequality: n triples (omega, x, y) with
    the sign hypothesis satisfied (rejection sampling, omega biased toward
    the phase of u(x) so acceptance is likely)."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    xs, u, du = trace.xs, trace.u, trace.du
    au = np.abs(u)
    scale_u = float(np.max(au))
    h = _grid_spacing(xs)
    good = np.flatnonzero(au > 1e-3 * scale_u)
    if good.size < 2:
        raise NoEligiblePoints("trace has no usable points for sampling")
    nodes = np.empty((n, 2), dtype=np.intp)
    terms = np.empty((n, 4))
    accepted = 0
    attempts = 0
    limit = 200 * n
    while accepted < n and attempts < limit:
        attempts += 1
        ix = int(good[rng.integers(0, len(good))])
        gap = float(rng.uniform(0.0, max_gap))
        iy = _snap_index(xs, xs[ix] + gap)
        if iy <= ix:
            iy = min(ix + 1, len(xs) - 1)
            if iy == ix:
                continue
        phase = float(rng.uniform(-0.5, 0.5))
        omega = complex(u[ix] / au[ix] * complex(math.cos(phase), math.sin(phase)))
        try:
            terms[accepted] = _lemma31_terms(u, du, au, scale_u, omega, ix, iy)
        except PreconditionFailed:
            continue
        nodes[accepted] = ix, iy
        accepted += 1
    if accepted == 0:
        raise NoEligiblePoints("no sampled triple satisfied the hypothesis")
    ix, iy = nodes[:accepted].T
    ratios = _lemma31_ratios(xs, au, np.abs(du), h, consts.c2, ix, iy, *terms[:accepted].T)[0]
    j = int(np.argmax(ratios))
    notes = f"accepted={accepted}; attempts={attempts}"
    return _outcome("lemma31_sweep", accepted, ratios[j], xs[ix[j]], tolerance, notes)
