"""Numerical checks of the eigenfunction estimates on solution traces.

Each check evaluates one inequality pointwise on a trace and reports the worst
LHS/RHS ratio together with the witness abscissa.  Window maxima and window
integrals are taken over grid nodes.  A window maximum of |u| over nodes is
never above the true supremum, so the RHS of the derivative bound and of the
core inequality is the grid max at the checked nodes: given the trace's
values, these checks can fail spuriously there but not pass.  Nothing is
claimed between nodes, nor for the window minima of persistence and the
window integrals (outward-snapped trapezoid sums), which are not one-sided.

Every check reads |u|, |u'|, the cumulative integral of |u|^p for each p
and the window bounds for each radius from its trace (`SolutionTrace.abs_u`,
`abs_du`, `cum_abs_u`, `window_bounds`), which keeps them; only
`check_weighted` integrates weighted terms of its own.

Window operations are answered for all centres at once: sliding maxima and
minima over windows given in x (the grid is non-uniform at breakpoints) go
through `_window_extreme`, a sparse-table range query or, for a few short
windows, one reduceat, both exact, and window integrals of |u|^p are
differences of the trace's cumulative integral.
Windows whose integral drowns in the rounding of that sum (deep tails), the
weighted check's too, are summed again from np.trapezoid's own terms.

Every window's node range comes from `solver.windows`; its `outward`
argument says how [a, b] snaps to nodes.  derivative_bound takes the max over
the nodes inside [x - K, x + K] (inward), the L^p checks integrate outward,
persistence ends [x, x + delta) at the first node at or after x + delta, and
the weighted check integrates its LHS inward and its RHS outward.  Outward
bounds are searched once per trace and radius and kept as int32
(`window_bounds`).  derivative_bound, local_lp and derivative_lp go through
one routine, `_ratio_check`: past PRUNE_NODES interior nodes (a measured
cost), derivative_bound and derivative_lp bound every ratio from the inner
window of nodes i - k .. i + k, k = floor(r / h_max) - 1, and take exact
windows only where a bound can reach the worst ratio.  A check whose
constant, weight, |u|^p, |u'|^p or RHS overflows is skipped, naming it.

The sweep of the core inequality (`sample_lemma31`) draws n node pairs
(x, y) and takes at each the worst ratio over every omega that satisfies the
sign hypothesis Re[conj(omega) u] >= 0 at the nodes of [x, y], in closed form
(`_lemma31_worst`).  The admissible phases of omega form an arc, read from
window extremes of the unwrapped phase of u; each node's bound is widened by
asin(eps/|u|) or more, eps = 1e-10 max|u|, so every omega with
Re[conj(omega) u] >= -eps |omega| at the nodes is covered.  Every phase in
the arc is admissible, and the arc holds them all unless two consecutive
nodes have phases within their widenings of opposite: such steps are
unwrapped alternately up and down, which is exact where a real trace changes
sign, and there both slivers of admissible phases give the same ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EstimateConstants, energy_of
from .errors import (
    InadmissibleWeight,
    NoEligiblePoints,
    PreconditionFailed,
    TraceTooShort,
)
from .solver import SolutionTrace, cumtrapz, windows

DEFAULT_TOL = 1e-6
ZERO_BAND = 1e-3  # relative threshold below which u(x) counts as a zero
# interior nodes above which derivative_bound and derivative_lp bound every
# ratio before taking exact windows: about where the bound's fixed passes
# cost what the searches it saves do (numpy 2.4, 2 vCPU x86-64)
PRUNE_NODES = 3000


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
    return SolutionTrace(xs, u_fn(xs), du_fn(xs), energy_of(energy), "analytic")


def _raise_level(table, level, to, op):
    """Level `to` of a sparse table over op from its level `level` < `to`:
    level k holds the op-reduction of every run of 2^k consecutive entries."""
    for k in range(level, to):
        half = 1 << k
        table = op(table[:-half], table[half:])
    return table


def _window_extreme(a, lo, hi, op):
    """op-reduction of a[lo[j]:hi[j]] for every query j, op being np.maximum
    or np.minimum; every window must be nonempty.

    The windows go to a sparse table (`_table_extreme`) unless the windows
    and the span they cover hold fewer elements than the table's levels,
    which a few short windows over a long array do: then one reduceat reads
    them in place (`_reduceat_extreme`).  max and min are exact, so either
    result equals the per-window reduction bit for bit, except that a zero
    extreme of a window holding both +0.0 and -0.0 may carry either sign (the
    order-dependent case of np.max too; moduli hold no -0.0).
    """
    lo = np.asarray(lo, dtype=np.intp)
    hi = np.asarray(hi, dtype=np.intp)
    if np.any(hi <= lo):
        raise ValueError("every window must be nonempty")
    a = np.asarray(a)
    length = hi - lo
    levels = int(length.max(initial=0)).bit_length() - 1
    if int(length.sum()) + int(hi.max(initial=0) - lo.min(initial=0)) < levels * len(a):
        return _reduceat_extreme(a, lo, hi, op)
    return _table_extreme(a, lo, hi, op)


def _table_extreme(a, lo, hi, op):
    """_window_extreme by a sparse-table range query (Bender & Farach-Colton,
    LATIN 2000): level k holds the reduction of every run of 2^k consecutive
    entries, and a window of length n with 2^k <= n < 2^(k+1) is covered by
    its first and last such runs.  Levels are built one at a time and dropped
    once passed, so memory stays O(len(a) + len(lo)); only the levels that
    hold queries are read, each for a slice of the queries sorted by level."""
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(length)), exact for ints
    counts = np.bincount(level)
    held = np.flatnonzero(counts).tolist()
    # a radix sort of the levels, needed only where more than one holds queries
    order = np.argsort(level.astype(np.uint8), kind="stable") if len(held) > 1 else slice(None)
    lo, hi = lo[order], hi[order]
    by_level = np.empty(lo.shape, dtype=a.dtype)
    table, built, start = a, 0, 0
    for k in held:
        table = _raise_level(table, built, k, op)
        built = k
        stop = start + int(counts[k])
        op(table[lo[start:stop]], table[hi[start:stop] - (1 << k)], out=by_level[start:stop])
        start = stop
    if len(held) < 2:
        return by_level
    out = np.empty_like(by_level)
    out[order] = by_level
    return out


def _reduceat_extreme(a, lo, hi, op):
    """_window_extreme by one op.reduceat over a[:max hi]: the windows sorted
    by lo, their bounds interleaved, each hi held below that end, whose last
    element then joins the windows that end there.  The odd segments of
    reduceat, from one window's hi to the next lo, read only the gaps between
    windows and are dropped."""
    order = np.argsort(lo, kind="stable")
    end = int(hi.max(initial=0))
    bounds = np.empty(2 * len(lo), dtype=np.intp)
    bounds[0::2] = lo[order]
    bounds[1::2] = np.minimum(hi[order], end - 1)
    out = np.empty(lo.shape, dtype=a.dtype)
    out[order] = op.reduceat(a[:end], bounds)[0::2]
    last = np.flatnonzero(hi == end)
    out[last] = op(out[last], a[end - 1:end])
    return out


def _interior_indices(xs, pad):
    """The nodes at least pad from both ends of the grid, up to a rounding
    allowance, as a slice."""
    lo, hi = xs[0] + pad, xs[-1] - pad
    eps = 1e-12 * (1.0 + abs(xs[-1]) + abs(xs[0]))
    start = int(np.searchsorted(xs, lo - eps, side="left"))
    return slice(start, max(start, int(np.searchsorted(xs, hi + eps, side="right"))))


def _inner_radius(xs, r, inner):
    """Largest k such that nodes i - k .. i + k lie in the trace and in every
    window of radius r around each node i of `inner`, however it is snapped,
    or -1 if there is none.  k = floor(r / h_max) - 1 leaves one step h_max
    for rounding, so grids finer than the rounding of x get none."""
    h_max = float(np.max(np.diff(xs)))
    if h_max <= 1e-11 * (1.0 + abs(xs[0]) + abs(xs[-1]) + r):
        return -1
    return min(int(r // h_max) - 1, inner.start, len(xs) - inner.stop)


def _ratio_check(name, xs, r, num, rhs, inner_rhs, tolerance):
    """The outcome of num <= rhs at every r-interior node: the worst ratio
    num / rhs (inf where rhs is not positive) and the first node that has it.
    num holds the numerator at every node, rhs(at) the RHS at the nodes at
    (a slice or an index array), and inner_rhs(inner, k), if given, a lower
    bound of the RHS over the slice inner from nodes i - k .. i + k.

    With inner_rhs, past PRUNE_NODES nodes, exact ratios are taken only where
    a bound reaches the exact ratio at the node of the largest bound, a floor
    under the worst ratio: every node that attains the worst ratio has a
    bound at least as large, so the result is the same bit for bit.
    """
    inner = _interior_indices(xs, r)
    n = inner.stop - inner.start
    if n == 0:
        raise TraceTooShort(f"no grid point is {r}-interior to the trace")

    def ratios(at, den):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, num[at] / den, np.inf)

    k = _inner_radius(xs, r, inner) if inner_rhs and n > PRUNE_NODES else -1
    if k < 0:
        at = inner
    else:  # a NaN bound or floor is no reason to skip a node
        ub = ratios(inner, inner_rhs(inner, k))
        top = inner.start + np.argmax(ub, keepdims=True)
        at = inner.start + np.flatnonzero(~(ub < ratios(top, rhs(top))[0]))
    ratio = ratios(at, rhs(at))
    j = int(np.argmax(ratio))  # first of the ties
    return _outcome(name, n, ratio[j], xs[at][j], tolerance)


def _finite(what, f, error=PreconditionFailed):
    """f(), a check's constant, weight, power or integral; raises error,
    naming what, if it overflows.  The caller silences numpy's overflow and
    invalid warnings around its calls, once per check."""
    try:
        value = f()
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise error(f"{what} is not finite")
    return value


def check_derivative_bound(
    trace: SolutionTrace, consts: EstimateConstants, tolerance: float = DEFAULT_TOL
) -> CheckOutcome:
    """|u'(x)| <= C * max_{|y-x| <= K} |u(y)| at every K-interior grid point."""
    xs, au = trace.xs, trace.abs_u
    K, C = consts.k_radius, consts.c_bound

    def rhs(at):  # the max over the nodes inside the window
        return C * _window_extreme(au, *windows(xs, xs[at] - K, xs[at] + K, False), np.maximum)

    def inner_rhs(inner, k):
        # the max over nodes i - k .. i + k is at most the window max: one
        # sparse-table level read on two slices
        level = (2 * k + 1).bit_length() - 1
        table = _raise_level(au, 0, level, np.maximum)
        s, e, tail = inner.start, inner.stop, k + 1 - (1 << level)
        return C * np.maximum(table[s - k:e - k], table[s + tail:e + tail])

    return _ratio_check("derivative_bound", xs, K, trace.abs_du, rhs, inner_rhs, tolerance)


def check_persistence(
    trace: SolutionTrace, consts: EstimateConstants, tolerance: float = DEFAULT_TOL
) -> CheckOutcome:
    """|u(y)| > |u(x)|/2 on [x, x+delta) where |u(x)| is away from zero and
    Re[conj(u) u'](x) >= 0.  Reported ratio is (1/2) / min |u(y)|/|u(x)|."""
    xs, au = trace.xs, trace.abs_u
    delta = consts.delta
    radial = np.real(np.conj(trace.u) * trace.du)
    floor = ZERO_BAND * float(np.max(au))
    eligible = np.flatnonzero(
        (au > floor) & (radial >= 0.0) & (xs + delta <= xs[-1] + 1e-12)
    )
    skipped_zeros = int(np.count_nonzero(au <= floor))
    if eligible.size == 0:
        raise NoEligiblePoints("no grid point satisfies the persistence hypothesis")
    end = trace.window_bounds(delta)[1][eligible]  # [x, x+delta)
    ratios = _window_extreme(au, eligible, end, np.minimum) / au[eligible]
    j = int(np.argmin(ratios))  # first of the ties
    min_ratio, worst_i = float(ratios[j]), eligible[j]
    worst = 0.5 / min_ratio
    # pass iff min_ratio >= 1/2 - tolerance, expressed in ratio form
    eff_tol = 0.5 / (0.5 - tolerance) - 1.0 if tolerance < 0.5 else np.inf
    notes = f"min_modulus_ratio={min_ratio:.6f}; near_zero_points_skipped={skipped_zeros}"
    return _outcome("persistence", eligible.size, worst, xs[worst_i], eff_tol, notes)


def _window_integrals(trace, p, at, half_width):
    """Trapezoid integrals of |u|^p over [x-h, x+h] at the nodes at, windows
    snapped outward to grid nodes (enlarging the domain; conservative for
    upper bounds).  A slice of nodes reads the trace's window bounds for h,
    an index array searches its own."""
    xs = trace.xs
    if isinstance(at, slice):
        i0, i1 = (b[at] for b in trace.window_bounds(half_width))
    else:
        i0, i1 = windows(xs, xs[at] - half_width, xs[at] + half_width, True)
    return _integrals(lambda: trace.abs_u ** p, xs, trace.cum_abs_u(p), i0,
                      np.minimum(i1, len(xs) - 1))


def _integrals(f, xs, cum, i0, i1):
    """cum[i1] - cum[i0], cum = cumtrapz(f(), xs); a window that drowns in the
    rounding of cum is summed from its own trapezoid terms, which gives
    np.trapezoid(f()[i0:i1 + 1], xs[i0:i1 + 1]) bit for bit."""
    out = cum[i1] - cum[i0]
    drowned = np.flatnonzero(out <= _drowned(cum))
    if drowned.size:
        fvals = f()
        terms = np.diff(xs) * (fvals[1:] + fvals[:-1]) / 2.0
        for j, a, b in zip(drowned.tolist(), i0[drowned].tolist(), i1[drowned].tolist()):
            out[j] = terms[a:b].sum()
    return out


def _drowned(cum):
    """Window integrals at or below this drown in the rounding of cum."""
    return 1e-9 * max(cum[-1], 0.0)


def _lp_check(name, trace, consts, p, modulus, label, half, c, tolerance, prune):
    """modulus(x)^p <= (2^p c^p/delta) * integral over |y-x| <= half of |u|^p
    at every half-interior grid point, label naming the modulus; prune says
    whether to bound the ratios first (see _ratio_check).  Every RHS is at
    most the constant times the trace's integral of |u|^p."""
    if not (1.0 <= p < np.inf):
        raise ValueError("p must lie in [1, inf)")
    with np.errstate(over="ignore", invalid="ignore"):
        factor = _finite(f"2^p C^p/delta at p={p:g}", lambda: 2.0 ** p * c ** p / consts.delta)
        num = _finite(f"{label}^p at p={p:g}", lambda: modulus ** p)
        _finite(f"2^p C^p/delta int |u|^p at p={p:g}", lambda: factor * trace.cum_abs_u(p)[-1])

    def rhs(at):
        return factor * _window_integrals(trace, p, at, half)

    def inner_rhs(inner, k):
        # the integral over nodes i - k .. i + k is at most the window's,
        # unless the window drowns (see _integrals): cum is monotone
        cum = trace.cum_abs_u(p)
        part = cum[inner.start + k:inner.stop + k] - cum[inner.start - k:inner.stop - k]
        return np.where(part > _drowned(cum), factor * part, 0.0)

    return _ratio_check(f"{name}_p{p:g}", trace.xs, half, num, rhs,
                        inner_rhs if prune else None, tolerance)


def check_local_lp(
    trace: SolutionTrace,
    consts: EstimateConstants,
    p: float,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """|u(x)|^p <= (2^p/delta) * integral_{x-delta}^{x+delta} |u|^p."""
    # c = 1 leaves the constant 2^p/delta bit for bit
    # never pruned: away from its zeros, sin x has the same ratio everywhere
    return _lp_check("local_lp", trace, consts, p, trace.abs_u, "|u|", consts.delta, 1.0,
                     tolerance, False)


def check_derivative_lp(
    trace: SolutionTrace,
    consts: EstimateConstants,
    p: float,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """|u'(x)|^p <= (2^p C^p/delta) * integral over |y-x| <= K+delta of |u|^p."""
    return _lp_check("derivative_lp", trace, consts, p, trace.abs_du, "|u'|",
                     consts.k_radius + consts.delta, consts.c_bound, tolerance, True)


@dataclass
class WeightSpec:
    """Positive weight with a finite ratio bound over |x-y| <= K+delta.

    kinds: exponential (w = exp(rate*|x|)), polynomial (w = (1+|x|)^exponent).
    """

    kind: str
    rate: float = 0.0
    exponent: float = 0.0

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.kind == "exponential":
            return np.exp(self.rate * np.abs(xs))
        if self.kind == "polynomial":
            return (1.0 + np.abs(xs)) ** self.exponent
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def admissibility_bound(self, h: float) -> float:
        """sup of w(x)/w(y) over |x - y| <= h; raises if not finite."""
        if h < 0:
            raise ValueError("h must be nonnegative")
        if self.kind == "exponential":
            return math.exp(abs(self.rate) * h)
        if self.kind == "polynomial":
            return (1.0 + h) ** abs(self.exponent)
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

    Each integral is a difference of a running integral, or its own trapezoid
    terms where it drowns in that (`_integrals`).
    """
    if not (1.0 <= p < np.inf):
        raise ValueError("p must lie in [1, inf)")
    a, b = float(window[0]), float(window[1])
    if a >= b:
        raise ValueError("empty window")
    half = consts.k_radius + consts.delta
    xs = trace.xs

    def integral(label, modulus, lo, hi):  # of modulus^p w over the nodes lo .. hi
        f = lambda: modulus ** p * w
        cum = _finite(f"{label}^p w at p={p:g}", lambda: cumtrapz(f(), xs))
        return float(_integrals(f, xs, cum, np.array([lo]), np.array([hi]))[0])

    with np.errstate(over="ignore", invalid="ignore"):
        bound = _finite("weight ratio bound", lambda: weight.admissibility_bound(half),
                        InadmissibleWeight)
        if xs[0] > a - half + 1e-9 or xs[-1] < b + half - 1e-9:
            raise TraceTooShort("trace does not cover the enlarged window")
        w = _finite("weight on the trace", lambda: weight.values(xs), InadmissibleWeight)
        lo, hi = windows(xs, a, b, False)  # inward for the LHS, outward for the RHS
        if hi - lo < 2:  # the integral would be 0 or negative: a spurious pass
            raise TraceTooShort(f"window ({a},{b}) holds fewer than two grid nodes")
        r0, r1 = windows(xs, a - half, b + half, True)
        factor = _finite(f"2^p C^p/delta B 2(K+delta) at p={p:g}", lambda: (
            2.0 ** p * consts.c_bound ** p / consts.delta) * bound * 2.0 * half)
        rhs = _finite(f"2^p C^p/delta B 2(K+delta) int |u|^p w at p={p:g}",
                      lambda: factor * integral("|u|", trace.abs_u, r0, min(r1, len(xs) - 1)))
        lhs = integral("|u'|", trace.abs_du, lo, hi - 1)
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
    mag = np.maximum(trace.abs_u, trace.abs_du)
    head = mag[xs <= xs[0] + tail_fraction * span]
    tail_sel = xs >= xs[-1] - tail_fraction * span
    tail = mag[tail_sel]
    head_max = float(np.max(head))
    tail_max = float(np.max(tail))
    ratio = tail_max * drop_factor / head_max if head_max > 0 else np.inf
    witness = float(xs[tail_sel][int(np.argmax(tail))])
    notes = f"head_max={head_max:.6g}; tail_max={tail_max:.6g}; drop_factor={drop_factor:g}"
    return _outcome("decay_trend", len(xs), ratio, witness, tolerance, notes)


def _snap_indices(xs, x):
    """Index of the grid node nearest to each x; the left node on a tie.

    The keys are searched in sorted order, which halves the time of the
    search on a long grid, and the indices go back to the keys' order."""
    order = np.argsort(x)
    i = np.empty(len(x), dtype=np.intp)
    i[order] = np.searchsorted(xs, x[order])
    right = np.minimum(i, len(xs) - 1)
    left = np.maximum(i - 1, 0)
    return np.where(np.abs(xs[right] - x) < np.abs(xs[left] - x), right, left)


def _principal(d):
    """np.mod(d + pi, 2 pi) - pi for d in [-2 pi, 2 pi], bit for bit, in
    place of d, without np.mod's division.  x = d + pi lies in [-pi, 3 pi],
    where np.mod adds 2 pi to x < 0 and leaves x - 2 pi, exact by Sterbenz's
    lemma, for x >= 2 pi.  Both tests read x: a tiny negative x rounds to
    2 pi, which np.mod keeps."""
    d += np.pi
    over = d >= 2.0 * np.pi
    np.add(d, 2.0 * np.pi, out=d, where=d < 0.0)
    np.subtract(d, 2.0 * np.pi, out=d, where=over)
    d -= np.pi
    return d


def _lemma31_worst(trace, c2, ix, iy):
    """(admissible, ratio, phi) of the core inequality at the node pairs
    x = xs[ix] < y = xs[iy]: whether some omega = e^{i phi} satisfies the sign
    hypothesis at the nodes of [x, y], up to the tolerance below, and the
    largest ratio over those omega, with a phi that attains it.

    Node t admits |phi - theta_t| <= pi/2 + w_t, theta_t the phase of u there
    and w_t = (pi/2) eps/|u_t| >= asin(eps/|u_t|), eps = 1e-10 max|u|: every
    omega with Re[conj(omega) u_t] >= -eps |omega|.  A node with |u| <= eps
    admits every phi and is left out of the unwrapping of theta, the running
    sum of the principal phase steps between the nodes kept (a step within
    w_t + w_t+1 of +-pi is taken up and down in turn).  So the admissible phi
    form the arc [window max of theta - pi/2 - w, window min of theta + pi/2
    + w].  With D = u(y) - u(x) - (y-x) u'(x), the ratio 1 - C2 - Re[e^{-i
    phi} D] / (M (y-x)(y-x+1)), M the max of |u| over the nodes of [x, y], is
    largest at phi = arg D + pi if the arc holds it (mod 2 pi), otherwise at
    the end of the arc where Re[e^{-i phi} D] is smaller (the low end on a
    tie).
    """
    xs, u, du, au = trace.xs, trace.u, trace.du, trace.abs_u
    eps = 1e-10 * float(np.max(au))
    keep = au > eps
    kept = slice(None) if keep.all() else np.flatnonzero(keep)
    # the arrays below are as long as the trace, so they are few and updated
    # in place
    theta = np.angle(u[kept])
    step = _principal(np.diff(theta))
    reach = (np.pi / 2 * eps) / au[kept]  # w
    # a step within the widenings of +-pi may go either way round: such steps
    # alternate, as they do where a real trace changes sign
    flip = np.flatnonzero(np.abs(step) + reach[1:] + reach[:-1] >= np.pi)
    step[flip] = np.mod(step[flip], 2.0 * np.pi) - 2.0 * np.pi * (np.arange(len(flip)) % 2)
    theta[1:] = step
    del step
    np.cumsum(theta, out=theta)
    reach += np.pi / 2  # pi/2 + w
    high = theta + reach
    low = np.subtract(theta, reach, out=theta)
    del theta, reach
    if not isinstance(kept, slice):  # a dropped node admits every phi
        part = low, high
        low, high = np.full(len(u), -np.inf), np.full(len(u), np.inf)
        low[kept], high[kept] = part
    low = _window_extreme(low, ix, iy + 1, np.maximum)
    high = _window_extreme(high, ix, iy + 1, np.minimum)
    M = _window_extreme(au, ix, iy + 1, np.maximum)  # M >= |u(x)| > 0
    dx = xs[iy] - xs[ix]
    D = u[iy] - u[ix] - dx * du[ix]
    at_low = D.real * np.cos(low) + D.imag * np.sin(low)  # Re[e^{-i low} D]
    at_high = D.real * np.cos(high) + D.imag * np.sin(high)
    turn = np.mod(np.angle(D) + np.pi - low, 2.0 * np.pi)  # from low to arg D + pi
    inside = turn <= high - low
    phi = np.where(inside, low + turn, np.where(at_low <= at_high, low, high))
    least = np.where(inside, -np.abs(D), np.minimum(at_low, at_high))
    return low <= high, 1.0 - c2 - least / (M * dx * (dx + 1.0)), phi


def sample_lemma31(
    trace: SolutionTrace,
    consts: EstimateConstants,
    n: int,
    rng: np.random.Generator,
    max_gap: float = 1.5,
    tolerance: float = DEFAULT_TOL,
) -> CheckOutcome:
    """Randomized sweep of the core inequality: its worst ratio over every
    admissible omega (`_lemma31_worst`) at n random node pairs (x, y).

    The pairs come from rng.random((n, 2)), one row (r0, r1) per pair: x =
    xs[ix] is the node good[min(floor(r0 len(good)), len(good) - 1)] of the
    nodes good where |u| > 1e-3 max|u|, and y = xs[iy] the node nearest x +
    max_gap r1, at least the next node.  An x at the last node makes no pair.
    The outcome covers the admissible pairs (accepted) of the n drawn
    (attempts); with none, NoEligiblePoints.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    xs, au = trace.xs, trace.abs_u
    good = np.flatnonzero(au > 1e-3 * float(np.max(au)))
    if good.size < 2:
        raise NoEligiblePoints("trace has no usable points for sampling")
    draws = rng.random((n, 2))
    ix = good[np.minimum((draws[:, 0] * len(good)).astype(np.intp), len(good) - 1)]
    del good  # as long as the trace, like the arrays of _lemma31_worst
    paired = ix != len(xs) - 1  # an x at the last node has no next node
    ix = ix[paired]
    iy = np.maximum(_snap_indices(xs, xs[ix] + max_gap * draws[paired, 1]), ix + 1)
    admissible, ratios, _ = _lemma31_worst(trace, consts.c2, ix, iy)
    if not admissible.any():
        raise NoEligiblePoints("no sampled pair admits an omega")
    ix, ratios = ix[admissible], ratios[admissible]
    j = int(np.argmax(ratios))  # first of the ties
    notes = f"accepted={ratios.size}; attempts={n}"
    return _outcome("lemma31_sweep", ratios.size, ratios[j], xs[ix[j]], tolerance, notes)
