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
through `_window_extreme`, a sparse-table range query that is exact, and
window integrals of |u|^p are differences of the trace's cumulative integral.
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

The randomized sweep of the core inequality (`sample_lemma31`) is a batched
rejection sampler.  Every attempt takes three doubles from the generator (the
pick of x, the gap to y and the phase of omega), so a batch of k attempts
draws rng.random((k, 3)) and the stream does not depend on the batch sizes.
Then numpy snaps y, forms omega and tests the sign hypothesis
(`_lemma31_hypothesis`, shared with `check_lemma31`): a negative endpoint
value rejects a triple at once.  When the remaining windows hold more nodes
than 2 len(u) log2 of the longest window (a rough count of the reads of a min
and a max table over Re u), with each window counted SCAN_NODES nodes longer
and the tables CERTIFY_NODES more for their fixed costs, they are first
certified in bulk: a lower bound on Re[conj(omega) u] over each window, from
the window min or max of Re u and Im u, is compared with the threshold after
a slack of 2^-48 |omega| max|u| that covers every rounding of the scan
(`_lemma31_certified`).  Certified windows are accepted unscanned; the
others, or all of them below that size, scan their window until the n-th
acceptance.  Batch sizes follow the acceptance rate so far, so the generator
may advance past the last counted attempt; the report counts attempts up to
the n-th acceptance and is the same as for one attempt at a time.
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
# fixed costs of the lemma31 sign test, in nodes scanned at about 1.4 ns a
# node: about 4 us to scan one window, about 240 us to certify a batch
# (numpy 2.4, 2 vCPU x86-64)
SCAN_NODES = 3000
CERTIFY_NODES = 175_000
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

    Sparse-table range query (Bender & Farach-Colton, LATIN 2000): level k
    holds the reduction of every run of 2^k consecutive entries, and a window
    of length n with 2^k <= n < 2^(k+1) is covered by its first and last such
    runs.  Levels are built one at a time and dropped once passed, so memory
    stays O(len(a) + len(lo)); only the levels that hold queries are read, and
    when all queries share one level they are answered without masks.  max
    and min are exact, so the result equals the per-window reduction bit for
    bit, except that a zero extreme of a window holding both +0.0 and -0.0
    may carry either sign (the order-dependent case of np.max too; moduli
    hold no -0.0).
    """
    lo = np.asarray(lo, dtype=np.intp)
    hi = np.asarray(hi, dtype=np.intp)
    if np.any(hi <= lo):
        raise ValueError("every window must be nonempty")
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(length)), exact for ints
    counts = np.bincount(level)
    table = np.asarray(a)
    out = np.empty(lo.shape, dtype=table.dtype)
    built = 0
    for k in np.flatnonzero(counts).tolist():
        table = _raise_level(table, built, k, op)
        built = k
        if counts[k] == len(lo):  # one level holds every query
            return op(table[lo], table[hi - (1 << k)])
        sel = level == k
        part = table[lo[sel]]
        out[sel] = op(part, table[hi[sel] - (1 << k)], out=part)
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
    naming what, if it overflows."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
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
    bound = _finite("weight ratio bound", lambda: weight.admissibility_bound(half),
                    InadmissibleWeight)
    xs = trace.xs
    if xs[0] > a - half + 1e-9 or xs[-1] < b + half - 1e-9:
        raise TraceTooShort("trace does not cover the enlarged window")
    w = _finite("weight on the trace", lambda: weight.values(xs), InadmissibleWeight)

    def integral(label, modulus, lo, hi):  # of modulus^p w over the nodes lo .. hi
        f = lambda: modulus ** p * w
        cum = _finite(f"{label}^p w at p={p:g}", lambda: cumtrapz(f(), xs))
        return float(_integrals(f, xs, cum, np.array([lo]), np.array([hi]))[0])

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
    """Index of the grid node nearest to each x; the left node on a tie."""
    i = np.searchsorted(xs, x)
    right = np.minimum(i, len(xs) - 1)
    left = np.maximum(i - 1, 0)
    return np.where(np.abs(xs[right] - x) < np.abs(xs[left] - x), right, left)


def _lemma31_hypothesis(u, du, au, scale_u, om_r, om_i, ix, iy, need):
    """Hypothesis test of the core inequality for a batch of triples
    (omega = om_r + i om_i, x = xs[ix], y = xs[iy]); scale_u is max |u| over
    the trace.  Returns (zero, ok, terms):

      zero   marks the triples with u(x) = 0;
      ok     marks, in batch order, the triples with u(x) != 0 and
             Re[conj(omega) u] >= 0 on [ix, iy], up to the need-th one;
             the triples after it are left unmarked and unscanned;
      terms  (|omega|, Re[conj(omega) u] at ix and iy, Re[conj(omega) u']
             at ix) for every triple.

    Every value is computed as the per-triple scalar expressions compute it:
    Re[conj(omega) u] through numpy's complex multiply (which may use FMA),
    Re[conj(omega) u'] and |omega| = hypot in real arithmetic.  A triple
    whose endpoint value is below the threshold fails without a scan (the
    endpoints are part of the window).  When the remaining windows hold more
    nodes in total, each counted SCAN_NODES longer for the fixed cost of its
    scan, than 2 len(u) bit_length(longest window) + CERTIFY_NODES, they are
    first certified in bulk (`_lemma31_certified`): a certified window passes
    its scan, so it is accepted unscanned.  The size rule is a rough cost
    estimate in nodes scanned, not an exact comparison: it counts the reads
    of one min and one max table over Re u, not the two more tables over
    Im u that a complex trace needs.  A single triple, or a few short
    windows, are cheaper to scan.  The uncertified windows scan in batch
    order, and scanning stops once the certified and scanned acceptances
    ahead of a candidate reach need.
    """
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
    lo, hi = ix[cand].tolist(), iy[cand].tolist()
    ahead = [0] * len(cand)  # certified acceptances before each candidate
    # the size rule in nodes scanned (a rough estimate: Re u tables only) in
    # plain Python, and the longest window only when it can matter: most
    # batches are small.  scan is the scans' cost less the fixed cost of
    # certifying.
    scan = sum(hi) - sum(lo) + (1 + SCAN_NODES) * len(lo) - CERTIFY_NODES
    longest = max(map(int.__sub__, hi, lo)) + 1 if scan > 2 * len(u) else 1
    tables = scan > 2 * len(u) * longest.bit_length()
    if tables:
        certified = _lemma31_certified(u, om_r[cand], om_i[cand], thr[cand],
                                       abs_om[cand] * scale_u, ix[cand], iy[cand])
        ok[cand[certified]] = True
        ahead = np.cumsum(certified)[~certified].tolist()
        cand = cand[~certified]
        lo, hi = ix[cand].tolist(), iy[cand].tolist()
    found = 0
    for k, before, w, a, b, t in zip(cand.tolist(), ahead, conj_om[cand], lo, hi,
                                     thr[cand].tolist()):
        if before + found >= need:
            break
        if not np.minimum.reduce((w * u[a:b + 1]).real) < t:
            ok[k] = True
            found += 1
    if tables:  # unmark the certified acceptances past the need-th
        ok[np.flatnonzero(ok)[need:]] = False
    return zero, ok, (abs_om, g_x, g_y, du_x)


def _lemma31_certified(u, om_r, om_i, thr, scale, lo, hi):
    """Marks the windows [lo, hi] (inclusive) whose scan of Re[conj(omega) u]
    provably stays at or above thr, found without scanning them; scale is
    |omega| max|u|.

    The certificate.  At each node the scan computes v = Re[conj(omega) u]
    from A = fl(om_r u_r) and B = fl(om_i u_i), as fl(A + B) or, with FMA, as
    fl(om_r u_r + B) or fl(A + om_i u_i).  With r = 2^-53, and |om_r u_r|,
    |om_i u_i| and |om_r u_r + om_i u_i| at most scale, every form gives
    v >= A + B - 2 r scale.  fl(om x) is monotone in x, so A and B are at
    least their minima over the window, which come from the window min or max
    of u_r and u_i by the sign of om_r and om_i.  The bound L = fl(A_min +
    B_min) and the test fl(L - s) >= thr each lose at most about 2 r scale
    more, so a certified window has v >= thr + s - 6.1 r scale at every node,
    and the slack s = 2^-48 scale = 32 r scale covers that five times over.
    For a real trace B = 0 and L is the exact minimum of the scan.  Below the
    normal range rounding errors are absolute, not relative, so nothing is
    certified when scale is subnormal; a NaN bound certifies nothing either.
    """
    parts = [(om_r, u.real)]
    if u.imag.any():  # on a real trace the imaginary products are all zero
        parts.append((om_i, u.imag))
    bound = 0.0
    for om, part in parts:
        grows = om >= 0  # fl(om x) grows with x: its window minimum is at min x
        ext = np.empty(len(om))
        ext[grows] = _window_extreme(part, lo[grows], hi[grows] + 1, np.minimum)
        ext[~grows] = _window_extreme(part, lo[~grows], hi[~grows] + 1, np.maximum)
        bound = bound + om * ext
    return (bound - 2.0 ** -48 * scale >= thr) & (scale >= np.finfo(float).tiny)


def _lemma31_ratios(xs, au, c2, ix, iy, abs_omega, g_x, g_y, du_x):
    """(ratio, slack, scale) of the core inequality, vectorized over triples
    whose _lemma31_hypothesis terms are given."""
    M = _window_extreme(au, ix, iy + 1, np.maximum)  # M >= |u(x)| > 0
    dx = xs[iy] - xs[ix]
    penalty = c2 * dx * (dx + 1.0) * abs_omega * M
    rhs = g_x + dx * du_x - penalty
    scale = abs_omega * M * np.maximum(dx * (dx + 1.0), 1e-12)
    slack = g_y - rhs
    return 1.0 - slack / scale, slack, scale


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

    x, y are snapped to grid nodes, and max |u| is the max over the nodes of
    [x, y], never above the true max: the check is conservative at these
    nodes, given the trace's values.
    """
    omega = complex(omega)
    if omega == 0:
        raise ValueError("omega must be nonzero")
    xs, u, du, au = trace.xs, trace.u, trace.du, trace.abs_u
    ix, iy = _snap_indices(xs, np.array([x, y], dtype=float))[:, None]
    if ix[0] > iy[0]:
        raise ValueError("need x <= y within the trace")
    zero, ok, terms = _lemma31_hypothesis(u, du, au, float(np.max(au)), np.array([omega.real]),
                                          np.array([omega.imag]), ix, iy, 1)
    if zero[0]:
        raise PreconditionFailed("u(x) = 0 at the requested point")
    if not ok[0]:
        raise PreconditionFailed("Re[conj(omega) u] changes sign on [x, y]")
    ratio, slack, scale = (float(v[0]) for v in _lemma31_ratios(
        xs, au, consts.c2, ix, iy, *terms))
    notes = f"slack={slack:.6g}; scale={scale:.6g}"
    return _outcome("lemma31", iy[0] - ix[0] + 1, ratio, xs[ix[0]], tolerance, notes)


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
    the phase of u(x) so acceptance is likely).

    Each attempt takes three doubles r = rng.random(3), in order.  x = xs[ix]
    is the node good[min(floor(r0 len(good)), len(good) - 1)] of the nodes
    good where |u| > 1e-3 max|u|; the gap max_gap r1 snaps y = xs[iy] to the
    node nearest x + gap (the next node if that is ix); the phase r2 - 0.5
    turns omega away from u(x)/|u(x)|.  x at the last node has no next node
    and fails.  At most 200 n attempts are made, in batches that draw
    rng.random((k, 3)), one row per attempt: the same doubles as k calls of
    rng.random(3).  Attempts are counted up to the n-th acceptance, but rng
    may have advanced past it, by an amount that depends on the batch sizes.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    xs, u, du, au = trace.xs, trace.u, trace.du, trace.abs_u
    scale_u = float(np.max(au))
    good = np.flatnonzero(au > 1e-3 * scale_u)
    if good.size < 2:
        raise NoEligiblePoints("trace has no usable points for sampling")
    parts = []  # (ix, iy, *terms) of the accepted triples of each batch
    accepted = attempts = 0
    limit = 200 * n
    while accepted < n and attempts < limit:
        rate = accepted / attempts if accepted else (0.05 if attempts else 1.0)
        k = min(math.ceil((n - accepted) / rate) + 16, limit - attempts)
        draws = rng.random((k, 3))
        ix = good[np.minimum((draws[:, 0] * len(good)).astype(np.intp), len(good) - 1)]
        tried = np.flatnonzero(ix != len(xs) - 1)  # the attempts whose x has a next node
        ix = ix[tried]
        iy = _snap_indices(xs, xs[ix] + max_gap * draws[tried, 1])
        iy = np.maximum(iy, ix + 1)  # y is at least the next node
        phase = (draws[tried, 2] - 0.5).tolist()
        c = np.array([math.cos(t) for t in phase])
        s = np.array([math.sin(t) for t in phase])
        unit = u[ix] / au[ix]
        om_r = unit.real * c - unit.imag * s  # omega = unit * (c + i s)
        om_i = unit.real * s + unit.imag * c
        _, ok, terms = _lemma31_hypothesis(u, du, au, scale_u, om_r, om_i, ix, iy, n - accepted)
        hits = tried[ok]
        accepted += hits.size
        attempts += int(hits[-1]) + 1 if accepted == n else k
        parts.append((ix[ok], iy[ok], *(t[ok] for t in terms)))
    if accepted == 0:
        raise NoEligiblePoints("no sampled triple satisfied the hypothesis")
    ix, iy, *terms = (np.concatenate(col) for col in zip(*parts))
    ratios = _lemma31_ratios(xs, au, consts.c2, ix, iy, *terms)[0]
    j = int(np.argmax(ratios))  # first of the ties
    notes = f"accepted={accepted}; attempts={attempts}"
    return _outcome("lemma31_sweep", accepted, ratios[j], xs[ix[j]], tolerance, notes)
