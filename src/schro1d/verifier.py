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
Windows whose integral drowns in the rounding of that sum (deep tails) are
summed again from one array of np.trapezoid's own terms.

The randomized sweep of the core inequality (`sample_lemma31`) is a batched
rejection sampler.  Per batch, `_draw_attempts` gives the values of the
generator calls that the per-attempt loop made, in its order: `integers` for
x, `random` for the gap and, unless x is the last node, `random` for the
phase (uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit).  For
PCG64 it rebuilds them in bulk from raw words, and leaves the generator in
the state those calls leave.  Then numpy snaps y, forms omega and tests the
sign hypothesis (`_lemma31_hypothesis`, shared with `check_lemma31`): a
negative endpoint value rejects a triple at once.  When
the remaining windows hold more nodes than 2 len(u) log2 of the longest
window (a rough count of the reads of a min and a max table over Re u), with
each window counted SCAN_NODES nodes longer and the tables CERTIFY_NODES
more for their fixed costs, they are first certified in bulk: a lower bound
on Re[conj(omega) u] over each window, from the window min or max of Re u
and Im u, is compared with the threshold after a slack of 2^-48 |omega|
max|u| that covers every rounding of the scan
(`_lemma31_certified`).  Certified windows are accepted unscanned; the
others, or all of them below that size, scan their window until the n-th
acceptance.  Batch sizes follow the acceptance rate so far, so the generator
may advance past the last counted attempt; the report counts attempts up to
the n-th acceptance and is the same as for one attempt at a time.
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
# fixed costs of the lemma31 sign test, in nodes scanned at about 1.4 ns a
# node: about 4 us to scan one window, about 240 us to certify a batch
# (numpy 2.4, 2 vCPU x86-64)
SCAN_NODES = 3000
CERTIFY_NODES = 175_000


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
    if suspicious.size:
        # np.trapezoid's own terms: summing a slice of them is, bit for bit,
        # np.trapezoid(fvals[i0:i1 + 1], xs[i0:i1 + 1])
        terms = np.diff(xs) * (fvals[1:] + fvals[:-1]) / 2.0
        for j, a, b in zip(suspicious.tolist(), i0[suspicious].tolist(),
                           i1[suspicious].tolist()):
            out[j] = terms[a:b].sum()
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
        # np.interp silently returns wrong values for unsorted abscissae
        if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
            raise InadmissibleWeight(
                "custom weight abscissae must be finite and strictly increasing")
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

            def first_near(xs):
                """First j with |xs[j] - xs[i]| <= h, as the difference rounds,
                for each i.  Those j are a run of indices around i since xs
                increases; the search for xs[i] - h can miss the run's start
                by a node where that rounds differently, and steps onto it."""
                j = np.searchsorted(xs, xs - h, side="left")
                while np.any(step := (j > 0) & (np.abs(xs[j - 1] - xs) <= h)):
                    j[step] -= 1
                while np.any(step := np.abs(xs[j] - xs) > h):
                    j[step] += 1
                return j

            lo = first_near(xs)
            hi = len(xs) - first_near(-xs[::-1])[::-1]  # the run's end, by reflection
            return float(np.max(ws / _window_extreme(ws, lo, hi, np.minimum), initial=1.0))
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
            if i1 <= i0:  # the integral would be 0 or negative: a spurious pass
                raise TraceTooShort(f"window ({lo},{hi}) holds fewer than two grid nodes")
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


def _lemma31_ratios(xs, au, adu, h, c2, ix, iy, abs_omega, g_x, g_y, du_x):
    """(ratio, slack, scale, grid_slack) of the core inequality, vectorized
    over triples whose _lemma31_hypothesis terms are given."""
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
    xs, u, du = trace.xs, trace.u, trace.du
    ix, iy = _snap_indices(xs, np.array([x, y], dtype=float))[:, None]
    if ix[0] > iy[0]:
        raise ValueError("need x <= y within the trace")
    au = np.abs(u)
    zero, ok, terms = _lemma31_hypothesis(u, du, au, float(np.max(au)), np.array([omega.real]),
                                          np.array([omega.imag]), ix, iy, 1)
    if zero[0]:
        raise PreconditionFailed("u(x) = 0 at the requested point")
    if not ok[0]:
        raise PreconditionFailed("Re[conj(omega) u] changes sign on [x, y]")
    ratio, slack, scale, eps = (float(v[0]) for v in _lemma31_ratios(
        xs, au, np.abs(du), _grid_spacing(xs), consts.c2, ix, iy, *terms
    ))
    notes = f"slack={slack:.6g}; scale={scale:.6g}; grid_slack={eps:.3e}"
    return _outcome("lemma31", iy[0] - ix[0] + 1, ratio, xs[ix[0]], tolerance, notes)


_LOW32 = np.uint64(0xFFFF_FFFF)


def _draw_attempts(rng, n, no_phase, k):
    """The draws of k sampler attempts: (picks, gaps, phases), phases nan
    where no phase is drawn.  They are the values of k rounds of
    j = rng.integers(0, n), rng.random() and, unless j == no_phase,
    -0.5 + rng.random() (uniform(lo, hi) is lo + (hi - lo) * random(), bit for
    bit), and rng is left in the state those calls leave, cache fields
    included.  n must be at least 2.

    With a PCG64 bit generator and n < 2^32 the draws are rebuilt from raw
    words.  numpy's `integers(0, n)` there is Lemire's bounded draw (ACM
    TOMACS 29, 2019) on a 32-bit half-word: m = u32 n, rejected while the low
    32 bits of m are below (2^32 - n) % n, else m >> 32.  The half-word is the
    low half of a fresh word when the cache is empty, and the cached high half
    otherwise; `random()` is (w >> 11) 2^-53 of one word.  A run reads words
    for its attempts as if each took that common path; at the first attempt
    that rejects or picks no_phase, the generator is rewound to the words
    used before it and that attempt is drawn with the scalar calls.  Other
    bit generators take the scalar calls for every attempt.
    """
    picks = np.empty(k, dtype=np.intp)
    gaps = np.empty(k)
    phases = np.full(k, np.nan)
    bg = rng.bit_generator
    bulk = type(bg) is np.random.PCG64 and n < 2 ** 32
    threshold = np.uint64((2 ** 32 - n) % n)
    done = 0
    while done < k:
        if bulk:
            entry = bg.state
            cached = entry["has_uint32"]
            # a pick of no_phase has probability 1/n: a run much longer than
            # n attempts would mostly be drawn again
            m = min(k - done, 16 + 2 * n)
            i = np.arange(m)
            at = 2 * i + (i + 1 - cached) // 2  # words before each attempt
            fresh = (i + cached) % 2 == 0  # the attempts that take a fresh word
            words = bg.random_raw(2 * m + (m + 1 - cached) // 2)
            ints = words[at[fresh]]
            halves = np.empty(cached + 2 * len(ints), dtype=np.uint64)
            halves[:cached] = entry["uinteger"]
            halves[cached::2] = ints & _LOW32
            halves[cached + 1::2] = ints >> 32
            prod = halves[:m] * np.uint64(n)
            pick = (prod >> 32).astype(np.intp)
            stop = np.flatnonzero(((prod & _LOW32) < threshold) | (pick == no_phase))
            r = int(stop[0]) if stop.size else m
            gap = at[:r] + fresh[:r]  # the gap's word; the phase's is next
            picks[done:done + r] = pick[:r]
            gaps[done:done + r] = (words[gap] >> 11) * 2.0 ** -53
            phases[done:done + r] = -0.5 + (words[gap + 1] >> 11) * 2.0 ** -53
            f = (r + 1 - cached) // 2  # fresh words taken by the r attempts
            if r < m:
                bg.state = entry
                bg.advance(2 * r + f)
            state = bg.state
            state["has_uint32"] = cached + 2 * f - r
            state["uinteger"] = int(ints[f - 1] >> 32) if f else entry["uinteger"]
            bg.state = state
            done += r
            if done == k:
                break
        j = int(rng.integers(0, n))
        picks[done] = j
        gaps[done] = rng.random()
        if j != no_phase:
            phases[done] = -0.5 + rng.random()
        done += 1
    return picks, gaps, phases


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

    An attempt draws x = xs[ix] from the nodes where |u| > 1e-3 max|u|, a gap
    in [0, max_gap) that snaps y = xs[iy] to the node nearest x + gap (the
    next node if that is ix), and a phase in [-0.5, 0.5) that turns omega
    away from u(x)/|u(x)|; x at the last node draws no phase and fails.  At
    most 200 n attempts are made, in batches (see the module docstring); a
    batch's draws come from `_draw_attempts`, in bulk for PCG64.  Attempts
    are counted up to the n-th acceptance, but rng may have advanced past
    it, by an amount that depends on the batch sizes.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    xs, u, du = trace.xs, trace.u, trace.du
    au = np.abs(u)
    scale_u = float(np.max(au))
    h = _grid_spacing(xs)
    good = np.flatnonzero(au > 1e-3 * scale_u)
    if good.size < 2:
        raise NoEligiblePoints("trace has no usable points for sampling")
    no_phase = len(good) - 1 if good[-1] == len(xs) - 1 else -1  # the pick of the last node
    parts = []  # (ix, iy, *terms) of the accepted triples of each batch
    accepted = attempts = 0
    limit = 200 * n
    while accepted < n and attempts < limit:
        rate = accepted / attempts if accepted else (0.05 if attempts else 1.0)
        k = min(math.ceil((n - accepted) / rate) + 16, limit - attempts)
        picks, gaps, phases = _draw_attempts(rng, len(good), no_phase, k)
        drawn = np.flatnonzero(picks != no_phase)  # the attempts that drew a phase
        ix = good[picks[drawn]]
        iy = _snap_indices(xs, xs[ix] + max_gap * gaps[drawn])
        iy = np.maximum(iy, ix + 1)  # y is at least the next node
        phase = phases[drawn].tolist()
        c = np.array([math.cos(t) for t in phase])
        s = np.array([math.sin(t) for t in phase])
        unit = u[ix] / au[ix]
        om_r = unit.real * c - unit.imag * s  # omega = unit * (c + i s)
        om_i = unit.real * s + unit.imag * c
        _, ok, terms = _lemma31_hypothesis(u, du, au, scale_u, om_r, om_i, ix, iy, n - accepted)
        hits = drawn[ok]
        accepted += hits.size
        attempts += int(hits[-1]) + 1 if accepted == n else k
        parts.append((ix[ok], iy[ok], *(t[ok] for t in terms)))
    if accepted == 0:
        raise NoEligiblePoints("no sampled triple satisfied the hypothesis")
    ix, iy, *terms = (np.concatenate(col) for col in zip(*parts))
    ratios = _lemma31_ratios(xs, au, np.abs(du), h, consts.c2, ix, iy, *terms)[0]
    j = int(np.argmax(ratios))  # first of the ties
    notes = f"accepted={accepted}; attempts={attempts}"
    return _outcome("lemma31_sweep", accepted, ratios[j], xs[ix[j]], tolerance, notes)
