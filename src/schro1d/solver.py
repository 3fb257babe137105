"""Solution traces of -u'' + V u = E u and transfer matrices.

Within each constant cell, q = V - E is constant and the flow of
(u, u')' = (u', q u) over a step h is the closed-form matrix

    [[ cosh(s h),    sinh(s h)/s ],
     [ s sinh(s h),  cosh(s h)  ]]      with s = sqrt(q),

so propagation is exact up to rounding for piecewise-constant potentials.
The entries are even functions of s, hence independent of the branch of the
square root; near q = 0 they are evaluated by series to avoid cancellation.

The propagator runs forward only, over a batch of initial-data columns.
Backward propagation runs forward on the reflected potential V(-x), from -x0
with data (u0, -u0'), and `_kernel_columns` reflects the columns back, so
nothing after it knows the run was reflected.  A transfer matrix runs the
two basis solutions as the two columns of one kernel pass and reads the
node at x; it builds no trace.

The exact propagator works in whole-array passes, with Python loops only
where the work is sequential:

1. grid: all segments between breakpoints are refined uniformly at once,
   to the nodes np.linspace would give;
2. blocks: every cell is cut into evaluation blocks of length at most
   1/|Re sqrt(q)|, all cells together, one block per round;
3. scan: the data columns are carried to every block anchor with the
   blocks' closed-form step matrices, in groups: products over the groups
   carry the data from group start to group start, and every group is then
   stepped block by block from its start, all groups at once.  The group
   axis is the innermost one, so each step is two ufunc calls whose inner
   loop runs over all groups (see `_anchor_scan`).  Its work arrays are cut
   from a buffer kept per thread, up to SCAN_WORKSPACE_BYTES, since fresh
   arrays of a lattice's size are faulted in from the OS on every call;
4. fill: every node is evaluated from the anchor of its block, a chunk of
   nodes per pass.  Series or closed form is chosen once per block.  A
   chunk whose nodes are all anchors is copied from the scan rows, which
   are the values the fill would give there but for the sign of a zero.

The kernel tests no value: the overflow guard is one test of every node
after the kernel (see `_kernel_columns`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import energy_of
from .errors import NotRealSolution, OverflowAtX
from .potential import PiecewisePotential

OVERFLOW_GUARD = 1e150
SERIES_THRESHOLD = 1e-8
GROUP_GROWTH = 2.0  # bound on sum |Re sqrt(q)| h over one group of the anchor scan
_FILL_CHUNK = 2048  # nodes filled per pass, to bound temporaries
SCAN_WORKSPACE_BYTES = 1 << 22  # per thread: 4 MiB, about 13,800 blocks at two columns

_workspace = threading.local()  # the buffer of `_scan_arrays`, one per thread


@dataclass(frozen=True)
class InitialData:
    """Cauchy data (u, u') at x0."""

    x0: float
    u0: complex
    du0: complex

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        u0 = complex(self.u0)
        du0 = complex(self.du0)
        if not all(map(math.isfinite, (u0.real, u0.imag, du0.real, du0.imag))):
            raise ValueError("initial data must be finite")
        if u0 == 0 and du0 == 0:
            raise ValueError("trivial initial data (0, 0) excluded")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "du0", du0)


@dataclass
class SolutionTrace:
    """Grid samples of one solution: xs strictly increasing, u and u' at xs.

    |u|, |u'|, the running integral of |u|^p for each p and the window bounds
    for each radius are computed on first use and kept for every check:
    mutate no trace after its first check.
    """

    xs: np.ndarray
    u: np.ndarray
    du: np.ndarray
    energy: complex
    method: str
    _cum_abs_u: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.u = np.asarray(self.u, dtype=complex)
        self.du = np.asarray(self.du, dtype=complex)
        if not (len(self.xs) == len(self.u) == len(self.du)) or len(self.xs) < 2:
            raise ValueError("trace needs matching grids of length >= 2")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not (
            np.all(np.isfinite(self.xs))
            and np.all(np.isfinite(self.u))
            and np.all(np.isfinite(self.du))
        ):
            raise ValueError("trace contains non-finite samples")

    @cached_property
    def abs_u(self) -> np.ndarray:
        return np.abs(self.u)

    @cached_property
    def abs_du(self) -> np.ndarray:
        return np.abs(self.du)

    def cum_abs_u(self, p: float) -> np.ndarray:
        """cumtrapz(|u|^p, xs), kept per p."""
        if p not in self._cum_abs_u:
            self._cum_abs_u[p] = cumtrapz(self.abs_u ** p, self.xs)
        return self._cum_abs_u[p]

    def window_bounds(self, r: float):
        """The outward windows of radius r about every node, int32, kept per r."""
        if r not in self._windows:
            bounds = windows(self.xs, self.xs - r, self.xs + r, True)
            self._windows[r] = tuple(b.astype(np.int32) for b in bounds)
        return self._windows[r]

    def magnitude_scale(self) -> float:
        return float(max(np.max(self.abs_u), np.max(self.abs_du), 1e-300))

    def is_real(self, tol: float = 1e-10) -> bool:
        scale = self.magnitude_scale()
        return bool(
            np.max(np.abs(self.u.imag)) <= tol * scale
            and np.max(np.abs(self.du.imag)) <= tol * scale
        )

    def real_parts(self, tol: float = 1e-10):
        if not self.is_real(tol):
            raise NotRealSolution("imaginary parts exceed tolerance")
        return self.u.real.copy(), self.du.real.copy()

    def to_csv(self, path):
        write_csv(path, "x,re_u,im_u,re_du,im_du",
                  self.xs, self.u.real, self.u.imag, self.du.real, self.du.imag)


@dataclass
class TransferMatrix:
    """2x2 matrix mapping (u(y), u'(y)) to (u(x), u'(x)) at fixed energy."""

    entries: np.ndarray
    x_from: float
    x_to: float
    energy: complex

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex).reshape(2, 2)
        if not np.isfinite(self.entries).all():
            raise ValueError("transfer matrix entries must be finite")
        if abs(self.det_residual()) > 1e-8:
            raise ValueError(
                f"transfer matrix determinant off unity: residual {self.det_residual():.3e}"
            )

    @property
    def det(self) -> complex:
        a = self.entries
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]

    def det_residual(self) -> float:
        """|det - 1| scaled by the matrix magnitude (cancellation floor)."""
        scale = max(1.0, float(np.sum(np.abs(self.entries) ** 2)))
        return abs(self.det - 1.0) / scale


def write_csv(path, header, *columns):
    """Write the columns under a one-line header to path, a file name or a
    text stream, as comma-separated values."""
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header, comments="")


def cumtrapz(y, x):
    """Running trapezoid integral of the samples y over the grid x, from 0."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def windows(xs, a, b, outward):
    """Node bounds (lo, hi) of the windows [a, b].  Outward, lo is the last
    node at or before a (or 0) and hi the first at or after b (or len(xs));
    inward, lo is the first node at or after a and hi one past the last at
    or before b."""
    if outward:  # xs[1:] holds one node fewer at or before a, or none
        return np.searchsorted(xs[1:], a, side="right"), np.searchsorted(xs, b, side="left")
    return np.searchsorted(xs, a, side="left"), np.searchsorted(xs, b, side="right")


def _use_series(q, hmax):
    """Whether a block of length hmax takes the series: |q| hmax^2 small."""
    return np.hypot(q.real, q.imag) * hmax * hmax < SERIES_THRESHOLD


def _series_terms(q, dt):
    z = q * dt * dt
    return 1.0 + z / 2.0 + z * z / 24.0, dt * (1.0 + z / 6.0 + z * z / 120.0)


def _closed_terms(q, dt):
    s = np.sqrt(q)
    sdt = s * dt
    c = np.cosh(sdt)
    sl = np.sinh(sdt, out=sdt)
    sl /= s
    return c, sl


def _propagator_terms(q, dt, series):
    """cosh(s*dt) and sinh(s*dt)/s for s = sqrt(q), elementwise in q and dt.

    Where `series` holds, the terms come from their Taylor series, which
    avoids cancellation near q = 0 (see `_use_series`).
    """
    dt = np.asarray(dt, dtype=float)
    q = np.broadcast_to(np.asarray(q, dtype=complex), dt.shape)
    if series.all():
        return _series_terms(q, dt)
    if not series.any():
        return _closed_terms(q, dt)
    c = np.empty(dt.shape, dtype=complex)
    sl = np.empty_like(c)
    c[series], sl[series] = _series_terms(q[series], dt[series])
    c[~series], sl[~series] = _closed_terms(q[~series], dt[~series])
    return c, sl


def build_grid(V: PiecewisePotential, a: float, b: float, max_step: float):
    """Strictly increasing grid on [a, b]: every potential breakpoint inside,
    uniform refinement to spacing <= max_step.  Returns (xs, edge_indices)
    where edge_indices locate the constant-q segment boundaries in xs.

    Segment [l, r] gets n = ceil((r - l)/max_step) steps and the nodes
    k*((r - l)/n) + l for k < n, which is what np.linspace(l, r, n + 1)
    computes, bit for bit."""
    if not max_step > 0:
        raise ValueError("max_step must be positive")
    tol = 1e-12 * (1.0 + max(abs(a), abs(b)))
    bp = V.breakpoints
    edges = np.concatenate([[a], bp[(bp > a + tol) & (bp < b - tol)], [b]])
    left, width = edges[:-1], np.diff(edges)
    n = np.maximum(1, np.ceil(width / max_step - 1e-12)).astype(np.int64)
    edge_idx = np.concatenate([[0], np.cumsum(n)])
    xs = np.arange(edge_idx[-1] + 1, dtype=float)
    nodes = xs[:-1]  # k, the node's index within its segment, then the node
    nodes -= np.repeat(edge_idx[:-1], n)
    nodes *= np.repeat(width / n, n)
    nodes += np.repeat(left, n)
    xs[-1] = b
    return xs, edge_idx


def _block_anchors(xs, edge_idx, growth):
    """First node of every evaluation block, segment by segment.

    Evaluating far from a block's anchor cancels catastrophically for
    decaying solutions, so each cell is cut into blocks of length at most
    1/|Re sqrt(q)| (`growth`, per segment): a block ends at the last node
    within that length of its anchor, but spans at least one step.  Every
    segment is cut at once, one block per round, until all of them are used
    up.
    """
    i0 = edge_idx[:-1]
    anchors = [i0]
    long = np.diff(edge_idx) > 1  # a segment one step long is one block
    j0, i1, rate = i0[long], edge_idx[1:][long], growth[long]
    block = xs[i1] - xs[j0]
    wide = rate * block > 1.0
    block[wide] = 1.0 / rate[wide]
    while True:
        j1 = np.searchsorted(xs, xs[j0] + block, side="right") - 1
        j1 = np.maximum(np.minimum(j1, i1), j0 + 1)
        more = j1 < i1
        if not more.any():
            return np.concatenate(anchors)
        j0, i1, block = j1[more], i1[more], block[more]
        anchors.append(j0)


def _steps(m, rows):
    """Fill rows[1:] for every group at once: row k + 1 of group G is block
    matrix m[k, ..., G] applied to row k, as (c u + sl du, q sl u + c du)
    with the products in that order.  The group axis comes last, so each
    step is two ufunc calls whose inner loop runs over all groups."""
    p = np.empty((2,) + rows[0, :, 0].shape, dtype=complex)
    for k in range(len(rows) - 1):
        np.multiply(m[k], rows[k], p)
        np.add(p[0], p[1], rows[k + 1, :, 0])


def _scan_arrays(*shapes):
    """Complex arrays of the given shapes, uninitialised, cut one after
    another from this thread's buffer.  The buffer grows to the thread's
    largest scan up to SCAN_WORKSPACE_BYTES; a larger scan gets a buffer of
    its own and leaves the kept one as it is."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = getattr(_workspace, "buf", None)
    if buf is None or len(buf) < sum(sizes):
        buf = np.empty(sum(sizes), dtype=complex)
        if buf.nbytes <= SCAN_WORKSPACE_BYTES:
            _workspace.buf = buf
    ends = np.cumsum(sizes).tolist()
    return [buf[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def _anchor_scan(q, h, series, u, du, growth):
    """Data columns at every block end, carried from (u, du) by the step
    matrices [[c, sl], [q sl, c]] over the block lengths h.

    The blocks are cut into g groups of b, the last one padded with identity
    blocks.  The products of the groups' matrices carry the data from group
    start to group start; inside every group the rows are then stepped block
    by block from the group's start row.  So only the group start rows are
    reassociated: the rows of the first group, and every other row given its
    group's start row, are the block-by-block arithmetic.  A group may grow
    by at most e^GROUP_GROWTH (b |Re sqrt(q)| h <= GROUP_GROWTH for every
    block; `growth` is |Re sqrt(q)|), which bounds the cancellation that a
    product over a group brings to a decaying solution.  Below that cap
    b = isqrt(nblk // 2), which minimizes the loop passes: b for the
    products, b - 1 inside the groups and nblk / b for the carry.

    Block k of group G is block G b + k, laid out with the step axis first
    and the group axis last: m[k, j, i, 0, G] is entry (i, j) of its matrix
    and rows[k, i, 0, col, G] is the data at its start.  The layout changes
    neither the products nor the order of the adds, so it changes no bit of
    any row, group starts included.  The carry runs on contiguous copies of
    the group products and the group start rows.

    Returns the rows: the data at xs[0], then at each block end.  They are
    a view of this thread's workspace (`_scan_arrays`), so they hold only
    until the thread's next scan.
    """
    nblk, ncol = len(q), len(u)
    b = max(1, math.isqrt(nblk // 2))
    grow = float(np.max(growth * h))
    if grow * b > GROUP_GROWTH:
        b = max(1, int(GROUP_GROWTH / grow))
    g = nblk // b + 1  # the last group holds the last row
    c, sl, qsl, m, rows, prod, flat = _scan_arrays(
        (g * b,), (g * b,), (g * b,), (b, 2, 2, 1, g), (b, 2, 1, ncol, g),
        (b + 1, 2, 1, 2, g - 1), (g * b, 2, ncol))
    c[:nblk], sl[:nblk] = _propagator_terms(q, h, series)
    np.multiply(q, sl[:nblk], out=qsl[:nblk])
    c[nblk:], sl[nblk:], qsl[nblk:] = 1.0, 0.0, 0.0  # identity blocks: c = 1, sl = q = 0
    # entry (i, j) at m[:, j, i], so that p[0] + p[1] in _steps is
    # (c u + sl du, q sl u + c du)
    m[:, 0, 0, 0] = m[:, 1, 1, 0] = c.reshape(g, b).T
    m[:, 0, 1, 0] = qsl.reshape(g, b).T
    m[:, 1, 0, 0] = sl.reshape(g, b).T
    # The scan stays in numpy ufuncs on purpose: numpy's complex multiply
    # uses FMA where the CPU has it, Python's complex `*` does not, and the
    # two disagree in the last bit on a large share of products.  The
    # products of groups 0 .. g-2 are their steps of two data columns started
    # at the identity: prod[b, i, 0, j, G] is entry (i, j)
    prod[0] = 0.0
    prod[0, 0, 0, 0] = prod[0, 1, 0, 1] = 1.0
    _steps(m[..., :-1], prod)
    # group start to group start, one group per step, on contiguous copies
    carry = np.ascontiguousarray(prod[b, :, 0].transpose(2, 1, 0))[..., None, None]
    starts = np.empty((g, 2, 1, ncol, 1), dtype=complex)
    starts[0, :, 0, :, 0] = u, du
    _steps(carry, starts)
    rows[0] = starts[..., 0].transpose(1, 2, 3, 0)
    _steps(m, rows)
    flat.reshape(g, b, 2, 1, ncol)[...] = rows.transpose(4, 0, 1, 2, 3)
    return flat[:nblk + 1]


def _exact_kernel(xs, edge_idx, qs, u, du):
    """Closed-form flow of the data columns (u, du) at xs[0] along xs.

    A sequential scan carries the data from block anchor to block anchor;
    every node is then filled, a chunk of nodes at a time, from the anchor
    of its block: the block with the last anchor at or before the node.  A
    chunk whose nodes are all anchors is copied from the scan rows: the fill
    at an anchor (dt = 0, so c = 1 and sl = 0 exactly) returns its row, but
    may turn a -0.0 into +0.0.  Node 0 holds (u, du) as given.
    """
    n, ncol = len(xs), len(u)
    growth = np.abs(np.sqrt(qs).real)  # per segment
    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[_block_anchors(xs, edge_idx, growth)] = True
    row_node = np.append(np.flatnonzero(is_anchor), n - 1)  # node of each scan row
    owner = np.cumsum(is_anchor[:-1]) - 1  # block of nodes 0..n-2
    xa = xs[row_node[:-1]]  # abscissa of each block anchor
    is_start = np.zeros(n, dtype=bool)  # every segment starts a block
    is_start[edge_idx[:-1]] = True
    seg = np.cumsum(is_start[row_node[:-1]]) - 1
    q = qs[seg]
    h = xs[row_node[1:]] - xa
    series = _use_series(q, h)  # one choice per block, never per node
    rows = _anchor_scan(q, h, series, u, du, growth[seg])
    us = np.empty((ncol, n), dtype=complex)
    dus = np.empty_like(us)
    for i in range(0, n - 1, _FILL_CHUNK):
        own = owner[i:i + _FILL_CHUNK]
        j = i + len(own)
        if is_anchor[i:j].all():  # rows own[0] .. own[-1], one per node
            us[:, i:j], dus[:, i:j] = rows[own[0]:own[0] + j - i].transpose(1, 2, 0)
            continue
        ua, dua = rows[own].transpose(1, 2, 0)  # data at each node's anchor
        qn = q[own]
        c, sl = _propagator_terms(qn, xs[i:j] - xa[own], series[own])
        np.multiply(c, ua, out=us[:, i:j])
        us[:, i:j] += sl * dua
        np.multiply(qn * sl, ua, out=dus[:, i:j])
        dus[:, i:j] += c * dua
    us[:, 0], dus[:, 0] = u, du
    us[:, -1], dus[:, -1] = rows[-1]
    return us, dus


def _kernel_columns(V, energy, x0, x_end, u0, du0, step):
    """Run `_exact_kernel` on the data columns (u0[k], du0[k]) at x0 toward
    x_end.

    Returns the increasing grid between x0 and x_end and the columns
    (us, dus) of u and u' on it.  The kernel only runs forward: for
    x_end < x0 it runs on the reflected potential, from -x0 with data
    (u0, -du0), and its grid and columns are reflected back here, as
    (-xs, u, -u') read from the last node to the first.

    The kernel computes every node, with overflow silenced; an OverflowAtX
    is then raised at the first node over the overflow guard or not finite,
    with x in the caller's coordinates.  The nodes before it are those a
    kernel stopping there would compute, and a scan group grows by at most
    e^GROUP_GROWTH, so that node is over the guard but finite.
    """
    x_end = float(x_end)
    if not (math.isfinite(x0) and math.isfinite(x_end)):
        raise ValueError("endpoints must be finite")
    if x_end == x0:
        raise ValueError("x_end must differ from init.x0")
    reflected = x_end < x0
    if reflected:
        V, x0, x_end, du0 = V.reflected(), -x0, -x_end, -du0
    xs, edge_idx = build_grid(V, x0, x_end, step)
    mids = (xs[edge_idx[:-1]] + xs[edge_idx[1:]]) / 2.0
    qs = V.value_at(mids) - energy
    with np.errstate(over="ignore", invalid="ignore"):
        us, dus = _exact_kernel(xs, edge_idx, qs, u0, du0)
        mag = np.maximum(np.abs(us), np.abs(dus)).max(axis=0)
        bad = np.flatnonzero(~(mag <= OVERFLOW_GUARD))
    if bad.size:
        x = float(xs[bad[0]])
        raise OverflowAtX(-x if reflected else x, float(mag[bad[0]]))
    if reflected:
        return -xs[::-1], us[:, ::-1], -dus[:, ::-1]
    return xs, us, dus


def _traces(V, E, x0, x_end, u0, du0, step):
    """One trace per data column (u0[k], du0[k]) at x0, propagated to x_end."""
    energy = energy_of(E)
    xs, us, dus = _kernel_columns(V, energy, x0, x_end, u0, du0, step)
    return [SolutionTrace(xs, u, du, energy, "exact_cell") for u, du in zip(us, dus)]


def propagate_exact(
    V: PiecewisePotential,
    E,
    init: InitialData,
    x_end: float,
    max_step: float,
) -> SolutionTrace:
    """Closed-form per-cell propagation; exact up to rounding.

    Both directions are supported (x_end on either side of init.x0); the
    returned grid is always increasing.  Aborts with OverflowAtX once the
    solution magnitude exceeds the overflow guard.
    """
    (trace,) = _traces(V, E, init.x0, x_end, np.array([init.u0]), np.array([init.du0]),
                       max_step)
    return trace


def basis_traces(V: PiecewisePotential, E, x_from: float, x_to: float, max_step: float):
    """Traces of the two canonical solutions with data (1,0) and (0,1) at
    x_from, propagated together as the columns of one kernel pass."""
    u0, du0 = np.eye(2, dtype=complex)
    t1, t2 = _traces(V, E, float(x_from), x_to, u0, du0, max_step)
    return t1, t2


def transfer_matrix(
    V: PiecewisePotential, E, x: float, y: float, max_step: float
) -> TransferMatrix:
    """T(E, x, y): maps Cauchy data at y to Cauchy data at x.

    The basis data (1, 0) and (0, 1) at y run toward x as the two columns of
    one kernel pass, and T is read from the columns' node at x (the last one
    when x > y, else the first); no trace is built.  The kernel still fills
    every node and `_kernel_columns` guards them, so an overflow raises the
    OverflowAtX that `basis_traces` would.
    """
    energy = energy_of(E)
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("endpoints must be finite")
    if x == y:
        return TransferMatrix(np.eye(2, dtype=complex), y, x, energy)
    u0, du0 = np.eye(2, dtype=complex)
    _, us, dus = _kernel_columns(V, energy, y, x, u0, du0, max_step)
    i = -1 if x > y else 0
    return TransferMatrix(np.array([us[:, i], dus[:, i]]), y, x, energy)
