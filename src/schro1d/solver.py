"""Solution traces of -u'' + V u = E u and transfer matrices.

Within each constant cell, q = V - E is constant and the flow of
(u, u')' = (u', q u) over a step h is the closed-form matrix

    [[ cosh(s h),    sinh(s h)/s ],
     [ s sinh(s h),  cosh(s h)  ]]      with s = sqrt(q),

so propagation is exact up to rounding for piecewise-constant potentials.
The entries are even functions of s, hence independent of the branch of the
square root; near q = 0 they are evaluated by series to avoid cancellation.
A classical fixed-step RK4 integrator (with steps split at cell boundaries)
serves as an independent cross-check.

Both propagators run forward only, over a batch of initial-data columns.
Backward propagation runs forward on the reflected potential V(-x), from -x0
with data (u0, -u0'), and reflects the traces back; the two basis solutions
behind transfer matrices are propagated as one batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import Energy
from .errors import NotRealSolution, OverflowAtX
from .potential import PiecewisePotential

OVERFLOW_GUARD = 1e150
SERIES_THRESHOLD = 1e-8


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
    """Grid samples of one solution: xs strictly increasing, u and u' at xs."""

    xs: np.ndarray
    u: np.ndarray
    du: np.ndarray
    energy: Energy
    method: str
    max_step: float

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

    @property
    def span(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def magnitude_scale(self) -> float:
        return float(max(np.max(np.abs(self.u)), np.max(np.abs(self.du)), 1e-300))

    def is_real(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, self.magnitude_scale())
        return bool(
            np.max(np.abs(self.u.imag)) <= tol * scale
            and np.max(np.abs(self.du.imag)) <= tol * scale
        )

    def real_parts(self, tol: float = 1e-10):
        if not self.is_real(tol):
            raise NotRealSolution("imaginary parts exceed tolerance")
        return self.u.real.copy(), self.du.real.copy()

    def scaled(self, lam: complex) -> "SolutionTrace":
        if lam == 0:
            raise ValueError("scaling by zero gives the trivial solution")
        return SolutionTrace(self.xs.copy(), lam * self.u, lam * self.du,
                             self.energy, self.method, self.max_step)

    def reflected(self) -> "SolutionTrace":
        """Trace of x -> u(-x); pairs with the reflected potential."""
        return SolutionTrace(-self.xs[::-1], self.u[::-1], -self.du[::-1],
                             self.energy, self.method, self.max_step)

    def to_csv(self, path):
        header = "x,re_u,im_u,re_du,im_du"
        data = np.column_stack(
            [self.xs, self.u.real, self.u.imag, self.du.real, self.du.imag]
        )
        np.savetxt(path, data, delimiter=",", header=header, comments="")


@dataclass
class TransferMatrix:
    """2x2 matrix mapping (u(y), u'(y)) to (u(x), u'(x)) at fixed energy."""

    entries: np.ndarray
    x_from: float
    x_to: float
    energy: Energy

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex).reshape(2, 2)
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


def cumtrapz(y, x):
    """Running trapezoid integral of the samples y over the grid x, from 0."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def _propagator_terms(q: complex, dt: np.ndarray):
    """cosh(s*dt) and sinh(s*dt)/s for s = sqrt(q), series near q = 0."""
    dt = np.asarray(dt)
    hmax = float(np.max(np.abs(dt))) if dt.size else 0.0
    if abs(q) * hmax * hmax < SERIES_THRESHOLD:
        z = q * dt * dt
        c = 1.0 + z / 2.0 + z * z / 24.0
        sl = dt * (1.0 + z / 6.0 + z * z / 120.0)
    else:
        s = np.sqrt(complex(q))
        c = np.cosh(s * dt)
        sl = np.sinh(s * dt) / s
    return c, sl


def build_grid(V: PiecewisePotential, a: float, b: float, max_step: float):
    """Strictly increasing grid on [a, b]: every potential breakpoint inside,
    uniform refinement to spacing <= max_step.  Returns (xs, edge_indices)
    where edge_indices locate the constant-q segment boundaries in xs."""
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    tol = 1e-12 * (1.0 + max(abs(a), abs(b)))
    edges = [a]
    for p in V.breakpoints:
        if p > a + tol and p < b - tol:
            edges.append(p)
    edges.append(b)
    nodes = []
    edge_idx = [0]
    count = 0
    for l, r in zip(edges, edges[1:]):
        n = max(1, int(math.ceil((r - l) / max_step - 1e-12)))
        seg = np.linspace(l, r, n + 1)
        nodes.append(seg[:-1])
        count += n
        edge_idx.append(count)
    nodes.append(np.array([b]))
    return np.concatenate(nodes), edge_idx


def _check_overflow(xs, us, dus, i0, i1):
    mag = np.max(np.maximum(np.abs(us[:, i0:i1 + 1]), np.abs(dus[:, i0:i1 + 1])), axis=0)
    bad = np.flatnonzero(mag > OVERFLOW_GUARD)
    if bad.size:
        raise OverflowAtX(float(xs[i0 + bad[0]]), float(mag[bad[0]]))


def _exact_kernel(xs, edge_idx, qs, u, du):
    """Closed-form flow of the data columns (u, du) at xs[0] along xs."""
    us = np.empty((len(u), len(xs)), dtype=complex)
    dus = np.empty_like(us)
    for i0, i1, q in zip(edge_idx, edge_idx[1:], qs):
        # bound the per-evaluation growth factor: evaluating far from the
        # block base cancels catastrophically for decaying solutions, so the
        # cell is split into blocks with |Re sqrt(q)| * length <= ~1
        growth = abs(np.sqrt(q).real)
        seg_len = xs[i1] - xs[i0]
        block = seg_len if growth * seg_len <= 1.0 else 1.0 / growth
        j0 = i0
        while j0 < i1:
            j1 = min(int(np.searchsorted(xs, xs[j0] + block, side="right")) - 1, i1)
            j1 = max(j1, j0 + 1)
            sl = slice(j0, j1 + 1)
            c, slh = _propagator_terms(q, xs[sl] - xs[j0])
            us[:, sl] = c * u[:, None] + slh * du[:, None]
            dus[:, sl] = q * slh * u[:, None] + c * du[:, None]
            _check_overflow(xs, us, dus, j0, j1)
            u, du = us[:, j1].copy(), dus[:, j1].copy()
            j0 = j1
    return us, dus


def _rk_kernel(xs, edge_idx, qs, u, du):
    """Fixed-step RK4 flow of the data columns (u, du) at xs[0] along xs."""
    us = np.empty((len(u), len(xs)), dtype=complex)
    dus = np.empty_like(us)
    us[:, 0], dus[:, 0] = u, du
    u, du = u.tolist(), du.tolist()
    for i0, i1, q in zip(edge_idx, edge_idx[1:], qs):
        h = (xs[i1] - xs[i0]) / (i1 - i0)
        # RK4 on the linear system collapses to one constant 2x2 step matrix
        alpha = 1.0 + q * h * h / 2.0 + q * q * h ** 4 / 24.0
        beta = h + q * h ** 3 / 6.0
        qbeta = q * beta
        for col in range(len(u)):
            a, b = u[col], du[col]
            for i in range(i0 + 1, i1 + 1):
                a, b = alpha * a + beta * b, qbeta * a + alpha * b
                us[col, i] = a
                dus[col, i] = b
            u[col], du[col] = a, b
        _check_overflow(xs, us, dus, i0, i1)
    return us, dus


def _traces(kernel, method, V, E, x0, x_end, u0, du0, step):
    """One trace per data column (u0[k], du0[k]) at x0, propagated to x_end.

    The kernels only run forward: for x_end < x0 the columns run forward on
    the reflected potential, from -x0 with data (u0, -du0), and the traces
    are reflected back.
    """
    energy = Energy.of(E)
    x_end = float(x_end)
    if x_end == x0:
        raise ValueError("x_end must differ from init.x0")
    if x_end < x0:
        try:
            traces = _traces(kernel, method, V.reflected(), energy, -x0, -x_end,
                             u0, -du0, step)
        except OverflowAtX as err:
            raise OverflowAtX(-err.x, err.magnitude) from None
        return [t.reflected() for t in traces]
    xs, edge_idx = build_grid(V, x0, x_end, step)
    mids = (xs[edge_idx[:-1]] + xs[edge_idx[1:]]) / 2.0
    qs = (V.value_at(mids) - energy.as_complex).tolist()
    us, dus = kernel(xs, edge_idx, qs, u0, du0)
    return [SolutionTrace(xs, u, du, energy, method, float(step)) for u, du in zip(us, dus)]


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
    (trace,) = _traces(_exact_kernel, "exact_cell", V, E, init.x0, x_end,
                       np.array([init.u0]), np.array([init.du0]), max_step)
    return trace


def propagate_rk(
    V: PiecewisePotential,
    E,
    init: InitialData,
    x_end: float,
    step: float,
) -> SolutionTrace:
    """Classical fixed-step RK4 on (u, u')' = (u', (V - E) u).

    Steps are split at cell boundaries so every stage sees the cell's constant
    potential value; used to cross-validate propagate_exact.
    """
    (trace,) = _traces(_rk_kernel, "rk4", V, E, init.x0, x_end,
                       np.array([init.u0]), np.array([init.du0]), step)
    return trace


def basis_traces(V: PiecewisePotential, E, x_from: float, x_to: float, max_step: float):
    """Traces of the two canonical solutions with data (1,0) and (0,1) at
    x_from, propagated together as the columns of one kernel pass."""
    u0, du0 = np.eye(2, dtype=complex)
    t1, t2 = _traces(_exact_kernel, "exact_cell", V, E, float(x_from), x_to,
                     u0, du0, max_step)
    return t1, t2


def transfer_matrix(
    V: PiecewisePotential, E, x: float, y: float, max_step: float
) -> TransferMatrix:
    """T(E, x, y): maps Cauchy data at y to Cauchy data at x."""
    energy = Energy.of(E)
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("endpoints must be finite")
    if x == y:
        return TransferMatrix(np.eye(2, dtype=complex), y, x, energy)
    t1, t2 = basis_traces(V, energy, y, x, max_step)
    idx = -1 if x > y else 0
    entries = np.array(
        [[t1.u[idx], t2.u[idx]], [t1.du[idx], t2.du[idx]]], dtype=complex
    )
    return TransferMatrix(entries, y, x, energy)


def wronskian(t1: SolutionTrace, t2: SolutionTrace) -> np.ndarray:
    """u v' - u' v along the shared grid (constant for solutions of the same
    equation); callers normalize by the product magnitude when asserting."""
    if len(t1.xs) != len(t2.xs) or np.max(np.abs(t1.xs - t2.xs)) > 0:
        raise ValueError("traces must share the same grid")
    return t1.u * t2.du - t1.du * t2.u
