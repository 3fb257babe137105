"""Transfer-matrix integral diagnostics and Pruefer decomposition.

The Simon-Stolz curve is the running trapezoid integral of 1/||T(E,x,0)||^2
for real E; divergence of the full-line integral is not decidable from finite
data, so only the curve itself is reported.  The matrix norm is the operator
2-norm, computed from the closed-form largest singular value of a 2x2 complex
matrix; a Frobenius-norm comparison shows the choice is immaterial up to a
factor of 2 in the integrand.

For real solutions at E = k^2 > 0, Pruefer variables (R, theta) satisfy
u = R sin(theta), u' = k R cos(theta), and k^2 R^2 = u'^2 + k^2 u^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import energy_of
from .errors import GridTooCoarse, NotRealSolution
from .potential import PiecewisePotential
from .solver import SolutionTrace, basis_traces, cumtrapz, write_csv


def largest_singular_value_2x2(a, b, c, d):
    """Largest singular value of [[a,b],[c,d]] (complex, vectorized).

    sigma_max^2 = (f + sqrt(f^2 - 4 g^2)) / 2 with f the squared Frobenius
    norm and g = |det|.
    """
    f = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2
    g2 = np.abs(a * d - b * c) ** 2
    disc = np.sqrt(np.maximum(f * f - 4.0 * g2, 0.0))
    return np.sqrt((f + disc) / 2.0)


def operator_norm_2x2(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=complex)
    return float(largest_singular_value_2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1]))


@dataclass
class SimonStolzCurve:
    """Running integral of 1/||T(E,x,0)||^2 on [0, X]."""

    xs: np.ndarray
    norm_T: np.ndarray
    integrand: np.ndarray
    cumulative: np.ndarray
    energy: complex

    def to_csv(self, path):
        write_csv(path, "x,norm_T,integrand,cumulative",
                  self.xs, self.norm_T, self.integrand, self.cumulative)


def simon_stolz_curve(
    V: PiecewisePotential, E, X: float, step: float
) -> SimonStolzCurve:
    """Trapezoid cumulative of 1/||T(E,x,0)||^2 for real E on [0, X]."""
    energy = energy_of(E)
    if energy.imag != 0.0:
        raise ValueError("the transfer-matrix integral diagnostic requires real E")
    X = float(X)
    if X < 0:
        raise ValueError("X must be nonnegative")
    if X == 0.0:
        one = np.array([1.0])
        return SimonStolzCurve(np.array([0.0]), one, one.copy(),
                               np.array([0.0]), energy)
    t1, t2 = basis_traces(V, energy, 0.0, X, step)
    smax = largest_singular_value_2x2(t1.u, t2.u, t1.du, t2.du)
    integrand = 1.0 / (smax * smax)
    return SimonStolzCurve(
        xs=t1.xs,
        norm_T=smax,
        integrand=integrand,
        cumulative=cumtrapz(integrand, t1.xs),
        energy=energy,
    )


@dataclass
class PruferTrace:
    """Polar coordinates of a real solution at E = k^2 > 0."""

    xs: np.ndarray
    R: np.ndarray
    theta: np.ndarray
    k: float

    def to_csv(self, path):
        write_csv(path, "x,R,theta", self.xs, self.R, self.theta)


def prufer_decompose(trace: SolutionTrace, k: float) -> PruferTrace:
    """Amplitude/phase decomposition of a real, nontrivial solution trace.

    theta starts at the principal value in (-pi, pi] and is unwrapped along
    the grid; an increment whose wrapped value reaches pi means the grid
    cannot resolve the rotation and GridTooCoarse is raised.
    """
    k = float(k)
    if not 0.0 < k < np.inf:
        raise ValueError("k must be positive and finite")
    e = trace.energy
    tol = 1e-12 * max(1.0, k * k)
    if abs(e.imag) > tol or abs(e.real - k * k) > tol:
        raise ValueError(f"trace energy {e} does not match E = k^2 = {k * k}")
    ur, dur = trace.real_parts()
    R = np.sqrt(dur * dur + k * k * ur * ur) / k
    if np.min(R) <= 0.0:
        raise NotRealSolution("u and u' vanish simultaneously; trivial solution")
    raw = np.arctan2(ur, dur / k)
    d = np.diff(raw)
    d -= 2.0 * np.pi * np.round(d / (2.0 * np.pi))
    # unwrapping assumes true increments in (-pi, pi); increments beyond pi
    # alias into that range undetectably, so demand a factor-2 safety margin
    if np.max(np.abs(d)) >= np.pi / 2.0:
        raise GridTooCoarse("phase increment exceeds pi/2 between grid nodes")
    theta = raw[0] + np.concatenate([[0.0], np.cumsum(d)])
    return PruferTrace(trace.xs.copy(), R, theta, k)
