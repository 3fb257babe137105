"""Explicit estimate constants derived from C1 and the energy.

An energy is a complex, read by energy_of at every library entry.  The
constants see it only through |E|: with C2 = C1 + |E| the derivative bound
uses C = C2 + 2*sqrt(C2) and window radius K = 1/sqrt(C2); the
persistence-of-modulus bound uses delta = -1/2 + sqrt(1/4 + 1/(2*C2)),
equivalently the positive root of C2*d*(d+1) = 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateConstants


def energy_of(value) -> complex:
    """The energy value as a complex; ValueError if a part is not finite."""
    if not cmath.isfinite(energy := complex(value)):
        raise ValueError("energy components must be finite")
    return energy


@dataclass(frozen=True)
class EstimateConstants:
    """Bundle (C1, E, C2, C, K, delta); the L^p exponent is per-check."""

    c1: float
    energy: complex
    c2: float
    c_bound: float
    k_radius: float
    delta: float

    def validate(self, tol: float = 1e-12):
        """Re-assert the defining identities (used when echoing into reports)."""
        scale = max(1.0, self.c2)
        # equality with c1 + |E| unless a caller-supplied floor lifted c2
        assert self.c2 >= self.c1 + abs(self.energy) - tol * scale
        assert abs(self.c_bound - (self.c2 + 2 * math.sqrt(self.c2))) <= tol * max(1.0, self.c_bound)
        assert abs(self.k_radius - 1 / math.sqrt(self.c2)) <= tol * max(1.0, self.k_radius)
        assert abs(self.c2 * self.delta * (self.delta + 1) - 0.5) <= tol
        assert abs(self.c_bound - self.c2 * (1 + 2 * self.k_radius)) <= tol * max(1.0, self.c_bound)

    def to_dict(self):
        return {
            "c1": self.c1,
            "energy": {"re": self.energy.real, "im": self.energy.imag},
            "c2": self.c2,
            "c_bound": self.c_bound,
            "k_radius": self.k_radius,
            "delta": self.delta,
        }


def constants_for(c1: float, energy, c2_floor: float = 0.0) -> EstimateConstants:
    """Compute the estimate constants for given C1 >= 0 and energy.

    Raises DegenerateConstants when C2 = 0 (V_- identically zero and E = 0):
    K and delta are unbounded there, and clamping silently would fabricate
    constants.  Callers may opt in to a positive c2_floor instead.
    """
    c1 = float(c1)
    if not math.isfinite(c1) or c1 < 0:
        raise ValueError("c1 must be finite and nonnegative")
    if c2_floor < 0:
        raise ValueError("c2_floor must be nonnegative")
    energy = energy_of(energy)
    c2 = max(c1 + abs(energy), float(c2_floor))
    if c2 <= 0.0:
        raise DegenerateConstants(
            "C2 = C1 + |E| = 0; K and delta are unbounded (set a c2_floor to proceed)"
        )
    x = 1.0 / (2.0 * c2)
    if x > 1e16:
        # sqrt(1/4 + x) = sqrt(x) to machine precision here, and x itself may
        # overflow for subnormal c2, so use the asymptotic form directly
        delta = 1.0 / math.sqrt(2.0 * c2) - 0.5
    else:
        # stable form of -1/2 + sqrt(1/4 + x): avoids cancellation for small x
        delta = x / (0.5 + math.sqrt(0.25 + x))
    return EstimateConstants(
        c1=c1,
        energy=energy,
        c2=c2,
        c_bound=c2 + 2.0 * math.sqrt(c2),
        k_radius=1.0 / math.sqrt(c2),
        delta=delta,
    )
