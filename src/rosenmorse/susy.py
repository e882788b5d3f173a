"""Factorization machinery around the trigonometric ground state.

With U(z) = -(d/dz) ln R_1(z) = b/(a+1) - (a+1) cot z, the first-order
operators

    A_minus = +d/dz + U(z)        (annihilates R_1)
    A_plus  = -d/dz + U(z)

factor the Hamiltonian: H = A_plus A_minus + eps_1, giving the Riccati
identity v = U^2 - U' + eps_1.  The partner H~ = A_minus A_plus + eps_1 has
potential v~ = -2b cot z + (a+1)(a+2) csc^2 z, i.e. the original potential at
a+1, so A_minus maps the level-n state at (a, b) onto the level-(n-1) state at
(a+1, b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SampledFunction
from .trm import TrmParams


@dataclass(frozen=True)
class Superpotential:
    """U(z) = offset + strength * cot z, the negated ground-state log-derivative."""

    offset: object
    strength: object

    def __call__(self, z):
        za = np.asarray(z, dtype=float)
        out = float(self.offset) + float(self.strength) * np.cos(za) / np.sin(za)
        return float(out) if np.ndim(z) == 0 else out

    def derivative(self, z):
        """Exact U'(z) = -strength * csc^2 z."""
        za = np.asarray(z, dtype=float)
        out = -float(self.strength) / np.sin(za) ** 2
        return float(out) if np.ndim(z) == 0 else out


def superpotential_from_gst(params: TrmParams) -> Superpotential:
    """Closed-form superpotential from the ground state."""
    return Superpotential(offset=params.b / (params.a + 1), strength=-(params.a + 1))


def apply_ladder(op: str, u: Superpotential, f: SampledFunction) -> SampledFunction:
    """Apply a ladder operator to a sampled function.

    op '-' applies the annihilation operator  d/dz + U(z);
    op '+' applies its formal adjoint        -d/dz + U(z).
    The derivative is the 4th-order central stencil, so the result lives on
    the grid with two points trimmed at each end.  Grids coarser than 1e-2
    are rejected; callers should keep a margin of several steps from the
    singular endpoints.
    """
    if op not in ("+", "-"):
        raise ValueError("ladder operator must be '+' or '-'")
    z, vals = f.z, f.values
    if len(z) < 5:
        raise ValueError("need at least five samples for the derivative stencil")
    h = f.step
    if h > 1e-2:
        raise ValueError("grid too coarse for ladder application (step > 1e-2)")
    if not np.allclose(np.diff(z), h, rtol=1e-9, atol=0.0):
        raise ValueError("ladder application requires a uniform grid")
    dv = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12.0 * h)
    zi = z[2:-2]
    uz = u(zi)
    out = dv + uz * vals[2:-2] if op == "-" else -dv + uz * vals[2:-2]
    return SampledFunction(zi, out)
