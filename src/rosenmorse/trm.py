"""Bound states of the trigonometric potential v(z) = -2b cot z + a(a+1) csc^2 z.

On (0, pi) every level n >= 1 is bound, with

    eps_n  = (n+a)^2 - b^2/(n+a)^2,
    beta_n = 1 - (n+a),          alpha_n = 2b/(n+a),
    R_n(z) = exp(-b z/(n+a)) sin^{n+a}(z) * C_n(cot z),

where C_n is a degree n-1 polynomial produced by the arccot-weight generation
engine at derivative order n-1.  For rational (a, b) the polynomial and all
level constants are exact.

A bound state is a `TrmSolution`, built once by `trm_solution`: level, exact
C_n, norm, and float coefficients converted on first use.  `trm_wavefunction`
evaluates it as a homogeneous power sum in (cos z, sin z) by Horner's rule
(`numerics.power_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .polycore import Polynomial, _exact
from .rodrigues import arccot_weight, rodrigues_generate


@dataclass(frozen=True)
class TrmParams:
    """Potential parameters; a > -1 keeps every level normalizable."""

    a: object
    b: object

    def __post_init__(self):
        a, b = _exact(self.a), _exact(self.b)
        if not float(a) > -1.0:
            raise ValueError("parameter a must exceed -1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class TrmLevel:
    """Derived constants of level n."""

    n: int
    beta: object
    alpha: object
    epsilon: object


@dataclass(frozen=True)
class TrmSolution:
    """One bound state; knorm is the L2 norm of the raw wave function.

    When knorm is present, `trm_wavefunction` returns the unit-normalized
    state; when absent, the raw closed form.
    """

    level: TrmLevel
    params: TrmParams
    poly: Polynomial
    knorm: float | None = None

    @cached_property
    def float_coeffs(self) -> tuple:
        """Nearest-float coefficients of poly, converted on first use."""
        return self.poly.to_float().coeffs


def _check_interval(z):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0) or np.any(z >= math.pi):
        raise ValueError("z must lie strictly inside (0, pi)")
    return z


def trm_potential(params: TrmParams, z):
    """v(z) = -2b cot z + a(a+1) csc^2 z for z in (0, pi)."""
    za = _check_interval(z)
    a, b = float(params.a), float(params.b)
    sin = np.sin(za)
    out = -2.0 * b * np.cos(za) / sin + a * (a + 1.0) / sin**2
    return float(out) if np.ndim(z) == 0 else out


def trm_level(params: TrmParams, n: int) -> TrmLevel:
    """Level constants; exact for rational parameters."""
    if n < 1:
        raise ValueError("level index starts at 1")
    na = n + params.a
    return TrmLevel(
        n=n,
        beta=1 - na,
        alpha=2 * params.b / na,
        epsilon=na**2 - params.b**2 / na**2,
    )


def trm_spectrum(params: TrmParams, n_max: int) -> list:
    """Levels 1..n_max; strictly increasing in energy for a > -1."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [trm_level(params, n) for n in range(1, n_max + 1)]


def trm_polynomial(params: TrmParams, n: int) -> Polynomial:
    """Unnormalized degree n-1 polynomial factor of the n-th bound state."""
    if n < 1:
        raise ValueError("level index starts at 1")
    level = trm_level(params, n)
    spec = arccot_weight(n + params.a, level.alpha)
    return rodrigues_generate(spec, n - 1).poly


def trm_knorm(b, n: int) -> float:
    """Closed-form L2 norm of the raw level-n wave function in the a = 0 case.

    Valid only for b != 0; the b -> 0 limit exists but callers should
    normalize by quadrature there.
    """
    if n < 1:
        raise ValueError("level index starts at 1")
    bf = float(b)
    if bf == 0.0:
        raise ValueError("closed-form normalization is singular at b = 0")
    num = float(math.factorial(n)) ** 2 * n**3 * (-math.expm1(-2.0 * math.pi * bf / n))
    return math.sqrt(num / (4.0 * bf * (bf * bf + float(n) ** 4)))


def trm_wavefunction(sol: TrmSolution, z):
    """R_n(z) for z inside (0, pi); accepts scalars or numpy arrays.

    Evaluated in the endpoint-stable form
    exp(-alpha z/2) sin^{1+a}(z) * sum_k c_k cos^k(z) sin^{n-1-k}(z),
    which never forms the large cot z powers explicitly.
    """
    za = _check_interval(z)
    sin, cos = np.sin(za), np.cos(za)
    acc = numerics.power_sum(sol.float_coeffs, cos, sin, sol.level.n - 1)
    out = np.exp(-0.5 * float(sol.level.alpha) * za) * sin ** (1.0 + float(sol.params.a)) * acc
    if sol.knorm is not None:
        out = out / sol.knorm
    return float(out) if np.ndim(z) == 0 else out


def trm_solution(params: TrmParams, n: int, normalize: bool = True) -> TrmSolution:
    """Assemble the level-n bound state.

    Normalization uses the closed form when a = 0 and b != 0, and quadrature
    of the raw state otherwise (general a has no closed form; b = 0 makes the
    closed form singular).
    """
    level = trm_level(params, n)
    poly = trm_polynomial(params, n)
    raw = TrmSolution(level=level, params=params, poly=poly, knorm=None)
    if not normalize:
        return raw
    if params.a == 0 and params.b != 0:
        knorm = trm_knorm(params.b, n)
    else:
        knorm = numerics.quadrature_norm(lambda zz: trm_wavefunction(raw, zz), math.pi)
    return TrmSolution(level=level, params=params, poly=poly, knorm=knorm)
