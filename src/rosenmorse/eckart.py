"""Reference system on (0, inf): v(z) = -2b coth z + a(a+1) csch^2 z.

Unlike the trigonometric problem, only finitely many levels are bound:
indices n with 0 < n + a < sqrt(b), each carrying

    beta_n = b/(n+a),   eps_n = -(n+a)^2 - b^2/(n+a)^2,
    psi_n(z) = (x-1)^{(beta_n-n-a)/2} (x+1)^{-(beta_n+n+a)/2} P_n(x),
    x = coth z,

with P_n a degree-n Jacobi polynomial at indices (beta_n-n-a, -(beta_n+n+a)).
Those indices fall outside the classical orthogonality range, so P_n is built
from the terminating series, which is polynomial in the indices and therefore
defined for any real values.

At n + a = sqrt(b) the decay rate beta_n - (n+a) vanishes: that threshold
state tends to a constant, is not normalizable and is not a bound level.

The csch^2 coefficient convention matches the trigonometric module; the
closed-form level data above pairs exactly with that potential at a = 0,
which is where all cross-checks against the FDM oracle are pinned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics
from .polycore import Polynomial
from .rodrigues import _exact


@dataclass(frozen=True)
class EckartParams:
    """Potential parameters; b > a^2 is required for any level to bind."""

    a: object
    b: object

    def __post_init__(self):
        a, b = _exact(self.a), _exact(self.b)
        if not b > a * a:
            raise ValueError("parameters must satisfy b > a^2")
        if float(a) < 0.0:
            warnings.warn(
                "for a < 0 the closed-form levels keep their printed indexing; "
                "levels with n + a <= 0 are dropped and wave functions need not "
                "vanish at the origin",
                stacklevel=2,
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class EckartLevel:
    """Derived constants of bound level n."""

    n: int
    beta: object
    epsilon: object


def _binding(params: EckartParams, n: int) -> bool:
    na = n + params.a
    return na > 0 and na * na < params.b


def eckart_potential(params: EckartParams, z):
    """v(z) = -2b coth z + a(a+1) csch^2 z for z > 0."""
    za = np.asarray(z, dtype=float)
    if np.any(za <= 0.0):
        raise ValueError("z must be positive")
    a, b = float(params.a), float(params.b)
    sh = np.sinh(za)
    out = -2.0 * b * np.cosh(za) / sh + a * (a + 1.0) / sh**2
    return float(out) if np.ndim(z) == 0 else out


def eckart_level(params: EckartParams, n: int) -> EckartLevel:
    if n < 1 or not _binding(params, n):
        raise ValueError(f"level n={n} is not a bound state for these parameters")
    na = n + params.a
    return EckartLevel(n=n, beta=params.b / na, epsilon=-(na**2) - params.b**2 / na**2)


def eckart_spectrum(params: EckartParams) -> list:
    """All bound levels, lowest first: integers n >= 1 with 0 < n+a < sqrt(b)."""
    out = []
    n = 1
    while params.a + n <= 0:
        n += 1
    while _binding(params, n):
        out.append(eckart_level(params, n))
        n += 1
    return out


def _gen_binomial(alpha, j: int):
    """Generalized binomial coefficient alpha over j; exact for exact alpha."""
    num = 1 if not isinstance(alpha, float) else 1.0
    for i in range(j):
        num = num * (alpha - i)
    if isinstance(num, float):
        return num / math.factorial(j)
    return Fraction(num) / math.factorial(j)


def jacobi_polynomial(n: int, nu, mu) -> Polynomial:
    """Degree-n Jacobi polynomial as a Polynomial, any real indices.

    Built from the terminating sum
    sum_k C(n+nu, n-k) C(n+mu, k) ((x-1)/2)^k ((x+1)/2)^(n-k),
    which needs no orthogonality constraints on (nu, mu).
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    nu, mu = _exact(nu), _exact(mu)
    if isinstance(nu, float) or isinstance(mu, float):
        half = 0.5
    else:
        half = Fraction(1, 2)
    minus = Polynomial((-half, half))   # (x-1)/2
    plus = Polynomial((half, half))     # (x+1)/2
    total = Polynomial()
    for k in range(n + 1):
        coeff = _gen_binomial(n + nu, n - k) * _gen_binomial(n + mu, k)
        total = total + coeff * (minus**k * plus ** (n - k))
    return total


def jacobi_real(n: int, nu, mu, x):
    """Value of the degree-n Jacobi polynomial; exact for exact inputs."""
    poly = jacobi_polynomial(n, nu, mu)
    if isinstance(x, (int, Fraction)) and not poly.has_float_scalars:
        return poly(Fraction(x))
    xa = np.asarray(x, dtype=float)
    out = poly.to_float()(xa)
    return float(out) if np.ndim(x) == 0 else out


def eckart_wavefunction(params: EckartParams, n: int, z):
    """Unnormalized psi_n(z) for z > 0; scalars or numpy arrays.

    Evaluated in the overflow-free form
    exp(-kappa z) (1-u)^a 2^{-(n+a)} sum_k p_k (1+u)^k (1-u)^{n-k},  u = e^{-2z},
    with kappa = beta_n - (n+a) > 0 the exact asymptotic decay rate.
    """
    level = eckart_level(params, n)
    za = np.asarray(z, dtype=float)
    if np.any(za <= 0.0):
        raise ValueError("z must be positive")
    a = float(params.a)
    n = int(n)
    kappa = float(level.beta) - (n + a)
    poly = jacobi_polynomial(n, level.beta - n - params.a, -(level.beta + n + params.a))
    coeffs = [float(c) for c in poly.coeffs]
    u = np.exp(-2.0 * za)
    up, um = 1.0 + u, 1.0 - u
    acc = np.zeros_like(za)
    for k, c in enumerate(coeffs):
        acc = acc + c * up**k * um ** (n - k)
    out = np.exp(-kappa * za) * um**a * 2.0 ** (-(n + a)) * acc
    return float(out) if np.ndim(z) == 0 else out



def eckart_normalization(params: EckartParams, n: int) -> float:
    """L2 norm of the unnormalized level-n wave function, by quadrature.

    The integration window is cut where the exact exponential tail is far
    below working precision.
    """
    level = eckart_level(params, n)
    kappa = float(level.beta) - (n + float(params.a))
    cutoff = 60.0 / kappa + 10.0
    spec = numerics.QuadratureSpec(target_abs_tol=1e-15, target_rel_tol=1e-12, max_refinement=12)
    est = numerics.integrate(lambda zz: eckart_wavefunction(params, n, zz) ** 2, 0.0, cutoff, spec)
    return math.sqrt(est.require_converged())
