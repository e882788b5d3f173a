"""Reference system on (0, inf): v(z) = -2b coth z + a(a+1) csch^2 z.

Unlike the trigonometric problem, only finitely many levels are bound:
indices n with 0 < n + a < sqrt(b), each carrying

    beta_n = b/(n+a),   eps_n = -(n+a)^2 - b^2/(n+a)^2,
    psi_n(z) = (x-1)^{(beta_n-n-a)/2} (x+1)^{-(beta_n+n+a)/2} P_n(x),
    x = coth z,

with P_n a degree-n Jacobi polynomial at indices (beta_n-n-a, -(beta_n+n+a)).
Those indices fall outside the classical orthogonality range.  P_n is built
from its differential equation's coefficient recurrence, which is polynomial
in the indices and therefore defined for any real values; where the leading
coefficient vanishes (2a an integer in [1-n, 0], so a = 0 among others) P_n
drops degree and comes from the Rodrigues product of its weight instead
(`rodrigues._rodrigues_product`, DLMF 18.5.5).

At n + a = sqrt(b) the decay rate beta_n - (n+a) vanishes: that threshold
state tends to a constant, is not normalizable and is not a bound level.

A bound state is an `EckartSolution`, built once by `eckart_solution`: level,
exact P_n, decay rate, norm, and float coefficients converted on first use.
It is evaluated as a homogeneous power sum in (1+u, 1-u), u = e^{-2z}, by
Horner's rule (`numerics.power_sum`).

The csch^2 coefficient convention matches the trigonometric module; the
closed-form level data above pairs exactly with that potential at a = 0,
which is where all cross-checks against the FDM oracle are pinned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import numerics
from .polycore import Polynomial, _exact, _sdiv
from .rodrigues import _ode_member, _rodrigues_product


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


@dataclass(frozen=True)
class EckartSolution:
    """One bound state; knorm is the L2 norm of the raw wave function.

    When knorm is present, `wavefunction` returns the unit-normalized state;
    when absent, the raw closed form.
    """

    level: EckartLevel
    params: EckartParams
    poly: Polynomial
    knorm: float | None = None

    @cached_property
    def float_coeffs(self) -> tuple:
        """Nearest-float coefficients of poly, converted on first use."""
        return self.poly.to_float().coeffs

    @cached_property
    def kappa(self) -> float:
        """Asymptotic decay rate beta_n - (n+a) > 0."""
        return float(self.level.beta) - (self.level.n + float(self.params.a))

    def wavefunction(self, z):
        """psi_n(z) for z > 0; scalars or numpy arrays.

        Evaluated in the overflow-free form
        exp(-kappa z) (1-u)^a 2^{-(n+a)} sum_k p_k (1+u)^k (1-u)^{n-k},  u = e^{-2z},
        as a homogeneous power sum in (1+u, 1-u) (`numerics.power_sum`).
        """
        za = np.asarray(z, dtype=float)
        if np.any(za <= 0.0):
            raise ValueError("z must be positive")
        n, a = self.level.n, float(self.params.a)
        u = np.exp(-2.0 * za)
        um = 1.0 - u
        acc = numerics.power_sum(self.float_coeffs, 1.0 + u, um, n)
        out = np.exp(-self.kappa * za) * um**a * 2.0 ** (-(n + a)) * acc
        if self.knorm is not None:
            out = out / self.knorm
        return float(out) if np.ndim(z) == 0 else out


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


def jacobi_polynomial(n: int, nu, mu) -> Polynomial:
    """Degree-n Jacobi polynomial P_n^(nu, mu) as a Polynomial, any real indices.

    It solves s P'' + tau P' + lam P = 0 with s = 1 - x^2 and
    tau = (mu - nu) - (nu + mu + 2) x, so its coefficients follow from the
    two-step recurrence of `rodrigues`, run down from the DLMF leading
    coefficient (n+nu+mu+1)_n / (2^n n!); no orthogonality constraint on
    (nu, mu) is needed.  When that Pochhammer symbol vanishes the polynomial
    drops degree (the Eckart factor does so at a = 0 and a = -1/2), and the
    Rodrigues product builds it instead: P_n = (-1)^n / (2^n n!) times the
    Rodrigues derivative of the weight (1-x)^nu (1+x)^mu, whose drift is
    (mu - nu) - (nu + mu) x (DLMF 18.5.5).  Float indices near such a point
    would divide by a round-off-sized factor, so they run exactly on their
    binary values and the result is rounded once.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    nu, mu = _exact(nu), _exact(mu)
    floats = isinstance(nu, float) or isinstance(mu, float)
    if floats:
        nu, mu = Fraction(nu), Fraction(mu)
    # (n+nu+mu+1)_n / (2^n n!) = binomial(2n+nu+mu, n) / 2^n; starting the
    # product at top**0 keeps the scalar type at n = 0
    top = 2 * n + nu + mu
    lead = _sdiv(math.prod((top - i for i in range(n)), start=top**0), math.factorial(n)) / 2**n
    s, drift = Polynomial((1, 0, -1)), Polynomial((mu - nu, -(nu + mu)))
    poly = _ode_member(s, drift + s.diff(), n, lead)
    if poly is None:
        poly = _rodrigues_product(s, drift, n).scale(_sdiv((-1) ** n, 2**n * math.factorial(n)))
    return poly.to_float() if floats else poly


def eckart_solution(params: EckartParams, n: int, normalize: bool = True) -> EckartSolution:
    """Assemble the level-n bound state; the Jacobi factor is built once.

    The norm comes from quadrature of the raw state, with the integration
    window cut where the exact exponential tail is far below working precision.
    """
    level = eckart_level(params, n)
    na = n + params.a
    poly = jacobi_polynomial(n, level.beta - na, -(level.beta + na))
    raw = EckartSolution(level=level, params=params, poly=poly)
    if not normalize:
        return raw
    knorm = numerics.quadrature_norm(raw.wavefunction, 60.0 / raw.kappa + 10.0)
    return EckartSolution(level=level, params=params, poly=poly, knorm=knorm)


def eckart_wavefunction(params: EckartParams, n: int, z):
    """Unnormalized psi_n(z) for z > 0; scalars or numpy arrays.

    Builds the level-n solution on every call; evaluate an `EckartSolution`
    directly to reuse one.
    """
    return eckart_solution(params, n, normalize=False).wavefunction(z)


def eckart_normalization(params: EckartParams, n: int) -> float:
    """L2 norm of the unnormalized level-n wave function, by quadrature."""
    return eckart_solution(params, n).knorm
