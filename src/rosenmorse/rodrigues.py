"""Generic engine for orthogonal polynomial families defined by a weight.

A family is specified by a polynomial s(x) of degree at most two and its
drift (w'/w) s, a polynomial of degree at most one built from the weight w.
The m-th member is the m-th derivative of w * s**m divided by w (Rodrigues'
formula).  It solves the self-adjoint second order equation

    s C'' + tau C' + lam C = 0,    tau = (w'/w) s + s',

with eigenvalue lam = -m [t_1 + (m - 1) s_2], where s = s_0 + s_1 x + s_2 x^2
and tau = t_0 + t_1 x; a drift of higher degree is refused, since the
recurrence and lam read only t_0 and t_1.  Matching the powers of x turns
the equation into a two-step recurrence for the coefficients c_k of a
degree-m member,

    c_k (k - m)(t_1 + s_2 (k + m - 1))
        = -[(s_1 k + t_0)(k + 1) c_{k+1} + s_0 (k + 2)(k + 1) c_{k+2}],

run down from the Rodrigues leading coefficient
c_m = prod_{j<m} (t_1 + s_2 (m - 1 + j)) in O(m) scalar operations.  When a
factor t_1 + s_2 (k + m - 1) vanishes, so does c_m: the Rodrigues member then
drops degree and is not fixed by the recurrence.  Such members come from the
first-order recursion

    T_0 = 1,    T_{j+1} = drift T_j + (m - j) s' T_j + s T_j',

which costs two polynomial products per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as _np

from .polycore import Polynomial, _exact, _sdiv


@dataclass(frozen=True)
class WeightSpec:
    """Weight description driving the generation engine.

    s: polynomial of degree <= 2.
    drift: the polynomial (w'/w) s, of degree <= 1; int coefficients are
        stored as Fractions.
    domain: orthogonality interval, endpoints possibly infinite.
    weight: optional pointwise evaluator w(x, dlo, dhi) used by orthogonality
        checks, written against the distances to the domain endpoints so that
        endpoint-singular weights stay accurate; the engine itself never
        needs it.
    tau: the first-order coefficient drift + s', formed once at construction.
    """

    s: Polynomial
    drift: Polynomial
    domain: tuple
    label: str
    weight: object = None
    tau: Polynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s.is_zero or self.s.degree > 2:
            raise ValueError("s must be a nonzero polynomial of degree <= 2")
        if self.drift.degree > 1:
            raise ValueError(
                f"weight {self.label!r}: the drift (w'/w) * s has degree "
                f"{self.drift.degree}; it must have degree <= 1"
            )
        if not self.domain[0] < self.domain[1]:
            raise ValueError("empty weight domain")
        # int drift coefficients become Fractions, as every exact parameter does
        drift = Polynomial(tuple(map(_exact, self.drift.coeffs)))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "tau", drift + self.s.diff())


@dataclass(frozen=True)
class RodriguesResult:
    """Member polynomial of a family together with its ODE eigenvalue."""

    poly: Polynomial
    m: int
    lam: object


def _ode_member(s: Polynomial, tau: Polynomial, m: int, lead):
    """Degree-m solution of s C'' + tau C' + lam C = 0 with leading coefficient lead.

    Runs the two-step coefficient recurrence down from c_m = lead.  Returns
    None when a factor t_1 + s_2 (k + m - 1), k < m, vanishes: the recurrence
    then does not fix c_k.  Divisions go through `_sdiv`, so exact scalars
    stay exact.
    """
    s0, s1, s2 = s.coeff(0), s.coeff(1), s.coeff(2)
    t0, t1 = tau.coeff(0), tau.coeff(1)
    c = [0] * (m + 2)
    c[m] = lead
    for k in range(m - 1, -1, -1):
        factor = t1 + s2 * (k + m - 1)
        if factor == 0:
            return None
        rhs = (s1 * k + t0) * (k + 1) * c[k + 1] + s0 * (k + 2) * (k + 1) * c[k + 2]
        c[k] = _sdiv(-rhs, (k - m) * factor)
    return Polynomial(c[: m + 1])


def _rodrigues_product(s: Polynomial, drift: Polynomial, m: int) -> Polynomial:
    """The Rodrigues derivative w^-1 (w s^m)^(m) from the first-order recursion.

    Costs two polynomial products per step and needs no division, so it also
    builds the members that drop degree.  Such a member is small against the
    terms that cancel in it, so float input runs exactly on its binary values
    and is rounded once at the end.
    """
    floats = s.has_float_scalars or drift.has_float_scalars
    if floats:
        s, drift = (Polynomial(tuple(map(Fraction, p.coeffs))) for p in (s, drift))
    ds = s.diff()
    t = Polynomial((1,))
    for j in range(m):
        t = (drift + (m - j) * ds) * t + s * t.diff()
    return t.to_float() if floats else t


def rodrigues_generate(spec: WeightSpec, m: int) -> RodriguesResult:
    """Unnormalized m-th member of the family described by spec.

    The output is the Rodrigues member, sign-flipped when needed so the
    leading coefficient is positive.  It is built by the coefficient
    recurrence from |prod_{j<m} (t_1 + s_2 (m - 1 + j))|; when that product
    vanishes the member drops degree, and the first-order recursion builds
    it instead (among the presets, arccot(2,1) at m = 2 and 3).
    Normalization constants are a separate concern handled by callers.
    """
    if m < 0:
        raise ValueError("member index must be non-negative")
    t1, s2 = spec.tau.coeff(1), spec.s.coeff(2)
    lead = math.prod(t1 + s2 * (m - 1 + j) for j in range(m))
    poly = _ode_member(spec.s, spec.tau, m, abs(lead))
    if poly is None:
        poly = _rodrigues_product(spec.s, spec.drift, m).monic_positive()
    lam = -m * (t1 + (m - 1) * s2)
    return RodriguesResult(poly=poly, m=m, lam=lam)


def sturm_liouville_residual(spec: WeightSpec, result: RodriguesResult) -> Polynomial:
    """Exact residual s C'' + tau C' + lam C; zero for valid members."""
    c = result.poly
    return spec.s * c.diff().diff() + spec.tau * c.diff() + result.lam * c


# -- weight presets ----------------------------------------------------------

_INF = math.inf


def hermite_weight() -> WeightSpec:
    """w = exp(-x^2) on the whole line, s = 1."""
    return WeightSpec(
        s=Polynomial((1,)),
        drift=Polynomial((0, -2)),
        domain=(-_INF, _INF),
        label="hermite",
        weight=lambda x, dlo, dhi: _np.exp(-x * x),
    )


def laguerre_weight(nu) -> WeightSpec:
    """w = x^nu exp(-x) on [0, inf), s = x; requires nu > -1."""
    nu = _exact(nu)
    if not nu > -1:
        raise ValueError("laguerre weight requires nu > -1")
    nuf = float(nu)
    return WeightSpec(
        s=Polynomial((0, 1)),
        drift=Polynomial((nu, -1)),
        domain=(0.0, _INF),
        label=f"laguerre({nu})",
        weight=lambda x, dlo, dhi: dlo**nuf * _np.exp(-x),
    )


def jacobi_weight(nu, mu) -> WeightSpec:
    """w = (1-x)^nu (1+x)^mu on [-1, 1], s = 1 - x^2; requires nu, mu > -1."""
    nu, mu = _exact(nu), _exact(mu)
    if not (nu > -1 and mu > -1):
        raise ValueError("jacobi weight requires nu > -1 and mu > -1")
    nuf, muf = float(nu), float(mu)
    return WeightSpec(
        s=Polynomial((1, 0, -1)),
        drift=Polynomial((mu - nu, -(nu + mu))),
        domain=(-1.0, 1.0),
        label=f"jacobi({nu},{mu})",
        weight=lambda x, dlo, dhi: dhi**nuf * dlo**muf,
    )


def gegenbauer_weight(lam) -> WeightSpec:
    """w = (1-x^2)^(lam - 1/2) on [-1, 1], s = 1 - x^2; requires lam > -1/2."""
    lam = _exact(lam)
    if not 2 * lam > -1:
        raise ValueError("gegenbauer weight requires lam > -1/2")
    ex = float(lam) - 0.5
    return WeightSpec(
        s=Polynomial((1, 0, -1)),
        drift=Polynomial((0, -(2 * lam - 1))),
        domain=(-1.0, 1.0),
        label=f"gegenbauer({lam})",
        weight=lambda x, dlo, dhi: (dlo * dhi) ** ex,
    )


def legendre_weight() -> WeightSpec:
    """w = 1 on [-1, 1], s = 1 - x^2."""
    return WeightSpec(
        s=Polynomial((1, 0, -1)),
        drift=Polynomial(),
        domain=(-1.0, 1.0),
        label="legendre",
        weight=lambda x, dlo, dhi: _np.ones_like(x),
    )


def chebyshev1_weight() -> WeightSpec:
    """w = (1-x^2)^(-1/2) on [-1, 1], s = 1 - x^2."""
    return WeightSpec(
        s=Polynomial((1, 0, -1)),
        drift=Polynomial((0, 1)),
        domain=(-1.0, 1.0),
        label="chebyshev1",
        weight=lambda x, dlo, dhi: 1.0 / _np.sqrt(dlo * dhi),
    )


def chebyshev2_weight() -> WeightSpec:
    """w = (1-x^2)^(1/2) on [-1, 1], s = 1 - x^2."""
    return WeightSpec(
        s=Polynomial((1, 0, -1)),
        drift=Polynomial((0, -1)),
        domain=(-1.0, 1.0),
        label="chebyshev2",
        weight=lambda x, dlo, dhi: _np.sqrt(dlo * dhi),
    )


def arccot_weight(mu, c) -> WeightSpec:
    """w = (1+x^2)^(-mu) exp(-c * arccot x) on the whole line, s = 1 + x^2.

    Family behind the cotangent-variable bound states; requires mu > 0 so the
    weight decays at both ends.  d(arccot x)/dx = -1/(1+x^2), hence
    w'/w = (-2 mu x + c) / (1 + x^2) and the drift is c - 2 mu x.
    """
    mu, c = _exact(mu), _exact(c)
    if not mu > 0:
        raise ValueError("arccot weight requires mu > 0")
    muf, cf = float(mu), float(c)
    return WeightSpec(
        s=Polynomial((1, 0, 1)),
        drift=Polynomial((c, -2 * mu)),
        domain=(-_INF, _INF),
        label=f"arccot({mu},{c})",
        weight=lambda x, dlo, dhi: (1.0 + x * x) ** (-muf)
        * _np.exp(-cf * (0.5 * _np.pi - _np.arctan(x))),
    )


def table1_presets() -> list:
    """All built-in weight presets at default parameters.

    Classical families first (generic rational parameters where a parameter is
    required), then the arccot family at mu=2, c=1.
    """
    return [
        hermite_weight(),
        laguerre_weight(Fraction(1, 2)),
        jacobi_weight(Fraction(1, 2), Fraction(3, 2)),
        gegenbauer_weight(Fraction(3, 4)),
        legendre_weight(),
        chebyshev1_weight(),
        chebyshev2_weight(),
        arccot_weight(2, 1),
    ]
