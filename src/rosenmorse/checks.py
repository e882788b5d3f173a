"""Verification suites behind the command-line `verify` subcommand.

Each suite recomputes closed forms and measures them against an independent
route (exact substitution, quadrature, or the finite-difference eigensolver),
returning one `CheckResult` per check.  A numeric check carries its figure of
merit (`metric`) and the `bound` it must stay below, and its printed `detail`
shows that figure; the exact yes/no checks (ODE residual, degree, level
shift) carry neither.  The acceptance tests read these numbers instead of
recomputing them.  A suite's parameters are exactly the `verify` options it
takes; every other setting is fixed in its body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics, rodrigues, susy, trm
from .polycore import Polynomial

PAIRS = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(50)), (Fraction(1, 4), Fraction(1)))


@dataclass(frozen=True)
class CheckResult:
    """One check; metric and bound are None for an exact yes/no check."""

    name: str
    passed: bool
    detail: str
    metric: float | None = None
    bound: float | None = None


def _measured(name, label, metric, bound, shown=None, exact=True):
    """A numeric check: it passes when its exact parts hold and metric < bound.

    detail reads `label = shown`, where shown is the metric to four digits
    unless given.
    """
    metric = float(metric)
    shown = f"{metric:.3e}" if shown is None else shown
    return CheckResult(name, bool(exact and metric < bound), f"{label} = {shown}", metric, bound)


def _ode_residual(params: trm.TrmParams, n: int, c: Polynomial) -> Polynomial:
    level = trm.trm_level(params, n)
    s = Polynomial((1, 0, 1))
    first = 2 * Polynomial((level.alpha / 2, level.beta))
    zeroth = -level.beta * (1 - level.beta) - params.a * (params.a + 1)
    return s * c.diff().diff() + first * c.diff() + zeroth * c


def suite_polynomials() -> list:
    n_max = 12
    out = []
    for a, b in PAIRS:
        params = trm.TrmParams(a, b)
        polys = [trm.trm_polynomial(params, n) for n in range(1, n_max + 1)]
        all_zero = all(_ode_residual(params, n, c).is_zero for n, c in enumerate(polys, 1))
        degree_ok = all(c.degree == n - 1 for n, c in enumerate(polys, 1))
        out.append(CheckResult(
            f"ode-residual a={a} b={b} n<={n_max}",
            all_zero, "exact residual polynomial = 0" if all_zero else "nonzero residual",
        ))
        out.append(CheckResult(
            f"degree a={a} b={b}", degree_ok,
            "deg C_n = n-1" if degree_ok else "degree mismatch",
        ))
    return out


def suite_orthogonality() -> list:
    n_max = 6
    out = []
    spec = numerics.QuadratureSpec(target_abs_tol=1e-10)
    rows, cols = np.triu_indices(n_max)
    for a, b in PAIRS:
        params = trm.TrmParams(a, b)
        sols = [trm.trm_solution(params, n) for n in range(1, n_max + 1)]

        def gram(z):
            states = np.array([trm.trm_wavefunction(sol, z) for sol in sols])
            return states[rows] * states[cols]

        est = numerics.integrate(gram, 0.0, math.pi, spec)
        worst = np.max(np.abs(est.require_converged() - (rows == cols)))
        out.append(_measured(f"gram a={a} b={b} n<={n_max}", "max |G - I|", worst, 1e-8))
    return out


def suite_normalization() -> list:
    spec = numerics.QuadratureSpec(target_abs_tol=1e-12)
    worst = 0.0
    for b in (1, 5):
        for n in range(1, 7):
            sol = trm.trm_solution(trm.TrmParams(0, b), n)
            est = numerics.integrate(lambda z: trm.trm_wavefunction(sol, z) ** 2, 0.0, math.pi, spec)
            worst = max(worst, abs(est.require_converged() - 1.0))
    dev = abs(trm.trm_knorm(1, 1) - math.sqrt((1 - math.exp(-2 * math.pi)) / 8))
    return [
        _measured("closed-form norm a=0", "max |int R^2 - 1|", worst, 1e-10),
        _measured("k1 antiderivative", "|K_1 - closed integral|", dev, 1e-12),
    ]


def suite_fdm(a=Fraction(1), b=Fraction(50), grid: int = 4000) -> list:
    if grid < 32:
        raise ValueError(f"--grid {grid} gives {grid // 2} coarse FDM points; "
                         "need at least 16 interior points, so --grid must be at least 32")
    params = trm.TrmParams(a, b)
    levels = [trm.trm_level(params, n).epsilon for n in range(1, 6)]
    for n, eps in enumerate(levels, 1):
        if eps == 0:
            raise ValueError(f"level n={n} has eps_n = 0 at a={params.a}, b={params.b} "
                             "(|b| = (n+a)^2), so its relative FDM deviation is undefined")
    exact = [float(eps) for eps in levels]
    pot = lambda z: trm.trm_potential(params, z)
    coarse, fine, refined = numerics.fdm_eigenvalues(pot, grid // 2, (0.0, math.pi), len(exact))
    worst = max(abs((r - e) / e) for r, e in zip(refined, exact))
    orders = [math.log2(abs(c - e) / abs(f - e)) for c, f, e in zip(coarse, fine, exact)]
    return [
        _measured(f"fdm spectrum a={a} b={b} grid={grid}", "max rel dev", worst, 1e-5),
        _measured("fdm convergence order", "orders", max(abs(o - 2) for o in orders), 0.2,
                  shown=str([round(o, 3) for o in orders])),
    ]


def suite_susy(a=Fraction(1), b=Fraction(50)) -> list:
    params = trm.TrmParams(a, b)
    u = susy.superpotential_from_gst(params)
    z = numerics.safe_grid(20000)
    out = []

    shifted = trm.TrmParams(params.a + 1, params.b)
    # every sample is unit-normalized on the grid, so the states stay raw;
    # partners[i] pairs with sols[i + 1]
    sols = [trm.trm_solution(params, n, normalize=False) for n in range(1, 6)]
    partners = [trm.trm_solution(shifted, n, normalize=False) for n in range(1, 5)]

    def samples(sol, points):
        return numerics.sample(lambda zz: trm.trm_wavefunction(sol, zz), points)

    f1 = samples(sols[0], z).unit_normalized()
    worst = np.max(np.abs(susy.apply_ladder("-", u, f1).values))
    out.append(_measured("ground-state annihilation", "max |A- R_1|", worst, 1e-7))

    worst = 0.0
    for sol, partner in zip(sols[1:], partners):
        low = susy.apply_ladder("-", u, samples(sol, z)).unit_normalized()
        tgt = samples(partner, low.z).unit_normalized()
        dev = min(np.max(np.abs(low.values - tgt.values)), np.max(np.abs(low.values + tgt.values)))
        worst = max(worst, dev)
    out.append(_measured("partner identity n=2..5", "max pointwise dev", worst, 1e-7))

    zr = numerics.safe_grid(2000)
    eps1 = float(trm.trm_level(params, 1).epsilon)
    res = np.max(np.abs(u(zr) ** 2 - u.derivative(zr) + eps1 - trm.trm_potential(params, zr)))
    out.append(_measured("riccati identity", "max |U^2 - U' + eps_1 - v|", res, 1e-10))

    exact_shift = all(
        trm.trm_level(shifted, n - 1).epsilon == trm.trm_level(params, n).epsilon for n in range(2, 11)
    )
    out.append(CheckResult("exact level shift", exact_shift, "eps_{n-1}(a+1) = eps_n(a) exactly"))
    return out


def suite_classical() -> list:
    out = []
    for spec in rodrigues.table1_presets()[:-1]:
        members = [rodrigues.rodrigues_generate(spec, m) for m in range(9)]
        residual_ok = all(rodrigues.sturm_liouville_residual(spec, r).is_zero for r in members)
        degree_ok = all(r.poly.degree == r.m for r in members)
        exact = residual_ok and degree_ok
        out.append(_measured(
            spec.label,
            f"residual {'exact' if exact else 'or degree wrong'}, max normalized <C_m, C_m'>",
            _orthogonality_defect(spec, members), 1e-10, exact=exact,
        ))
    return out


def _orthogonality_defect(spec, members) -> float:
    """Largest normalized off-diagonal inner product among the given members.

    One quadrature gives the whole weighted Gram matrix, and every entry must
    converge.  The relative target is measured against the integral of
    |w C_m C_m'|, so an off-diagonal entry at the round-off floor converges
    once its change is small beside the size of the parts that cancel.
    """
    lo, hi = spec.domain
    polys = [r.poly.to_float() for r in members]
    rows, cols = np.triu_indices(len(polys))

    def gram(x, dlo, dhi):
        values = np.array([p(x) for p in polys])
        return spec.weight(x, dlo, dhi) * values[rows] * values[cols]

    qspec = numerics.QuadratureSpec(target_abs_tol=1e-13, target_rel_tol=1e-13)
    value = numerics.integrate(gram, lo, hi, qspec, distance_form=True).require_converged()
    diag = rows == cols
    norms = np.sqrt(value[diag])
    off = ~diag
    return float(np.max(np.abs(value[off]) / (norms[rows[off]] * norms[cols[off]]), initial=0.0))


SUITES = {
    "polynomials": suite_polynomials,
    "orthogonality": suite_orthogonality,
    "normalization": suite_normalization,
    "fdm": suite_fdm,
    "susy": suite_susy,
    "classical": suite_classical,
}
