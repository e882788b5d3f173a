"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with the measured figure of merit once its
assertions hold (run with `pytest -s` to see them), and asserts the stated
runtime budget.  Criteria 2 and 4-6 read their figures from the `verify`
suites in `rosenmorse.checks` and hold each against the test's own
threshold, so a suite bound loosened past it still fails here.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

import oracles
from rosenmorse import checks
from rosenmorse.checks import PAIRS
from rosenmorse.cli import main as cli_main
from rosenmorse.eckart import EckartParams, eckart_potential, eckart_spectrum
from rosenmorse.numerics import QuadratureSpec, fdm_eigenvalues, integrate
from rosenmorse.rodrigues import (
    chebyshev1_weight,
    chebyshev2_weight,
    gegenbauer_weight,
    hermite_weight,
    jacobi_weight,
    laguerre_weight,
    legendre_weight,
    rodrigues_generate,
    sturm_liouville_residual,
)
from rosenmorse.trm import TrmParams, trm_polynomial, trm_solution, trm_wavefunction


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.time()

    def done(self, label, detail):
        elapsed = time.time() - self.start
        assert elapsed < self.limit, f"{label} exceeded {self.limit}s budget ({elapsed:.1f}s)"
        print(f"PASS {label}: {detail} [{elapsed:.2f}s]")


def _by_name(results):
    return {r.name: r for r in results}


def test_criterion_1_exact_polynomial_match():
    budget = Budget(1.0)
    for a, b in PAIRS:
        params = TrmParams(a, b)
        for n in range(2, 6):
            got = trm_polynomial(params, n)
            want = oracles.reference_cot_poly(n, a, b)
            assert oracles.proportional(got, want), f"n={n}, a={a}, b={b}"
    budget.done("criterion 1", "C_2..C_5 match the closed forms up to scalar, exactly, at 3 parameter pairs")


def test_criterion_2_exact_ode_residual():
    budget = Budget(10.0)
    results = _by_name(checks.suite_polynomials())
    for a, b in PAIRS:
        residual = results[f"ode-residual a={a} b={b} n<=12"]
        assert residual.passed and residual.detail == "exact residual polynomial = 0", residual
        degree = results[f"degree a={a} b={b}"]
        assert degree.passed and degree.detail == "deg C_n = n-1", degree
    budget.done("criterion 2", "ODE residual identically zero for n=1..12 at 3 parameter pairs")


def test_criterion_3_orthonormality():
    budget = Budget(30.0)
    spec = QuadratureSpec(target_abs_tol=1e-10)
    worst = 0.0
    for a, b in PAIRS:
        params = TrmParams(a, b)
        sols = [trm_solution(params, n) for n in range(1, 9)]
        for i in range(8):
            for j in range(i, 8):
                est = integrate(
                    lambda z: trm_wavefunction(sols[i], z) * trm_wavefunction(sols[j], z),
                    0.0, math.pi, spec,
                )
                dev = abs(est.require_converged() - (1.0 if i == j else 0.0))
                worst = max(worst, dev)
    assert worst < 1e-8
    budget.done("criterion 3", f"Gram(R_1..R_8) max deviation from identity = {worst:.3e}")


def test_criterion_4_closed_form_normalization():
    budget = Budget(5.0)
    results = _by_name(checks.suite_normalization())
    worst = results["closed-form norm a=0"].metric
    assert worst < 1e-10
    dev = results["k1 antiderivative"].metric
    assert dev < 1e-12
    budget.done("criterion 4", f"max |int R_n^2 - 1| = {worst:.3e}; |K_1 - antiderivative| = {dev:.1e}")


def test_criterion_5_fdm_spectrum_oracle():
    budget = Budget(60.0)
    results = _by_name(checks.suite_fdm())
    worst = results["fdm spectrum a=1 b=50 grid=4000"].metric
    assert worst < 1e-5
    order = results["fdm convergence order"]
    assert order.metric <= 0.2  # every halving order in [1.8, 2.2]
    budget.done("criterion 5", f"FDM vs eps_n max rel dev = {worst:.3e}; halving {order.detail}")


def test_criterion_6_susy_identities():
    budget = Budget(30.0)
    results = _by_name(checks.suite_susy())
    annihilation = results["ground-state annihilation"].metric
    assert annihilation < 1e-7
    partner_dev = results["partner identity n=2..5"].metric
    assert partner_dev < 1e-7
    riccati = results["riccati identity"].metric
    assert riccati < 1e-10
    assert results["exact level shift"].passed
    budget.done(
        "criterion 6",
        f"|A- R_1| = {annihilation:.2e}; partner dev = {partner_dev:.2e}; "
        f"riccati = {riccati:.2e}; level shift exact for n=2..10",
    )


def test_criterion_7_eckart_side():
    budget = Budget(60.0)
    params = EckartParams(0, 50)
    levels = eckart_spectrum(params)
    assert len(levels) == math.floor(math.sqrt(50))
    for lvl in levels:
        na = lvl.n + params.a
        assert lvl.epsilon + 2 * params.b == -((na - params.b / na) ** 2)

    def pot(z):
        return eckart_potential(params, z)

    exact = [float(l.epsilon) for l in levels[:3]]
    _, _, refined = fdm_eigenvalues(pot, 8000, (0.0, 30.0), 3)
    worst = max(abs((r - e) / e) for r, e in zip(refined, exact))
    assert worst < 1e-3
    budget.done(
        "criterion 7",
        f"{len(levels)} bound levels; threshold identity exact; FDM max rel dev = {worst:.3e}",
    )


def test_criterion_8_classical_regression():
    budget = Budget(30.0)
    families = [
        (legendre_weight(), oracles.legendre_rec),
        (hermite_weight(), oracles.hermite_rec),
        (laguerre_weight(F(1, 2)), lambda m: oracles.laguerre_rec(m, F(1, 2))),
        (jacobi_weight(F(1, 2), F(3, 2)), lambda m: oracles.jacobi_rec(m, F(1, 2), F(3, 2))),
        (gegenbauer_weight(F(3, 4)), lambda m: oracles.gegenbauer_rec(m, F(3, 4))),
        (chebyshev1_weight(), oracles.chebyshev1_rec),
        (chebyshev2_weight(), oracles.chebyshev2_rec),
    ]
    worst_orth = 0.0
    for spec, oracle in families:
        members = [rodrigues_generate(spec, m) for m in range(9)]
        for r in members:
            assert sturm_liouville_residual(spec, r).is_zero, spec.label
            assert oracles.proportional(r.poly, oracle(r.m)), f"{spec.label} m={r.m}"
        worst_orth = max(worst_orth, _orthogonality_defect(spec, members))
    assert worst_orth < 1e-10
    budget.done(
        "criterion 8",
        f"7 families x m=0..8: residuals exact, recurrences match; "
        f"max normalized cross inner product = {worst_orth:.3e}",
    )


def _orthogonality_defect(spec, members):
    lo, hi = spec.domain
    polys = [r.poly.to_float() for r in members]
    qspec = QuadratureSpec(target_abs_tol=1e-13, target_rel_tol=1e-13)
    norms = []
    for p in polys:
        est = integrate(lambda x, dlo, dhi: spec.weight(x, dlo, dhi) * p(x) ** 2,
                        lo, hi, qspec, distance_form=True)
        norms.append(math.sqrt(est.require_converged()))
    worst = 0.0
    pair_spec = QuadratureSpec(target_abs_tol=1e-12, target_rel_tol=1e-12)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            est = integrate(
                lambda x, dlo, dhi: spec.weight(x, dlo, dhi) * polys[i](x) * polys[j](x),
                lo, hi, pair_spec, distance_form=True,
            )
            worst = max(worst, abs(est.require_converged()) / (norms[i] * norms[j]))
    return worst


def test_criterion_9_figure_reproduction(tmp_path):
    budget = Budget(5.0)

    fig2 = tmp_path / "fig2.csv"
    assert cli_main(["figure", "II", "--a", "1", "--b", "50", "-o", str(fig2)]) == 0
    v = _column(fig2, 1)
    assert int(np.sum((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))) == 1
    half = len(v) // 2
    assert v[0] == v[:half].max() and v[-1] == v[half:].max()
    assert v[0] > 10 * abs(v.min()) and v[-1] > 10 * abs(v.min())

    fig3 = tmp_path / "fig3.csv"
    assert cli_main(["figure", "III", "--a", "0.25", "--b", "1", "-o", str(fig3)]) == 0
    r1, r2 = _column(fig3, 1), _column(fig3, 2)
    changes = lambda w: int(np.sum(np.sign(w[1:]) * np.sign(w[:-1]) < 0))
    assert changes(r1) == 0 and changes(r2) == 1

    fig4 = tmp_path / "fig4.csv"
    assert cli_main(["figure", "IV", "--a", "1", "--b", "50", "-o", str(fig4)]) == 0
    uvals = _column(fig4, 1)
    assert np.all(np.diff(uvals) < 0)

    budget.done(
        "criterion 9",
        "figure II: one interior minimum, walls diverge; "
        "figure III: node counts 0 and 1; figure IV: strictly decreasing",
    )


def _column(path, idx):
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#") and not line[0].isalpha()]
    return np.array([float(r[idx]) for r in rows])
