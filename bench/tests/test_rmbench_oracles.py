"""Each benchmark oracle accepts the program's output and rejects a perturbed copy."""

import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from rmbench import oracles  # noqa: E402
from rmbench.oracles import CheckFailed  # noqa: E402
from rosenmorse import eckart, numerics, rodrigues, trm  # noqa: E402

A, B = Fraction(1, 3), Fraction(7, 2)


def bump(coeffs, k=0, by=Fraction(1, 10**6)):
    out = list(coeffs)
    out[k] += by
    return tuple(out)


def test_trm_polynomial_ode_residual():
    for n in (1, 2, 7, 15):
        poly = trm.trm_polynomial(trm.TrmParams(A, B), n)
        assert oracles.check_trm_polynomial(poly.coeffs, n, A, B) == 0.0
    with pytest.raises(CheckFailed, match="residual"):
        oracles.check_trm_polynomial(bump(poly.coeffs, 3), 15, A, B)
    with pytest.raises(CheckFailed, match="degree"):
        oracles.check_trm_polynomial(poly.coeffs[:-1], 15, A, B)
    with pytest.raises(CheckFailed, match="float"):
        oracles.check_trm_polynomial(tuple(float(c) for c in poly.coeffs), 15, A, B)


@pytest.mark.parametrize("spec", rodrigues.table1_presets(), ids=lambda s: s.label)
def test_presets_against_recurrences(spec):
    for m in range(9):
        oracles.check_preset_member(spec.label, m, rodrigues.rodrigues_generate(spec, m).poly.coeffs)
    coeffs = rodrigues.rodrigues_generate(spec, 8).poly.coeffs
    with pytest.raises(CheckFailed):
        oracles.check_preset_member(spec.label, 8, bump(coeffs, 2))


def test_recurrences_match_known_members():
    # P_2 = (3x^2 - 1)/2, H_3 = 8x^3 - 12x, L_2^(0) = (x^2 - 4x + 2)/2, U_3 = 8x^3 - 4x
    assert oracles.classical_reference("legendre", (), 2) == [Fraction(-1, 2), 0, Fraction(3, 2)]
    assert oracles.classical_reference("hermite", (), 3) == [0, -12, 0, 8]
    assert oracles.classical_reference("laguerre", (Fraction(0),), 2) == [1, -2, Fraction(1, 2)]
    assert oracles.classical_reference("chebyshev2", (), 3) == [0, -4, 0, 8]
    # Jacobi at (0, 0) is Legendre
    assert oracles.classical_reference("jacobi", (Fraction(0), Fraction(0)), 4) == \
        oracles.classical_reference("legendre", (), 4)


def test_jacobi_at_eckart_indices():
    a, b = Fraction(3, 8), Fraction(2000, 9)
    for n in (1, 4, 9):
        nu, mu, _ = oracles.eckart_indices(n, a, b)
        poly = eckart.jacobi_polynomial(n, nu, mu)
        assert oracles.check_jacobi(poly.coeffs, n, nu, mu) == 0.0
    with pytest.raises(CheckFailed):
        oracles.check_jacobi(bump(poly.coeffs, 1), n, nu, mu)
    with pytest.raises(CheckFailed, match="hypergeometric"):
        oracles.check_jacobi(tuple(2 * c for c in poly.coeffs), n, nu, mu)


@pytest.fixture(scope="module")
def fdm_run():
    a, b, grid = Fraction(1), Fraction(201, 4), 1500
    params = trm.TrmParams(a, b)
    pot = lambda z: trm.trm_potential(params, z)
    coarse_op = numerics.fdm_hamiltonian(pot, grid, (0.0, math.pi))
    fine_op = numerics.fdm_hamiltonian(pot, 2 * grid + 1, (0.0, math.pi))
    coarse = numerics.eigenvalues_sturm(coarse_op, 4)
    fine = numerics.eigenvalues_sturm(fine_op, 4)
    return a, b, grid, coarse_op, fine_op, coarse, fine


def test_fdm_spectrum_and_operator(fdm_run):
    a, b, grid, coarse_op, _, coarse, fine = fdm_run
    assert oracles.check_fdm_spectrum(coarse, fine, a, b) < 1e-5
    assert oracles.check_fdm_operator(coarse_op.diag, coarse_op.offdiag, a, b, grid) < 1e-12
    shifted = list(fine)
    shifted[2] *= 1 + 1e-4
    with pytest.raises(CheckFailed):
        oracles.check_fdm_spectrum(coarse, shifted, a, b)
    with pytest.raises(CheckFailed, match="operator"):
        oracles.check_fdm_operator(coarse_op.diag * (1 + 1e-9), coarse_op.offdiag, a, b, grid)


def test_eigenvector_residual_and_nodes(fdm_run):
    *_, fine_op, _, fine = fdm_run
    for level in (1, 2, 3):
        vec = numerics.eigenvector_inverse_iteration(fine_op, fine[level - 1]).values
        assert oracles.check_eigenvector(fine_op.diag, fine_op.offdiag, fine[level - 1], vec, level) < 1e-6
    with pytest.raises(CheckFailed, match="residual"):
        oracles.check_eigenvector(fine_op.diag, fine_op.offdiag, fine[2] * (1 + 1e-4), vec, 3)
    with pytest.raises(CheckFailed, match="sign changes"):
        oracles.check_eigenvector(fine_op.diag, fine_op.offdiag, fine[2], vec, 2)


def test_gram_on_own_rule():
    grid, weights = oracles.composite_gauss_legendre(0.0, math.pi, 400)
    params = trm.TrmParams(A, B)
    sols = [trm.trm_solution(params, n) for n in (1, 2, 3, 4, 20)]
    assert oracles.check_gram([trm.trm_wavefunction(s, grid) for s in sols], weights) < 1e-8
    # a wrong quadrature norm on the high-n row alone
    sols[-1] = dataclasses.replace(sols[-1], knorm=sols[-1].knorm * (1 + 1e-6))
    with pytest.raises(CheckFailed, match="Gram"):
        oracles.check_gram([trm.trm_wavefunction(s, grid) for s in sols], weights)


def test_closed_form_norm():
    b = Fraction(13, 8)
    grid, weights = oracles.composite_gauss_legendre(0.0, math.pi, 400)
    for n in (1, 2, 3):
        sol = trm.trm_solution(trm.TrmParams(0, b), n)
        assert oracles.check_closed_form_norm(sol.knorm, b, n) < 1e-12
        # the closed form itself agrees with quadrature of the 50-digit raw state
        raw = oracles.trm_raw_mp(sol.poly.coeffs, n, Fraction(0), b, grid[::7], dps=20)
        sub_w = np.asarray(weights[::7]) * 7
        assert abs(math.sqrt(float(np.sum(sub_w * raw**2))) / oracles.trm_knorm_a0(b, n) - 1) < 1e-3
    with pytest.raises(CheckFailed):
        oracles.check_closed_form_norm(sol.knorm * (1 + 1e-6), b, n)


def test_eckart_norm():
    a, b = Fraction(1, 2), Fraction(60)
    for n in (1, 3):
        value = eckart.eckart_normalization(eckart.EckartParams(a, b), n)
        assert oracles.check_eckart_norm(value, n, a, b) < 1e-8
    with pytest.raises(CheckFailed):
        oracles.check_eckart_norm(value * (1 + 1e-6), n, a, b)
    with pytest.raises(CheckFailed, match="not normalizable"):
        oracles.eckart_norm_mp(8, Fraction(0), Fraction(64))


def test_high_precision_evaluation():
    n = 20
    sol = trm.trm_solution(trm.TrmParams(A, B), n)
    z = np.linspace(0.05, math.pi - 0.05, 200)
    raw = trm.trm_wavefunction(sol, z) * sol.knorm
    assert oracles.check_high_precision(raw, sol.poly.coeffs, n, A, B, z) < 1e-8
    with pytest.raises(CheckFailed):
        oracles.check_high_precision(raw * (1 + 1e-6), sol.poly.coeffs, n, A, B, z)


def test_verify_output():
    good = "PASS gram a=0 b=1 n<=6: max |G - I| = 1.5e-11\nverify orthogonality: all checks passed\n"
    assert oracles.check_verify_output("orthogonality", 0, good) == pytest.approx(1.5e-11)
    with pytest.raises(CheckFailed):
        oracles.check_verify_output("orthogonality", 1, good)
    with pytest.raises(CheckFailed):
        oracles.check_verify_output("orthogonality", 0, good.replace("PASS", "FAIL"))
