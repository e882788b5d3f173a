"""Trigonometric-potential bound states: constants, polynomials, wave functions."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rosenmorse.numerics import QuadratureSpec, integrate
from rosenmorse.polycore import Polynomial
from rosenmorse.trm import (
    TrmParams,
    trm_knorm,
    trm_level,
    trm_polynomial,
    trm_potential,
    trm_solution,
    trm_spectrum,
    trm_wavefunction,
)

PARAM_PAIRS = [(F(0), F(1)), (F(1), F(50)), (F(1, 4), F(1))]


def ode_residual(params: TrmParams, n: int) -> Polynomial:
    """Independent transcription of the polynomial equation for level n:
    (1+x^2) C'' + 2(alpha/2 + beta x) C' + (-beta(1-beta) - a(a+1)) C.
    """
    level = trm_level(params, n)
    c = trm_polynomial(params, n)
    s = Polynomial((1, 0, 1))
    first = Polynomial((level.alpha / 2, level.beta)) * 2
    zeroth = -level.beta * (1 - level.beta) - params.a * (params.a + 1)
    return s * c.diff().diff() + first * c.diff() + zeroth * c


class TestPotential:
    def test_center_a0(self):
        assert trm_potential(TrmParams(0, 1), math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_center_a1(self):
        assert trm_potential(TrmParams(1, 50), math.pi / 2) == pytest.approx(2.0, abs=1e-12)

    def test_quarter_point(self):
        assert trm_potential(TrmParams(1, 50), math.pi / 4) == pytest.approx(-96.0, rel=1e-13)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            trm_potential(TrmParams(1, 50), 0.0)
        with pytest.raises(ValueError):
            trm_potential(TrmParams(1, 50), math.pi)
        with pytest.raises(ValueError):
            trm_potential(TrmParams(1, 50), np.array([0.5, 3.2]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TrmParams(-1, 1)
        with pytest.raises(ValueError):
            TrmParams(F(-5, 4), 1)


class TestLevels:
    def test_infinite_well_limit(self):
        assert trm_level(TrmParams(0, 0), 1).epsilon == 1

    def test_level_five(self):
        assert trm_level(TrmParams(0, 50), 5).epsilon == F(25) - F(2500, 25)

    def test_level_one_a1_b50(self):
        lvl = trm_level(TrmParams(1, 50), 1)
        assert (lvl.beta, lvl.alpha, lvl.epsilon) == (-1, 50, -621)

    def test_exact_types(self):
        lvl = trm_level(TrmParams(F(1, 4), F(1)), 3)
        assert isinstance(lvl.epsilon, F) and isinstance(lvl.alpha, F)
        assert lvl.epsilon == F(13, 4) ** 2 - 1 / F(13, 4) ** 2

    def test_index_validation(self):
        with pytest.raises(ValueError):
            trm_level(TrmParams(0, 1), 0)

    def test_spectrum_values(self):
        eps = [float(l.epsilon) for l in trm_spectrum(TrmParams(0, 50), 3)]
        assert eps == pytest.approx([-2499.0, -621.0, -2419.0 / 9])
        assert [float(l.epsilon) for l in trm_spectrum(TrmParams(0, 0), 3)] == [1, 4, 9]
        eps2 = [float(l.epsilon) for l in trm_spectrum(TrmParams(1, 50), 2)]
        assert eps2 == pytest.approx([-621.0, -2419.0 / 9])

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=F(-3, 4), max_value=4, max_denominator=8),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
    )
    def test_monotone_spectrum(self, a, b):
        eps = [l.epsilon for l in trm_spectrum(TrmParams(a, b), 10)]
        assert all(x < y for x, y in zip(eps, eps[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.fractions(min_value=F(-3, 4), max_value=4, max_denominator=8),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
    )
    def test_eigenvalue_consistency_identity(self, n, a, b):
        # -beta(1-beta) - a(a+1) = -(n-1)(2 beta + n - 2) exactly
        lvl = trm_level(TrmParams(a, b), n)
        lhs = -lvl.beta * (1 - lvl.beta) - a * (a + 1)
        assert lhs == -(n - 1) * (2 * lvl.beta + n - 2)


class TestPolynomials:
    def test_level_one_constant(self):
        assert trm_polynomial(TrmParams(0, 1), 1).degree == 0

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_reference_closed_forms(self, a, b):
        for n in range(1, 6):
            got = trm_polynomial(TrmParams(a, b), n)
            want = oracles.reference_cot_poly(n, a, b)
            assert oracles.proportional(got, want), f"n={n}"

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_degree(self, a, b):
        for n in range(1, 13):
            assert trm_polynomial(TrmParams(a, b), n).degree == n - 1

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_ode_residual_exact_zero(self, a, b):
        for n in (1, 2, 3, 5, 8):
            assert ode_residual(TrmParams(a, b), n).is_zero

    def test_index_validation(self):
        with pytest.raises(ValueError):
            trm_polynomial(TrmParams(0, 1), 0)

    def test_float_path_matches_exact(self):
        exact = trm_polynomial(TrmParams(F(1, 4), F(1)), 4).to_float()
        floats = trm_polynomial(TrmParams(0.25, 1.0), 4)
        for a, b in zip(exact.coeffs, floats.coeffs):
            assert b == pytest.approx(a, rel=1e-12)

    def test_irrational_parameters_float_path(self):
        # sqrt(2) has no exact representation; the float path must still give
        # a polynomial whose ODE residual is tiny after float evaluation.
        params = TrmParams(math.sqrt(2), 1.0)
        n = 3
        lvl = trm_level(params, n)
        c = trm_polynomial(params, n)
        s = Polynomial((1.0, 0.0, 1.0))
        first = 2 * Polynomial((lvl.alpha / 2, lvl.beta))
        zeroth = -lvl.beta * (1 - lvl.beta) - params.a * (params.a + 1)
        res = s * c.diff().diff() + first * c.diff() + zeroth * c
        scale = max(abs(x) for x in c.coeffs)
        assert all(abs(x) < 1e-12 * scale for x in res.coeffs)


class TestNormalization:
    def test_knorm_b1_n1(self):
        assert trm_knorm(1, 1) == pytest.approx(math.sqrt((1 - math.exp(-2 * math.pi)) / 8), abs=1e-16)

    def test_knorm_b5_n2(self):
        want = math.sqrt(4 * 8 * (1 - math.exp(-5 * math.pi)) / (20 * (25 + 16)))
        assert trm_knorm(5, 2) == pytest.approx(want, rel=1e-15)

    def test_knorm_small_b_limit(self):
        # (1 - e^{-2 pi b})/(4 b) -> pi/2, so K_1 -> sqrt(pi/2) = sqrt(int sin^2)
        assert trm_knorm(1e-8, 1) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-7)

    def test_knorm_rejects_b0(self):
        with pytest.raises(ValueError):
            trm_knorm(0, 1)

    def test_b0_falls_back_to_quadrature(self):
        sol = trm_solution(TrmParams(0, 0), 1)
        assert sol.knorm == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_unit_norm(self, a, b):
        for n in (1, 2, 4):
            sol = trm_solution(TrmParams(a, b), n)
            est = integrate(lambda z: trm_wavefunction(sol, z) ** 2, 0.0, math.pi,
                            QuadratureSpec(target_abs_tol=1e-12))
            assert est.require_converged() == pytest.approx(1.0, abs=1e-10)


class TestWavefunction:
    def test_ground_state_value(self):
        sol = trm_solution(TrmParams(0, 1), 1, normalize=False)
        z = math.pi / 2
        assert trm_wavefunction(sol, z) == pytest.approx(math.exp(-z) * 1.0, rel=1e-14)

    def test_boundary_decay_raw(self):
        params = TrmParams(1, 50)
        for n in range(1, 4):
            sol = trm_solution(params, n, normalize=False)
            assert abs(trm_wavefunction(sol, 1e-4)) < 1e-6
            assert abs(trm_wavefunction(sol, math.pi - 1e-4)) < 1e-6

    def test_boundary_decay_normalized(self):
        params = TrmParams(1, 50)
        grid = np.linspace(0.02, math.pi - 0.02, 800)
        for n in range(1, 7):
            sol = trm_solution(params, n)
            peak = np.max(np.abs(trm_wavefunction(sol, grid)))
            assert abs(trm_wavefunction(sol, 1e-4)) < 1e-4 * peak
            assert abs(trm_wavefunction(sol, math.pi - 1e-4)) < 1e-4 * peak

    def test_boundary_decay_relative(self):
        sol = trm_solution(TrmParams(0, 1), 1)
        grid = np.linspace(0.05, math.pi - 0.05, 500)
        peak = np.max(np.abs(trm_wavefunction(sol, grid)))
        assert abs(trm_wavefunction(sol, 1e-4)) < 1e-3 * peak

    def test_ground_state_shape_a1_b50(self):
        # proportional to exp(-25 z) sin^2 z
        sol = trm_solution(TrmParams(1, 50), 1, normalize=False)
        z = np.array([0.05, 0.1, 0.6, 1.8])
        ref = np.exp(-25.0 * z) * np.sin(z) ** 2
        ratio = trm_wavefunction(sol, z) / ref
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_domain_validation(self):
        sol = trm_solution(TrmParams(0, 1), 1, normalize=False)
        with pytest.raises(ValueError):
            trm_wavefunction(sol, -0.1)

    @pytest.mark.parametrize("a,b", [(F(1), F(50)), (F(1, 4), F(1))])
    def test_node_counts(self, a, b):
        params = TrmParams(a, b)
        for n in range(1, 7):
            sol = trm_solution(params, n)
            nodes = oracles.count_zeros(lambda z: trm_wavefunction(sol, z), 1e-3, math.pi - 1e-3)
            assert nodes == n - 1, f"n={n}"

    def test_pairwise_orthogonality_small(self):
        params = TrmParams(0, 1)
        sols = [trm_solution(params, n) for n in range(1, 5)]
        for i in range(4):
            for j in range(i + 1, 4):
                est = integrate(
                    lambda z: trm_wavefunction(sols[i], z) * trm_wavefunction(sols[j], z),
                    0.0, math.pi, QuadratureSpec(target_abs_tol=1e-11),
                )
                assert abs(est.require_converged()) < 1e-9
