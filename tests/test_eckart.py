"""Hyperbolic reference system: spectrum, Jacobi values, wave functions."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from rosenmorse.eckart import (
    EckartParams,
    eckart_level,
    eckart_normalization,
    eckart_potential,
    eckart_spectrum,
    eckart_wavefunction,
    jacobi_polynomial,
    jacobi_real,
)


class TestParams:
    def test_constraint(self):
        with pytest.raises(ValueError):
            EckartParams(3, 9)
        with pytest.raises(ValueError):
            EckartParams(0, -1)
        EckartParams(3, F(91, 10))  # 9.1 > 9

    def test_negative_a_warns(self):
        with pytest.warns(UserWarning):
            EckartParams(-1, 50)


class TestPotential:
    def test_asymptote(self):
        assert abs(eckart_potential(EckartParams(0, 50), 20.0) + 100.0) < 1e-6

    def test_a_minus_one_as_printed(self):
        with pytest.warns(UserWarning):
            params = EckartParams(-1, 50)
        # a(a+1) = 0, so only the coth term survives
        want = -100.0 / math.tanh(1.0)
        assert eckart_potential(params, 1.0) == pytest.approx(want, rel=1e-14)

    def test_generic_value(self):
        params = EckartParams(1, 50)
        z = 0.75
        want = -100.0 / math.tanh(z) + 2.0 / math.sinh(z) ** 2
        assert eckart_potential(params, z) == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            eckart_potential(EckartParams(0, 50), 0.0)
        with pytest.raises(ValueError):
            eckart_potential(EckartParams(0, 50), -2.0)


class TestSpectrum:
    def test_level_count_b50(self):
        levels = eckart_spectrum(EckartParams(0, 50))
        assert len(levels) == math.floor(math.sqrt(50))
        assert [l.n for l in levels] == [1, 2, 3, 4, 5, 6, 7]

    def test_ground_level_value(self):
        lvl = eckart_level(EckartParams(0, 50), 1)
        assert lvl.epsilon == -2501
        assert lvl.beta == 50

    def test_no_levels_just_above_threshold(self):
        assert eckart_spectrum(EckartParams(1, F(10001, 10000))) == []

    def test_indexing_shift_for_negative_a(self):
        with pytest.warns(UserWarning):
            params = EckartParams(-1, 50)
        levels = eckart_spectrum(params)
        assert [l.n for l in levels] == [2, 3, 4, 5, 6, 7, 8]
        assert levels[0].epsilon == -2501

    @pytest.mark.parametrize("a,b", [(F(0), F(50)), (F(2), F(50)), (F(1, 2), F(30))])
    def test_exact_threshold_identity(self, a, b):
        # eps_n + 2b = -((n+a) - b/(n+a))^2 exactly for every bound level
        for lvl in eckart_spectrum(EckartParams(a, b)):
            na = lvl.n + a
            assert lvl.epsilon + 2 * b == -((na - b / na) ** 2)

    def test_unbound_level_rejected(self):
        with pytest.raises(ValueError):
            eckart_level(EckartParams(0, 50), 8)
        with pytest.raises(ValueError):
            eckart_wavefunction(EckartParams(0, 50), 8, 1.0)

    def test_threshold_level_is_not_bound(self):
        # n + a = sqrt(b) has zero decay rate: a threshold state, not a level
        params = EckartParams(0, 100)
        assert [l.n for l in eckart_spectrum(params)] == list(range(1, 10))
        with pytest.raises(ValueError):
            eckart_level(params, 10)
        with pytest.raises(ValueError):
            eckart_normalization(params, 10)

    def test_level_below_threshold_normalizes(self):
        assert math.isfinite(eckart_normalization(EckartParams(0, 100), 9))


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_real(0, F(3, 7), F(-12, 5), F(2, 3)) == 1

    def test_degree_one_formula(self):
        for nu, mu, x in [(F(1, 2), F(3, 2), F(2)), (F(-3), F(5), F(-1, 3)), (F(0), F(0), F(7))]:
            want = (nu - mu) / 2 + (nu + mu + 2) * x / 2
            assert jacobi_real(1, nu, mu, x) == want

    def test_degree_two_legendre(self):
        x = F(3, 10)
        assert jacobi_real(2, 0, 0, x) == (3 * x**2 - 1) / 2

    @pytest.mark.parametrize("nu,mu", [(F(1, 2), F(3, 2)), (F(0), F(0)), (F(-1, 4), F(2))])
    def test_matches_recurrence_oracle(self, nu, mu):
        for n in range(0, 7):
            assert jacobi_polynomial(n, nu, mu) == oracles.jacobi_rec(n, nu, mu)

    def test_nonclassical_indices_accepted(self):
        # indices far outside the orthogonality range still give a polynomial
        p = jacobi_polynomial(3, F(47), F(-107, 2))
        assert p.degree == 3

    def test_bound_state_indices_drop_degree(self):
        # with nu + mu = -2n (the bound-state indices at a = 0) the leading
        # coefficient contains the Pochhammer factor (n + nu + mu + 1)_n = 0
        beta = F(50, 3)
        p = jacobi_polynomial(3, beta - 3, -(beta + 3))
        assert p.degree == 2

    def test_float_evaluation(self):
        x = np.array([0.1, 0.5])
        got = jacobi_real(2, 0.0, 0.0, x)
        assert np.allclose(got, (3 * x**2 - 1) / 2)


class TestWavefunction:
    def test_matches_printed_form(self):
        # (x-1)^{(beta-n-a)/2} (x+1)^{-(beta+n+a)/2} P_n(x), x = coth z
        params = EckartParams(0, 50)
        n, z = 2, 0.8
        beta = 50.0 / 2
        x = 1.0 / math.tanh(z)
        pn = jacobi_real(2, beta - 2, -(beta + 2), x)
        want = (x - 1) ** ((beta - 2) / 2) * (x + 1) ** (-(beta + 2) / 2) * pn
        assert eckart_wavefunction(params, n, z) == pytest.approx(want, rel=1e-12)

    def test_asymptotic_decay(self):
        params = EckartParams(0, 50)
        psi1, psi10 = eckart_wavefunction(params, 1, 1.0), eckart_wavefunction(params, 1, 10.0)
        assert abs(psi10) < 1e-3 * abs(psi1)

    def test_origin_decay(self):
        # the ground state rises linearly from zero and peaks near z = 0.02,
        # so the approach to the origin is checked through the linear vanishing
        params = EckartParams(0, 50)
        grid = np.linspace(0.005, 3.0, 600)
        peak = np.max(np.abs(eckart_wavefunction(params, 1, grid)))
        assert abs(eckart_wavefunction(params, 1, 1e-4)) < 0.02 * peak
        ratio = eckart_wavefunction(params, 1, 1e-6) / eckart_wavefunction(params, 1, 1e-4)
        assert ratio == pytest.approx(1e-2, rel=2e-2)

    def test_ode_residual_second_difference(self):
        # psi'' + (eps - v) psi -> 0 at O(h^2) on z in [0.2, 8]
        params = EckartParams(0, 50)
        lvl = eckart_level(params, 2)
        z = np.linspace(0.2, 8.0, 160)
        scale = np.max(np.abs(eckart_wavefunction(params, 2, z))) * abs(float(lvl.epsilon))
        res = []
        for h in (1e-3, 5e-4):
            d2 = (
                eckart_wavefunction(params, 2, z + h)
                - 2 * eckart_wavefunction(params, 2, z)
                + eckart_wavefunction(params, 2, z - h)
            ) / h**2
            r = d2 + (float(lvl.epsilon) - eckart_potential(params, z)) * eckart_wavefunction(params, 2, z)
            res.append(np.max(np.abs(r)) / scale)
        assert res[0] < 5e-4
        assert res[1] < res[0] / 2.5  # shrinks roughly like h^2

    def test_normalization_against_antiderivative(self):
        # ||psi_1||^2 = 2500 * (1/2) (100/(100^2-4) - 1/100) for a=0, b=50
        params = EckartParams(0, 50)
        want = math.sqrt(2500 * 0.5 * (100.0 / (100.0**2 - 4.0) - 0.01))
        assert eckart_normalization(params, 1) == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            eckart_wavefunction(EckartParams(0, 50), 1, -1.0)
