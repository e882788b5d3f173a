"""Hyperbolic reference system: spectrum, Jacobi values, wave functions."""

import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import jacobi_real
from rosenmorse import eckart
from rosenmorse.eckart import (
    EckartParams,
    eckart_level,
    eckart_normalization,
    eckart_potential,
    eckart_solution,
    eckart_spectrum,
    eckart_wavefunction,
    jacobi_polynomial,
)
from rosenmorse.polycore import Polynomial


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=F(-15, 16), max_value=4, max_denominator=16),
        st.integers(min_value=1, max_value=12),
        st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=20),
    )
    def test_level_count_is_strict(self, a, k, offset):
        # b near (k+a)^2, at it when offset = 0: the threshold n = k is not bound
        b = (k + a) ** 2 + offset
        assume(b > a * a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params = EckartParams(a, b)
        want = [n for n in range(1, 20) if 0 < n + a and (n + a) ** 2 < b]
        assert [l.n for l in eckart_spectrum(params)] == want
        assert (k in want) == (offset > 0)

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


def assert_float_image(got, exact):
    """Each coefficient within 1e-13 of the exact one, relative to the largest exact coefficient."""
    scale = max((abs(c) for c in exact.coeffs), default=0)
    for i in range(max(len(exact.coeffs), len(got.coeffs))):
        assert abs(got.coeff(i) - float(exact.coeff(i))) <= 1e-13 * scale, f"x^{i}"


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

    @pytest.mark.parametrize(
        "a,n,want",
        [
            (F(0), 1, Polynomial((50,))),
            (F(0), 2, Polynomial((F(625, 2), F(-25, 2)))),
            (F(0), 4, Polynomial((F(131875, 128), F(-15675, 32), F(1875, 32), F(-25, 16)))),
            (F(-1, 2), 2, Polynomial((F(39991, 72),))),
            (F(-1, 2), 3, Polynomial((F(2665, 2), F(-1599, 16)))),
            (F(-1, 2), 4, Polynomial((F(534637599, 307328), F(-332925, 686), F(39951, 1568)))),
        ],
    )
    def test_degenerate_indices_take_terminating_sum(self, a, n, want):
        # at bound-state indices nu + mu = -2(n+a); the Pochhammer factor
        # (n + nu + mu + 1)_n vanishes when 2a is an integer in [1-n, 0], and
        # P_n then loses 1 - 2a degrees
        b = F(50)
        beta = b / (n + a)
        nu, mu = beta - n - a, -(beta + n + a)
        p = jacobi_polynomial(n, nu, mu)
        assert p.degree == n - 1 + 2 * a
        assert p.coeffs == oracles.jacobi_sum(n, nu, mu).coeffs
        assert p == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=60),
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=0, max_value=10),
    )
    @example(nu=F(-4), n=5, j=0)  # P_5 vanishes identically here
    def test_degenerate_indices_match_terminating_sum(self, nu, n, j):
        # mu = -nu - n - 1 - j zeroes (n + nu + mu + 1)_n, so P_n is a multiple
        # of P_j and the Rodrigues product builds it
        assume(j < n)
        mu = -nu - n - 1 - j
        p = jacobi_polynomial(n, nu, mu)
        assert p == oracles.jacobi_sum(n, nu, mu)
        assert p.degree <= j and not p.has_float_scalars

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=-20 * 64, max_value=20 * 64),
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=0, max_value=10),
    )
    # near a negative integer nu the member is small against the terms that
    # cancel in it: a float-only product recursion misses here by 2.2e-13
    @example(k=-447, n=11, j=0)
    def test_degenerate_float_path_matches_exact(self, k, n, j):
        # nu = k/64 and mu are exact binary floats, so the float path meets the
        # same vanishing factor
        assume(j < n)
        nu = F(k, 64)
        mu = -nu - n - 1 - j
        assert_float_image(jacobi_polynomial(n, float(nu), float(mu)), jacobi_polynomial(n, nu, mu))

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-2000, max_value=2000, max_denominator=100),
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=0, max_value=10),
    )
    # float(800/13) misses the degree-drop point by round-off; a recurrence run
    # in floats divides by that round-off and returns twice the constant
    @example(nu=F(800, 13), n=3, j=0)
    def test_float_indices_near_degree_drop_match_exact(self, nu, n, j):
        # the exact member drops degree; its float indices do not meet the
        # vanishing factor exactly.  Over 1500 random cases of this family the
        # worst deviation measured 3.7e-14 of the largest coefficient
        assume(j < n)
        mu = -nu - n - 1 - j
        assert_float_image(jacobi_polynomial(n, float(nu), float(mu)), jacobi_polynomial(n, nu, mu))

    def test_float_lead_rounding_to_zero_takes_fallback(self):
        # at a = -1/2, b = 50, n = 4 in floats the DLMF leading coefficient
        # rounds to exactly 0 while no recurrence factor does; running the
        # recurrence from that zero would return the zero polynomial
        n, a, b = 4, -0.5, 50.0
        beta = b / (n + a)
        beta_x = F(b) / (n + F(a))
        exact = jacobi_polynomial(n, beta_x - n - F(a), -(beta_x + n + F(a)))
        assert exact.degree == 2
        assert_float_image(jacobi_polynomial(n, beta - n - a, -(beta + n + a)), exact)

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=F(-15, 16), max_value=4, max_denominator=16),
        st.integers(min_value=1, max_value=10),
        st.fractions(min_value=F(1, 10), max_value=60, max_denominator=10),
    )
    def test_recurrence_matches_oracle_at_eckart_indices(self, a, n, b):
        # away from the degenerate indices (2a not an integer) the recurrence
        # builds every member; the three-term recurrence in n is independent
        assume((2 * a).denominator != 1)
        beta = b / (n + a)
        nu, mu = beta - n - a, -(beta + n + a)
        assert jacobi_polynomial(n, nu, mu) == oracles.jacobi_rec(n, nu, mu)

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

    @pytest.mark.parametrize("z", [0.3, 0.8, 1.5, 3.0])
    def test_matches_printed_form_after_degree_drop(self, z):
        # at a = 0 the Jacobi leading coefficient vanishes, so P_9 has degree 8;
        # the (1-u) powers must still follow n = 9
        params = EckartParams(0, 121)
        n = 9
        beta = F(121, 9)
        assert jacobi_polynomial(n, beta - n, -(beta + n)).degree == n - 1
        x = 1.0 / math.tanh(z)
        pn = jacobi_real(n, beta - n, -(beta + n), x)
        want = (x - 1) ** ((float(beta) - n) / 2) * (x + 1) ** (-(float(beta) + n) / 2) * pn
        assert eckart_wavefunction(params, n, z) == pytest.approx(want, rel=1e-12)

    def test_normalized_solution_has_unit_norm(self):
        sol = eckart_solution(EckartParams(F(1, 2), 60), 4)
        assert sol.knorm == eckart_normalization(EckartParams(F(1, 2), 60), 4)
        # composite 20-point Gauss-Legendre on [0, 30], apart from the library's quadrature
        total = oracles.gauss_legendre(lambda z: sol.wavefunction(z) ** 2, 0.0, 30.0, 120, order=20)
        assert total == pytest.approx(1.0, abs=1e-12)
        raw = eckart_solution(EckartParams(F(1, 2), 60), 4, normalize=False)
        assert raw.knorm is None
        assert sol.wavefunction(0.7) == pytest.approx(raw.wavefunction(0.7) / sol.knorm, rel=1e-15)

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


class TestSolutionBuiltOnce:
    def test_one_jacobi_build_per_normalization(self, monkeypatch):
        calls = []
        build = eckart.jacobi_polynomial
        monkeypatch.setattr(eckart, "jacobi_polynomial", lambda *args: calls.append(args) or build(*args))
        eckart_normalization(EckartParams(F(1, 2), 200), 7)
        assert len(calls) == 1

    def test_coefficients_converted_once(self, monkeypatch):
        sol = eckart_solution(EckartParams(0, 50), 3)
        calls = []
        to_float = Polynomial.to_float
        monkeypatch.setattr(Polynomial, "to_float", lambda self: calls.append(1) or to_float(self))
        for z in (0.5, 1.0, 2.0):
            sol.wavefunction(z)
        assert len(calls) == 1
