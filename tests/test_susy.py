"""Factorization identities: annihilation, partner map, Riccati, isospectrality."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from rosenmorse.numerics import SampledFunction, fdm_eigenvalues, safe_grid, sample
from oracles import superpotential_fd
from rosenmorse.susy import apply_ladder, superpotential_from_gst
from rosenmorse.trm import TrmParams, trm_level, trm_potential, trm_solution, trm_wavefunction

PARAMS = TrmParams(1, 50)
PARTNER = TrmParams(2, 50)   # the partner potential is the original at a+1


def unit_samples(sol, z):
    return sample(lambda zz: trm_wavefunction(sol, zz), z).unit_normalized()


class TestSuperpotential:
    def test_closed_form_a1_b50(self):
        u = superpotential_from_gst(PARAMS)
        # U = b/(a+1) - (a+1) cot z; the cotangent-positive orientation is the
        # curve's mirror image
        assert u.offset == 25
        assert u.strength == -2
        assert u(math.pi / 2) == pytest.approx(25.0)
        assert u(math.pi / 4) == pytest.approx(23.0)

    def test_center_value_generic(self):
        u = superpotential_from_gst(TrmParams(F(1, 4), F(3)))
        assert u(math.pi / 2) == pytest.approx(3 / (1 + 0.25))

    def test_matches_groundstate_log_derivative(self):
        u = superpotential_from_gst(PARAMS)
        for z in (0.3, 1.0, 2.5):
            assert abs(u(z) - superpotential_fd(PARAMS, z, step=1e-5)) < 1e-8

    def test_derivative_closed_form(self):
        u = superpotential_from_gst(PARAMS)
        z = 0.9
        fd = (u(z + 1e-6) - u(z - 1e-6)) / 2e-6
        assert u.derivative(z) == pytest.approx(fd, rel=1e-8)


class TestLadder:
    def test_ground_state_annihilation(self):
        u = superpotential_from_gst(PARAMS)
        f = unit_samples(trm_solution(PARAMS, 1), safe_grid(20000))
        lowered = apply_ladder("-", u, f)
        assert np.max(np.abs(lowered.values)) < 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partner_identity(self, n):
        # lowering a level-n state at (a, b) gives the level n-1 state at (a+1, b)
        u = superpotential_from_gst(PARAMS)
        z = safe_grid(20000)
        lowered = apply_ladder("-", u, unit_samples(trm_solution(PARAMS, n), z)).unit_normalized()
        target = unit_samples(trm_solution(TrmParams(2, 50), n - 1), lowered.z)
        diff = min(
            float(np.max(np.abs(lowered.values - target.values))),
            float(np.max(np.abs(lowered.values + target.values))),
        )
        assert diff < 1e-7

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_raise_after_lower_gives_energy_gap(self, n):
        u = superpotential_from_gst(PARAMS)
        z = safe_grid(15000, margin=150)
        f = unit_samples(trm_solution(PARAMS, n), z)
        composed = apply_ladder("+", u, apply_ladder("-", u, f))
        gap = float(trm_level(PARAMS, n).epsilon) - float(trm_level(PARAMS, 1).epsilon)
        assert np.max(np.abs(composed.values - gap * f.values[4:-4])) < 1e-6

    def test_grid_validation(self):
        u = superpotential_from_gst(PARAMS)
        coarse = sample(np.sin, safe_grid(200))
        with pytest.raises(ValueError):
            apply_ladder("-", u, coarse)
        z = safe_grid(20000)
        bent = SampledFunction(np.concatenate([z[:100], z[101:]]), np.sin(np.concatenate([z[:100], z[101:]])))
        with pytest.raises(ValueError):
            apply_ladder("-", u, bent)
        with pytest.raises(ValueError):
            apply_ladder("*", u, sample(np.sin, z))
        with pytest.raises(ValueError):
            apply_ladder("-", u, SampledFunction(z[:4], np.sin(z[:4])))


class TestPartnerPair:
    def test_gap_is_csc_squared(self):
        z = np.linspace(0.2, math.pi - 0.2, 50)
        gap = trm_potential(PARTNER, z) - trm_potential(PARAMS, z)
        assert np.allclose(gap, 2 * 2 / np.sin(z) ** 2, rtol=1e-12)

    def test_center_gap_value(self):
        z = math.pi / 2
        assert trm_potential(PARTNER, z) - trm_potential(PARAMS, z) == pytest.approx(4.0)

    def test_a0_coefficients(self):
        z = 0.3
        # v has no csc^2 piece at a = 0; the partner has coefficient 2
        assert trm_potential(TrmParams(0, 1), z) == pytest.approx(-2.0 / math.tan(z))
        assert trm_potential(TrmParams(1, 1), z) == pytest.approx(-2.0 / math.tan(z) + 2.0 / math.sin(z) ** 2)


class TestFactorization:
    def test_riccati_identity(self):
        u = superpotential_from_gst(PARAMS)
        z = safe_grid(2000)
        eps1 = float(trm_level(PARAMS, 1).epsilon)
        res = u(z) ** 2 - u.derivative(z) + eps1 - trm_potential(PARAMS, z)
        assert np.max(np.abs(res)) < 1e-10

    def test_riccati_identity_quarter(self):
        params = TrmParams(F(1, 4), F(1))
        u = superpotential_from_gst(params)
        z = safe_grid(2000)
        eps1 = float(trm_level(params, 1).epsilon)
        res = u(z) ** 2 - u.derivative(z) + eps1 - trm_potential(params, z)
        assert np.max(np.abs(res)) < 1e-10

    def test_exact_shift_identity(self):
        # eps_{n-1}(a+1, b) = eps_n(a, b) as exact rationals
        for a, b in [(F(1), F(50)), (F(1, 4), F(1)), (F(0), F(7))]:
            for n in range(2, 11):
                assert trm_level(TrmParams(a + 1, b), n - 1).epsilon == trm_level(TrmParams(a, b), n).epsilon

    def test_partner_spectrum_against_fdm(self):
        _, _, got = fdm_eigenvalues(lambda z: trm_potential(PARTNER, z), 1500, (0.0, math.pi), 3)
        want = [float(trm_level(PARAMS, n).epsilon) for n in (2, 3, 4)]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-4)
