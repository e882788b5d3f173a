"""Generation engine against classical recurrences and exact ODE residuals."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenmorse import rodrigues
from rosenmorse.eckart import jacobi_polynomial
from rosenmorse.polycore import Polynomial
from rosenmorse.rodrigues import (
    RodriguesResult,
    WeightSpec,
    arccot_weight,
    chebyshev1_weight,
    chebyshev2_weight,
    gegenbauer_weight,
    hermite_weight,
    jacobi_weight,
    laguerre_weight,
    legendre_weight,
    rodrigues_generate,
    sturm_liouville_residual,
    table1_presets,
)
from rosenmorse.trm import TrmParams, trm_level, trm_polynomial

import oracles


NU, MU, LAM = F(1, 2), F(3, 2), F(3, 4)

CLASSICAL = [
    (legendre_weight(), oracles.legendre_rec),
    (hermite_weight(), oracles.hermite_rec),
    (laguerre_weight(NU), lambda m: oracles.laguerre_rec(m, NU)),
    (jacobi_weight(NU, MU), lambda m: oracles.jacobi_rec(m, NU, MU)),
    (gegenbauer_weight(LAM), lambda m: oracles.gegenbauer_rec(m, LAM)),
    (chebyshev1_weight(), oracles.chebyshev1_rec),
    (chebyshev2_weight(), oracles.chebyshev2_rec),
]


class TestGeneration:
    def test_legendre_m2(self):
        out = rodrigues_generate(legendre_weight(), 2)
        assert oracles.proportional(out.poly, oracles.legendre_rec(2))
        assert out.lam == 6

    def test_hermite_m1(self):
        out = rodrigues_generate(hermite_weight(), 1)
        assert oracles.proportional(out.poly, Polynomial((0, 1)))
        assert out.lam == 2

    @pytest.mark.parametrize("spec", table1_presets(), ids=lambda s: s.label)
    def test_zeroth_member(self, spec):
        out = rodrigues_generate(spec, 0)
        assert out.poly.degree == 0
        assert out.lam == 0

    @pytest.mark.parametrize("spec,oracle", CLASSICAL, ids=lambda c: getattr(c, "label", ""))
    def test_recurrence_proportionality(self, spec, oracle):
        for m in range(0, 9):
            out = rodrigues_generate(spec, m)
            assert oracles.proportional(out.poly, oracle(m)), f"{spec.label} m={m}"

    @pytest.mark.parametrize("spec", [s for s, _ in CLASSICAL], ids=lambda s: s.label)
    def test_degree_equals_member_index(self, spec):
        for m in range(0, 9):
            assert rodrigues_generate(spec, m).poly.degree == m

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            rodrigues_generate(legendre_weight(), -1)


class TestSturmLiouvilleResidual:
    @pytest.mark.parametrize("spec", table1_presets(), ids=lambda s: s.label)
    def test_residual_is_zero(self, spec):
        for m in range(0, 9):
            res = sturm_liouville_residual(spec, rodrigues_generate(spec, m))
            assert res.is_zero, f"{spec.label} m={m}"

    def test_legendre_m3_exact_zero(self):
        spec = legendre_weight()
        assert sturm_liouville_residual(spec, rodrigues_generate(spec, 3)).is_zero

    def test_arccot_member_exact_zero(self):
        spec = arccot_weight(F(2), F(1))  # level n=2 weight at a=0, b=1
        assert sturm_liouville_residual(spec, rodrigues_generate(spec, 1)).is_zero

    def test_corrupted_polynomial_detected(self):
        spec = legendre_weight()
        good = rodrigues_generate(spec, 2)
        bad = RodriguesResult(poly=Polynomial((0, 0, 3)), m=2, lam=good.lam)
        assert not sturm_liouville_residual(spec, bad).is_zero


class TestEigenvalues:
    # classical second-order equations pin lam for each family
    @pytest.mark.parametrize(
        "spec,lam_of_m",
        [
            (legendre_weight(), lambda m: m * (m + 1)),
            (hermite_weight(), lambda m: 2 * m),
            (laguerre_weight(NU), lambda m: m),
            (jacobi_weight(NU, MU), lambda m: m * (m + NU + MU + 1)),
            (gegenbauer_weight(LAM), lambda m: m * (m + 2 * LAM)),
            (chebyshev1_weight(), lambda m: m * m),
            (chebyshev2_weight(), lambda m: m * (m + 2)),
        ],
        ids=lambda v: getattr(v, "label", ""),
    )
    def test_classical_eigenvalues(self, spec, lam_of_m):
        for m in range(0, 9):
            assert rodrigues_generate(spec, m).lam == lam_of_m(m)


class TestPresets:
    def test_table_has_eight_rows(self):
        presets = table1_presets()
        assert len(presets) == 8
        assert all(isinstance(p, WeightSpec) for p in presets)

    def test_legendre_shape(self):
        spec = legendre_weight()
        assert spec.s == Polynomial((1, 0, -1))
        assert spec.drift.is_zero
        assert spec.domain == (-1.0, 1.0)

    def test_jacobi_logw(self):
        spec = jacobi_weight(NU, MU)
        # drift (w'/w) s = -nu(1+x) + mu(1-x)
        assert spec.drift == Polynomial((MU - NU, -(NU + MU)))
        assert spec.s == Polynomial((1, 0, -1))

    def test_arccot_logw(self):
        mu, b = F(2), F(1)
        spec = arccot_weight(mu, 2 * b / mu)
        assert spec.s == Polynomial((1, 0, 1))
        # drift (w'/w) s = c - 2 mu x
        assert spec.drift == Polynomial((2 * b / mu, -2 * mu))
        assert spec.domain == (-math.inf, math.inf)

    def test_int_drift_becomes_fractions(self):
        # members and eigenvalues keep Fraction scalars on the exact path
        spec = hermite_weight()
        assert all(isinstance(c, F) for c in spec.drift.coeffs + spec.tau.coeffs)
        assert isinstance(rodrigues_generate(spec, 3).lam, F)

    def test_parameter_constraints(self):
        with pytest.raises(ValueError):
            laguerre_weight(-2)
        with pytest.raises(ValueError):
            jacobi_weight(F(-3, 2), 0)
        with pytest.raises(ValueError):
            jacobi_weight(0, -1)
        with pytest.raises(ValueError):
            gegenbauer_weight(F(-1, 2))
        with pytest.raises(ValueError):
            arccot_weight(0, 1)

    def test_degenerate_s_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec(
                s=Polynomial((1, 0, 0, 1)),
                drift=Polynomial(),
                domain=(-1.0, 1.0),
                label="cubic",
            )

    def test_drift_above_degree_one_rejected(self):
        # w'/w = x^3/(1+x^2) gives the drift x^3; the recurrence and lam read
        # only t_0 and t_1, so such a spec would yield members off their ODE
        with pytest.raises(ValueError, match="degree 3"):
            WeightSpec(
                s=Polynomial((1, 0, 1)),
                drift=Polynomial((0, 0, 0, 1)),
                domain=(-math.inf, math.inf),
                label="cubic drift",
            )


class TestFloatPath:
    def test_float_matches_exact_legendre(self):
        exact = rodrigues_generate(legendre_weight(), 6).poly.to_float()
        float_spec = WeightSpec(
            s=Polynomial((1.0, 0.0, -1.0)),
            drift=Polynomial(),
            domain=(-1.0, 1.0),
            label="legendre-float",
        )
        got = rodrigues_generate(float_spec, 6).poly
        for a, b in zip(exact.coeffs, got.coeffs):
            assert b == pytest.approx(a, rel=1e-13)

    def test_float_arccot_matches_exact(self):
        exact = rodrigues_generate(arccot_weight(F(9, 4), F(8, 9)), 3).poly.to_float()
        got = rodrigues_generate(arccot_weight(2.25, 8.0 / 9.0), 3).poly
        for a, b in zip(exact.coeffs, got.coeffs):
            assert b == pytest.approx(a, rel=1e-12)


class TestDegenerateMembers:
    # arccot(2,1) has tau = 1 - 2x and s_2 = 1, so t_1 + s_2 (k + m - 1) = k + m - 3
    # vanishes for some k < m exactly at m = 2 and 3: the Rodrigues leading
    # coefficient is zero there and the member drops degree
    @pytest.mark.parametrize("m,want", [(2, Polynomial((-1, 2))), (3, Polynomial((5,)))])
    def test_arccot_member_drops_degree(self, m, want):
        spec = arccot_weight(2, 1)
        got = rodrigues_generate(spec, m)
        assert got.poly == want
        want_product = rodrigues._rodrigues_product(spec.s, spec.drift, m).monic_positive()
        assert got.poly.coeffs == want_product.coeffs
        assert sturm_liouville_residual(spec, got).is_zero

    @pytest.mark.parametrize("m", [2, 3])
    def test_recurrence_declines(self, m):
        spec = arccot_weight(2, 1)
        assert rodrigues._ode_member(spec.s, spec.tau, m, 1) is None

    @pytest.mark.parametrize("spec", table1_presets(), ids=lambda s: s.label)
    def test_recurrence_matches_product_route(self, spec):
        for m in range(0, 13):
            got = rodrigues_generate(spec, m).poly
            want = rodrigues._rodrigues_product(spec.s, spec.drift, m).monic_positive()
            assert got.coeffs == want.coeffs, f"{spec.label} m={m}"


class TestIndependentRoutes:
    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=F(-15, 16), max_value=4, max_denominator=16),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
    )
    def test_trm_members_match_product_route(self, a, b):
        # C_n from the coefficient recurrence against the first-order Rodrigues recursion
        params = TrmParams(a, b)
        for n in range(1, 13):
            spec = arccot_weight(n + a, trm_level(params, n).alpha)
            want = rodrigues._rodrigues_product(spec.s, spec.drift, n - 1).monic_positive()
            assert trm_polynomial(params, n) == want, f"n={n}"


class TestNoPolynomialProducts:
    """The coefficient recurrence makes no polynomial products."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
        return calls

    def test_trm_polynomial(self, products):
        # building the weight takes its drift as given, so it makes none either
        params = TrmParams(F(1, 3), F(7, 2))
        rodrigues_generate(arccot_weight(40 + params.a, trm_level(params, 40).alpha), 39)
        trm_polynomial(params, 40)
        assert products == []

    def test_jacobi_at_eckart_index(self, products):
        a, b, n = F(3, 8), F(900), 7
        beta = b / (n + a)
        assert jacobi_polynomial(n, beta - n - a, -(beta + n + a)).degree == n
        assert products == []

    def test_degenerate_member_takes_fallback(self, products):
        spec = arccot_weight(2, 1)
        products.clear()
        rodrigues_generate(spec, 4)
        assert products == []
        rodrigues_generate(spec, 3)
        assert len(products) > 0
