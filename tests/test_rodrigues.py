"""Generation engine against classical recurrences and exact ODE residuals."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenmorse import rodrigues
from rosenmorse.eckart import jacobi_polynomial
from rosenmorse.polycore import Polynomial, RationalFunction
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
        assert spec.logw.num.is_zero
        assert spec.domain == (-1.0, 1.0)

    def test_jacobi_logw(self):
        spec = jacobi_weight(NU, MU)
        # (-nu(1+x) + mu(1-x)) / (1-x^2), reduced representation allowed
        want = RationalFunction(
            Polynomial((MU - NU, -(NU + MU))), Polynomial((1, 0, -1))
        )
        assert spec.logw == want
        assert spec.s == Polynomial((1, 0, -1))

    def test_arccot_logw(self):
        mu, b = F(2), F(1)
        spec = arccot_weight(mu, 2 * b / mu)
        assert spec.s == Polynomial((1, 0, 1))
        assert spec.logw.num == Polynomial((2 * b / mu, -2 * mu))
        assert spec.logw.den == Polynomial((1, 0, 1))
        assert spec.domain == (-math.inf, math.inf)

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
                logw=RationalFunction(Polynomial()),
                domain=(-1.0, 1.0),
                label="cubic",
            )

    def test_nonpolynomial_drift_rejected(self):
        # (1 - x^2)/(2 + x) has a remainder, so the recursion cannot stay
        # polynomial; such weights are rejected as soon as they are built
        with pytest.raises(ValueError, match="polynomial ring"):
            WeightSpec(
                s=Polynomial((F(1), F(0), F(-1))),
                logw=RationalFunction(Polynomial((F(1),)), Polynomial((F(2), F(1)))),
                domain=(-1.0, 1.0),
                label="bad",
            )


class TestFloatPath:
    def test_float_matches_exact_legendre(self):
        exact = rodrigues_generate(legendre_weight(), 6).poly.to_float()
        float_spec = WeightSpec(
            s=Polynomial((1.0, 0.0, -1.0)),
            logw=RationalFunction(Polynomial(), Polynomial((1.0,))),
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
        assert got.poly.coeffs == rodrigues._rodrigues_product(spec, m).coeffs
        assert sturm_liouville_residual(spec, got).is_zero

    @pytest.mark.parametrize("m", [2, 3])
    def test_recurrence_declines(self, m):
        spec = arccot_weight(2, 1)
        assert rodrigues._ode_member(spec.s, spec.first_order_coefficient(), m, 1) is None

    @pytest.mark.parametrize("spec", table1_presets(), ids=lambda s: s.label)
    def test_recurrence_matches_product_route(self, spec):
        for m in range(0, 13):
            got = rodrigues_generate(spec, m).poly
            assert got.coeffs == rodrigues._rodrigues_product(spec, m).coeffs, f"{spec.label} m={m}"


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
            assert trm_polynomial(params, n) == rodrigues._rodrigues_product(spec, n - 1), f"n={n}"


class TestNoPolynomialProducts:
    """The coefficient recurrence makes no polynomial products."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
        return calls

    def test_trm_polynomial(self, products):
        params = TrmParams(F(1, 3), F(7, 2))
        spec = arccot_weight(40 + params.a, trm_level(params, 40).alpha)
        building = len(products)  # the weight forms (w'/w) s once, when it is built
        products.clear()
        rodrigues_generate(spec, 39)
        assert products == []
        trm_polynomial(params, 40)
        assert len(products) == building

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
