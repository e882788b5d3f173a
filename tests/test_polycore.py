"""Polynomial and rational-function arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenmorse.polycore import Polynomial

P = Polynomial


class TestBasicOps:
    def test_add_cancellation(self):
        assert P((1, 1)) + P((-1, 1)) == P((0, 2))

    def test_add_identity(self):
        p = P((3, 0, 5))
        assert p + P() == p

    def test_add_plain(self):
        assert P((0, 0, 3)) + P((0, 1, 2)) == P((0, 1, 5))

    def test_mul_difference_of_squares(self):
        assert P((1, 1)) * P((1, -1)) == P((1, 0, -1))

    def test_mul_identity(self):
        p = P((2, -3, 4))
        assert p * P((1,)) == p

    def test_mul_square(self):
        assert P((1, 0, 1)) * P((1, 0, 1)) == P((1, 0, 2, 0, 1))

    def test_diff_cubic(self):
        assert P((0, 0, 0, 1)).diff() == P((0, 0, 3))

    def test_diff_constant(self):
        assert P((7,)).diff() == P()

    def test_diff_quartic(self):
        assert P((1, 0, 2, 0, 1)).diff() == P((0, 4, 0, 4))

    def test_eval_root(self):
        assert P((1, 0, -1))(1) == 0

    def test_eval_zero_poly(self):
        assert P()(F(17, 3)) == 0

    def test_eval_horner(self):
        assert P((0, 1, 5))(2) == 22

    def test_to_float(self):
        assert P((0, F(1, 2))).to_float() == P((0.0, 0.5))
        assert P((F(1, 3),)).to_float().coeffs[0] == pytest.approx(1 / 3, abs=1e-17)
        assert P().to_float() == P()

    def test_degree_and_zero(self):
        assert P().degree == -1 and P().is_zero
        assert P((0, 0, 0)).is_zero
        assert P((5,)).degree == 0
        assert P((1, 2, 0)).degree == 1

    def test_divmod_exact(self):
        num = P((F(2), F(-3), F(1)))  # (x-1)(x-2)
        q, r = divmod(num, P((-1, 1)))
        assert q == P((-2, 1)) and r.is_zero

    def test_divmod_remainder(self):
        q, r = divmod(P((1, 0, 1)), P((0, 1)))
        assert q == P((0, 1)) and r == P((1,))

    def test_power(self):
        assert P((1, 1)) ** 3 == P((1, 3, 3, 1))
        assert P((0, 2)) ** 0 == P((1,))

    def test_leading_of_zero_raises(self):
        with pytest.raises(ValueError):
            P().leading


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
polys = st.lists(fractions, min_size=0, max_size=6).map(lambda cs: P(tuple(cs)))


class TestAlgebraProperties:
    @settings(max_examples=80, deadline=None)
    @given(polys, polys, fractions)
    def test_eval_is_ring_homomorphism(self, p, q, r):
        assert (p * q)(r) == p(r) * q(r)
        assert (p + q)(r) == p(r) + q(r)

    @settings(max_examples=80, deadline=None)
    @given(polys, polys)
    def test_product_rule(self, p, q):
        assert (p * q).diff() == p.diff() * q + p * q.diff()

    @settings(max_examples=80, deadline=None)
    @given(polys)
    def test_normalization_idempotent(self, p):
        assert P(p.coeffs) == p
        assert P(p.coeffs).coeffs == p.coeffs

    @settings(max_examples=80, deadline=None)
    @given(polys, polys)
    def test_product_degree(self, p, q):
        if not p.is_zero and not q.is_zero:
            assert (p * q).degree == p.degree + q.degree

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_divmod_reconstructs(self, p, q):
        if q.is_zero:
            return
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.is_zero or rem.degree < q.degree


class TestFloatPath:
    def test_float_mul_matches_exact(self):
        pe = P((F(1, 3), F(-2, 7), F(5, 11)))
        qe = P((F(3, 5), F(1, 9)))
        prod = (pe * qe).to_float()
        prod_f = pe.to_float() * qe.to_float()
        for a, b in zip(prod.coeffs, prod_f.coeffs):
            assert a == pytest.approx(b, rel=1e-15)

    def test_float_eval(self):
        p = P((1.0, 0.0, -1.0))
        assert p(0.5) == pytest.approx(0.75)
