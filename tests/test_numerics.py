"""Quadrature and finite-difference eigensolver oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from rosenmorse import checks
from rosenmorse.numerics import (
    QuadratureSpec,
    SampledFunction,
    TridiagonalOperator,
    _SAFMIN,
    _sturm_counts,
    eigenvalues_sturm,
    eigenvector_inverse_iteration,
    fdm_eigenvalues,
    fdm_hamiltonian,
    integrate,
    interior_grid,
    power_sum,
    safe_grid,
    sample,
    _solve_shifted,
)
from rosenmorse.rodrigues import legendre_weight, rodrigues_generate
from rosenmorse.trm import TrmParams, trm_potential, trm_solution, trm_wavefunction


TOL12 = QuadratureSpec(target_abs_tol=1e-12)

# integrand, lo, hi, exact value, distance_form
ANALYTIC_INTEGRALS = [
    (lambda z: np.sin(z) ** 2, 0.0, math.pi, math.pi / 2, False),
    (lambda z: np.exp(-2 * z) * np.sin(z) ** 2, 0.0, math.pi, (1 - math.exp(-2 * math.pi)) / 8, False),
    (lambda x, dlo, dhi: 1.0 / np.sqrt(dlo), 0.0, 1.0, 2.0, True),
    (lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi), -1.0, 1.0, math.pi, True),
    (lambda x: np.exp(-x) * np.sqrt(x), 0.0, math.inf, math.sqrt(math.pi) / 2, False),
    (lambda x: np.exp(-x * x), -math.inf, math.inf, math.sqrt(math.pi), False),
    (lambda x: x * np.exp(-x), 0.0, math.inf, 1.0, False),
]


class TestQuadrature:
    def test_sin_squared(self):
        est = integrate(lambda z: np.sin(z) ** 2, 0.0, math.pi, TOL12)
        assert est.require_converged() == pytest.approx(math.pi / 2, abs=1e-12)

    def test_exp_sin_squared(self):
        # antiderivative oracle; equals the squared a=0, b=1 ground-state norm
        est = integrate(lambda z: np.exp(-2 * z) * np.sin(z) ** 2, 0.0, math.pi, TOL12)
        assert est.require_converged() == pytest.approx((1 - math.exp(-2 * math.pi)) / 8, abs=1e-12)

    def test_orthogonality_first_two_states(self):
        params = TrmParams(0, 1)
        s1, s2 = trm_solution(params, 1), trm_solution(params, 2)
        est = integrate(lambda z: trm_wavefunction(s1, z) * trm_wavefunction(s2, z),
                        0.0, math.pi, QuadratureSpec(target_abs_tol=1e-11))
        assert abs(est.require_converged()) < 1e-9

    @pytest.mark.parametrize("f,lo,hi,exact,dform", ANALYTIC_INTEGRALS)
    def test_analytic_values(self, f, lo, hi, exact, dform):
        est = integrate(f, lo, hi, TOL12, distance_form=dform)
        assert est.converged
        assert est.value == pytest.approx(exact, abs=5e-12)

    @pytest.mark.parametrize("f,lo,hi,exact,dform", ANALYTIC_INTEGRALS)
    def test_error_estimates_conservative(self, f, lo, hi, exact, dform):
        est = integrate(f, lo, hi, QuadratureSpec(target_abs_tol=1e-9), distance_form=dform)
        assert est.converged
        assert abs(est.value - exact) <= est.error + 1e-15

    def test_distance_form_matches_plain_on_smooth(self):
        plain = integrate(lambda z: np.sin(z) ** 2, 0.0, math.pi, TOL12)
        dist = integrate(lambda z, dlo, dhi: np.sin(z) ** 2, 0.0, math.pi, TOL12, distance_form=True)
        assert dist.value == plain.value

    def test_gauss_legendre_scheme(self):
        # the composite 16-point rule is a test-side oracle; check it on an antiderivative
        f = lambda z: np.exp(-2 * z) * np.sin(z) ** 2
        value = oracles.gauss_legendre(f, 0.0, math.pi, 16)
        assert value == pytest.approx((1 - math.exp(-2 * math.pi)) / 8, abs=1e-12)
        assert integrate(f, 0.0, math.pi, TOL12).value == pytest.approx(value, abs=1e-12)

    def test_nonconvergence_reported(self):
        spec = QuadratureSpec(target_abs_tol=1e-14, max_refinement=1)
        est = integrate(lambda x: np.cos(40 * x) ** 2 / np.sqrt(x), 0.0, 1.0, spec)
        assert not est.converged
        with pytest.raises(RuntimeError):
            est.require_converged()

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(TypeError):
            QuadratureSpec(scheme="gauss_legendre")
        with pytest.raises(ValueError):
            QuadratureSpec(target_abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinement=0)

    def test_relative_target(self):
        spec = QuadratureSpec(target_abs_tol=1e-300, target_rel_tol=1e-12)
        est = integrate(lambda x: 1e8 * np.exp(-x * x), -math.inf, math.inf, spec)
        assert est.require_converged() == pytest.approx(1e8 * math.sqrt(math.pi), rel=1e-11)
        # for f >= 0 the integral of |f| is the value itself: pinned bit for bit
        assert (est.level, est.nodes, est.value) == (5, 749, 177245385.0905516)

    @pytest.mark.parametrize("f,lo,hi", [
        (np.sin, 0.0, 2 * math.pi),
        (lambda x: (1 - x) * np.exp(-x), 0.0, math.inf),
    ], ids=["sin-period", "half-line"])
    def test_relative_target_on_zero_valued_signed_integrand(self, f, lo, hi):
        # the value sits at the round-off floor; the target scales with the integral of |f|
        spec = QuadratureSpec(target_abs_tol=1e-300, target_rel_tol=1e-12)
        est = integrate(f, lo, hi, spec)
        assert est.converged and est.level <= 5
        assert abs(est.value) < 1e-14

    def test_minus_infinity_to_finite_refused(self):
        with pytest.raises(ValueError, match="substitute x -> -x"):
            integrate(lambda x: np.exp(x), -math.inf, 0.0)

    def test_levels_and_nodes_reported(self):
        seen = []

        def f(z):
            seen.append(z.size)
            return np.sin(z) ** 2

        est = integrate(f, 0.0, math.pi, TOL12)
        assert (est.level, est.nodes) == (4, 364)
        assert est.nodes == sum(seen)
        vec = integrate(lambda z: np.array([np.sin(z) ** 2, np.cos(z) ** 2]), 0.0, math.pi, TOL12)
        assert (vec.level, vec.nodes) == (4, 364)
        capped = integrate(lambda x: np.cos(40 * x) ** 2 / np.sqrt(x), 0.0, 1.0,
                           QuadratureSpec(target_abs_tol=1e-14, max_refinement=3))
        assert capped.level == 4


class TestVectorQuadrature:
    def test_legendre_gram_against_exact_moments(self):
        # monic, so the round-off floor of the off-diagonal entries sits below the targets
        members = [rodrigues_generate(legendre_weight(), m).poly for m in range(9)]
        members = [Fraction(1) / p.coeffs[-1] * p for p in members]
        exact = np.array([[float(v) for v in row] for row in oracles.unit_interval_gram(members)])
        polys = [p.to_float() for p in members]
        rows, cols = np.triu_indices(len(polys))

        def gram(x):
            values = np.array([p(x) for p in polys])
            return values[rows] * values[cols]

        est = integrate(gram, -1.0, 1.0, QuadratureSpec(target_abs_tol=1e-13, target_rel_tol=1e-13))
        got = est.require_converged()
        assert got.shape == rows.shape
        scale = np.sqrt(np.diag(exact)[rows] * np.diag(exact)[cols])
        assert np.max(np.abs(got - exact[rows, cols]) / scale) < 1e-13

    @pytest.mark.parametrize("group", [
        [row for row in ANALYTIC_INTEGRALS if row[1:3] == (0.0, math.pi)],
        [row for row in ANALYTIC_INTEGRALS if row[1:3] == (0.0, math.inf)],
        [row for row in ANALYTIC_INTEGRALS if row[4]],
    ], ids=["finite", "half-line", "distance-form"])
    def test_rows_match_scalar_integrals(self, group):
        lo, hi, dform = group[0][1], group[0][2], group[0][4]
        if dform:
            # the rows need not share an interval: rescale each to (0, 1)
            lo, hi = 0.0, 1.0
            parts = [(f, flo, fhi - flo) for f, flo, fhi, _, _ in group]

            def vec(x, dlo, dhi):
                return np.array([w * f(flo + w * x, w * dlo, w * dhi) for f, flo, w in parts])
        else:
            def vec(x):
                return np.array([f(x) for f, *_ in group])

        est = integrate(vec, lo, hi, TOL12, distance_form=dform)
        assert est.require_converged().shape == (len(group),)
        for k, (f, flo, fhi, exact, _) in enumerate(group):
            scalar = integrate(f, flo, fhi, TOL12, distance_form=dform)
            # a level is accepted only once every row meets the spec
            assert est.level >= scalar.level
            assert est.value[k] == pytest.approx(scalar.value, abs=2e-12)
            assert est.value[k] == pytest.approx(exact, abs=5e-12)

    @pytest.mark.parametrize("shape", [lambda x: np.zeros(x.size + 1),
                                       lambda x: np.zeros((x.size, 2)),
                                       lambda x: np.zeros((2, 2, x.size)),
                                       lambda x: np.zeros(()),
                                       lambda x: np.zeros((1 + (x.size > 1), x.size))],
                             ids=["long", "transposed", "3-d", "scalar", "rows-change"])
    def test_misshapen_output_refused(self, shape):
        with pytest.raises(ValueError, match="shape"):
            integrate(shape, 0.0, 1.0)

    def test_require_converged_needs_every_row(self):
        spec = QuadratureSpec(target_abs_tol=1e-14, max_refinement=3)
        est = integrate(lambda x: np.array([np.exp(-x * x), np.cos(40 * x) ** 2 / np.sqrt(x)]), 0.0, 1.0, spec)
        assert est.converged.tolist() == [True, False]
        with pytest.raises(RuntimeError):
            est.require_converged()


class TestFdmHamiltonian:
    def test_structure(self):
        op = fdm_hamiltonian(lambda z: 0.0 * z, 100, (0.0, math.pi))
        h = math.pi / 101
        assert op.dimension == 100
        assert op.step == pytest.approx(h)
        assert op.z0 == pytest.approx(h)
        assert np.allclose(op.diag, 2 / h**2)
        assert np.allclose(op.offdiag, -1 / h**2)

    def test_square_well_ground_state(self):
        vals = eigenvalues_sturm(fdm_hamiltonian(lambda z: 0.0 * z, 800, (0.0, math.pi)), 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-5)

    def test_convergence_order_square_well(self):
        e1 = abs(eigenvalues_sturm(fdm_hamiltonian(lambda z: 0.0 * z, 400, (0.0, math.pi)), 1)[0] - 1.0)
        e2 = abs(eigenvalues_sturm(fdm_hamiltonian(lambda z: 0.0 * z, 801, (0.0, math.pi)), 1)[0] - 1.0)
        order = math.log2(e1 / e2)
        assert 1.8 <= order <= 2.2

    def test_trm_lowest_eigenvalue(self):
        params = TrmParams(1, 50)
        raw = eigenvalues_sturm(fdm_hamiltonian(lambda z: trm_potential(params, z), 4000, (0.0, math.pi)), 1)
        assert raw[0] == pytest.approx(-621.0, rel=1e-4)
        _, _, refined = fdm_eigenvalues(lambda z: trm_potential(params, z), 2000, (0.0, math.pi), 1)
        assert refined[0] == pytest.approx(-621.0, rel=1e-6)

    def test_richardson_pair_halves_the_step(self):
        pot = lambda z: 0.0 * z
        coarse, fine, refined = fdm_eigenvalues(pot, 400, (0.0, math.pi), 2)
        assert coarse == eigenvalues_sturm(fdm_hamiltonian(pot, 400, (0.0, math.pi)), 2)
        assert fine == eigenvalues_sturm(fdm_hamiltonian(pot, 801, (0.0, math.pi)), 2)
        assert refined == [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
        assert fdm_hamiltonian(pot, 801, (0.0, math.pi)).step == fdm_hamiltonian(pot, 400, (0.0, math.pi)).step / 2

    def test_suite_fdm_odd_grid_halves_the_step(self):
        # an odd grid pairs grid // 2 with 2 (grid // 2) + 1 points, the same as the even grid below it
        even, odd = checks.suite_fdm(grid=4000), checks.suite_fdm(grid=4001)
        assert [r.detail for r in odd] == [r.detail for r in even]
        assert odd[0].detail == "max rel dev = 5.276e-08"

    def test_nonfinite_potential_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            fdm_hamiltonian(lambda z: 1.0 / (z - z[0]), 32, (0.0, 1.0))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fdm_hamiltonian(lambda z: 0.0 * z, 8, (0.0, 1.0))


class TestSturmEigenvalues:
    def test_three_by_three_closed_form(self):
        op = TridiagonalOperator(np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]), 1.0, 0.0)
        got = eigenvalues_sturm(op, 3)
        want = [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
        assert got == pytest.approx(want, abs=1e-9)

    def test_one_by_one(self):
        op = TridiagonalOperator(np.array([4.25]), np.array([]), 1.0, 0.0)
        assert eigenvalues_sturm(op, 1) == pytest.approx([4.25], abs=1e-10)

    def test_discrete_laplacian_exact_spectrum(self):
        n = 180
        op = fdm_hamiltonian(lambda z: 0.0 * z, n, (0.0, math.pi))
        h = op.step
        got = eigenvalues_sturm(op, 5)
        want = [(4 / h**2) * math.sin(j * h / 2) ** 2 for j in range(1, 6)]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9 * max(1.0, abs(w)))

    def test_more_eigenvalues_than_shifts_per_sweep(self):
        n = 300
        op = fdm_hamiltonian(lambda z: 0.0 * z, n, (0.0, math.pi))
        h = op.step
        got = eigenvalues_sturm(op, n)
        want = [(4 / h**2) * math.sin(j * h / 2) ** 2 for j in range(1, n + 1)]
        assert got == pytest.approx(want, rel=1e-9)

    def test_random_matrices_vs_charpoly_oracle(self):
        rng = np.random.default_rng(20240817)
        for dim in (2, 3, 5, 8, 12):
            d = rng.uniform(-3, 3, dim)
            e = rng.uniform(-2, 2, dim - 1)
            op = TridiagonalOperator(d, e, 1.0, 0.0)
            got = eigenvalues_sturm(op, dim)
            want = oracles.charpoly_eigenvalues(d, e)
            assert got == pytest.approx(sorted(want), abs=1e-9)

    def test_count_validation(self):
        op = TridiagonalOperator(np.array([1.0, 2.0]), np.array([0.5]), 1.0, 0.0)
        with pytest.raises(ValueError):
            eigenvalues_sturm(op, 3)
        with pytest.raises(ValueError):
            eigenvalues_sturm(op, 0)


def _pivmin(e2):
    return max(_SAFMIN * float(np.max(e2, initial=0.0)), _SAFMIN)


def _reference_counts(d, e2, shifts):
    dl, e2l = d.tolist(), e2.tolist()
    return [oracles.sturm_count(dl, e2l, x, _pivmin(e2)) for x in shifts.tolist()]


def _unguarded_count(d, e2, x):
    """The pivot sign count without the small-pivot guard."""
    count, q = 0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(d)):
            q = np.float64(d[i] - x) - (np.float64(e2[i - 1]) / q if i else 0.0)
            count += bool(q < 0.0)
    return count


def _integer_matrices():
    """Small integer (diag, offdiag^2) pairs; integer shifts give exactly zero pivots."""
    # d = 2, e = -1 at shift 1: zero pivots at rows 1, 4, ..., 127 (the last row of a block)
    yield np.full(200, 2.0), np.ones(199)
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 7, 64, 65, 150):
        for _ in range(4):
            e = rng.integers(-1, 2, dim - 1).astype(float)
            yield rng.integers(-2, 3, dim).astype(float), e * e


class TestSturmCounts:
    def test_match_scalar_recurrence_on_large_fdm_grid(self):
        params = TrmParams(1, 50)
        op = fdm_hamiltonian(lambda z: trm_potential(params, z), 16001, (0.0, math.pi))
        d, e2 = op.diag, op.offdiag**2
        lams = eigenvalues_sturm(op, 8)
        rng = np.random.default_rng(11)
        shifts = np.concatenate([
            rng.uniform(np.min(d) - 2 / op.step**2, np.max(d) + 2 / op.step**2, 24),
            rng.uniform(lams[0] - 10.0, lams[-1] + 10.0, 24),
            lams,
        ])
        got = _sturm_counts(d, e2, shifts, _pivmin(e2))
        assert got.tolist() == _reference_counts(d, e2, shifts)
        # each eigenvalue estimate sits at its own count transition
        assert all(c in (j - 1, j) for j, c in enumerate(got[-8:].tolist(), start=1))

    def test_zero_pivots_take_the_guarded_path(self):
        shifts = np.arange(-4.0, 5.0, 0.5)
        guard_matters = 0
        for d, e2 in _integer_matrices():
            want = _reference_counts(d, e2, shifts)
            assert _sturm_counts(d, e2, shifts, _pivmin(e2)).tolist() == want
            guard_matters += sum(_unguarded_count(d, e2, x) != w for x, w in zip(shifts.tolist(), want))
        assert guard_matters > 0, "no case exercised the small-pivot guard"


class TestInverseIteration:
    def test_square_well_ground_state(self):
        op = fdm_hamiltonian(lambda z: 0.0 * z, 500, (0.0, math.pi))
        lam = eigenvalues_sturm(op, 1)[0]
        vec = eigenvector_inverse_iteration(op, lam)
        ref = math.sqrt(2 / math.pi) * np.sin(vec.z)
        assert np.max(np.abs(vec.values - ref)) < 1e-4

    def test_sign_convention_first_extremum_positive(self):
        op = fdm_hamiltonian(lambda z: 0.0 * z, 300, (0.0, math.pi))
        lams = eigenvalues_sturm(op, 2)
        for lam in lams:
            vec = eigenvector_inverse_iteration(op, lam)
            first_peak = np.argmax(np.abs(vec.values) > 0.5 * np.max(np.abs(vec.values)))
            assert vec.values[first_peak] > 0

    def test_quarter_parameter_node_counts(self):
        params = TrmParams(0.25, 1.0)
        op = fdm_hamiltonian(lambda z: trm_potential(params, z), 3000, (0.0, math.pi))
        lams = eigenvalues_sturm(op, 2)
        nodes = []
        for lam in lams:
            vec = eigenvector_inverse_iteration(op, lam)
            nodes.append(oracles.count_sign_changes(vec.values, rel_threshold=1e-6))
        assert nodes == [0, 1]

    def test_overlap_with_closed_forms(self):
        params = TrmParams(1, 50)
        op = fdm_hamiltonian(lambda z: trm_potential(params, z), 4000, (0.0, math.pi))
        lams = eigenvalues_sturm(op, 3)
        for idx, n in enumerate((1, 2, 3)):
            vec = eigenvector_inverse_iteration(op, lams[idx])
            sol = trm_solution(params, n)
            ana = sample(lambda z: trm_wavefunction(sol, z), vec.z).unit_normalized()
            overlap = abs(vec.step * float(np.sum(vec.values * ana.values)))
            assert overlap > 1 - 1e-6

    def test_solver_against_dense_reference(self):
        rng = np.random.default_rng(7)
        for dim in (5, 20, 60):
            d = rng.uniform(-2, 2, dim)
            e = rng.uniform(-1, 1, dim - 1)
            rhs = rng.uniform(-1, 1, dim)
            shift = 0.37
            got = _solve_shifted(d, e, shift, rhs)
            dense = np.diag(d - shift) + np.diag(e, 1) + np.diag(e, -1)
            want = np.linalg.solve(dense, rhs)
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


class TestGridHelpers:
    def test_safe_grid_margins(self):
        z = safe_grid(1000)
        h = math.pi / 1001
        assert z[0] == pytest.approx(10 * h)
        assert z[-1] == pytest.approx(math.pi - 10 * h)
        assert np.allclose(np.diff(z), h)

    def test_safe_grid_too_small(self):
        with pytest.raises(ValueError):
            safe_grid(20, margin=10)

    def test_safe_grid_refuses_margin_below_one(self):
        with pytest.raises(ValueError, match="margin must be at least one step"):
            safe_grid(1000, margin=0)

    def test_safe_grid_is_interior_grid_sliced(self):
        assert np.array_equal(interior_grid(4, (0.0, 5.0)), [1.0, 2.0, 3.0, 4.0])
        for domain in ((0.0, math.pi), (0.0, 30.0), (-1.0, 2.5)):
            full = interior_grid(500, domain)
            assert np.array_equal(safe_grid(500, domain, margin=1), full)
            assert np.array_equal(safe_grid(500, domain, margin=7), full[6:-6])

    def test_count_zeros(self):
        assert oracles.count_zeros(lambda z: np.sin(3 * z), 0.1, math.pi - 0.1) == 2
        assert oracles.count_zeros(lambda z: np.cos(z) * 0 + 1.0, 0.1, 1.0) == 0

    def test_count_sign_changes_threshold(self):
        vals = np.array([1.0, 1e-14, -1.0, -2.0, 3.0])
        assert oracles.count_sign_changes(vals) == 2

    def test_sampled_function_norm(self):
        z = safe_grid(5000)
        f = SampledFunction(z, np.sin(z))
        assert f.norm() == pytest.approx(math.sqrt(math.pi / 2), rel=1e-4)
        assert f.unit_normalized().norm() == pytest.approx(1.0, rel=1e-12)


class TestPowerSum:
    @staticmethod
    def direct(coeffs, p, q, deg):
        return sum(c * p**k * q ** (deg - k) for k, c in enumerate(coeffs))

    @pytest.mark.parametrize("deg,length", [(0, 1), (1, 2), (7, 8), (12, 13), (12, 10), (9, 1)])
    def test_matches_direct_sum(self, deg, length):
        # length < deg + 1 is a trimmed list: its missing leading terms still set the q powers;
        # positive terms leave no cancellation, so both sums agree to rounding
        rng = np.random.default_rng(deg * 100 + length)
        coeffs = list(rng.uniform(0.5, 2.0, length))
        p, q = rng.uniform(0.1, 1.0, 200), rng.uniform(0.1, 1.0, 200)
        want = self.direct(coeffs, p, q, deg)
        assert np.max(np.abs(power_sum(coeffs, p, q, deg) - want) / np.abs(want)) < 1e-13

    def test_scalar_arguments(self):
        got = power_sum([1.0, -2.0, 0.5], 0.3, 0.7, 4)
        assert got == pytest.approx(self.direct([1.0, -2.0, 0.5], 0.3, 0.7, 4), rel=1e-15)

    @pytest.mark.parametrize("deg", [2, 3])
    def test_inputs_untouched(self, deg):
        # the first q power is q^0 or q^1, then updated in place
        p, q = np.array([0.2, 0.4]), np.array([0.9, 0.8])
        power_sum([1.0, 2.0, 3.0], p, q, deg)
        assert p.tolist() == [0.2, 0.4] and q.tolist() == [0.9, 0.8]

    def test_too_many_coefficients_refused(self):
        with pytest.raises(ValueError):
            power_sum([1.0, 2.0, 3.0], 0.5, 0.5, 1)
