"""Quadrature and finite-difference eigensolver oracles."""

import math

import numpy as np
import pytest

import oracles
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
    safe_grid,
    sample,
    _solve_shifted,
)
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
        spec = QuadratureSpec(scheme="gauss_legendre", target_abs_tol=1e-12)
        est = integrate(lambda z: np.exp(-2 * z) * np.sin(z) ** 2, 0.0, math.pi, spec)
        assert est.require_converged() == pytest.approx((1 - math.exp(-2 * math.pi)) / 8, abs=1e-12)

    def test_gauss_legendre_rejects_infinite(self):
        with pytest.raises(ValueError):
            integrate(lambda x: np.exp(-x), 0.0, math.inf, QuadratureSpec(scheme="gauss_legendre"))

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
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="simpson")
        with pytest.raises(ValueError):
            QuadratureSpec(target_abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinement=0)

    def test_relative_target(self):
        spec = QuadratureSpec(target_abs_tol=1e-300, target_rel_tol=1e-12)
        est = integrate(lambda x: 1e8 * np.exp(-x * x), -math.inf, math.inf, spec)
        assert est.require_converged() == pytest.approx(1e8 * math.sqrt(math.pi), rel=1e-11)


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
        vals = fdm_eigenvalues(lambda z: 0.0 * z, 800, (0.0, math.pi), 1, refine=False)
        assert vals[0] == pytest.approx(1.0, abs=1e-5)

    def test_convergence_order_square_well(self):
        e1 = abs(fdm_eigenvalues(lambda z: 0.0 * z, 400, (0.0, math.pi), 1, refine=False)[0] - 1.0)
        e2 = abs(fdm_eigenvalues(lambda z: 0.0 * z, 801, (0.0, math.pi), 1, refine=False)[0] - 1.0)
        order = math.log2(e1 / e2)
        assert 1.8 <= order <= 2.2

    def test_trm_lowest_eigenvalue(self):
        params = TrmParams(1, 50)
        raw = fdm_eigenvalues(lambda z: trm_potential(params, z), 4000, (0.0, math.pi), 1, refine=False)
        assert raw[0] == pytest.approx(-621.0, rel=1e-4)
        refined = fdm_eigenvalues(lambda z: trm_potential(params, z), 2000, (0.0, math.pi), 1)
        assert refined[0] == pytest.approx(-621.0, rel=1e-6)

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
