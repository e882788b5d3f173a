"""Independent numerical oracles.

Two workhorses live here: adaptive double-exponential quadrature (scalar
integrands, or vector ones that give a whole Gram matrix in one pass) and a
finite-difference eigensolver for one-dimensional Hamiltonians (3-point
Dirichlet discretization, Sturm-sequence multisection, inverse iteration for
eigenvectors).  Beside them sit the shared policies every caller uses:
`quadrature_norm` (the L2 norm of a closed-form state), `power_sum` (the
homogeneous Horner evaluator both wave functions share), `interior_grid`
(the uniform grid of the FDM, the figures and `safe_grid`) and the
Richardson step in `fdm_eigenvalues`.  Everything is deterministic and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_T_MAX = 6.0          # hard cap on the double-exponential parameter
_BLOCK = 128          # nodes evaluated per vectorized chunk
_SAFMIN = 2.2250738585072014e-308
_STURM_SHIFTS = 256   # shifts counted per multisection sweep
_STURM_ROWS = 64      # matrix rows per vectorized block of the pivot recurrence


@dataclass(frozen=True)
class QuadratureSpec:
    """Convergence targets for `integrate`.

    Convergence is reached when the level-to-level change drops below
    max(target_abs_tol, target_rel_tol * scale), with scale the integral of
    |f| (QUADPACK's `resabs`): the value itself for a nonnegative integrand,
    the size of the cancelling parts for a signed one.  The relative target
    is off by default.
    """

    target_abs_tol: float = 1e-10
    max_refinement: int = 10
    target_rel_tol: float = 0.0

    def __post_init__(self):
        if not self.target_abs_tol > 0:
            raise ValueError("target_abs_tol must be positive")
        if self.max_refinement < 1:
            raise ValueError("max_refinement must be at least 1")
        if self.target_rel_tol < 0:
            raise ValueError("target_rel_tol must be non-negative")

    def met(self, err, scale):
        """Whether each error estimate meets the target; elementwise on arrays."""
        return err <= np.maximum(self.target_abs_tol, self.target_rel_tol * scale)


@dataclass(frozen=True)
class IntegralEstimate:
    """Quadrature value with its error estimate and what the quadrature did.

    For a scalar integrand `value` and `error` are floats and `converged` a
    bool; for a vector integrand all three are arrays with one entry per row.
    `level` counts the trapezoid levels evaluated and `nodes` the points at
    which the integrand was called, summed over those levels.
    """

    value: object
    error: object
    converged: object
    level: int
    nodes: int

    def require_converged(self):
        if not np.all(self.converged):
            worst = float(np.max(np.where(self.converged, 0.0, self.error)))
            raise RuntimeError(f"quadrature did not converge (error estimate {worst:.3e})")
        return self.value


def _de_map(lo: float, hi: float):
    """Node maps for the double-exponential transform.

    Returns a function t -> (x, dlo, dhi, dx) where dlo/dhi are the exact
    distances to the endpoints.  Near a nonzero finite endpoint the absolute
    coordinate x saturates at one ulp, so integrands that are singular there
    must work from the distances (see `integrate(distance_form=True)`); the
    distances themselves stay meaningful down to ~1e-300.  `integrate`
    refuses (-inf, finite).
    """
    lo_fin, hi_fin = math.isfinite(lo), math.isfinite(hi)
    inf = math.inf
    if lo_fin and hi_fin:
        span = hi - lo
        # floors keep the plain coordinate strictly inside the open interval
        tiny_lo = 4.0 * np.finfo(float).eps * abs(lo)
        tiny_hi = 4.0 * np.finfo(float).eps * abs(hi)

        def nodes(t):
            w = 0.5 * np.pi * np.sinh(t)
            ew = np.exp(-2.0 * np.abs(w))
            dist = np.maximum(span * ew / (1.0 + ew), 1e-305 * span)
            near_hi = w >= 0
            dlo = np.where(near_hi, span - dist, dist)
            dhi = np.where(near_hi, dist, span - dist)
            x = np.where(near_hi, hi - np.maximum(dist, tiny_hi), lo + np.maximum(dist, tiny_lo))
            dx = span * 0.25 * np.pi * np.cosh(t) / np.cosh(w) ** 2
            return x, dlo, dhi, dx

    elif lo_fin:
        tiny_lo = 4.0 * np.finfo(float).eps * abs(lo)

        def nodes(t):
            w = np.exp(0.5 * np.pi * np.sinh(t))
            x = lo + np.maximum(w, tiny_lo)
            return x, w, np.full_like(w, inf), w * 0.5 * np.pi * np.cosh(t)

    else:

        def nodes(t):
            w = 0.5 * np.pi * np.sinh(t)
            x = np.sinh(w)
            grow = np.full_like(w, inf)
            return x, grow, grow, np.cosh(w) * 0.5 * np.pi * np.cosh(t)

    return nodes


def _evaluate(call, x, dlo, dhi, rows):
    """Integrand values at x, refused unless shaped rows + (len(x),).

    `rows` is None on the first call of a level, which fixes it: () for a
    scalar integrand, (m,) for one with m components.
    """
    out = np.asarray(call(x, dlo, dhi), dtype=float)
    if rows is None and out.ndim in (1, 2):
        rows = out.shape[:-1]
    if rows is None or out.shape != rows + x.shape:
        raise ValueError(
            f"integrand returned shape {out.shape} at {x.size} points; "
            "expected one value per point, or one row of them per component"
        )
    return out


def _de_level(call, nodes, h: float, term_tol: float):
    """Trapezoid sums of f and of |f| over the transformed line at spacing h, and the point count.

    Works outward from t = 0 in chunks and stops a side once two consecutive
    chunks contribute only terms below term_tol in every row; the
    double-exponential decay of the transformed integrand makes the discarded
    tail negligible.

    Coarse levels on unbounded domains can push nodes so far out that the
    integrand overflows before its weight kills the product; such a level
    reports nan in every row and is simply superseded by deeper levels, whose
    chunk cutoff stops well inside the representable range.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        x0, dlo0, dhi0, dx0 = nodes(np.zeros(1))
        head = _evaluate(call, x0, dlo0, dhi0, None)
        rows = head.shape[:-1]
        total = head[..., 0] * dx0[0]
        mass = np.abs(total)
        count = 1
        for sign in (1.0, -1.0):
            j = 1
            quiet = 0
            while j * h <= _T_MAX and quiet < 2:
                t = sign * h * np.arange(j, j + _BLOCK)
                t = t[np.abs(t) <= _T_MAX]
                if t.size == 0:
                    break
                x, dlo, dhi, dx = nodes(t)
                terms = _evaluate(call, x, dlo, dhi, rows) * dx
                count += t.size
                peak = float(np.max(np.abs(terms)))
                if not math.isfinite(peak):
                    return np.full(rows, math.nan), np.full(rows, math.nan), count
                total += np.sum(terms, axis=-1)
                mass += np.sum(np.abs(terms), axis=-1)
                quiet = quiet + 1 if peak < term_tol else 0
                j += _BLOCK
    return h * total, h * mass, count


def integrate(
    f,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    distance_form: bool = False,
) -> IntegralEstimate:
    """Integrate f over (lo, hi) by the double-exponential rule; endpoints may be infinite.

    Plain form: f(x) with x a numpy array of interior points.  With
    distance_form=True, f is called as f(x, dlo, dhi) where dlo/dhi are the
    exact distances to the endpoints; integrands singular at a nonzero finite
    endpoint need this form, since the boundary layer thinner than one ulp of
    the endpoint is unreachable through the absolute coordinate alone.

    f returns one value per point, or an array of shape (m, len(x)) to
    integrate m components at once.  A vector integrand shares the node map,
    the weights and whatever f computes once per chunk among all its rows
    (a Gram matrix costs one integration, not one per entry); the tail cutoff
    follows the largest term over all rows, the error estimate is taken row
    by row against that row's integral of |f| (see `QuadratureSpec`), and a
    level is accepted when every row meets the spec.  The estimate's value,
    error and converged flags are then arrays, one entry per row; a scalar
    integrand gets floats and a bool.

    The reported error is the change between the last two refinement levels.
    It bounds the true error comfortably on smooth convergent problems, but
    it can read below the true error when the integrand carries round-off
    noise: each level's nodes contain the previous level's, so noise at the
    shared nodes cancels in the difference.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not lo < hi:
        raise ValueError("integration interval is empty")
    if lo == -math.inf and hi < math.inf:
        raise ValueError("integration from -inf to a finite limit is not supported; "
                         "substitute x -> -x to integrate from the finite limit to +inf")
    if distance_form:
        call = f
    else:
        def call(x, dlo, dhi):
            return f(x)
    nodes = _de_map(lo, hi)
    h = 0.5
    prev = None
    nodes_run = 0
    for level in range(1, spec.max_refinement + 2):
        term_tol = spec.target_abs_tol * 1e-2 / (1.0 + h)
        value, scale, points = _de_level(call, nodes, h, term_tol)
        nodes_run += points
        if prev is not None:
            err = np.abs(value - prev)
            met = spec.met(err, scale)
            if np.all(met):
                break
        prev = value
        h *= 0.5
    if np.ndim(value) == 0:
        return IntegralEstimate(float(value), float(err), bool(met), level, nodes_run)
    return IntegralEstimate(value, err, met, level, nodes_run)


def quadrature_norm(f, hi: float) -> float:
    """L2 norm of f over (0, hi), to 1e-12 relative; raises if it does not converge."""
    spec = QuadratureSpec(target_abs_tol=1e-15, target_rel_tol=1e-12, max_refinement=12)
    return math.sqrt(integrate(lambda z: f(z) ** 2, 0.0, hi, spec).require_converged())


# -- closed-form evaluation ----------------------------------------------------


def power_sum(coeffs, p, q, deg: int):
    """sum_k coeffs[k] p^k q^(deg-k) by homogeneous Horner; scalars or arrays.

    `deg` is explicit because it may exceed len(coeffs) - 1: a `Polynomial`
    trims vanishing leading coefficients, but the terms it drops still fix the
    power of q in every term that remains.  Each coefficient costs two
    multiplications and one addition per point.
    """
    m = len(coeffs)
    if m > deg + 1:
        raise ValueError("a homogeneous form of degree deg has at most deg + 1 coefficients")
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    qpow = q ** (deg - m + 1)
    acc = coeffs[-1] * qpow
    for c in reversed(coeffs[:-1]):
        qpow *= q
        acc *= p
        acc += c * qpow
    return acc


# -- sampled functions on uniform grids ---------------------------------------


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function values on a uniform grid."""

    z: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.z.shape != self.values.shape or self.z.ndim != 1:
            raise ValueError("grid and values must be 1-d arrays of equal length")

    @property
    def step(self) -> float:
        return float(self.z[1] - self.z[0])

    def norm(self) -> float:
        """Discrete L2 norm with weight h."""
        return math.sqrt(self.step * float(np.sum(self.values**2)))

    def unit_normalized(self) -> "SampledFunction":
        return SampledFunction(self.z, self.values / self.norm())


def interior_grid(n: int, domain) -> np.ndarray:
    """The n interior points lo + h*k, k = 1..n, with step h = (hi - lo)/(n + 1)."""
    lo, hi = float(domain[0]), float(domain[1])
    h = (hi - lo) / (n + 1)
    return lo + h * np.arange(1, n + 1)


def safe_grid(n: int, domain=(0.0, math.pi), margin: int = 10) -> np.ndarray:
    """`interior_grid` keeping `margin` steps clear of both endpoints.

    Returned points run from lo + margin*h to hi - margin*h inclusive.
    """
    if margin < 1:
        raise ValueError("margin must be at least one step; use interior_grid for the full grid")
    z = interior_grid(n, domain)[margin - 1:n + 1 - margin]
    if z.size < 5:
        raise ValueError("grid too small for the requested margin")
    return z


def sample(f, z: np.ndarray) -> SampledFunction:
    return SampledFunction(z, np.asarray(f(z), dtype=float))


# -- finite-difference Hamiltonian and eigensolvers ---------------------------


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix from the 3-point Dirichlet discretization."""

    diag: np.ndarray
    offdiag: np.ndarray
    step: float
    z0: float

    def __post_init__(self):
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one shorter than diag")

    @property
    def dimension(self) -> int:
        return len(self.diag)

    @property
    def grid(self) -> np.ndarray:
        return self.z0 + self.step * np.arange(self.dimension)


def fdm_hamiltonian(v, n: int, domain) -> TridiagonalOperator:
    """Discretize -d^2/dz^2 + v(z) on n interior points with Dirichlet walls.

    Truncation error is O(h^2).  v must be finite at every grid point.
    """
    if n < 16:
        raise ValueError("need at least 16 interior points")
    z = interior_grid(n, domain)
    h = (float(domain[1]) - float(domain[0])) / (n + 1)
    vz = np.asarray(v(z), dtype=float)
    if not np.all(np.isfinite(vz)):
        raise ValueError("potential is not finite on the interior grid")
    diag = 2.0 / h**2 + vz
    off = np.full(n - 1, -1.0 / h**2)
    return TridiagonalOperator(diag=diag, offdiag=off, step=h, z0=float(z[0]))


def _sturm_counts(d: np.ndarray, e2: np.ndarray, shifts: np.ndarray, pivmin: float) -> np.ndarray:
    """Number of eigenvalues strictly below each shift (LDL pivot sign counts).

    Runs the pivot recurrence q_i = (d_i - x) - e2_{i-1}/q_{i-1} for all
    shifts at once, _STURM_ROWS rows at a time.  A pivot smaller than pivmin
    is replaced by -pivmin; a block is first run without that guard and,
    when any of its pivots needs it, run again row by row with it, so each
    count equals the one-shift recurrence exactly.
    """
    n, width = len(d), len(shifts)
    block = np.empty((_STURM_ROWS, width))      # pivots of the current block
    dx = np.empty((_STURM_ROWS, width))         # d_i - x for the current block
    magnitudes = np.empty((_STURM_ROWS, width))
    incoming = np.ones(width)                   # pivot before the block
    counts = np.zeros(width, dtype=np.intp)
    q_rows, dx_rows = list(block), list(dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, _STURM_ROWS):
            m = min(_STURM_ROWS, n - start)
            np.subtract(d[start:start + m, None], shifts, out=dx[:m])
            # the first row divides 0 by the initial pivot 1, subtracting 0
            ratios = e2[start - 1:start + m - 1].tolist() if start else [0.0, *e2[: m - 1].tolist()]
            q = incoming
            for r, dxr, qr in zip(ratios, dx_rows, q_rows):
                np.divide(r, q, out=qr)
                np.subtract(dxr, qr, out=qr)
                q = qr
            mags = np.abs(block[:m], out=magnitudes[:m])
            if not mags.min() >= pivmin:        # also true when a pivot is nan
                q = incoming
                for r, dxr, qr in zip(ratios, dx_rows, q_rows):
                    np.divide(r, q, out=qr)
                    np.subtract(dxr, qr, out=qr)
                    qr[np.abs(qr) < pivmin] = -pivmin
                    q = qr
            counts += np.count_nonzero(block[:m] < 0.0, axis=0)
            np.copyto(incoming, q)
    return counts


def eigenvalues_sturm(op: TridiagonalOperator, k: int) -> list:
    """k smallest eigenvalues by Sturm-sequence multisection.

    Deterministic; robust against the huge diagonal spread produced by
    singular potentials near the walls.  All k brackets start from the
    Gershgorin interval; each sweep spreads _STURM_SHIFTS shifts over the
    brackets still open, counts eigenvalues below every shift at once and
    narrows each bracket to the two neighbouring shifts whose counts enclose
    its index.  A bracket closes at an absolute width of 1e-10 times its own
    scale, not the spectral bound, so small low-lying eigenvalues keep full
    relative accuracy; its midpoint is returned.
    """
    n = op.dimension
    if not 1 <= k <= n:
        raise ValueError("eigenvalue count out of range")
    d = np.asarray(op.diag, dtype=float)
    e = np.abs(np.asarray(op.offdiag, dtype=float))
    e2 = e * e
    radius = np.zeros(n)
    radius[:-1] += e
    radius[1:] += e
    lo = np.full(k, float(np.min(d - radius)))
    hi = np.full(k, float(np.max(d + radius)))
    pivmin = max(_SAFMIN * float(e2.max(initial=0.0)), _SAFMIN)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi) & (hi - lo > 1e-10 * np.maximum(1.0, np.abs(mid)))
        if not open_.any():
            return mid.tolist()
        # eigenvalues sharing a bracket share its shifts
        brackets = list(dict.fromkeys(zip(lo[open_].tolist(), hi[open_].tolist())))[:_STURM_SHIFTS]
        ends = np.array(brackets)
        per = _STURM_SHIFTS // len(brackets)
        grid = ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * (np.arange(1, per + 1) / (per + 1))
        counts = _sturm_counts(d, e2, grid.ravel(), pivmin).reshape(grid.shape)
        row_of = {bracket: row for row, bracket in enumerate(brackets)}
        for j in np.nonzero(open_)[0]:
            row = row_of.get((lo[j], hi[j]))
            if row is None:
                continue
            above = counts[row] > j             # count >= j + 1, the eigenvalue's index
            i = int(np.argmax(above)) if above.any() else per
            if i:
                lo[j] = grid[row, i - 1]
            if i < per:
                hi[j] = grid[row, i]


def _solve_shifted(d: np.ndarray, e: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (T - shift I) x = rhs by LU with partial pivoting.

    Row swaps introduce a second superdiagonal; that is the only fill-in.
    The element-by-element sweeps run over Python lists, which index far
    faster than numpy arrays and round the same.
    """
    n = len(d)
    a = (d - shift).astype(float).tolist()   # diagonal
    e = e.tolist()
    b = e + [0.0]                            # first superdiagonal, b[i] = A[i, i+1]
    c = [0.0] * n                            # second superdiagonal fill-in
    x = rhs.astype(float).tolist()
    for i in range(n - 1):
        sub = e[i]                     # A[i+1, i], untouched until this step
        if abs(sub) > abs(a[i]):
            a[i], sub = sub, a[i]
            b[i], a[i + 1] = a[i + 1], b[i]
            c[i], b[i + 1] = b[i + 1], c[i]
            x[i], x[i + 1] = x[i + 1], x[i]
        piv = a[i] if a[i] != 0.0 else 1e-300
        a[i] = piv
        factor = sub / piv
        a[i + 1] -= factor * b[i]
        b[i + 1] -= factor * c[i]
        x[i + 1] -= factor * x[i]
    if a[n - 1] == 0.0:
        a[n - 1] = 1e-300
    x[n - 1] /= a[n - 1]
    if n >= 2:
        x[n - 2] = (x[n - 2] - b[n - 2] * x[n - 1]) / a[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - b[i] * x[i + 1] - c[i] * x[i + 2]) / a[i]
    return np.array(x)


def _fix_sign(values: np.ndarray) -> np.ndarray:
    """Flip the overall sign so the first robust extremum is positive."""
    mag = np.abs(values)
    thr = 1e-3 * float(np.max(mag))
    interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]) & (mag[1:-1] > thr)
    idx = np.nonzero(interior)[0]
    pivot = int(idx[0]) + 1 if idx.size else int(np.argmax(mag))
    return -values if values[pivot] < 0 else values


def eigenvector_inverse_iteration(op: TridiagonalOperator, lam: float) -> SampledFunction:
    """Unit-normalized eigenvector for an eigenvalue estimate lam.

    Discrete L2 normalization with weight h.  Raises after 50 stagnating
    iterations; in practice two or three suffice once lam is accurate.
    """
    d = np.asarray(op.diag, dtype=float)
    e = np.asarray(op.offdiag, dtype=float)
    n = op.dimension
    v = np.ones(n) / math.sqrt(op.step * n)
    for _ in range(50):
        w = _solve_shifted(d, e, lam, v)
        w = w / math.sqrt(op.step * float(np.sum(w * w)))
        if min(float(np.max(np.abs(w - v))), float(np.max(np.abs(w + v)))) < 1e-11:
            return SampledFunction(op.grid, _fix_sign(w))
        v = w
    raise RuntimeError("inverse iteration stagnated after 50 steps")


def fdm_eigenvalues(v, n: int, domain, k: int) -> tuple:
    """Lowest k eigenvalues of -d^2/dz^2 + v via the FDM oracle: (coarse, fine, refined).

    coarse and fine come from n and 2n+1 interior points, whose steps differ
    by exactly a factor two; refined is their Richardson combination, which
    removes the O(h^2) truncation term.
    """
    coarse = eigenvalues_sturm(fdm_hamiltonian(v, n, domain), k)
    fine = eigenvalues_sturm(fdm_hamiltonian(v, 2 * n + 1, domain), k)
    return coarse, fine, [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
