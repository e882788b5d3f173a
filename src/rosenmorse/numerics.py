"""Independent numerical oracles.

Two workhorses live here: adaptive quadrature (double-exponential by default,
composite Gauss-Legendre as an alternative) and a finite-difference
eigensolver for one-dimensional Hamiltonians (3-point Dirichlet
discretization, Sturm-sequence multisection, inverse iteration for
eigenvectors).  Everything is deterministic and pure.
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
    """Scheme selection and convergence targets for `integrate`.

    Convergence is reached when the level-to-level change drops below
    max(target_abs_tol, target_rel_tol * |value|); the relative target is off
    by default and useful when the integral's scale is not known in advance.
    """

    scheme: str = "double_exponential"
    target_abs_tol: float = 1e-10
    max_refinement: int = 10
    target_rel_tol: float = 0.0

    def __post_init__(self):
        if self.scheme not in ("double_exponential", "gauss_legendre"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if not self.target_abs_tol > 0:
            raise ValueError("target_abs_tol must be positive")
        if self.max_refinement < 1:
            raise ValueError("max_refinement must be at least 1")
        if self.target_rel_tol < 0:
            raise ValueError("target_rel_tol must be non-negative")

    def met(self, err: float, value: float) -> bool:
        return err <= max(self.target_abs_tol, self.target_rel_tol * abs(value))


@dataclass(frozen=True)
class IntegralEstimate:
    """Quadrature value with a conservative error estimate."""

    value: float
    error: float
    converged: bool

    def require_converged(self) -> float:
        if not self.converged:
            raise RuntimeError(f"quadrature did not converge (error estimate {self.error:.3e})")
        return self.value


def _de_map(lo: float, hi: float):
    """Node maps for the double-exponential transform.

    Returns a function t -> (x, dlo, dhi, dx) where dlo/dhi are the exact
    distances to the endpoints.  Near a nonzero finite endpoint the absolute
    coordinate x saturates at one ulp, so integrands that are singular there
    must work from the distances (see `integrate(distance_form=True)`); the
    distances themselves stay meaningful down to ~1e-300.
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

    elif lo_fin and not hi_fin:
        tiny_lo = 4.0 * np.finfo(float).eps * abs(lo)

        def nodes(t):
            w = np.exp(0.5 * np.pi * np.sinh(t))
            x = lo + np.maximum(w, tiny_lo)
            return x, w, np.full_like(w, inf), w * 0.5 * np.pi * np.cosh(t)

    elif hi_fin and not lo_fin:
        tiny_hi = 4.0 * np.finfo(float).eps * abs(hi)

        def nodes(t):
            w = np.exp(0.5 * np.pi * np.sinh(t))
            x = hi - np.maximum(w, tiny_hi)
            return x, np.full_like(w, inf), w, w * 0.5 * np.pi * np.cosh(t)

    else:

        def nodes(t):
            w = 0.5 * np.pi * np.sinh(t)
            x = np.sinh(w)
            grow = np.full_like(w, inf)
            return x, grow, grow, np.cosh(w) * 0.5 * np.pi * np.cosh(t)

    return nodes


def _de_level(call, nodes, h: float, term_tol: float) -> float:
    """Trapezoid sum over the transformed line at spacing h.

    Works outward from t = 0 in chunks and stops a side once two consecutive
    chunks contribute only terms below term_tol; the double-exponential decay
    of the transformed integrand makes the discarded tail negligible.

    Coarse levels on unbounded domains can push nodes so far out that the
    integrand overflows before its weight kills the product; such a level
    reports nan and is simply superseded by deeper levels, whose chunk
    cutoff stops well inside the representable range.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        x0, dlo0, dhi0, dx0 = nodes(np.zeros(1))
        total = float(np.asarray(call(x0, dlo0, dhi0), dtype=float)[0] * dx0[0])
        for sign in (1.0, -1.0):
            j = 1
            quiet = 0
            while j * h <= _T_MAX and quiet < 2:
                t = sign * h * np.arange(j, j + _BLOCK)
                t = t[np.abs(t) <= _T_MAX]
                if t.size == 0:
                    break
                x, dlo, dhi, dx = nodes(t)
                terms = np.asarray(call(x, dlo, dhi), dtype=float) * dx
                peak = float(np.max(np.abs(terms)))
                if not math.isfinite(peak):
                    return math.nan
                total += float(np.sum(terms))
                quiet = quiet + 1 if peak < term_tol else 0
                j += _BLOCK
    return h * total


def _integrate_de(call, lo, hi, spec):
    nodes = _de_map(lo, hi)
    h = 0.5
    prev = None
    value = err = math.nan
    for _ in range(spec.max_refinement + 1):
        term_tol = spec.target_abs_tol * 1e-2 / (1.0 + h)
        value = _de_level(call, nodes, h, term_tol)
        if prev is not None:
            err = abs(value - prev)
            if spec.met(err, value):
                return IntegralEstimate(value, err, True)
        prev = value
        h *= 0.5
    return IntegralEstimate(value, err, False)


def _integrate_gauss(call, lo, hi, spec):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("gauss_legendre scheme requires a finite interval")
    xg, wg = np.polynomial.legendre.leggauss(16)
    prev = None
    value = err = math.nan
    for level in range(spec.max_refinement + 1):
        panels = 2**level
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        w = (half[:, None] * wg[None, :]).ravel()
        value = float(np.sum(w * np.asarray(call(x, x - lo, hi - x), dtype=float)))
        if prev is not None:
            err = abs(value - prev)
            if spec.met(err, value):
                return IntegralEstimate(value, err, True)
        prev = value
    return IntegralEstimate(value, err, False)


def integrate(
    f,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    distance_form: bool = False,
) -> IntegralEstimate:
    """Integrate f over (lo, hi); endpoints may be infinite for the DE scheme.

    Plain form: f(x) with x a numpy array of interior points.  With
    distance_form=True, f is called as f(x, dlo, dhi) where dlo/dhi are the
    exact distances to the endpoints; integrands singular at a nonzero finite
    endpoint need this form, since the boundary layer thinner than one ulp of
    the endpoint is unreachable through the absolute coordinate alone.

    The reported error is the change between the last two refinement levels,
    which bounds the true error comfortably on convergent problems.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not lo < hi:
        raise ValueError("integration interval is empty")
    if distance_form:
        call = f
    else:
        def call(x, dlo, dhi):
            return f(x)
    if spec.scheme == "gauss_legendre":
        return _integrate_gauss(call, lo, hi, spec)
    return _integrate_de(call, lo, hi, spec)


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


def safe_grid(n: int, domain=(0.0, math.pi), margin: int = 10) -> np.ndarray:
    """Uniform interior grid keeping `margin` steps clear of both endpoints.

    Step h = (hi - lo)/(n + 1); returned points run from lo + margin*h to
    hi - margin*h inclusive.
    """
    lo, hi = domain
    h = (hi - lo) / (n + 1)
    idx = np.arange(margin, n + 2 - margin)
    if idx.size < 5:
        raise ValueError("grid too small for the requested margin")
    return lo + h * idx


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
    lo, hi = float(domain[0]), float(domain[1])
    h = (hi - lo) / (n + 1)
    z = lo + h * np.arange(1, n + 1)
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
    """
    n = len(d)
    a = (d - shift).astype(float)      # diagonal
    b = np.zeros(n)                    # first superdiagonal, b[i] = A[i, i+1]
    b[: n - 1] = e
    c = np.zeros(n)                    # second superdiagonal fill-in
    x = rhs.astype(float).copy()
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
    return x


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


def fdm_eigenvalues(v, n: int, domain, k: int, refine: bool = True) -> list:
    """Lowest k eigenvalues of -d^2/dz^2 + v via the FDM oracle.

    With refine=True the O(h^2) eigenvalues at n and 2n+1 interior points are
    Richardson-combined, removing the leading truncation term.
    """
    coarse = eigenvalues_sturm(fdm_hamiltonian(v, n, domain), k)
    if not refine:
        return coarse
    fine = eigenvalues_sturm(fdm_hamiltonian(v, 2 * n + 1, domain), k)
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
