"""Independent oracles for the test suite.

Everything here is computed from standard identities (three-term recurrences,
terminating sums, antiderivatives, characteristic polynomials, the one-shift
Sturm recurrence) and never goes through the generation engine or solvers it
is used to check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rosenmorse.polycore import Polynomial

X = Polynomial((0, 1))
ONE = Polynomial((1,))


def _recurrence(m, p0, p1, step):
    """Run a three-term recurrence p_{k+1} = step(k, p_k, p_{k-1})."""
    if m == 0:
        return p0
    prev, cur = p0, p1
    for k in range(1, m):
        prev, cur = cur, step(k, cur, prev)
    return cur


def legendre_rec(m: int) -> Polynomial:
    # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
    return _recurrence(
        m, ONE, X,
        lambda k, cur, prev: Fraction(1, k + 1) * ((2 * k + 1) * (X * cur) - k * prev),
    )


def hermite_rec(m: int) -> Polynomial:
    # H_{k+1} = 2x H_k - 2k H_{k-1}
    return _recurrence(
        m, ONE, Polynomial((0, 2)),
        lambda k, cur, prev: 2 * (X * cur) - (2 * k) * prev,
    )


def laguerre_rec(m: int, nu) -> Polynomial:
    # (k+1) L_{k+1} = (2k+nu+1-x) L_k - (k+nu) L_{k-1}
    nu = Fraction(nu)
    return _recurrence(
        m, ONE, Polynomial((1 + nu, -1)),
        lambda k, cur, prev: Fraction(1, k + 1)
        * (Polynomial((2 * k + nu + 1, -1)) * cur - (k + nu) * prev),
    )


def jacobi_rec(m: int, nu, mu) -> Polynomial:
    # 2k(k+s)(2k+s-2) P_k = (2k+s-1)[(2k+s)(2k+s-2)x + nu^2-mu^2] P_{k-1}
    #                        - 2(k+nu-1)(k+mu-1)(2k+s) P_{k-2},   s = nu+mu
    nu, mu = Fraction(nu), Fraction(mu)
    s = nu + mu
    p1 = Polynomial(((nu - mu) / 2, (s + 2) / 2))

    def step(k, cur, prev):
        k = k + 1  # recurrence indexed by the member being produced
        c = 2 * k * (k + s) * (2 * k + s - 2)
        mid = (2 * k + s - 1) * (Polynomial((nu**2 - mu**2, (2 * k + s) * (2 * k + s - 2))) * cur)
        low = 2 * (k + nu - 1) * (k + mu - 1) * (2 * k + s) * prev
        return Fraction(1, c) * (mid - low)

    return _recurrence(m, ONE, p1, step)


def gegenbauer_rec(m: int, lam) -> Polynomial:
    # k C_k = 2x(k+lam-1) C_{k-1} - (k+2lam-2) C_{k-2}
    lam = Fraction(lam)

    def step(k, cur, prev):
        k = k + 1
        return Fraction(1, k) * (2 * (k + lam - 1) * (X * cur) - (k + 2 * lam - 2) * prev)

    return _recurrence(m, ONE, Polynomial((0, 2 * lam)), step)


def chebyshev1_rec(m: int) -> Polynomial:
    return _recurrence(m, ONE, X, lambda k, cur, prev: 2 * (X * cur) - prev)


def chebyshev2_rec(m: int) -> Polynomial:
    return _recurrence(m, ONE, Polynomial((0, 2)), lambda k, cur, prev: 2 * (X * cur) - prev)


def proportional(p: Polynomial, q: Polynomial) -> bool:
    """Exact proportionality by cross-multiplication with the leading coefficients."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    if p.degree != q.degree:
        return False
    return p * q.leading == q * p.leading


# -- hand-expanded closed forms of the lowest cotangent-family polynomials ----
# Obtained by expanding the defining (n-1)-fold derivative for n <= 5 and
# verified independently by symbolic differentiation; used to pin the engine.


def reference_cot_poly(n: int, a, b) -> Polynomial:
    a, b = Fraction(a), Fraction(b)
    if n == 1:
        return ONE
    if n == 2:
        return Polynomial((2 * b / (2 + a), -2 * (1 + a)))
    if n == 3:
        return Polynomial((
            2 * (2 * b**2 / (3 + a) ** 2 - (1 + a)),
            -4 * (2 * a + 3) * b / (3 + a),
            2 * (1 + a) * (2 * a + 3),
        ))
    if n == 4:
        return Polynomial((
            4 * (2 * b**3 / (4 + a) ** 3 - (3 * a + 4) * b / (4 + a)),
            -12 * (2 + a) * (2 * b**2 / (4 + a) ** 2 - (1 + a)),
            12 * (a + 2) * (2 * a + 3) * b / (4 + a),
            -4 * (1 + a) * (2 * a + 3) * (2 + a),
        ))
    if n == 5:
        return Polynomial((
            4 * (4 * b**4 / (5 + a) ** 4 - 4 * b**2 / (5 + a) ** 2 * (3 * a + 5) + 3 * (2 + a) * (1 + a)),
            -16 * (2 * a + 5) * (2 * b**3 / (5 + a) ** 3 - (3 * a + 4) * b / (5 + a)),
            24 * (2 + a) * (2 * a + 5) * (2 * b**2 / (5 + a) ** 2 - (1 + a)),
            -16 * (2 * a + 3) * (2 + a) * (2 * a + 5) * b / (5 + a),
            4 * (1 + a) * (2 * a + 3) * (2 + a) * (2 * a + 5),
        ))
    raise ValueError("reference closed forms cover n = 1..5 only")


# -- characteristic-polynomial eigenvalue oracle ------------------------------


def charpoly_eigenvalues(diag, offdiag) -> list:
    """All eigenvalues of a small symmetric tridiagonal matrix.

    Builds det(T - x I) exactly through the leading-minor recurrence, then
    locates its real roots by sign-change bracketing plus bisection with
    exact rational sign evaluation.  Assumes simple eigenvalues, which holds
    almost surely for the random matrices this oracle is applied to.
    """
    d = [Fraction(x) for x in diag]      # exact: binary floats convert losslessly
    e = [Fraction(x) for x in offdiag]
    n = len(d)
    minors = [ONE, Polynomial((d[0],)) - X]
    for i in range(1, n):
        minors.append((Polynomial((d[i],)) - X) * minors[i] - (e[i - 1] ** 2) * minors[i - 1])
    p = minors[n]

    lo = min(float(di) - rad for di, rad in zip(d, _radii(e, n)))
    hi = max(float(di) + rad for di, rad in zip(d, _radii(e, n)))
    span = max(hi - lo, 1e-9)
    lo, hi = lo - 0.01 * span, hi + 0.01 * span

    samples = 8 * n + 1
    for _ in range(8):
        xs = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
        signs = [_sign(p(Fraction(x))) for x in xs]
        brackets = [
            (xs[i], xs[i + 1])
            for i in range(samples - 1)
            if signs[i] * signs[i + 1] < 0 or signs[i] == 0
        ]
        if len(brackets) >= n:
            break
        samples = 2 * samples - 1
    assert len(brackets) == n, "oracle failed to isolate all eigenvalues"

    roots = []
    for a, b in brackets:
        fa = _sign(p(Fraction(a)))
        if fa == 0:
            roots.append(a)
            continue
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = _sign(p(Fraction(m)))
            if fm == 0:
                a = b = m
                break
            if fa * fm < 0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    return roots


def _radii(e, n):
    return [
        (abs(float(e[i - 1])) if i > 0 else 0.0) + (abs(float(e[i])) if i < n - 1 else 0.0)
        for i in range(n)
    ]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# -- Sturm counts and sign changes --------------------------------------------


def sturm_count(d, e2, x: float, pivmin: float) -> int:
    """Number of eigenvalues strictly below x (LDL pivot sign count), one row at a time.

    Reference for the vectorized counts in `rosenmorse.numerics`: a pivot
    smaller than pivmin in magnitude is replaced by -pivmin.
    """
    count = 0
    q = 1.0
    for i in range(len(d)):
        q = d[i] - x - (e2[i - 1] / q if i else 0.0)
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def count_sign_changes(values, rel_threshold: float = 1e-9) -> int:
    """Sign changes of a sampled function, ignoring values below a noise floor."""
    v = np.asarray(values, dtype=float)
    big = v[np.abs(v) > rel_threshold * np.max(np.abs(v))]
    return int(np.sum(np.sign(big[1:]) * np.sign(big[:-1]) < 0))


def count_zeros(f, lo: float, hi: float, samples: int = 2001) -> int:
    """Interior zeros of a callable, counted as sign changes on a uniform grid."""
    v = np.asarray(f(np.linspace(lo, hi, samples)), dtype=float)
    return int(np.sum(np.sign(v[1:]) * np.sign(v[:-1]) < 0))
