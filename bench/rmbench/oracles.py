"""Independent oracles for the benchmark's correctness checks.

Nothing here imports `rosenmorse`.  Every reference value is rebuilt from a
standard identity on plain data (lists of `Fraction` coefficients, numpy
arrays, mpmath numbers): exact ODE residuals, classical three-term
recurrences, the hypergeometric form of the Jacobi polynomial, the exact
level formula, a closed-form norm, a composite Gauss-Legendre rule owned by
the benchmark and high-precision quadrature and evaluation.

Each `check_*` function raises `CheckFailed` when the program's output is
wrong and otherwise returns the worst relative deviation it saw, which the
harness turns into `accuracy_digits`.  Exact checks return 0.0.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with an independent oracle."""


# -- exact polynomial arithmetic on coefficient lists (index = power) ---------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(*polys):
    out = [Fraction(0)] * max((len(p) for p in polys), default=0)
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    return _trim(out)


def pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def pscale(p, k):
    return _trim([k * c for c in p])


def pdiff(p):
    return _trim([i * c for i, c in enumerate(p) if i])


def exact_coeffs(coeffs):
    """Program coefficients as a trimmed list of Fractions; floats are rejected."""
    out = []
    for c in coeffs:
        if isinstance(c, float):
            raise CheckFailed(f"expected an exact coefficient, got float {c!r}")
        out.append(Fraction(c))
    return _trim(out)


def ode_residual(s, first, zeroth, c):
    """Exact residual s C'' + first C' + zeroth C for coefficient lists."""
    dc = pdiff(c)
    return padd(pmul(s, pdiff(dc)), pmul(first, dc), pmul(zeroth, c))


# -- trigonometric Rosen-Morse polynomials C_n --------------------------------


def trm_ode(n, a, b):
    """Coefficients (s, first, zeroth) of the cot-variable equation for C_n.

    Substituting R_n = exp(-b z/(n+a)) sin^{n+a} z C_n(cot z) into
    -R'' + v R = eps_n R gives
        (1+x^2) C'' + (2b/(n+a) + 2(1-n-a) x) C' + (n-1)(n+2a) C = 0.
    """
    na = n + a
    return [1, 0, 1], [2 * b / na, 2 * (1 - na)], [(n - 1) * (n + 2 * a)]


def check_trm_polynomial(coeffs, n, a, b) -> float:
    """C_n has degree n-1, a positive leading coefficient and a zero ODE residual."""
    c = exact_coeffs(coeffs)
    if len(c) != n:
        raise CheckFailed(f"C_{n} at a={a} b={b}: degree {len(c) - 1}, expected {n - 1}")
    if c[-1] <= 0:
        raise CheckFailed(f"C_{n} at a={a} b={b}: leading coefficient not positive")
    if ode_residual(*trm_ode(n, a, b), c):
        raise CheckFailed(f"C_{n} at a={a} b={b}: nonzero exact ODE residual")
    return 0.0


# -- classical families by three-term recurrence ------------------------------

X = [Fraction(0), Fraction(1)]


def _recurrence(m, p0, p1, step):
    if m == 0:
        return p0
    prev, cur = p0, p1
    for k in range(1, m):
        prev, cur = cur, step(k, cur, prev)
    return cur


def classical_reference(family, params, m):
    """Member m of a classical family from its three-term recurrence (DLMF 18.9)."""
    one = [Fraction(1)]
    if family == "hermite":
        return _recurrence(m, one, [0, 2], lambda k, c, p: padd(pmul([0, 2], c), pscale(p, -2 * k)))
    if family == "laguerre":
        (nu,) = params
        return _recurrence(
            m, one, [1 + nu, -1],
            lambda k, c, p: pscale(padd(pmul([2 * k + nu + 1, -1], c), pscale(p, -(k + nu))), Fraction(1, k + 1)),
        )
    if family == "jacobi":
        nu, mu = params
        s = nu + mu

        def step(k, c, p):
            k += 1  # produces P_k from P_{k-1}, P_{k-2}
            lin = [(2 * k + s - 1) * (nu * nu - mu * mu), (2 * k + s - 1) * (2 * k + s) * (2 * k + s - 2)]
            num = padd(pmul(lin, c), pscale(p, -2 * (k + nu - 1) * (k + mu - 1) * (2 * k + s)))
            return pscale(num, Fraction(1) / (2 * k * (k + s) * (2 * k + s - 2)))

        return _recurrence(m, one, [(nu - mu) / 2, (s + 2) / 2], step)
    if family == "gegenbauer":
        (lam,) = params
        return _recurrence(
            m, one, [0, 2 * lam],
            lambda k, c, p: pscale(padd(pscale(pmul(X, c), 2 * (k + lam)), pscale(p, -(k + 2 * lam - 1))), Fraction(1, k + 1)),
        )
    if family == "legendre":
        return _recurrence(
            m, one, X,
            lambda k, c, p: pscale(padd(pscale(pmul(X, c), 2 * k + 1), pscale(p, -k)), Fraction(1, k + 1)),
        )
    if family == "chebyshev1":
        return _recurrence(m, one, X, lambda k, c, p: padd(pscale(pmul(X, c), 2), pscale(p, -1)))
    if family == "chebyshev2":
        return _recurrence(m, one, [0, 2], lambda k, c, p: padd(pscale(pmul(X, c), 2), pscale(p, -1)))
    raise CheckFailed(f"no recurrence for family {family!r}")


_LABEL = re.compile(r"^([a-z0-9]+)(?:\((.*)\))?$")


def parse_label(label):
    """'jacobi(1/2,3/2)' -> ('jacobi', (Fraction(1,2), Fraction(3,2)))."""
    match = _LABEL.match(label)
    if not match:
        raise CheckFailed(f"unrecognised preset label {label!r}")
    family, args = match.groups()
    params = tuple(Fraction(x) for x in args.split(",")) if args else ()
    return family, params


def arccot_ode(mu, c, m):
    """Romanovski (arccot) equation (1+x^2) C'' + (c + (2-2mu) x) C' - m(m+1-2mu) C = 0."""
    return [1, 0, 1], [c, 2 - 2 * mu], [-m * (m + 1 - 2 * mu)]


def check_preset_member(label, m, coeffs) -> float:
    """Member m of a preset: proportional to the recurrence, or zero ODE residual."""
    family, params = parse_label(label)
    c = exact_coeffs(coeffs)
    if not c or c[-1] <= 0:
        raise CheckFailed(f"{label} m={m}: zero polynomial or negative leading coefficient")
    if family == "arccot":
        # the Rodrigues leading coefficient prod_j (2m - j - 2mu) vanishes for
        # some m < 2mu, so only degree <= m is required here
        mu, cc = params
        if len(c) > m + 1:
            raise CheckFailed(f"{label} m={m}: degree {len(c) - 1} exceeds {m}")
        if ode_residual(*arccot_ode(mu, cc, m), c):
            raise CheckFailed(f"{label} m={m}: nonzero exact ODE residual")
        return 0.0
    if len(c) != m + 1:
        raise CheckFailed(f"{label} m={m}: degree {len(c) - 1}, expected {m}")
    ref = classical_reference(family, params, m)
    ratio = c[-1] / ref[-1]
    if len(ref) != len(c) or any(ci != ratio * ri for ci, ri in zip(c, ref)):
        raise CheckFailed(f"{label} m={m}: not proportional to the three-term recurrence")
    return 0.0


# -- Jacobi polynomials at the hyperbolic (Eckart) indices ---------------------


def jacobi_in_t(n, alpha, beta):
    """Coefficients in t = x - 1 of P_n^(alpha,beta)(1 + t).

    Hypergeometric form (alpha+1)_n/n! 2F1(-n, n+alpha+beta+1; alpha+1; -t/2),
    with (alpha+1)_n/(alpha+1)_m written as a product so no index value
    divides by zero.
    """
    out = []
    for m in range(n + 1):
        c = Fraction(1)
        for j in range(m, n):
            c *= alpha + j + 1
        for j in range(m):
            c *= Fraction(-(n - j)) * (n + alpha + beta + 1 + j)
        out.append(c / (math.factorial(n) * math.factorial(m)) * Fraction(-1, 2) ** m)
    return _trim(out)


def t_to_x(ct):
    """Re-expand sum c_m (x-1)^m in powers of x."""
    out = []
    shift = [Fraction(1)]
    for c in ct:
        out = padd(out, pscale(shift, c))
        shift = pmul(shift, [Fraction(-1), Fraction(1)])
    return out


def eckart_indices(n, a, b):
    """Jacobi indices (nu, mu) and decay rate kappa of hyperbolic level n."""
    beta = b / (n + a)
    return beta - n - a, -(beta + n + a), beta - n - a


def check_jacobi(coeffs, n, nu, mu) -> float:
    """Zero Jacobi ODE residual and equality with the hypergeometric form."""
    c = exact_coeffs(coeffs)
    s = [1, 0, -1]
    first = [mu - nu, -(nu + mu + 2)]
    if ode_residual(s, first, [n * (n + nu + mu + 1)], c):
        raise CheckFailed(f"Jacobi n={n} ({nu},{mu}): nonzero exact ODE residual")
    if c != t_to_x(jacobi_in_t(n, nu, mu)):
        raise CheckFailed(f"Jacobi n={n} ({nu},{mu}): differs from the hypergeometric form")
    return 0.0


def eckart_norm_mp(n, a, b, dps: int = 30) -> float:
    """L2 norm on (0, inf) of psi_n = (x-1)^{kappa/2} (x+1)^{-(beta+n+a)/2} P_n(x), x = coth z.

    In t = x - 1 the squared norm is
        int_0^inf t^{kappa-1} (t+2)^{-(beta+n+a)-1} P_n(1+t)^2 dt,
    integrated by mpmath tanh-sinh quadrature.
    """
    import mpmath

    nu, mu, kappa = eckart_indices(n, a, b)
    if kappa <= 0:
        raise CheckFailed(f"level n={n} at a={a} b={b} has kappa={kappa} and is not normalizable")
    with mpmath.workdps(dps):
        ct = [mpmath.mpf(c.numerator) / c.denominator for c in jacobi_in_t(n, nu, mu)]
        k1 = mpmath.mpf(kappa.numerator) / kappa.denominator - 1
        q = mpmath.mpf(-mu.numerator) / mu.denominator + 1

        def f(t):
            p = mpmath.mpf(0)
            for c in reversed(ct):
                p = p * t + c
            return t**k1 * (t + 2) ** (-q) * p * p

        val = mpmath.quad(f, [0, mpmath.mpf(1) / 4, 1, 4, 16, mpmath.inf])
        return float(mpmath.sqrt(val))


def check_eckart_norm(value, n, a, b, tol: float = 1e-8) -> float:
    ref = eckart_norm_mp(n, a, b)
    dev = abs(value - ref) / ref
    if not dev <= tol:
        raise CheckFailed(f"Eckart norm n={n} a={a} b={b}: {value!r} vs oracle {ref!r} (rel {dev:.2e})")
    return dev


# -- finite-difference oracle --------------------------------------------------


def trm_energy(n, a, b) -> Fraction:
    """eps_n = (n+a)^2 - b^2/(n+a)^2, exact."""
    na = n + a
    return na * na - b * b / (na * na)


def check_fdm_spectrum(coarse, fine, a, b, rel_tol: float = 1e-5) -> float:
    """Richardson-combined FDM levels against eps_n, with O(h^2) convergence order.

    `coarse` and `fine` come from grids with steps h and h/2.  The deviation
    is taken relative to (n+a)^2 + b^2/(n+a)^2, the size of the two terms of
    eps_n, so that levels near zero energy do not dominate.
    """
    if len(coarse) != len(fine) or not coarse:
        raise CheckFailed("coarse and fine level lists differ in length")
    worst = 0.0
    for n, (c, f) in enumerate(zip(coarse, fine), start=1):
        exact = trm_energy(n, a, b)
        e = float(exact)
        scale = float((n + a) ** 2 + b * b / (n + a) ** 2)
        dev = abs((4.0 * f - c) / 3.0 - e) / scale
        if not dev <= rel_tol:
            raise CheckFailed(f"FDM level {n}: Richardson value off by {dev:.2e} (relative)")
        if c == e or f == e:
            raise CheckFailed(f"FDM level {n}: grid value equals the exact level, no order measurable")
        order = math.log2(abs(c - e) / abs(f - e))
        if not 1.8 <= order <= 2.2:
            raise CheckFailed(f"FDM level {n}: convergence order {order:.3f} outside [1.8, 2.2]")
        worst = max(worst, dev)
    return worst


def trm_potential_values(a, b, z):
    af, bf = float(a), float(b)
    return -2.0 * bf / np.tan(z) + af * (af + 1.0) / np.sin(z) ** 2


def check_fdm_operator(diag, offdiag, a, b, n_interior, rel_tol: float = 1e-12) -> float:
    """3-point Dirichlet matrix of -d^2/dz^2 + v on (0, pi) rebuilt from scratch."""
    h = math.pi / (n_interior + 1)
    z = h * np.arange(1, n_interior + 1)
    ref_diag = 2.0 / h**2 + trm_potential_values(a, b, z)
    diag, offdiag = np.asarray(diag), np.asarray(offdiag)
    if diag.shape != ref_diag.shape or offdiag.shape != (n_interior - 1,):
        raise CheckFailed("FDM operator has the wrong dimension")
    dev = max(
        float(np.max(np.abs(diag - ref_diag) / np.abs(ref_diag))),
        float(np.max(np.abs(offdiag * h * h + 1.0))),
    )
    if not dev <= rel_tol:
        raise CheckFailed(f"FDM operator entries off by {dev:.2e} (relative)")
    return dev


def sign_changes(values, rel_floor: float = 1e-6) -> int:
    v = np.asarray(values, dtype=float)
    big = v[np.abs(v) > rel_floor * np.max(np.abs(v))]
    return int(np.count_nonzero(np.sign(big[1:]) != np.sign(big[:-1])))


def check_eigenvector(diag, offdiag, lam, vec, level, rel_tol: float = 1e-6) -> float:
    """||(T - lam) v|| / (||v|| max(1, |lam|)) small, and level-1 sign changes."""
    d, e, v = np.asarray(diag), np.asarray(offdiag), np.asarray(vec, dtype=float)
    tv = d * v
    tv[:-1] += e * v[1:]
    tv[1:] += e * v[:-1]
    res = float(np.linalg.norm(tv - lam * v) / (np.linalg.norm(v) * max(1.0, abs(lam))))
    if not res <= rel_tol:
        raise CheckFailed(f"eigenvector {level}: residual {res:.2e} (relative)")
    changes = sign_changes(v)
    if changes != level - 1:
        raise CheckFailed(f"eigenvector {level}: {changes} sign changes, expected {level - 1}")
    return res


# -- wave functions and norms -----------------------------------------------------


def composite_gauss_legendre(lo, hi, panels, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on (lo, hi)."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def check_gram(values, weights, tol: float = 1e-8) -> float:
    """Rows of `values` are orthonormal on the benchmark's quadrature rule."""
    v = np.asarray(values, dtype=float)
    gram = (v * weights) @ v.T
    dev = float(np.max(np.abs(gram - np.eye(len(v)))))
    if not dev <= tol:
        raise CheckFailed(f"Gram matrix differs from I by {dev:.2e}")
    return dev


def trm_knorm_a0(b, n) -> float:
    """Closed-form L2 norm of the raw level-n state at a = 0:
    K_n^2 = (n!)^2 n^3 (1 - exp(-2 pi b/n)) / (4 b (b^2 + n^4))."""
    bf = float(b)
    log_k2 = (
        2.0 * math.lgamma(n + 1) + 3.0 * math.log(n) + math.log(-math.expm1(-2.0 * math.pi * bf / n))
        - math.log(4.0 * bf * (bf * bf + float(n) ** 4))
    )
    return math.exp(0.5 * log_k2)


def check_closed_form_norm(value, b, n, tol: float = 1e-12) -> float:
    ref = trm_knorm_a0(b, n)
    dev = abs(value - ref) / ref
    if not dev <= tol:
        raise CheckFailed(f"a=0 norm n={n} b={b}: {value!r} vs closed form {ref!r} (rel {dev:.2e})")
    return dev


def trm_raw_mp(coeffs, n, a, b, z, dps: int = 50):
    """Raw R_n(z) = exp(-b z/(n+a)) sin^{n+a} z C_n(cot z) in dps-digit arithmetic."""
    import mpmath

    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in exact_coeffs(coeffs)]
        am = mpmath.mpf(a.numerator) / a.denominator
        rate = (mpmath.mpf(b.numerator) / b.denominator) / (n + am)
        out = []
        for zz in z:
            zm = mpmath.mpf(float(zz))
            s = mpmath.sin(zm)
            x = mpmath.cos(zm) / s
            acc = mpmath.mpf(0)
            for c in reversed(cs):
                acc = acc * x + c
            out.append(float(mpmath.exp(-rate * zm) * s ** (n + am) * acc))
    return np.array(out)


def check_high_precision(raw_values, coeffs, n, a, b, z, tol: float = 1e-8) -> float:
    """Float evaluation against the 50-digit one, relative to the state's maximum modulus."""
    ref = trm_raw_mp(coeffs, n, a, b, z)
    dev = float(np.max(np.abs(np.asarray(raw_values) - ref)) / np.max(np.abs(ref)))
    if not dev <= tol:
        raise CheckFailed(f"R_{n} at a={a} b={b}: float evaluation off by {dev:.2e} of its maximum")
    return dev


# -- verify suites ----------------------------------------------------------------

_FIGURE = re.compile(r"=\s*([-+]?\d+(?:\.\d+)?[eE][-+]?\d+)\s*$")


def check_verify_output(suite, code, text) -> float:
    """`rosenmorse verify` exited 0 and printed only PASS lines.

    Returns the largest figure of merit the suite printed: each is a
    deviation from an exact value on a scale of about one.
    """
    lines = text.splitlines()
    checks = [l for l in lines if l.startswith(("PASS ", "FAIL "))]
    if code != 0 or not checks or any(l.startswith("FAIL ") for l in checks):
        raise CheckFailed(f"verify {suite}: exit code {code}, output:\n{text}")
    worst = 0.0
    for line in checks:
        match = _FIGURE.search(line)
        if match:
            value = abs(float(match.group(1)))
            if not math.isfinite(value):
                raise CheckFailed(f"verify {suite}: non-finite figure in {line!r}")
            worst = max(worst, value)
    return worst
