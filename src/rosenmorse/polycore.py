"""Exact and floating polynomial arithmetic.

Every closed form in this package is built from dense univariate polynomials.
The same algorithms run over two scalar kinds: exact rationals
(``fractions.Fraction``, including plain ints) and binary floats.  The exact
path is used for all structural work; the float path only for
evaluation-heavy numerics.  Values are immutable and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _exact(v):
    """Ints become Fractions; Fractions pass through; floats select the float path."""
    if isinstance(v, bool):
        raise TypeError("boolean is not a scalar parameter")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float)):
        return v
    raise TypeError(f"unsupported scalar parameter {v!r}")


def _sdiv(x, y):
    """Scalar division that stays exact for exact scalars."""
    if isinstance(x, float) or isinstance(y, float):
        return x / y
    return Fraction(x) / Fraction(y)


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; ``coeffs[k]`` multiplies x**k.

    The canonical zero polynomial has an empty coefficient tuple; any other
    polynomial has a nonzero leading coefficient.  Construction normalizes.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def has_float_scalars(self) -> bool:
        return any(isinstance(c, float) for c in self.coeffs)

    def coeff(self, k: int):
        """Coefficient of x**k (0 beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        p, q = self.coeffs, other.coeffs
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, c in enumerate(q):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            p, q = self.coeffs, other.coeffs
            # Compensated summation keeps the float recursion path tight.
            acc = math.fsum if (self.has_float_scalars or other.has_float_scalars) else sum
            out = []
            for k in range(len(p) + len(q) - 1):
                lo = max(0, k - len(q) + 1)
                hi = min(k + 1, len(p))
                out.append(acc(p[i] * q[k - i] for i in range(lo, hi)))
            return Polynomial(out)
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, k):
        if k == 0:
            return Polynomial()
        return Polynomial(tuple(k * c for c in self.coeffs))

    def __divmod__(self, other):
        """Long division; exact over rationals."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [0] * (dq + 1)
        dlead = other.leading
        for k in range(dq, -1, -1):
            c = _sdiv(rem[k + other.degree], dlead)
            quot[k] = c
            if c != 0:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and evaluation ---------------------------------------------

    def diff(self):
        """Formal derivative."""
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        """Horner evaluation; exact when both scalars are exact."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_float(self):
        """Nearest-binary-float image of the coefficients."""
        return Polynomial(tuple(float(c) for c in self.coeffs))

    def monic_positive(self):
        """Same polynomial with the sign flipped so the leading coefficient is positive."""
        if self.is_zero:
            return self
        return -self if self.leading < 0 else self
