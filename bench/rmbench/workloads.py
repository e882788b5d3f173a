"""The benchmark's workloads.

A workload turns a seed into inputs, the inputs into a list of operations,
and checks the operations' outputs against the independent oracles in
`oracles`.  Parameters are drawn from the seed inside fixed ranges chosen so
that the cost of a pass hardly depends on the draw.  Every pass repeats the
same inputs; the harness re-imports the program before each pass, so no
module-level cache carries a result from one pass to the next.

The program is reached only through module attributes looked up at call
time (`self.trm.trm_solution`, ...), so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import oracles


@dataclass(frozen=True)
class Op:
    """One timed call; `fn` receives the outputs of the earlier ops of its pass."""

    label: str
    fn: Callable[[dict], object]


class Workload:
    name = ""  # the workload's name in BENCHMARK.json, which also says why it is there
    # cheap checks run after every pass; the others after the last pass only
    check_every_pass = False

    def __init__(self, seed: int, tiny: bool = False):
        import rosenmorse.cli
        import rosenmorse.eckart
        import rosenmorse.numerics
        import rosenmorse.rodrigues
        import rosenmorse.trm

        self.seed = seed
        self.tiny = tiny
        self.cli = rosenmorse.cli
        self.eckart = rosenmorse.eckart
        self.numerics = rosenmorse.numerics
        self.rodrigues = rosenmorse.rodrigues
        self.trm = rosenmorse.trm

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def inputs(self) -> dict:
        raise NotImplementedError

    def operations(self, inp: dict) -> list:
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> float:
        """Raise `oracles.CheckFailed` on a wrong output; return the worst relative deviation."""
        raise NotImplementedError


class VerifySuites(Workload):
    """The `rosenmorse verify` suites at their CLI defaults, in-process via `cli.main`."""

    name = "verify-suites"
    check_every_pass = True
    SUITES = ("polynomials", "orthogonality", "normalization", "fdm", "susy", "classical")
    TINY_SUITES = ("polynomials", "normalization", "susy")

    def inputs(self):
        # the suites take no parameters beyond the CLI defaults, so the seed has no effect here
        return {"suites": self.TINY_SUITES if self.tiny else self.SUITES}

    def _run(self, suite):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["verify", suite])
        return code, buf.getvalue()

    def operations(self, inp):
        return [Op(f"verify {s}", lambda out, s=s: self._run(s)) for s in inp["suites"]]

    def check(self, inp, out):
        return max(oracles.check_verify_output(s, *out[f"verify {s}"]) for s in inp["suites"])


def _odd_over(rng, lo_num, hi_num, den):
    """p/den with p odd in [lo_num, hi_num]; for even den the fraction stays in lowest
    terms with denominator den, so exact arithmetic on it costs alike for every draw."""
    return Fraction(rng.choice(range(lo_num | 1, hi_num + 1, 2)), den)


class ExactHighN(Workload):
    """Exact Fraction generation: C_n up to n = 40, the presets, Eckart Jacobi polynomials."""

    name = "exact-high-n"

    def inputs(self):
        rng = self.rng()
        pairs = []
        for den in (3, 5, 7):  # a = p/den with p not a multiple of den: never an integer
            p = rng.choice([k for k in range(1, 2 * den) if k % den])
            pairs.append((Fraction(p, den), _odd_over(rng, 21, 39, 8)))
        a_e = _odd_over(rng, 1, 7, 8)  # 2a not an integer: degree-n Jacobi
        levels = 5 if self.tiny else 29
        # exactly `levels` bound levels: (levels+a)^2 < b < (levels+1+a)^2
        b_e = (levels + a_e) ** 2 + Fraction(rng.choice([1, 3, 7, 9, 11, 13, 17, 19]), 10)
        return {
            "trm": [(self.trm.TrmParams(a, b), a, b) for a, b in pairs],
            "n_max": 8 if self.tiny else 40,
            "presets": self.rodrigues.table1_presets(),
            "m_max": 6 if self.tiny else 24,
            "eckart": (a_e, b_e, levels),
        }

    def operations(self, inp):
        ops = []
        for params, a, b in inp["trm"]:
            for n in range(1, inp["n_max"] + 1):
                ops.append(Op(f"C_{n} a={a} b={b}", lambda out, p=params, n=n: self.trm.trm_polynomial(p, n)))
        for spec in inp["presets"]:
            for m in range(inp["m_max"] + 1):
                ops.append(Op(f"{spec.label} m={m}", lambda out, s=spec, m=m: self.rodrigues.rodrigues_generate(s, m)))
        a, b, levels = inp["eckart"]
        for n in range(1, levels + 1):
            nu, mu, _ = oracles.eckart_indices(n, a, b)
            ops.append(Op(f"P_{n} a={a} b={b}", lambda out, n=n, nu=nu, mu=mu: self.eckart.jacobi_polynomial(n, nu, mu)))
        return ops

    def check(self, inp, out):
        for _, a, b in inp["trm"]:
            for n in range(1, inp["n_max"] + 1):
                oracles.check_trm_polynomial(out[f"C_{n} a={a} b={b}"].coeffs, n, a, b)
        for spec in inp["presets"]:
            for m in range(inp["m_max"] + 1):
                res = out[f"{spec.label} m={m}"]
                if res.m != m:
                    raise oracles.CheckFailed(f"{spec.label}: asked for member {m}, got {res.m}")
                oracles.check_preset_member(spec.label, m, res.poly.coeffs)
        a, b, levels = inp["eckart"]
        for n in range(1, levels + 1):
            nu, mu, _ = oracles.eckart_indices(n, a, b)
            oracles.check_jacobi(out[f"P_{n} a={a} b={b}"].coeffs, n, nu, mu)
        return 0.0


class FdmLargeGrid(Workload):
    """The FDM eigen-oracle at grids near 8000 and 16000 with Richardson extrapolation."""

    name = "fdm-large-grid"
    check_every_pass = True
    K = 8
    VECTORS = 3

    def inputs(self):
        rng = self.rng()
        # integer a keeps the O(h^2) error expansion clean for Richardson
        a, b = Fraction(1), _odd_over(rng, 197, 203, 4)
        coarse = rng.randint(1500, 1540) if self.tiny else rng.randint(7980, 8020)
        return {"a": a, "b": b, "params": self.trm.TrmParams(a, b), "grids": (coarse, 2 * coarse + 1)}

    def _solve(self, params, grid):
        pot = lambda z: self.trm.trm_potential(params, z)
        op = self.numerics.fdm_hamiltonian(pot, grid, (0.0, math.pi))
        return op, self.numerics.eigenvalues_sturm(op, self.K)

    def operations(self, inp):
        coarse, fine = inp["grids"]
        ops = [Op(f"solve grid={g}", lambda out, g=g: self._solve(inp["params"], g)) for g in (coarse, fine)]
        for j in range(self.VECTORS):
            ops.append(Op(
                f"eigenvector {j + 1}",
                lambda out, j=j: self.numerics.eigenvector_inverse_iteration(
                    out[f"solve grid={fine}"][0], out[f"solve grid={fine}"][1][j]),
            ))
        return ops

    def check(self, inp, out):
        a, b = inp["a"], inp["b"]
        coarse, fine = inp["grids"]
        worst = 0.0
        for g in (coarse, fine):
            op, _ = out[f"solve grid={g}"]
            worst = max(worst, oracles.check_fdm_operator(op.diag, op.offdiag, a, b, g))
        op, levels = out[f"solve grid={fine}"]
        worst = max(worst, oracles.check_fdm_spectrum(out[f"solve grid={coarse}"][1], levels, a, b))
        for j in range(self.VECTORS):
            vec = out[f"eigenvector {j + 1}"].values
            worst = max(worst, oracles.check_eigenvector(op.diag, op.offdiag, levels[j], vec, j + 1))
        return worst


class WavefunctionQuadrature(Workload):
    """Float evaluation and DE-quadrature normalization on both systems."""

    name = "wavefunction-quadrature"
    STATES = 16
    HIGH_N = 40
    CLOSED_FORM_STATES = 4
    PRECISION_STRIDE = 200

    def inputs(self):
        rng = self.rng()
        a, b = _odd_over(rng, 1, 7, 8), _odd_over(rng, 21, 35, 8)
        b0 = _odd_over(rng, 9, 39, 8)
        # integer b keeps the exact rebuilds' Fraction sizes, hence their cost, alike
        # across seeds; 13 levels at a = 1/2 since 13.5^2 < b < 14.5^2
        b_e = Fraction(rng.randint(196, 204))
        m = rng.randint(5, 6) if self.tiny else rng.randint(9, 11)
        panels = 500 if self.tiny else 12500
        grid, weights = oracles.composite_gauss_legendre(0.0, math.pi, panels)
        eckart_half = [(Fraction(1, 2), b_e, n) for n in range(1, 4 if self.tiny else 14)]
        # a = 0, b = m^2: the top level n = m sits exactly at threshold, (n+a)^2 == b
        eckart_zero = [(Fraction(0), Fraction(m * m), n) for n in (m - 2, m - 1, m)]
        return {
            "a": a, "b": b, "params": self.trm.TrmParams(a, b),
            "states": 4 if self.tiny else self.STATES,
            "high_n": 12 if self.tiny else self.HIGH_N,
            "b0": b0, "params0": self.trm.TrmParams(0, b0),
            "grid": grid, "weights": weights,
            "eckart": eckart_half + eckart_zero,
            "threshold": eckart_zero[-1],
        }

    def _normalize_eckart(self, a, b, n, threshold):
        params = self.eckart.EckartParams(a, b)
        if not threshold:
            return self.eckart.eckart_normalization(params, n)
        # a threshold level has kappa = 0 and no finite norm; the right answer is a refusal
        try:
            value = self.eckart.eckart_normalization(params, n)
        except ValueError:
            return None
        raise oracles.CheckFailed(f"threshold level n={n} a={a} b={b} returned a norm {value!r}")

    def operations(self, inp):
        ops = []
        params, grid = inp["params"], inp["grid"]
        levels = list(range(1, inp["states"] + 1)) + [inp["high_n"]]
        for n in levels:
            ops.append(Op(f"trm_solution n={n}", lambda out, n=n: self.trm.trm_solution(params, n)))
        for n in levels:
            ops.append(Op(
                f"trm_wavefunction n={n}",
                lambda out, n=n: self.trm.trm_wavefunction(out[f"trm_solution n={n}"], grid),
            ))
        for n in range(1, self.CLOSED_FORM_STATES + 1):
            ops.append(Op(f"trm_solution a=0 n={n}", lambda out, n=n: self.trm.trm_solution(inp["params0"], n)))
        for a, b, n in inp["eckart"]:
            threshold = (a, b, n) == inp["threshold"]
            ops.append(Op(
                f"eckart_normalization a={a} b={b} n={n}",
                lambda out, a=a, b=b, n=n, t=threshold: self._normalize_eckart(a, b, n, t),
            ))
        return ops

    def check(self, inp, out):
        a, b = inp["a"], inp["b"]
        states = range(1, inp["states"] + 1)
        for n in list(states) + [inp["high_n"]]:
            oracles.check_trm_polynomial(out[f"trm_solution n={n}"].poly.coeffs, n, a, b)
        # the high-n row checks its quadrature normalization, which the
        # 50-digit comparison below cannot see: it multiplies knorm back in
        worst = oracles.check_gram(
            [out[f"trm_wavefunction n={n}"] for n in list(states) + [inp["high_n"]]], inp["weights"])
        for n in range(1, self.CLOSED_FORM_STATES + 1):
            sol = out[f"trm_solution a=0 n={n}"]
            oracles.check_trm_polynomial(sol.poly.coeffs, n, Fraction(0), inp["b0"])
            worst = max(worst, oracles.check_closed_form_norm(sol.knorm, inp["b0"], n))
        for a_e, b_e, n in inp["eckart"]:
            if (a_e, b_e, n) != inp["threshold"]:
                value = out[f"eckart_normalization a={a_e} b={b_e} n={n}"]
                worst = max(worst, oracles.check_eckart_norm(value, n, a_e, b_e))
        n = inp["high_n"]
        sol = out[f"trm_solution n={n}"]
        stride = slice(None, None, self.PRECISION_STRIDE)
        raw = out[f"trm_wavefunction n={n}"][stride] * sol.knorm
        return max(worst, oracles.check_high_precision(raw, sol.poly.coeffs, n, a, b, inp["grid"][stride]))


WORKLOADS = {w.name: w for w in (VerifySuites, ExactHighN, FdmLargeGrid, WavefunctionQuadrature)}
