"""Re-measure the ROADMAP baseline rows with the benchmark's harness.

    python3 bench/baseline_rows.py

Each row is one operation; each of PASSES passes re-imports the program (as
the workloads do) and runs every row once under a `SpeedGauge`.  Prints, per
row, the median over passes in reference seconds and in plain thread CPU
seconds.
"""

import math
import os
import statistics
import sys
from fractions import Fraction
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from rmbench.harness import CHECKOUT, SpeedGauge, fresh_program, import_program, run_pass  # noqa: E402
from rmbench.workloads import Op, Workload  # noqa: E402

PASSES = 5


class BaselineRows(Workload):
    name = "roadmap-baseline"

    def inputs(self):
        params = self.trm.TrmParams(1, 50)
        pot = lambda z: self.trm.trm_potential(params, z)
        return {"ops": {n: self.numerics.fdm_hamiltonian(pot, n, (0.0, math.pi)) for n in (1000, 4000, 16000)}}

    def operations(self, inp):
        ops = [Op(f"suite {s}", lambda out, s=s: self.cli.checks.SUITES[s]())
               for s in ("classical", "fdm", "orthogonality", "polynomials", "susy", "normalization")]
        for n, op in inp["ops"].items():
            ops.append(Op(f"eigenvalues_sturm k=5 n={n}", lambda out, op=op: self.numerics.eigenvalues_sturm(op, 5)))
        for n in (4000, 16000):
            ops.append(Op(f"eigenvector_inverse_iteration n={n}", lambda out, n=n: self.numerics.eigenvector_inverse_iteration(
                inp["ops"][n], out[f"eigenvalues_sturm k=5 n={n}"][0])))
        params = self.trm.TrmParams(Fraction(1, 3), Fraction(7, 2))
        for n in (10, 20, 40):
            ops.append(Op(f"trm_polynomial a=1/3 b=7/2 n={n}", lambda out, n=n: self.trm.trm_polynomial(params, n)))
        eck = self.eckart.EckartParams(0, 50)
        ops.append(Op("eckart_normalization a=0 b=50, all 7 levels",
                      lambda out: [self.eckart.eckart_normalization(eck, l.n) for l in self.eckart.eckart_spectrum(eck)]))
        return ops


def main():
    import_program(CHECKOUT / "src")
    gauge = SpeedGauge()
    rows = []
    for _ in range(PASSES):
        fresh_program()
        inp, _, _, _, times, scaled, failures, _ = run_pass(BaselineRows(0), gauge)
        if failures:
            raise SystemExit(f"baseline rows failed: {failures}")
        rows.append((times, scaled))
    labels = [op.label for op in BaselineRows(0).operations(inp)]
    print(f"{'row':<48} {'reference s':>12} {'CPU s':>10}")
    for i, label in enumerate(labels):
        ref = statistics.median(r[1][i] for r in rows)
        cpu = statistics.median(r[0][i] for r in rows)
        print(f"{label:<48} {ref:>12.4f} {cpu:>10.4f}")


if __name__ == "__main__":
    main()
