"""Benchmark of the rosenmorse library: see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads, so the figures measure the program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rmbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
