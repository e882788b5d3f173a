"""Per-layer tracing by patching `rosenmorse` public functions in-process.

Each traced function is replaced, in every `rosenmorse` module namespace that
binds it (and in `checks.SUITES`), by a wrapper that records a span: id,
name, start, end and parent span id.  Self time (a span's duration minus the
time its child spans cover) and counts are accumulated as spans close, per
metric key; the harness collects the self times after each operation with
`take`.  Spans are kept in memory and written out by `Tracer.write` after
the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

POLYNOMIAL_METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "scale",
    "__divmod__", "__floordiv__", "__mod__", "diff", "__call__", "to_float", "monic_positive",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, function, metric key, extra counters: {counter suffix: f(args, kwargs) -> int})
FUNCTIONS = (
    ("rodrigues", "rodrigues_generate", "rodrigues.rodrigues_generate", {}),
    ("rodrigues", "sturm_liouville_residual", "rodrigues.sturm_liouville_residual", {}),
    ("trm", "trm_polynomial", "trm.trm_polynomial", {}),
    ("trm", "trm_solution", "trm.trm_solution", {}),
    ("trm", "trm_wavefunction", "trm.trm_wavefunction",
     {"points": lambda a, k: int(np.size(_arg(a, k, 1, "z")))}),
    ("eckart", "jacobi_polynomial", "eckart.jacobi_polynomial", {}),
    ("eckart", "eckart_wavefunction", "eckart.eckart_wavefunction",
     {"points": lambda a, k: int(np.size(_arg(a, k, 2, "z")))}),
    ("eckart", "eckart_normalization", "eckart.eckart_normalization", {}),
    ("susy", "apply_ladder", "susy.apply_ladder", {}),
    ("numerics", "integrate", "numerics.integrate", {}),
    ("numerics", "fdm_hamiltonian", "numerics.fdm_hamiltonian",
     {"points": lambda a, k: int(_arg(a, k, 1, "n"))}),
    ("numerics", "eigenvalues_sturm", "numerics.eigenvalues_sturm",
     {"eigenvalues": lambda a, k: int(_arg(a, k, 1, "k"))}),
    ("numerics", "eigenvector_inverse_iteration", "numerics.eigenvector_inverse_iteration", {}),
    ("cli", "main", "cli.main", {}),
)


class Tracer:
    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.spans = []          # (id, name, start, end, parent id or -1)
        self._stack = []         # [span id, name, start, time covered by children]
        self._next_id = 0
        self._patches = []       # (namespace, key, original)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.covered_s = 0.0     # duration of top-level spans

    # -- figures ----------------------------------------------------------------

    def reset_pass(self):
        self.counts = Counter()
        self.take()

    def take(self):
        """Self times and top-level span time gathered since the last call; resets both."""
        taken = (dict(self.self_s), self.covered_s)
        self.self_s = defaultdict(float)
        self.covered_s = 0.0
        return taken

    # -- spans -------------------------------------------------------------------

    def _wrap(self, fn, name, key, counters, count_key="calls", integrand=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[f"{key}.{count_key}"] += 1
            for suffix, count in counters.items():
                tracer.counts[f"{key}.{suffix}"] += count(args, kwargs)
            if integrand:
                args = (tracer._counted_integrand(args[0], key),) + args[1:]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, tracer.clock(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                duration = end - frame[2]
                tracer.self_s[f"{key}.self_s"] += duration - frame[3]
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                    parent = tracer._stack[-1][0]
                else:
                    tracer.covered_s += duration
                    parent = -1
                tracer.spans.append((span_id, name, frame[2], end, parent))

        return wrapper

    def _counted_integrand(self, f, key):
        counts = self.counts

        def counted(x, *rest):
            counts[f"{key}.points"] += int(np.size(x))
            return f(x, *rest)

        return counted

    # -- patching ----------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name == "rosenmorse" or name.startswith("rosenmorse."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def install(self):
        import rosenmorse.checks as checks
        import rosenmorse.polycore as polycore

        mods = sys.modules
        for module, fn_name, key, counters in FUNCTIONS:
            original = getattr(mods[f"rosenmorse.{module}"], fn_name)
            wrapper = self._wrap(original, key, key, counters, integrand=(key == "numerics.integrate"))
            self._replace_everywhere(original, wrapper)
        for attr in POLYNOMIAL_METHODS:
            original = vars(polycore.Polynomial)[attr]
            self._patches.append((polycore.Polynomial, attr, original))
            setattr(polycore.Polynomial, attr,
                    self._wrap(original, f"polycore.Polynomial.{attr}", "polycore", {}, count_key="ops"))
        for attr, value in list(vars(checks).items()):
            if callable(value) and getattr(value, "__module__", None) == checks.__name__ \
                    and not isinstance(value, type):
                wrapper = self._wrap(value, f"checks.{attr}", "checks", {})
                self._replace_everywhere(value, wrapper)
                for suite, fn in list(checks.SUITES.items()):
                    if fn is value:
                        self._patches.append((checks.SUITES, suite, value))
                        checks.SUITES[suite] = wrapper

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches = []

    def write(self, path):
        """Write every recorded span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write('["id", "name", "start_s", "end_s", "parent"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
