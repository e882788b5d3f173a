"""Run one workload in a closed loop and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The loop is closed and single-client: each operation starts when the
previous one returns.  Whole passes over the workload's operation list run
until their summed wall time reaches --seconds (at least one pass; two in a
traced run).  Checks against the oracles and set-up probes run outside that
budget.  The workload process runs one thread.

Times are the CPU time of the single working thread (time.thread_time),
which leaves out what the hypervisor steals and, unlike the process CPU
clock, keeps full resolution while a profiling timer is armed.  All
reported times, per-layer ones included, are then rescaled to a reference
machine speed by `SpeedGauge`.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones; both also carry the operations attempted and
failed.  --workload all runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH_DIR.parent
RUN_PY = BENCH_DIR / "run.py"
SETUP_PROBES = 5
# a relative deviation this small is below one double ulp: report it as 16 digits
DEVIATION_FLOOR = 1e-16


def benchmark_spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def metric_specs():
    """(end-to-end, per-layer) metric lists as (name, unit) pairs, from BENCHMARK.json."""
    spec = benchmark_spec()
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time of one run (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=CHECKOUT / "src",
                        help="directory holding the rosenmorse package (default: the checkout's src)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    return args


def import_program(src: Path):
    """Import rosenmorse from `src` only; never from an installed copy."""
    src = src.resolve()
    if not (src / "rosenmorse" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rosenmorse package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import rosenmorse

    if Path(rosenmorse.__file__).resolve().parent != src / "rosenmorse":
        raise SystemExit(f"bench: imported rosenmorse from {rosenmorse.__file__}, not from {src}")
    return rosenmorse


# -- machine speed ------------------------------------------------------------


class SpeedGauge:
    """Tracks the machine's speed with a fixed interpreter-bound kernel.

    On a shared virtual machine the host can change the speed of a virtual
    CPU by up to two times for seconds to minutes at a time, and CPU time
    does not remove it (on a 2-vCPU VM a fixed loop took 0.13-0.28 s of CPU,
    with no steal recorded).  While running, a profiling timer runs the
    kernel after every INTERVAL_S of CPU time, also in the middle of an
    operation; the kernel's own time is taken out of the operation's.  An
    operation's CPU time is then multiplied by REFERENCE_KERNEL_S over the
    median kernel time measured during it (or the NEAREST samples, if it was
    shorter), giving seconds at a reference speed at which the kernel takes
    REFERENCE_KERNEL_S, about its usual time on that VM.  The kernel mixes a
    float recurrence with integer and `Fraction` arithmetic, like the
    program's interpreted hot paths; numpy-bound code slows less than the
    kernel, so its rescaled time reads low while the machine is slow.
    """

    REFERENCE_KERNEL_S = 6e-4
    INTERVAL_S = 0.05
    NEAREST = 5

    def __init__(self):
        self.samples = []      # (thread time at sample, kernel CPU seconds)
        self.kernel_cpu = 0.0  # CPU spent in the kernel so far
        self._busy = False

    @staticmethod
    def kernel():
        q, acc = 1.0, 0
        for i in range(1, 2000):
            q = 2.5 - 1e-3 * i - 1.0 / q
            acc += i * i
        f = Fraction(1, 3)
        for i in range(1, 40):
            f = f * Fraction(7, 5) + Fraction(1, i + 2)
        return acc, f

    def sample(self, *_signal_args):
        if self._busy:
            return
        self._busy = True
        start = time.thread_time()
        self.kernel()
        spent = time.thread_time() - start
        self.samples.append((start, spent))
        self.kernel_cpu += spent
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()
        return False

    def clock(self) -> float:
        """Thread CPU time not spent in the kernel."""
        return time.thread_time() - self.kernel_cpu

    def scale(self, start: float, end: float) -> float:
        """Factor turning CPU seconds spent in thread time [start, end] into reference seconds."""
        stamps = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(stamps, start), bisect.bisect_right(stamps, end)
        if hi - lo < self.NEAREST:
            centre = bisect.bisect_left(stamps, 0.5 * (start + end))
            lo = max(0, centre - self.NEAREST // 2 - 1)
            hi = lo + self.NEAREST
        return self.REFERENCE_KERNEL_S / statistics.median(k for _, k in self.samples[lo:hi])


# -- set-up time ----------------------------------------------------------------


def setup_probe(args):
    """Child side of a set-up measurement: import, build the inputs, report CPU time used."""
    from .workloads import WORKLOADS

    import_program(args.src)
    workload = WORKLOADS[args.workload](args.seed)
    workload.operations(workload.inputs())
    print(f"ready {time.process_time()!r}", flush=True)
    return 0


def probe_setup(args, gauge: SpeedGauge) -> float:
    """Set-up time of one fresh process, from its start to ready, in reference seconds."""
    cmd = [sys.executable, str(RUN_PY), "--workload", args.workload, "--seed", str(args.seed),
           "--src", str(args.src), "--setup-probe"]
    gauge.sample()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    gauge.sample()
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    now = time.thread_time()
    return float(words[1]) * gauge.scale(now, now)


# -- passes -------------------------------------------------------------------


def fresh_program():
    """Drop every loaded rosenmorse module so the next import starts cold.

    Each pass runs on freshly imported modules, like a new session of the
    library, so a cache kept in module state cannot carry results from one
    pass into the next even though every pass repeats the same inputs.
    """
    for name in [n for n in sys.modules if n == "rosenmorse" or n.startswith("rosenmorse.")]:
        del sys.modules[name]


def run_pass(workload, gauge, tracer=None):
    """One pass over the workload's operations.

    Returns inputs, outputs, the pass's CPU and wall time, each operation's
    CPU time and its time in reference seconds, the failures as (label,
    exception type, message), and, when traced, the self time of each layer
    and the time outside every span, both in reference seconds.
    """
    inp = workload.inputs()
    ops = workload.operations(inp)
    out, times, scaled, failures = {}, [], [], []
    layers, outside = Counter(), 0.0
    wall, start = time.perf_counter(), gauge.clock()
    with gauge:
        for op in ops:
            t0, span_start = gauge.clock(), time.thread_time()
            try:
                out[op.label] = op.fn(out)
            except Exception as exc:  # operation accounting: record and keep going
                failures.append((op.label, type(exc).__name__, str(exc)))
            cpu_op = gauge.clock() - t0
            factor = gauge.scale(span_start, time.thread_time())
            times.append(cpu_op)
            scaled.append(cpu_op * factor)
            if tracer is not None:
                self_s, covered = tracer.take()
                layers.update({key: value * factor for key, value in self_s.items()})
                outside += (cpu_op - covered) * factor
    cpu, wall = gauge.clock() - start, time.perf_counter() - wall
    return inp, out, cpu, wall, times, scaled, failures, (layers, outside)


def median_per_slot(slot_times):
    """Median of each operation slot's times over the passes."""
    return [statistics.median(column) for column in zip(*slot_times)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digits(deviation: float) -> float:
    return -math.log10(max(deviation, DEVIATION_FLOOR))


def run_workload(workload_cls, seed, seconds: float, trace: bool, tiny=False, trace_path=None, probe=None):
    """Run passes for `seconds`; return (metrics, attempted, failures, notes).

    Every pass is timed with one `SpeedGauge`.  Traced, even passes run under
    the tracer and odd ones without, for the tracing overhead.
    `probe(gauge)`, when given, runs after each pass and at least
    SETUP_PROBES times; its results go to notes["probes"].
    """
    from .tracing import Tracer

    saved = {n: m for n, m in sys.modules.items() if n == "rosenmorse" or n.startswith("rosenmorse.")}
    gauge = SpeedGauge()
    tracer = Tracer(clock=gauge.clock) if trace else None
    pass_times, slot_times, deviations, probes = [], [], [], []
    traced, layer_passes = [], []
    attempted, failures = 0, []
    busy = 0.0
    pass_index = 0
    try:
        while pass_index == 0 or busy < seconds or (trace and pass_index < 2):
            last = None  # hold one pass's outputs at a time
            fresh_program()
            workload = workload_cls(seed, tiny=tiny)
            is_traced = trace and pass_index % 2 == 0
            if is_traced:
                tracer.reset_pass()
                tracer.install()
            try:
                inp, out, cpu, wall, times, scaled, fails, layers = run_pass(
                    workload, gauge, tracer if is_traced else None)
            finally:
                if is_traced:
                    tracer.uninstall()
            busy += wall
            attempted += len(times)
            failures.extend(fails)
            pass_times.append(cpu)
            if is_traced:
                traced.append(scaled)
                layer_passes.append((layers, Counter(tracer.counts)))
            else:
                slot_times.append(scaled)
            if workload.check_every_pass:
                deviations.append(workload.check(inp, out))
            last = (workload, inp, out)
            pass_index += 1
            del inp, out
            if probe is not None:
                probes.append(probe(gauge))
        rss = peak_rss_mib()
        if not last[0].check_every_pass:
            deviations.append(last[0].check(*last[1:]))
        while probe is not None and len(probes) < SETUP_PROBES:
            probes.append(probe(gauge))
    finally:
        fresh_program()
        sys.modules.update(saved)
    notes = {"passes": pass_index, "busy_s": busy, "median_pass_cpu_s": statistics.median(pass_times),
             "probes": probes}
    untraced_s = sum(median_per_slot(slot_times))
    if not trace:
        typical = median_per_slot(slot_times)
        return {
            "pass_s": untraced_s,
            "max_op_s": max(typical),
            "peak_rss_mib": rss,
            "accuracy_digits": digits(statistics.median(deviations)),
        }, attempted, failures, notes
    metrics = {}
    for name, unit in metric_specs()[1]:
        if name.startswith("trace."):
            continue
        if unit == "count":
            # every pass repeats the same inputs on fresh modules, so counts repeat exactly
            metrics[name] = layer_passes[0][1].get(name, 0)
        else:
            metrics[name] = statistics.median(p[0][0].get(name, 0.0) for p in layer_passes)
    traced_s = sum(median_per_slot(traced))
    metrics["trace.pass_s"] = traced_s
    metrics["trace.harness_s"] = statistics.median(p[0][1] for p in layer_passes)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if trace_path is not None:
        tracer.write(trace_path)
        notes["trace_file"] = str(trace_path)
    return metrics, attempted, failures, notes


# -- output ---------------------------------------------------------------------


def report(name, seed, metrics, units, attempted, failures, notes):
    print(f"workload {name} seed {seed}: {notes['passes']} passes, {notes['busy_s']:.2f} s measured, "
          f"median pass {notes['median_pass_cpu_s']:.3f} s CPU")
    for key, value in metrics.items():
        print(f"  {key:<48} {value:>16.6g} {units[key]}")
    print(f"  operations attempted {attempted}, failed {len(failures)}")
    for (label, kind), count in sorted(Counter((l, k) for l, k, _ in failures).items()):
        print(f"  failed {count} x {kind}: {label}")
    if "trace_file" in notes:
        print(f"  spans written to {notes['trace_file']}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_one(args) -> int:
    from .oracles import CheckFailed
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    import_program(args.src)
    end_to_end, per_layer = metric_specs()
    trace_path = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    probe = None if args.trace else (lambda gauge: probe_setup(args, gauge))
    try:
        metrics, attempted, failures, notes = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            trace_path=trace_path, probe=probe)
    except CheckFailed as exc:
        print(f"bench: {args.workload}: CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        units = dict(per_layer)
    else:
        metrics = {"setup_s": statistics.median(notes["probes"]), **metrics}
        units = dict(end_to_end)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    report(args.workload, args.seed, metrics, units, attempted, failures, notes)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another; prints a combined line."""
    from .workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(args.src)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}")
            combined["correct"] = False
            code = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined), flush=True)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 1
