"""fedabr benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fed_multigroup --seed 1 --seconds 30 --trace 0

Run from the root of a fedabr source tree; the program is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

import os

# One BLAS thread: the workloads run in a single process with no extra
# threads. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the pinned setting."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        if not lib.startswith("/"):
            continue
        dll = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """99, or the highest percentile that leaves at least ten samples above it."""
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


@dataclass
class Run:
    """What one benchmark run measured."""
    checks: object
    setup_s: list = field(default_factory=list)
    run_s: list = field(default_factory=list)      # untraced iterations
    traced_s: list = field(default_factory=list)   # traced iterations
    counts: list = field(default_factory=list)     # span calls per traced iteration
    decisions_ns: list = field(default_factory=list)  # one list per timed iteration
    quality: object = None
    state: object = None
    elapsed: float = 0.0


def measure(workload, seed: int, seconds: float, tracer) -> Run:
    """Repeat set-up + operation until ``seconds`` have passed.

    Setting up before every operation spreads both timings over the whole
    run. The first iteration warms caches and lazy imports and is checked
    but not timed. An untraced run samples host speed during every timed
    phase and scales its time to the reference speed (see hostspeed.py). With a tracer,
    every other iteration is traced, so the tracing overhead is measured on
    the same inputs in one process; that run takes no samples, so spans hold
    only program time, and its times are unscaled.
    """
    from workloads import Checks, time_decisions

    def timed(fn, *args):
        """Run ``fn``; return its result and its time (reference seconds, or
        wall seconds in a traced run)."""
        with hostspeed.Sampler() if tracer is None else contextlib.nullcontext() as hs:
            t0 = time.perf_counter()
            value = fn(*args)
            t1 = time.perf_counter()
        return value, t1 - t0 if hs is None else hs.scaled(t0, t1)

    run = Run(Checks())
    base = ROOT / ".perfbench_run"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    first_key = reference = None
    # Iterations the loop needs: the warm-up and at least one untraced timed one.
    needed = 3 if tracer is not None else 2
    start = time.perf_counter()
    try:
        i = 0
        while True:
            t_iter = time.perf_counter()
            traced = tracer is not None and i % 2 == 1
            before = tracer.counts() if traced else None
            setup_dir, out = work / f"setup{i}", work / f"op{i}"
            try:
                with tracer.patched() if traced else contextlib.nullcontext():
                    state, setup_s = timed(workload.setup, seed, setup_dir)
                    result, run_s = timed(workload.operation, state, out)
            except Exception:
                run.checks.op([f"iteration {i} raised:\n{traceback.format_exc()}"])
                break
            if i > 0:
                run.setup_s.append(setup_s)
                (run.traced_s if traced else run.run_s).append(run_s)
            if traced:
                after = tracer.counts()
                run.counts.append({n: after[n] - before[n] for n in after})
            key = workload.input_key(state)
            if first_key is None:
                first_key = key
            elif key != first_key:
                run.checks.error(["set-up made different inputs from one seed"])
            problems = workload.check(state, result, out, reference)
            for p in problems:
                run.checks.op(p)
            if any(problems):
                break
            if reference is None:
                reference = workload.result_key(result)
                run.quality = workload.quality(result)
                run.state = state
            decisions = []  # (start, end) perf_counter readings
            # Samples go between decisions, so no decision holds one.
            with (hostspeed.Sampler(interrupt=False) if tracer is None
                  else contextlib.nullcontext()) as hs:
                time_decisions(workload.decision_inputs(state, result), workload.decision_starts,
                               decisions, run.checks, hs.tick if hs else None)
            if i > 0:
                run.decisions_ns.append([1e9 * (t1 - t0 if hs is None else hs.scaled(t0, t1))
                                         for t0, t1 in decisions])
            shutil.rmtree(setup_dir)
            shutil.rmtree(out)
            i += 1
            # Start another iteration only if it is expected to end in time.
            now = time.perf_counter()
            if now + (now - t_iter) - start > seconds and i >= needed:
                break
    finally:
        run.elapsed = time.perf_counter() - start
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    return run


def end_to_end(run: Run) -> dict:
    """Medians over iterations; decision percentiles are taken per iteration."""
    def decision_us(q_of_n):
        return statistics.median(percentile(d, q_of_n(len(d))) / 1000.0
                                 for d in run.decisions_ns)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "run_s": (statistics.median(run.run_s), "s"),
        "decision_us_p50": (decision_us(lambda n: 50.0), "us"),
        "decision_us_p99": (decision_us(tail_percentile), "us"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run: Run, workload, tracer) -> dict:
    """Per-layer values per unit of work (one set-up plus one operation)."""
    checks, counts, n = run.checks, run.counts, len(run.traced_s)
    for name in workload.expected_spans:
        if tracer.stats[name].calls == 0:
            checks.error([f"coverage: span {name} recorded no calls on {workload.name}; "
                          "a wrapper missed a binding or the call path changed"])
    if any(c != counts[0] for c in counts):
        checks.error(["span counts differ between iterations on the same inputs"])
    for name, want in run.state.expected.items():
        if counts[0][name] != want:
            checks.error([f"{name}: {counts[0][name]} calls per operation, expected {want}"])

    out = {}
    for name, stat in tracer.stats.items():
        if name.startswith("cli."):
            # A command callback's inclusive time per pipeline.
            out[f"{name}.s"] = (sum(stat.durations) / n, "s")
            continue
        out[f"{name}.calls"] = (counts[0][name], "count")
        out[f"{name}.self_s"] = (stat.self_s / n, "s")
        p50 = percentile(stat.durations, 50.0) * 1e6 if stat.durations else 0.0
        out[f"{name}.us_p50"] = (p50, "us")
    out["federation.bytes_per_round"] = (tracer.submit_bytes / n / run.state.rounds, "B")
    out["schemes.test_reward"] = (run.quality.test_reward, "reward")
    out["metrics.converge_epoch"] = (run.quality.converge_epoch, "epoch")
    out["decision.samples"] = (sum(map(len, run.decisions_ns)), "count")
    traced, untraced = statistics.median(run.traced_s), statistics.median(run.run_s)
    out["trace.run_s"] = (traced, "s")
    out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedabr" / "__init__.py").is_file():
        print(f"error: no fedabr sources at {SRC / 'fedabr'}; run from a fedabr "
              "source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedabr
    import numpy as np
    if Path(fedabr.__file__).resolve().parent != (SRC / "fedabr").resolve():
        print(f"error: imported fedabr from {fedabr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "git_commit": git_commit(), "seed": args.seed,
           "blas_threads": blas_threads()}
    print("env " + json.dumps(env, sort_keys=True))
    from tracer import Tracer
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seed, args.seconds, tracer)
    checks = run.checks
    n_dec = min(map(len, run.decisions_ns), default=0)
    times = run.run_s or [0.0]
    print(f"{workload.name} seed {args.seed}: {len(run.setup_s) + 1} set-ups + operations "
          f"in {run.elapsed:.1f} s, the first untimed (untraced operation quartiles "
          f"{percentile(times, 25):.4g} / {percentile(times, 50):.4g} / "
          f"{percentile(times, 75):.4g} s); {n_dec} timed decisions per operation, "
          f"tail percentile p{tail_percentile(n_dec) if n_dec else 0:.2f}")
    metrics = {}
    if not checks.failed and run.run_s:
        metrics = per_layer(run, workload, tracer) if tracer else end_to_end(run)
    for msg in checks.messages:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    result = {
        "correct": not checks.messages,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
