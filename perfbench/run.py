"""Run one workload of the turbsolve benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs at least twice, and again while all set-ups together took
under SETUP_BUDGET_S; its median is reported.  Then operations run back to
back (a closed loop with one client), at least one, and another only while
one more as long as the last, with its check, still ends within S seconds.
``wall_s`` is the mean operation time (NOTES.md says why not the median).  With
``--trace 0`` nothing is traced and the end-to-end metrics are reported;
with ``--trace 1`` untraced operations fill the first half of S and traced
ones the rest, and the per-layer metrics are reported.  Every
operation's outputs are checked outside its timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 1
when a check failed.  A fuller record (samples, environment) goes to
``perfbench/out/results/`` and the spans of a traced run to ``perfbench/out/``.
"""

import argparse
import contextlib
import ctypes
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

SETUP_MIN_REPEATS = 2
SETUP_MAX_REPEATS = 10000
SETUP_BUDGET_S = 5.0  # cheap set-ups repeat until they took this long together
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def timed_operation(p, tracer=None, op_id=None):
    """Run one operation; returns (seconds, Outcome).  Only the call itself is timed."""
    workloads.reset_outputs(p)
    scope = tracer.operation(op_id) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            status, stderr = workloads.run_operation(p)
    except Exception:
        return time.perf_counter() - start, workloads.Outcome(0, 0, "raised: " + traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, workloads.check_operation(p, status, stderr)


def run_operations(p, begin, until, samples, outcomes, tracer=None):
    """Run operations: at least one, and another while a round (operation and
    check) as long as the last would end within ``until`` seconds of ``begin``."""
    last_round = 0.0
    while not samples or time.perf_counter() - begin + last_round <= until:
        start = time.perf_counter()
        elapsed, outcome = timed_operation(p, tracer, len(samples))
        samples.append(elapsed)
        outcomes.append(outcome)
        last_round = time.perf_counter() - start


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    work_dir = out_dir / f"work-{os.getpid()}"
    try:
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPEATS or (
                len(setup_s) < SETUP_MAX_REPEATS and sum(setup_s) < SETUP_BUDGET_S):
            start = time.perf_counter()
            p = workloads.setup(workload, seed, work_dir)
            setup_s.append(time.perf_counter() - start)
        problems = []
        levels = unconverged = 0
        if workload.kind == "certify":
            levels, unconverged = 1, int(not p.fixture_report["converged"])
            problem = workloads.check_fixture(p)
            if problem:
                problems.append(f"setup: {problem}")

        wall_s, traced_s, outcomes = [], [], []
        tracer = Tracer() if trace else None
        begin = time.perf_counter()
        # A traced run spends its first half untraced, to measure the tracing overhead.
        run_operations(p, begin, seconds / 2 if trace else seconds, wall_s, outcomes)
        if trace:
            with tracer.installed():
                run_operations(p, begin, seconds, traced_s, outcomes, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        tracer.write(out_dir / f"spans-{workload.name}.jsonl")

    levels += sum(o.levels for o in outcomes)
    unconverged += sum(o.unconverged for o in outcomes)
    problems += [o.failure for o in outcomes if o.failure]
    failed = sum(1 for o in outcomes if o.failure)
    if trace:
        per_op = [tracer.layer_metrics(op) for op in range(len(traced_s))]
        values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        values["trace.overhead_s"] = statistics.fmean(traced_s) - statistics.fmean(wall_s)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.fmean(wall_s),
            "converged_share": (levels - unconverged) / levels,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = metric_units()
    return {
        "workload": workload.name,
        "seed": seed,
        "centre": workloads.load_centre(seed),
        "trace": int(trace),
        "seconds": seconds,
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "unconverged_share": unconverged / levels,
        "failed_share": failed / len(outcomes),
        "problems": problems,
        "samples": {"setup_s": setup_s, "wall_s": wall_s, "traced_wall_s": traced_s},
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "environment": environment(),
    }


def metric_units() -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def describe_samples(name: str, samples) -> str:
    """Sample count, mean, median, quartiles, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    q1, median, q3 = statistics.quantiles(samples, n=4) if n >= 2 else (samples[0],) * 3
    text = (f"{name}: {n} samples, mean {statistics.fmean(samples):.6g} s, median {median:.6g} s, "
            f"quartiles {q1:.6g} .. {q3:.6g} s")
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        text += f", p{pct} {sorted(samples)[n - 11]:.6g} s"
    else:
        text += ", no percentile with ten samples beyond it"
    return text


# -- environment record ----------------------------------------------------


def environment() -> dict:
    from turbsolve import _kernels

    version, threads = _openblas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "scipy": _dist_version("scipy"),
        "openblas": version,
        "openblas_threads": threads,
        "python": platform.python_version(),
        "nproc": nproc,
        "git_commit": _git_commit(),
    }


def _openblas_lib():
    """The OpenBLAS library numpy loaded, through ctypes, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted(set(re.findall(r"(/\S*numpy\S*openblas\S*\.so\S*)", maps)))
    return ctypes.CDLL(paths[0]) if paths else None


def _openblas_call(lib, suffix):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, f"{prefix}{suffix}{tail}", None)
            if fn is not None:
                return fn
    return None


def _openblas():
    """(version, thread count) of numpy's OpenBLAS, or (None, None)."""
    lib = _openblas_lib()
    config = lib and _openblas_call(lib, "get_config")
    get_threads = lib and _openblas_call(lib, "get_num_threads")
    if not (config and get_threads):
        return None, None
    config.restype = ctypes.c_char_p
    config.argtypes = []
    get_threads.restype = ctypes.c_int
    get_threads.argtypes = []
    match = re.search(r"OpenBLAS\s+(\S+)", config().decode())
    return (match.group(1) if match else None), get_threads()


def single_thread_blas():
    """Run OpenBLAS on one thread.

    With two, the BLAS worker shares the second core with whatever else the
    machine runs; a busy neighbour there stretched one 6.5 s operation to 101 s.
    """
    lib = _openblas_lib()
    set_threads = lib and _openblas_call(lib, "set_num_threads")
    if set_threads:
        set_threads.argtypes = [ctypes.c_int]
        set_threads(1)


def _dist_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit():
    git = workloads.ROOT / ".git"
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
    return None


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the turbsolve benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    single_thread_blas()
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = result["environment"]

    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, load centre {result['centre']}, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(describe_samples("setup_s", result["samples"]["setup_s"]))
    print(describe_samples("wall_s", result["samples"]["wall_s"]))
    if args.trace:
        print(describe_samples("traced wall_s", result["samples"]["traced_wall_s"]))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"unconverged_share = {result['unconverged_share']:.6g}")
    print(f"failed_share = {result['failed_share']:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
