#!/usr/bin/env python3
"""Benchmark of the stiefel-hermite pipeline: end to end, or layer by layer.

    python3 bench/run.py --workload {paper,fit_far,eval_dense} --seed N \\
        --seconds S --trace {0,1} [--scale {full,toy}]

Runs in one process with BLAS pinned to one thread before numpy loads; the
run fails if the live OpenBLAS thread count differs.  Set-up (input
generation) is timed on its own, then timed passes of the workload repeat
until ``--seconds`` would be exceeded (at least five passes), each checked.

``--trace 0`` prints the end-to-end metrics; fit and evaluation latencies
come from a thin timer around ``interpolate.fit_arc`` and the curve calls,
and every timing is scaled to a reference machine speed (``speed.py``).
Every pass makes the same calls in the same order, so a call's latency is
the median of its repeats in the first five passes, and the percentiles are
taken over these medians.
``--trace 1`` runs set-up and every other pass under a tracer that wraps
every public library function, the passes between them untraced to measure
the tracing overhead, and prints per-layer metrics.  Either way the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a failed output
check makes ``correct`` false and the exit code 1.  Records land in
``bench/out/``.
"""

import os
import sys

PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-up repeats until both limits are met; setup_s is their median.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0

#: A call's latency is its median over the first REPEATS passes, which drops
#: the stalls of a shared machine; at least this many passes are made.  The
#: count is fixed so that the statistic does not depend on how many passes
#: fit into --seconds.
REPEATS = 5

# End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "fit_ms_p50": "ms",
    "fit_ms_p90": "ms",
    "eval_us_p50": "us",
    "eval_us_p99": "us",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


def _openblas_state() -> list[dict]:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                try:
                    threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                except AttributeError:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry["threads"] = int(threads())
                entry["config"] = config().decode(errors="replace").strip()
        libs.append(entry)
    return libs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads_pinned": PINNED_THREADS,
        "openblas": _openblas_state(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _timed_passes(workload, inputs, seconds: float, budget_start: float, gauge, on_pass):
    """Run passes until the next one would overrun ``seconds`` (at least
    REPEATS); check each.

    Returns the (start, end) of every pass; calibrations bracket each pass.
    """
    intervals = []
    while True:
        gauge.calibrate()
        t0 = time.perf_counter()
        outputs = workload.run_pass(inputs)
        intervals.append((t0, time.perf_counter()))
        gauge.calibrate()
        on_pass(len(intervals), outputs)
        last = intervals[-1][1] - intervals[-1][0]
        if len(intervals) >= REPEATS and time.perf_counter() - budget_start + last > seconds:
            return intervals


def _per_call(scale, starts, ends, marks, problems, what: str) -> list[float]:
    """Call latencies: each call's median over the first REPEATS passes.

    ``marks`` holds the number of timed calls before the first pass and after
    each pass; passes that made different numbers of calls are a failed check.
    """
    counts = [b - a for a, b in zip(marks, marks[1:])]
    if len(set(counts)) > 1:
        problems.append(f"{what} calls differ between passes: {counts}")
    first = marks[:REPEATS]
    return [
        statistics.median(scale(starts[a + i], ends[a + i]) for a in first)
        for i in range(min(counts))
    ]


def _end_to_end(args, workload, probe, gauge, on_pass, record):
    intervals = []
    while len(intervals) < SETUP_MIN_REPS or sum(b - a for a, b in intervals) < SETUP_MIN_S:
        gauge.calibrate()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, args.scale)
        intervals.append((t0, time.perf_counter()))
    record["inputs"] = inputs
    fit_marks, eval_marks = [len(probe.fit_starts)], [len(probe.eval_starts)]

    def marked(k, outputs):
        fit_marks.append(len(probe.fit_starts))
        eval_marks.append(len(probe.eval_starts))
        on_pass(k, outputs)

    passes = _timed_passes(workload, inputs, args.seconds, time.perf_counter(), gauge, marked)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = record["problems"]
    fits = _per_call(gauge.scaled, probe.fit_starts, probe.fit_ends, fit_marks, problems, "fit")
    evals = _per_call(gauge.scaled, probe.eval_starts, probe.eval_ends, eval_marks, problems, "eval")
    pass_s = [gauge.scaled(*iv) for iv in passes]
    values = {
        "setup_s": statistics.median(gauge.scaled(*iv) for iv in intervals),
        "run_s": statistics.median(pass_s),
        "fit_ms_p50": _percentile(fits, 50) * 1e3,
        "fit_ms_p90": _percentile(fits, 90) * 1e3,
        "eval_us_p50": _percentile(evals, 50) * 1e6,
        "eval_us_p99": _percentile(evals, 99) * 1e6,
        "max_rel_err": record["max_rel_err"],
        "peak_rss_mb": peak_rss_mb,
    }
    raw_fits = _per_call(lambda a, b: b - a, probe.fit_starts, probe.fit_ends, fit_marks, [], "fit")
    raw_evals = _per_call(lambda a, b: b - a, probe.eval_starts, probe.eval_ends, eval_marks, [], "eval")
    raw = {
        "setup_s": statistics.median(b - a for a, b in intervals),
        "run_s": statistics.median(b - a for a, b in passes),
        "fit_ms_p50": _percentile(raw_fits, 50) * 1e3,
        "eval_us_p50": _percentile(raw_evals, 50) * 1e6,
    }
    samples = {
        "setup_s": len(intervals),
        "run_s": len(passes),
        "fit_ms_p50": len(fits),
        "fit_ms_p90": len(fits),
        "eval_us_p50": len(evals),
        "eval_us_p99": len(evals),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    walls = {"passes": pass_s, "passes_raw": [b - a for a, b in passes]}
    return metrics, {"samples": samples, "raw": raw, "speed": gauge.summary(), "walls_s": walls}, None


def _layered(args, workload, package, tr, gauge, on_pass, record):
    """Set-up traced once, then timed passes alternating untraced (odd) and
    traced (even): the cold first pass is untraced, and the tracing overhead
    compares passes made under the same conditions."""
    tracer = tr.Tracer(package)
    tracer.install()
    t0 = time.perf_counter()
    inputs = workload.setup(args.seed, args.scale)
    setup_wall = time.perf_counter() - t0
    tracer.uninstall()
    record["inputs"] = inputs

    def alternate(k, outputs):
        tracer.uninstall()  # checks run untraced
        on_pass(k, outputs)
        if k % 2:
            tracer.run_id = k + 1
            tracer.install()

    passes = _timed_passes(workload, inputs, args.seconds, time.perf_counter(), gauge, alternate)
    tracer.uninstall()
    untraced = [b - a for a, b in passes[0::2]]
    traced = [b - a for a, b in passes[1::2]]
    per_pass = []
    for k, wall in enumerate(traced, start=1):
        run_id = 2 * k  # traced passes are the even ones
        rows = tr.layer_metrics(tracer.layer_stats([0, run_id]))
        rows["trace.run_s"] = (wall, "s")
        rows["trace.overhead"] = (wall / statistics.median(untraced), "ratio")
        rows["trace.coverage"] = (tracer.root_ns([0, run_id]) * 1e-9 / (setup_wall + wall), "ratio")
        per_pass.append(rows)
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    drifting = [
        name
        for name, (_, unit) in per_pass[0].items()
        if unit == "count" and len({p[name][0] for p in per_pass}) > 1
    ]
    if drifting:
        record["problems"].append(f"counts differ between traced passes: {drifting}")
    walls = {"setup": setup_wall, "untraced_passes": untraced, "traced_passes": traced}
    return metrics, {"samples": {"trace.run_s": len(traced)}, "walls_s": walls}, tracer


def run(args):
    """Run the workload; returns the result line, details and the tracer (or None)."""
    import stiefel_hermite
    import tracer as tr
    from speed import SpeedGauge
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    # Traced runs report per-layer times as measured, without speed scaling.
    gauge = SpeedGauge(enabled=not args.trace)
    probe = tr.Probe(stiefel_hermite, before=gauge.tick)
    probe.install()
    record = {"failed": 0, "problems": [], "max_rel_err": None, "passes": 0}

    def on_pass(_k, outputs):
        outcome = workload.check(record["inputs"], outputs)
        record["failed"] += outcome.failed
        record["problems"] += outcome.problems
        record["passes"] += 1
        if record["max_rel_err"] is None:
            record["max_rel_err"] = outcome.max_rel_err

    try:
        if args.trace:
            metrics, details, tracer = _layered(args, workload, stiefel_hermite, tr, gauge, on_pass, record)
        else:
            metrics, details, tracer = _end_to_end(args, workload, probe, gauge, on_pass, record)
    finally:
        probe.uninstall()
    attempted = len(probe.fit_starts) + len(probe.eval_starts) + record["failed"]
    result = {
        "correct": not record["problems"],
        "attempted": attempted,
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details.update(passes=record["passes"], problems=record["problems"])
    return result, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "fit_far", "eval_dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "stiefel_hermite" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stiefel_hermite  # noqa: F401  (loads scipy's BLAS before it is inspected)

    env = environment()
    live = {lib["library"]: lib.get("threads") for lib in env["openblas"]}
    wrong = {name: n for name, n in live.items() if n is not None and n != PINNED_THREADS}
    if wrong:
        print(f"error: BLAS threads {wrong} differ from the pinned {PINNED_THREADS}", file=sys.stderr)
        return 2

    result, details, tracer = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{'trace' if args.trace else 'e2e'}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "env": env, "result": result, **details}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.npz", env=json.dumps(env), seed=args.seed)

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  passes {details['passes']}")
    for name, m in result["metrics"].items():
        count = details["samples"].get(name)
        raw = details.get("raw", {}).get(name)
        note = f"  (n={count})" if count is not None else ""
        if name[:4] in ("fit_", "eval"):
            note += f" medians of {REPEATS} passes"
        note += f"  raw {raw:.6g}" if raw is not None else ""
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_ratio {ratio:.6g} ({result['failed']}/{result['attempted']})")
    for problem in details["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
