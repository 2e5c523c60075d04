#!/usr/bin/env python3
"""Run every paper study at full scale and write results/<name>.csv for each.

The runs and their configurations are the ``studies`` of each
``experiments.COMMANDS`` entry, written in the registry's order.  The first
line gives the three BLAS thread variables the run used, each later line a
study's wall time in ms, and the last line the total.  Exits 1, after
writing every file, when any report records a failure.

BLAS runs on one thread unless the environment sets the thread count: the
transport rows at h <= 1e-5 are round-off, whose digits depend on the BLAS
build and thread count, and the committed results/ are one-thread runs.
The checkout's src/ comes first on the import path, so the CSVs always come
from the code next to the script, installed or not.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stiefel_hermite import experiments as ex  # noqa: E402

OUT = ROOT / "results"


def main():
    print(" ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    failed = 0
    runs = [(stem, cmd.run, config) for cmd in ex.COMMANDS.values()
            for stem, config in cmd.studies.items()]
    for stem, run, config in runs:
        path = OUT / f"{stem}.csv"
        start = time.perf_counter()
        text = run(config)
        wall_ms = 1e3 * (time.perf_counter() - start)
        path.write_text(text)
        footers = [ln[2:].split(",", 2) for ln in text.splitlines() if ln.startswith("# ")]
        summary = ", ".join(f"{m}={float(v):.4g}" for kind, m, v in footers if kind == "max_rel")
        print(f"wrote {path}  {wall_ms:.1f} ms" + (f"  (max_rel: {summary})" if summary else ""))
        for kind, key, msg in footers:
            if kind == "failure":
                print(f"  failure [{key}]: {msg}")
                failed += 1
    print(f"total {1e3 * (time.perf_counter() - t0):.1f} ms")
    if failed:
        print(f"{failed} recorded failure(s) in {OUT}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
