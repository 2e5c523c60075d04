#!/usr/bin/env python3
"""Run every error study at full scale and write the CSVs into results/.

Full-scale configurations: the transport-accuracy sweep on the
snapshot data, the Q-factor study at n=500/r=10, the low-rank SVD study
(scaled to n=1000/m=100/r=10) in both centerings, the tangent-vs-manifold
comparison, the snapshot study at n=1001/r=6, and the curvature bound check.

BLAS runs on one thread unless the environment sets the thread count: the
transport rows at h <= 1e-5 are round-off, whose digits depend on the BLAS
build and thread count, and the committed results/ are one-thread runs.
The checkout's src/ comes first on the import path, so the CSVs always come
from the code next to the script, installed or not.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stiefel_hermite import experiments as ex  # noqa: E402

OUT = ROOT / "results"


def save_table(name, rows, header):
    path = OUT / name
    lines = [header] + [",".join(repr(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def save_report(name, report):
    path = OUT / name
    ex.emit_report(report, path)
    summary = ", ".join(f"{m}={v:.4g}" for m, v in report.max_rel.items())
    print(f"wrote {path}  (max_rel: {summary})")
    for key, msg in report.failures.items():
        print(f"  note [{key}]: {msg}")


def main():
    OUT.mkdir(exist_ok=True)
    t0 = time.time()

    table = ex.run_transport_accuracy(
        ex.ExperimentConfig(n=1001, r=6, seed=0), use_snapshot_data=True
    )
    save_table("transport_accuracy_snapshot.csv", table, "h,transport_rel_err")

    save_report(
        "qr_interp_n500_r10.csv",
        ex.run_qr_interp(
            ex.ExperimentConfig(n=500, r=10, interval=(-1.1, 1.1), num_nodes=6, seed=0)
        ),
    )

    for centering in ("q", "p"):
        save_report(
            f"svd_interp_n1000_m100_r10_{centering}.csv",
            ex.run_svd_interp(
                ex.ExperimentConfig(
                    n=1000, r=10, m=100, interval=(0.0, 0.5), num_nodes=2, seed=0,
                    centering=centering, methods=("hermite", "geodesic"),
                )
            ),
        )

    save_report(
        "tangent_vs_manifold.csv",
        ex.run_tangent_vs_manifold(
            ex.ExperimentConfig(
                n=200, r=6, m=50, interval=(0.0, 0.5), num_nodes=2, seed=0,
                methods=("hermite",),
            )
        ),
    )

    save_report(
        "snapshot_interp_n1001_r6.csv",
        ex.run_snapshot_experiment(
            ex.ExperimentConfig(n=1001, r=6, interval=(1.7, 2.3), num_nodes=6)
        ),
    )

    rows = []
    cfg = ex.ExperimentConfig(n=40, r=4, seed=3)
    for delta in (0.1, 0.2, 0.3):
        row = ex.bound_check_instance(cfg, delta, delta, 0.1)
        rows.append(
            (row["delta"], row["delta_tilde"], row["s0"],
             row["observed_dist"], row["bound_flat"], row["bound_max_curvature"])
        )
    save_table(
        "bound_check.csv", rows,
        "delta,delta_tilde,s0,observed_dist,bound_flat,bound_max_curvature",
    )

    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
