#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size (about a minute).

    python3 bench/selftest.py

Checks that:
  * the results check accepts the committed CSVs, accepts round-off drift at
    the floor, and rejects a deliberately perturbed result;
  * every workload runs at toy size in both modes and prints exactly the
    metric names and units of BENCHMARK.json, with correct outputs;
  * the traced counts repeat exactly across two processes;
  * without the library sources the benchmark exits non-zero and prints no
    result.
Exits non-zero on the first failed check.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import results_check as rc  # noqa: E402
import workloads as wl  # noqa: E402
from stiefel_hermite import experiments as ex  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def committed_outputs():
    """The paper pass outputs as the committed results/ record them."""
    outputs = {}
    for study in wl.PAPER_STUDIES:
        path = wl.RESULTS_DIR / f"{study.name}.csv"
        if study.kind == "transport":
            outputs[study.name] = rc.read_table(path)
        elif study.kind == "bound":
            outputs[study.name] = [dict(zip(wl.BOUND_COLUMNS, row)) for row in rc.read_table(path)]
        else:
            outputs[study.name] = ex.parse_report(path.read_text())
    return outputs


def test_results_check() -> None:
    paper = wl.Paper()
    inputs = wl.PaperInputs(
        studies=[(s, ex.ExperimentConfig(**s.full)) for s in wl.PAPER_STUDIES],
        compare_committed=True,
    )
    outputs = committed_outputs()
    check(paper.check(inputs, outputs).problems == [], "committed results pass the results check")

    drift = copy.deepcopy(outputs)
    table = drift["transport_accuracy_snapshot"]
    h_floor = [i for i, (h, _) in enumerate(table) if h == 1e-4][0]
    table[h_floor] = (1e-4, 4.66e-12)  # regenerated value seen on another BLAS build
    report = drift["qr_interp_n500_r10"]
    report.errors["hermite"][0] *= 1.5  # knot row at ~1e-15
    check(paper.check(inputs, drift).problems == [], "round-off drift at the floor is accepted")

    for label, perturb in (
        ("a Hermite error off by 1e-4", lambda o: o["snapshot_interp_n1001_r6"].errors["hermite"].__setitem__(
            50, o["snapshot_interp_n1001_r6"].errors["hermite"][50] * (1 + 1e-4))),
        ("a transport error off by 1%", lambda o: o["transport_accuracy_snapshot"].__setitem__(
            0, (1e-2, o["transport_accuracy_snapshot"][0][1] * 1.01))),
        ("a bound-check distance off by 1e-6", lambda o: o["bound_check"][1].__setitem__(
            "observed_dist", o["bound_check"][1]["observed_dist"] * (1 + 1e-6))),
        ("a recorded failure", lambda o: o["qr_interp_n500_r10"].failures.__setitem__("rbf", "log failed")),
    ):
        bad = copy.deepcopy(outputs)
        perturb(bad)
        check(paper.check(inputs, bad).problems != [], f"results check rejects {label}")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def test_workloads() -> None:
    counts = {}
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(w["name"], trace)
            result = json.loads(out.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']} trace={trace}: exit 0 and a result line")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w['name']} trace={trace}: outputs correct, nothing failed")
            check(got == want, f"{w['name']} trace={trace}: metric names and units match BENCHMARK.json")
            if trace:
                counts[w["name"]] = {k: v["value"] for k, v in result["metrics"].items()
                                     if v["unit"] == "count"}
    for name, first in counts.items():
        code, out = run_bench(name, 1)
        again = {k: v["value"] for k, v in json.loads(out.strip().splitlines()[-1])["metrics"].items()
                 if v["unit"] == "count"}
        check(code == 0 and again == first, f"{name}: traced counts repeat exactly in a second process")


def test_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH_DIR.glob("*.py"):
        shutil.copy(f, bare / "bench")
    code, out = run_bench("paper", 0, cwd=bare)
    shutil.rmtree(bare)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    check(code != 0 and not last.startswith("{"), "without library sources: non-zero exit, no result")


if __name__ == "__main__":
    os.chdir(ROOT)
    test_results_check()
    test_workloads()
    test_without_sources()
    print("selftest passed")
