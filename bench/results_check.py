"""Checks of regenerated study outputs: against the committed CSVs, and by invariants.

Committed-results check (paper configuration only): every number must agree
within ``max(rel * max(|a|, |b|), floor)``.  The relative part sits far above
the round-off seen between BLAS builds on rows carrying signal (measured
regenerated-vs-committed drift: 3.4e-11 relative); the absolute floor covers
rows that are themselves round-off, such as the knot rows near 1e-15 and the
transport sweep at h <= 1e-4 (5.33e-12 committed against 4.66e-12
regenerated).

Invariants (any configuration): knot errors <= 1e-12, Hermite max_rel below
geodesic max_rel, bound_check observed distance <= the flat bound, and no
recorded failure.
"""

from __future__ import annotations

import math
from pathlib import Path

# (relative tolerance, absolute floor) per output kind.
TOLERANCES = {
    "report": (1e-6, 1e-13),
    "transport": (1e-3, 5e-11),
    "bound": (1e-9, 1e-15),
}

KNOT_TOL = 1e-12


def within(a: float, b: float, rel: float, floor: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def _compare_seq(label, got, want, rel, floor, problems) -> None:
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} values, committed has {len(want)}")
        return
    for i, (a, b) in enumerate(zip(got, want)):
        if not within(a, b, rel, floor):
            problems.append(f"{label}[{i}]: {a!r} vs committed {b!r}")
            return


def compare_report(name: str, got, want) -> list[str]:
    """Differences between two ``experiments.ErrorReport`` beyond tolerance."""
    rel, floor = TOLERANCES["report"]
    problems: list[str] = []
    _compare_seq(f"{name} t", got.eval_grid, want.eval_grid, 1e-14, 0.0, problems)
    if set(got.errors) != set(want.errors):
        problems.append(f"{name}: methods {sorted(got.errors)} vs committed {sorted(want.errors)}")
        return problems
    for m in want.errors:
        _compare_seq(f"{name} {m}_rel_err", got.errors[m], want.errors[m], rel, floor, problems)
        _compare_seq(f"{name} max_rel {m}", [got.max_rel[m]], [want.max_rel[m]], rel, floor, problems)
        _compare_seq(f"{name} l2_rel {m}", [got.l2_rel[m]], [want.l2_rel[m]], rel, floor, problems)
    for label, a, b in (
        ("tangent_err", got.tangent_errors, want.tangent_errors),
        ("manifold_err", got.manifold_errors, want.manifold_errors),
    ):
        if (a is None) != (b is None):
            problems.append(f"{name}: {label} column present in only one report")
        elif a is not None:
            _compare_seq(f"{name} {label}", a, b, rel, floor, problems)
    if set(got.failures) != set(want.failures):
        problems.append(f"{name}: failures {sorted(got.failures)} vs committed {sorted(want.failures)}")
    return problems


def compare_table(name: str, got: list[tuple], want: list[tuple], kind: str) -> list[str]:
    """Row-by-row comparison of a numeric table (transport sweep, bound check)."""
    rel, floor = TOLERANCES[kind]
    problems: list[str] = []
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, committed has {len(want)}"]
    for i, (row, ref) in enumerate(zip(got, want)):
        _compare_seq(f"{name} row {i}", list(row), list(ref), rel, floor, problems)
    return problems


def read_table(path: Path) -> list[tuple[float, ...]]:
    """A committed numeric CSV table, header dropped."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    return [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]


def report_invariants(name: str, report) -> list[str]:
    """Seed-independent properties of an interpolation error report."""
    problems = []
    for m, errs in report.errors.items():
        if not errs:
            problems.append(f"{name}: no {m} errors")
            continue
        # The evaluation grid starts and ends on sample nodes.
        for end in (errs[0], errs[-1]):
            if not (end <= KNOT_TOL):
                problems.append(f"{name}: {m} knot error {end!r} > {KNOT_TOL}")
    if "hermite" in report.max_rel and "geodesic" in report.max_rel:
        if not report.max_rel["hermite"] < report.max_rel["geodesic"]:
            problems.append(
                f"{name}: hermite max_rel {report.max_rel['hermite']!r} "
                f"not below geodesic {report.max_rel['geodesic']!r}"
            )
    for key, message in report.failures.items():
        problems.append(f"{name}: failure [{key}] {message}")
    return problems


def bound_invariants(name: str, rows: list[dict]) -> list[str]:
    return [
        f"{name}: observed {row['observed_dist']!r} > bound_flat {row['bound_flat']!r}"
        for row in rows
        if not row["observed_dist"] <= row["bound_flat"]
    ]


def transport_invariants(name: str, table: list[tuple[float, float]]) -> list[str]:
    return [
        f"{name}: h={h!r} error {err!r} is not finite and positive"
        for h, err in table
        if not (math.isfinite(err) and err > 0.0)
    ]
