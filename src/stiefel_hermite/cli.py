"""Command-line harness for the interpolation error studies.

One subcommand per study command of ``experiments.STUDIES``.  With no flags
a subcommand runs its first registry entry, the paper configuration; each
flag given overrides that one field.  Results are written as CSV to
``--out`` or stdout.  Exit codes: 0 success, 2 configuration/precondition
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiments
from .errors import ConvergenceError


def _interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def _methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _add_flags(sub: argparse.ArgumentParser) -> None:
    """Flags named after ``ExperimentConfig`` fields; only those given are set."""
    sub.add_argument("--n", type=int, help="ambient rows")
    sub.add_argument("--r", type=int, help="columns / rank")
    sub.add_argument("--m", type=int, help="right factor columns")
    sub.add_argument("--nodes", type=int, dest="num_nodes", metavar="NODES",
                     help="number of Chebyshev sample nodes")
    sub.add_argument("--interval", type=_interval, metavar="a,b", help="sampling interval")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--h", type=float, help="FD step for velocity transport")
    sub.add_argument("--tau", type=float, help="log convergence threshold")
    sub.add_argument("--centering", choices=["q", "p"])
    sub.add_argument("--methods", type=_methods, help="comma list from hermite,geodesic,rbf")
    sub.add_argument("--rbf-shape", type=float)
    sub.add_argument("--out", help="CSV output path (default: stdout)")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-hermite",
        description="Hermite interpolation error studies on the Stiefel manifold",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for study in experiments.STUDIES:
        if study.command in subs.choices:
            continue
        sub = subs.add_parser(
            study.command,
            argument_default=argparse.SUPPRESS,
            description=f"Without flags, runs the paper study of results/{study.name}.csv.",
        )
        _add_flags(sub)
        sub.set_defaults(defaults=study.config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, defaults, out = args.pop("command"), args.pop("defaults"), args.pop("out", None)
    try:
        config = dataclasses.replace(defaults, **args)
        _write(experiments.run_study(command, config), out)
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
