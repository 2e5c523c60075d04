"""Command-line harness for the interpolation error studies.

One subcommand per entry of ``experiments.COMMANDS``, with one flag per
config field that the entry lists as read by its study.  With no flags a
subcommand runs the first of the entry's ``studies``, the paper
configuration; each flag given overrides that one field.  Results are
written as CSV to ``--out`` or stdout.  Exit codes: 0 success, 2
configuration/precondition error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from . import experiments, interpolate
from .errors import ConvergenceError


def _interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def _methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


#: The flag of each ``ExperimentConfig`` field a study may read, named
#: ``--<field>`` except ``--nodes``.
_FLAGS = {
    "n": dict(type=int, help="ambient rows"),
    "r": dict(type=int, help="columns / rank"),
    "m": dict(type=int, help="right factor columns"),
    "num_nodes": dict(type=int, metavar="NODES", help="Chebyshev sample nodes"),
    "interval": dict(type=_interval, metavar="a,b", help="sampling interval"),
    "seed": dict(type=int),
    "centering": dict(choices=interpolate.CENTERINGS),
    "methods": dict(type=_methods, help="comma list from hermite,geodesic,rbf"),
}


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
    for command, entry in experiments.COMMANDS.items():
        stem, config = next(iter(entry.studies.items()))
        sub = subs.add_parser(
            command,
            argument_default=argparse.SUPPRESS,
            allow_abbrev=False,
            description=f"Without flags, runs the paper study of results/{stem}.csv.",
        )
        # argparse reads an argument that starts with a dash as a flag's value
        # only if it matches this pattern; its default, a lone negative
        # number, would refuse "--interval -1.1,1.1".
        sub._negative_number_matcher = re.compile(r"-\.?\d")
        for name in entry.fields:
            flag = "--nodes" if name == "num_nodes" else f"--{name}"
            sub.add_argument(flag, dest=name, **_FLAGS[name])
        sub.add_argument("--out", help="CSV output path (default: stdout)")
        sub.set_defaults(defaults=config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, defaults, out = args.pop("command"), args.pop("defaults"), args.pop("out", None)
    try:
        config = dataclasses.replace(defaults, **args)
        _write(experiments.COMMANDS[command].run(config), out)
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
