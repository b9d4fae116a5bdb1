"""Command-line front end.

Subcommands:

    point  --fix J=10 --fix Jz=2 --fix B=0 --fix T=0.01 [--measure M ...]
           evaluate one parameter point, print a JSON record to stdout
    sweep  --axis J=-20:20:0.25 [--axis Jz=...] --fix ... --out FILE
           run a 1D/2D grid and write CSV or JSON
    plot   like sweep, but render an SVG as plot.layout says (heatmap for
           2 axes and one value column, lines for 1 axis); a sweep it
           refuses, or a --mode it does not give, is a usage error

A command line that starts with a command name is parsed by that
command's subparser alone; any other (help, no command, an unknown command,
an option before the command) goes through the top-level parser.  Both
give the same namespace, output and exit code: the top-level parser hands a
subparser every argument after the command name, and its own pass over
them costs about as much as the subparser's.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .plot import layout, render_svg
from .sweep import (
    ENGINES,
    MEASURES,
    PARAM_NAMES,
    _RECORD_FIELDS,
    AxisSpec,
    SweepSpec,
    format_value,
    run_sweep,
    write_csv,
    write_json,
)

__all__ = ["UsageError", "main"]


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_fix(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep:
        raise UsageError(f"--fix expects NAME=VALUE, got {text!r}")
    try:
        return name, float(raw)
    except ValueError:
        raise UsageError(f"--fix {name}: {raw!r} is not a number") from None


def _parse_axis(text: str) -> AxisSpec:
    name, sep, raw = text.partition("=")
    if not sep:
        raise UsageError(f"--axis expects NAME=START:STOP:STEP, got {text!r}")
    parts = raw.split(":")
    if len(parts) != 3:
        raise UsageError(f"--axis {name}: expected START:STOP:STEP, got {raw!r}")
    try:
        start, stop, step = (float(tok) for tok in parts)
    except ValueError:
        raise UsageError(f"--axis {name}: {raw!r} contains a non-number") from None
    return AxisSpec(name=name, start=start, stop=stop, step=step)


def _add_common(sub: argparse.ArgumentParser, *, with_axes: bool) -> None:
    # the names are listed here and checked by SweepSpec alone
    sub.add_argument(
        "--measure",
        action="append",
        metavar="{%s}" % ",".join(MEASURES),
        help="measure to evaluate (repeatable; default: all)",
    )
    sub.add_argument(
        "--engine",
        default="closed",
        metavar="{%s}" % ",".join(ENGINES),
        help="evaluation engine (default: closed)",
    )
    sub.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fix one parameter (repeatable)",
    )
    if with_axes:
        sub.add_argument(
            "--axis",
            action="append",
            default=[],
            metavar="NAME=START:STOP:STEP",
            help="sweep one parameter (one or two axes; first axis is outer)",
        )
    sub.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility, at least 1; runs use one process",
    )


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    parser = _Parser(
        prog="xxzsteer",
        description=(
            "Steered quantum coherence (SCn, SCRE) and quantum Fisher "
            "information of the two-qubit XXZ thermal state."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    point = subs.add_parser("point", help="evaluate a single parameter point")
    _add_common(point, with_axes=False)

    sweep = subs.add_parser("sweep", help="run a 1D/2D parameter sweep")
    _add_common(sweep, with_axes=True)
    sweep.add_argument("--out", required=True, metavar="PATH", help="output file")
    sweep.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )

    plot = subs.add_parser("plot", help="run a sweep and render an SVG")
    _add_common(plot, with_axes=True)
    plot.add_argument("--out", required=True, metavar="PATH", help="output SVG file")
    plot.add_argument(
        "--mode",
        choices=("heatmap", "lines"),
        help="heatmap for 2 axes, lines for 1 (set by the axes; any other "
        "mode is a usage error)",
    )

    return parser, {"point": point, "sweep": sweep, "plot": plot}


def _collect_fixed(pairs: list[str]) -> dict[str, float]:
    fixed: dict[str, float] = {}
    for item in pairs:
        name, value = _parse_fix(item)
        if name in fixed:
            raise UsageError(f"parameter {name} fixed twice")
        fixed[name] = value
    return fixed


def _request(ns) -> SweepSpec:
    """The command line's SweepSpec, checked before anything runs.

    Building it parses the axes, collects --fix, builds the SweepSpec and,
    on plot, asks plot.layout for the mode.  Each rule of a request has one
    owner among these, and a ValueError any of them raises is a usage error.
    """
    try:
        axes = tuple(_parse_axis(a) for a in getattr(ns, "axis", ()))
        if not axes and ns.command != "point":
            raise UsageError("a sweep needs at least one --axis")
        spec = SweepSpec(
            axes=axes,
            fixed=_collect_fixed(ns.fix),
            measures=tuple(ns.measure or MEASURES),
            engine=ns.engine,
        )
        if ns.command == "plot":
            mode = layout(spec.axes, spec.value_columns())
            if ns.mode not in (None, mode):
                wants = "two axes" if ns.mode == "heatmap" else "one axis"
                raise UsageError(f"--mode {ns.mode} needs {wants}, got {len(axes)}")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec


def _cmd_point(ns, spec: SweepSpec) -> None:
    row = [format_value(x) for x in run_sweep(spec).data[0].tolist()]
    if spec.engine == "both":
        # each measure's record fields, one column each, in that order
        width = len(_RECORD_FIELDS)
        record = "{%s}" % ", ".join(f'"{field}": %s' for field in _RECORD_FIELDS)
        row = [record % tuple(row[k : k + width]) for k in range(0, len(row), width)]
    params_json = ", ".join(
        f'"{n}": {format_value(spec.fixed[n])}' for n in PARAM_NAMES
    )
    measures_json = ", ".join(f'"{m}": {v}' for m, v in zip(spec.measures, row))
    print(
        '{"params": {%s}, "engine": %s, "measures": {%s}}'
        % (params_json, json.dumps(spec.engine), measures_json)
    )


def _cmd_sweep(ns, spec: SweepSpec) -> None:
    write = write_csv if ns.format == "csv" else write_json
    write(run_sweep(spec), ns.out)


def _cmd_plot(ns, spec: SweepSpec) -> None:
    render_svg(run_sweep(spec), ns.out)


_COMMANDS = {"point": _cmd_point, "sweep": _cmd_sweep, "plot": _cmd_plot}

# Built once: building them costs more than most point evaluations.  Each
# parse_args call fills a fresh namespace, so calls share no state.
_PARSER, _SUBPARSERS = _build()


def _parse(argv) -> argparse.Namespace:
    """The namespace the top-level parser gives (see the module docstring)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    try:
        ns = _parse(argv)
        if ns.jobs < 1:
            raise UsageError(f"jobs must be a positive integer, got {ns.jobs}")
        _COMMANDS[ns.command](ns, _request(ns))
        return 0
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"xxzsteer: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"xxzsteer: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
