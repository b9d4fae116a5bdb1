"""Command-line front end.

Subcommands:

    point  --fix J=10 --fix Jz=2 --fix B=0 --fix T=0.01 [--measure M ...]
           evaluate one parameter point, print a JSON record to stdout
    sweep  --axis J=-20:20:0.25 [--axis Jz=...] --fix ... --out FILE
           run a 1D/2D grid and write CSV or JSON
    plot   like sweep, but render an SVG (heatmap for 2 axes, lines for 1;
           a --mode that does not fit the axes is a usage error)

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .plot import render_svg
from .sweep import (
    ENGINES,
    MEASURES,
    PARAM_NAMES,
    AxisSpec,
    SweepSpec,
    format_value,
    run_sweep,
    write_csv,
    write_json,
)

__all__ = ["UsageError", "build_parser", "main"]


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_fix(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep:
        raise UsageError(f"--fix expects NAME=VALUE, got {text!r}")
    if name not in PARAM_NAMES:
        raise UsageError(f"--fix name {name!r} is not one of {PARAM_NAMES}")
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
    try:
        return AxisSpec(name=name, start=start, stop=stop, step=step)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_common(sub: argparse.ArgumentParser, *, with_axes: bool) -> None:
    sub.add_argument(
        "--measure",
        action="append",
        choices=MEASURES,
        metavar="{%s}" % ",".join(MEASURES),
        help="measure to evaluate (repeatable; default: all)",
    )
    sub.add_argument(
        "--engine",
        choices=ENGINES,
        default="closed",
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


def build_parser() -> argparse.ArgumentParser:
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
    sweep.add_argument("--out", metavar="PATH", help="output file (required)")
    sweep.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )

    plot = subs.add_parser("plot", help="run a sweep and render an SVG")
    _add_common(plot, with_axes=True)
    plot.add_argument("--out", metavar="PATH", help="output SVG file (required)")
    plot.add_argument(
        "--mode",
        choices=("heatmap", "lines"),
        help="heatmap for 2 axes, lines for 1 (set by the axes; any other "
        "mode is a usage error)",
    )

    return parser


def _collect_fixed(pairs: list[str]) -> dict[str, float]:
    fixed: dict[str, float] = {}
    for item in pairs:
        name, value = _parse_fix(item)
        if name in fixed:
            raise UsageError(f"parameter {name} fixed twice")
        fixed[name] = value
    return fixed


def _build_spec(ns, axes: tuple[AxisSpec, ...], fixed: dict[str, float]) -> SweepSpec:
    measures = tuple(ns.measure) if ns.measure else MEASURES
    try:
        return SweepSpec(axes=axes, fixed=fixed, measures=measures, engine=ns.engine)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _sweep_spec(ns) -> SweepSpec:
    axes = tuple(_parse_axis(a) for a in ns.axis)
    if not axes:
        raise UsageError("a sweep needs at least one --axis")
    return _build_spec(ns, axes, _collect_fixed(ns.fix))


def _cmd_point(ns) -> int:
    fixed = _collect_fixed(ns.fix)
    missing = [n for n in PARAM_NAMES if n not in fixed]
    if missing:
        raise UsageError(f"point requires --fix for every parameter; missing {missing}")
    spec = _build_spec(ns, (), fixed)
    row = [format_value(x) for x in run_sweep(spec).data[0].tolist()]
    if spec.engine == "both":
        # each measure's oracle, closed and absdiff columns, in that order
        row = [
            '{"oracle": %s, "closed": %s, "absdiff": %s}' % tuple(row[k : k + 3])
            for k in range(0, len(row), 3)
        ]
    params_json = ", ".join(f'"{n}": {format_value(fixed[n])}' for n in PARAM_NAMES)
    measures_json = ", ".join(f'"{m}": {v}' for m, v in zip(spec.measures, row))
    print(
        '{"params": {%s}, "engine": %s, "measures": {%s}}'
        % (params_json, json.dumps(spec.engine), measures_json)
    )
    return 0


def _cmd_sweep(ns) -> int:
    if not ns.out:
        raise UsageError("sweep requires --out PATH")
    write = write_csv if ns.format == "csv" else write_json
    write(run_sweep(_sweep_spec(ns)), ns.out)
    return 0


def _cmd_plot(ns) -> int:
    if not ns.out:
        raise UsageError("plot requires --out PATH")
    spec = _sweep_spec(ns)
    mode = "heatmap" if len(spec.axes) == 2 else "lines"
    if ns.mode not in (None, mode):
        wants = "two axes" if ns.mode == "heatmap" else "one axis"
        raise UsageError(f"--mode {ns.mode} needs {wants}, got {len(spec.axes)}")
    if mode == "heatmap" and (len(spec.measures) != 1 or spec.engine == "both"):
        raise UsageError(
            "heatmap needs exactly one value column: one --measure and a "
            "single engine (closed or oracle)"
        )
    table = run_sweep(spec)
    render_svg(table, mode, ns.out)
    return 0


_COMMANDS = {"point": _cmd_point, "sweep": _cmd_sweep, "plot": _cmd_plot}

# Built once: building it costs more than most point evaluations.  Each
# parse_args call fills a fresh namespace, so calls share no state.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"xxzsteer: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        if ns.jobs < 1:
            raise UsageError(f"jobs must be a positive integer, got {ns.jobs}")
        return _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print(f"xxzsteer: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"xxzsteer: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
