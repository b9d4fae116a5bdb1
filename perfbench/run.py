#!/usr/bin/env python3
"""Benchmark of the xxzsteer command line, end to end and module by module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one call of ``xxzsteer.cli.main`` in this process
(``--jobs 1``, BLAS limited to one thread).  A run repeats whole rounds of
the workload's operations until ``--seconds`` have passed, checks every
output, and prints one JSON object as the last line of standard output:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  README.md in this directory describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import os

# One computing thread, as for a single xxzsteer process; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from calibration import NOMINAL_S, chunk_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MEASURES = ("SCn", "SCRE", "SCREpaper", "QFI", "QFIclosed")
# Closed form vs definition, as acceptance check A4 pins them.
AGREE = {"SCn": 1e-10, "SCRE": 1e-10, "SCREpaper": 1e-10, "QFI": 1e-8, "QFIclosed": 1e-8}
# Value ranges the measures cannot leave; the slack absorbs the last ulp.
RANGES = {"SCn": 3.0, "SCRE": 3.0, "QFI": 4.0}
RANGE_SLACK = 1e-12
# Largest |f(J) - f(-J)| on a grid, as acceptance check A6 pins it.
EVEN_BOUND = 1e-8

LATENCY_CALLS = 4000   # point calls timed on a grid workload, in one block, split evenly by sweep
REFERENCE_CELLS = 200  # seeded cells of a grid workload checked against reference.py
SETUP_PROBES = 6       # fresh interpreters timed per run, after untimed warm-ups
TAIL_WINDOW = 5        # calls around a latency call whose median is its moment's typical cost

CALIBRATION_EVERY_S = 0.25  # host-speed samples while the program runs
CALIBRATION_WINDOW_S = 0.5  # a call is scaled by the samples this close to it

# The published QFI ratio leaves double range on about 13.2% of draws over the
# full box (20000 draws), so each `points` round of 400 calls holds 52 calls at
# these fixed inputs (13 points, 4 times each) next to 348 seeded draws that
# stay in range.  (J, Jz, B, T); the first is inside the box, the second its corner.
OVERFLOW_POINTS = (
    (1.0, 0.0, 1.0, 1e-3),
    (1e3, -1e3, 1e3, 1e-3),
    (877.2, -732.0, 659.6, 0.1188),
    (289.5, -494.2, 945.5, 0.0137),
    (279.6, -379.0, 134.3, 0.1286),
    (916.9, -158.8, 362.6, 0.00937),
    (202.1, -384.9, 614.3, 0.3377),
    (989.1, -21.58, 404.2, 0.001627),
    (27.65, -465.5, 22.82, 0.006911),
    (-648.5, -755.8, 694.0, 0.191),
    (894.6, -446.4, 183.3, 0.001187),
    (734.8, -604.5, 420.9, 0.005308),
    (820.0, 102.2, 271.2, 0.02309),
)
OVERFLOW_REPEATS = 4
SEEDED_POINTS = 348
OVERFLOW_MESSAGE = "xxzsteer: published QFI ratio "


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no program to run)."""


# --------------------------------------------------------------------------
# The program under test


class Program:
    """xxzsteer imported from the checkout's own src/ directory."""

    def __init__(self):
        if not (SRC / "xxzsteer" / "cli.py").is_file():
            raise BenchError(f"no xxzsteer source under {SRC}")
        sys.path.insert(0, str(SRC))
        import xxzsteer
        import xxzsteer.cli
        import xxzsteer.fisher
        import xxzsteer.model

        where = Path(xxzsteer.__file__).resolve().parent
        if where != SRC / "xxzsteer":
            raise BenchError(f"imported xxzsteer from {where}, not from {SRC}")
        self.cli = xxzsteer.cli
        self.fisher = xxzsteer.fisher
        self.model = xxzsteer.model

    def call(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        """One CLI invocation: exit code, stdout, stderr, start and seconds taken."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), t0, seconds


def fix_args(params: dict[str, float]) -> list[str]:
    return [arg for name, value in params.items() for arg in ("--fix", f"{name}={float(value)!r}")]


def as_params(p: tuple[float, float, float, float]) -> dict[str, float]:
    return dict(zip(("J", "Jz", "B", "T"), p))


def measure_args(measures) -> list[str]:
    return [arg for m in measures for arg in ("--measure", m)]


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    step: float

    @property
    def count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=float)

    def arg(self) -> list[str]:
        return ["--axis", f"{self.name}={self.start!r}:{self.stop!r}:{self.step!r}"]


@dataclass
class Grid:
    """One sweep or plot command over a 1D or 2D grid."""

    axes: tuple[Axis, ...]
    fixed: dict[str, float]
    measures: tuple[str, ...]
    engine: str = "closed"

    @property
    def cells(self) -> int:
        return math.prod(ax.count for ax in self.axes)

    def argv(self, command: str, out: Path, extra: list[str] = ()) -> list[str]:
        argv = [command, "--engine", self.engine, "--jobs", "1"]
        argv += measure_args(self.measures)
        for ax in self.axes:
            argv += ax.arg()
        return argv + fix_args(self.fixed) + list(extra) + ["--out", str(out)]

    def first_row(self) -> "Grid":
        """The first row of a 2D grid (its first result); a 1D grid whole."""
        if len(self.axes) == 1:
            return self
        outer = self.axes[0]
        head = Axis(outer.name, outer.start, outer.start, outer.step)
        return Grid((head,) + self.axes[1:], self.fixed, self.measures, self.engine)

    def params(self, row: int) -> dict[str, float]:
        """J, Jz, B, T of one table row (outer axis slowest)."""
        p = dict(self.fixed)
        index = row
        for ax in reversed(self.axes):
            p[ax.name] = float(ax.values()[index % ax.count])
            index //= ax.count
        return p

    def value_columns(self) -> list[str]:
        if self.engine == "both":
            return [f"{m}_{k}" for m in self.measures for k in ("oracle", "closed", "absdiff")]
        return list(self.measures)


@dataclass
class Op:
    argv: list[str]
    cells: int
    grid: Grid | None = None
    out: Path | None = None


@dataclass
class Run:
    """What one pass of a workload produced."""

    rounds: int = 0
    op_starts: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    first: list[tuple[int, str, str]] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def digest(path: Path | None) -> str | None:
    return None if path is None else hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# Output checks shared by the workloads


def parse_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a CSV, parsed with Python's own float()."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path.name}: does not end with a newline")
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:-1]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return header, data


def check_table(grid: Grid, path: Path, errors: list[str]) -> np.ndarray | None:
    """Header, axis columns and value ranges of one sweep CSV."""
    try:
        header, data = parse_csv(path)
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable CSV ({exc})")
        return None
    want = [ax.name for ax in grid.axes] + grid.value_columns()
    if header != want or data.shape[0] != grid.cells:
        errors.append(f"{path.name}: header {header}, {data.shape[0]} rows; want {want}, {grid.cells}")
        return None
    for k, ax in enumerate(grid.axes):
        expect = ax.values()
        if len(grid.axes) == 2:
            expect = np.repeat(expect, grid.axes[1].count) if k == 0 else np.tile(expect, grid.axes[0].count)
        if not np.array_equal(data[:, k], expect):
            errors.append(f"{path.name}: column {ax.name} does not hold the grid values")
    if not np.all(np.isfinite(data)):
        errors.append(f"{path.name}: non-finite value")
    for j, col in enumerate(header):
        top = RANGES.get(col.split("_")[0])
        if top is None or col.endswith("_absdiff"):
            continue
        lo, hi = data[:, j].min(), data[:, j].max()
        if lo < -RANGE_SLACK or hi > top + RANGE_SLACK:
            errors.append(f"{path.name}: {col} spans [{lo!r}, {hi!r}], outside [0, {top}]")
    return data


def check_reference(where: str, params: dict, values: dict, errors: list[str]) -> None:
    """SCn, SCRE and QFI against the independent numpy reference."""
    ref = reference.measures(params["J"], params["Jz"], params["B"], params["T"])
    for m, want in ref.items():
        if m in values and not abs(values[m] - want) <= AGREE[m]:
            errors.append(f"{where}: {m}={values[m]!r}, reference {want!r} at {params}")


def check_point_output(where: str, argv_params: dict, stdout: str, measures, engine,
                       errors: list[str]) -> dict | None:
    """Parse one `point` record and check its shape and ranges."""
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        errors.append(f"{where}: output is not JSON ({exc})")
        return None
    if record.get("params") != argv_params or record.get("engine") != engine:
        errors.append(f"{where}: echoed params/engine {record.get('params')} {record.get('engine')}")
    got = record.get("measures", {})
    if list(got) != list(measures):
        errors.append(f"{where}: measures {list(got)}, want {list(measures)}")
        return None
    flat = {}
    for m, v in got.items():
        if engine == "both":
            for k in ("oracle", "closed", "absdiff"):
                flat[f"{m}_{k}"] = v[k]
        else:
            flat[m] = v
    for col, v in flat.items():
        top = RANGES.get(col.split("_")[0])
        if not math.isfinite(v) or (top and not col.endswith("_absdiff")
                                    and not -RANGE_SLACK <= v <= top + RANGE_SLACK):
            errors.append(f"{where}: {col}={v!r} out of range")
    return flat


# --------------------------------------------------------------------------
# Workloads


class GridWorkload:
    """Sweep/plot commands over fixed grids; point latency sampled at grid cells."""

    name = ""
    reference_cells = REFERENCE_CELLS
    latency_calls = LATENCY_CALLS

    def __init__(self, program: Program, rng: np.random.Generator, outdir: Path):
        self.program = program
        self.rng = rng
        self.outdir = outdir
        self.ops = self.build_ops()
        # every grid workload starts with a sweep; its first row is the first result
        self.probe_argv = self.ops[0].grid.first_row().argv("sweep", outdir / "probe.csv")
        # Every sweep gets the same number of latency calls: whole passes over
        # its cells, then distinct seeded cells.  So the mix of inputs, whose
        # costs differ, is the same in every run; only the order is seeded.
        csv_ops = [op for op in self.ops if op.out.suffix == ".csv"]
        per_op = self.latency_calls // len(csv_ops)
        cells = []
        for op in csv_ops:
            n = op.grid.cells
            rows = np.concatenate([np.tile(np.arange(n), per_op // n),
                                   rng.choice(n, per_op % n, replace=False)])
            cells += [(op, int(row)) for row in rows]
        self.latency_cells = [cells[i] for i in rng.permutation(len(cells))]

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def latency_argv(self, op: Op, row: int) -> list[str]:
        return (["point", "--engine", op.grid.engine] + measure_args(op.grid.measures)
                + fix_args(op.grid.params(row)))

    def check(self, run: Run, latency_outputs: list[str]) -> list[str]:
        errors: list[str] = []
        tables = {}
        for op in self.ops:
            if op.out.suffix == ".csv":
                tables[id(op)] = check_table(op.grid, op.out, errors)
            else:
                self.check_svg(op, errors)
        parsed = [op for op in self.ops if tables.get(id(op)) is not None]
        per_table = max(1, self.reference_cells // max(1, len(parsed)))
        samples = [(op, int(self.rng.integers(op.grid.cells)))
                   for op in parsed for _ in range(per_table)]
        for op, row in samples:
            cols = op.grid.value_columns()
            values = dict(zip(cols, tables[id(op)][row, len(op.grid.axes):]))
            for suffix in ("", "_oracle", "_closed"):
                picked = {m: values[m + suffix] for m in RANGES if m + suffix in values}
                if picked:
                    check_reference(op.out.name, op.grid.params(row), picked, errors)
        for (op, row), stdout in zip(self.latency_cells, latency_outputs):
            table = tables.get(id(op))
            params = op.grid.params(row)
            flat = check_point_output(f"point at {params}", params, stdout, op.grid.measures,
                                      op.grid.engine, errors)
            if flat is None or table is None:
                continue
            want = dict(zip(op.grid.value_columns(), table[row, len(op.grid.axes):]))
            if flat != want:
                errors.append(f"point at {params} differs from row {row} of {op.out.name}")
        self.check_tables(tables, errors)
        return errors

    def check_tables(self, tables: dict, errors: list[str]) -> None:
        pass

    def check_svg(self, op: Op, errors: list[str]) -> None:
        try:
            root = ET.parse(op.out).getroot()
        except (OSError, ET.ParseError) as exc:
            errors.append(f"{op.out.name}: not XML ({exc})")
            return
        ns = "{http://www.w3.org/2000/svg}"
        if len(op.grid.axes) == 2:
            cells = [e for e in root.iter(f"{ns}rect") if e.get("class") == "cell"]
            if len(cells) != op.grid.cells:
                errors.append(f"{op.out.name}: {len(cells)} cell rects, want {op.grid.cells}")
            return
        series = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "series"]
        names = [e.get("data-name") for e in series]
        if names != list(op.grid.measures):
            errors.append(f"{op.out.name}: series {names}, want {list(op.grid.measures)}")
        for e in series:
            if len(e.get("points", "").split()) != op.grid.cells:
                errors.append(f"{op.out.name}: series {e.get('data-name')} has the wrong point count")


COUPLING_AXES = (Axis("J", -20.0, 20.0, 0.25), Axis("Jz", -20.0, 20.0, 0.25))


class ClosedGrid(GridWorkload):
    """The reference traffic: all five measures, closed engine, 161x161 (J, Jz)."""

    name = "closed-grid"

    def build_ops(self) -> list[Op]:
        grid = Grid(COUPLING_AXES, {"T": 2.0, "B": 1.0}, MEASURES)
        out = self.outdir / "closed_grid.csv"
        return [Op(grid.argv("sweep", out), grid.cells, grid, out)]

    def check_tables(self, tables, errors) -> None:
        data = next(iter(tables.values()))
        if data is None:
            return
        n = COUPLING_AXES[0].count
        values = data[:, 2:].reshape(n, n, -1)
        worst = float(np.abs(values - values[::-1]).max())
        if not worst <= EVEN_BOUND:
            errors.append(f"closed_grid.csv: |f(J) - f(-J)| reaches {worst!r} (> {EVEN_BOUND})")


class Crosscheck(GridWorkload):
    """Closed engine against the definitions (--engine both) at B=0 and B=1."""

    name = "crosscheck"
    reference_cells = 100
    latency_calls = 7 * 162  # every cell seven times, at about 8 ms a call; 11 beyond p99

    def build_ops(self) -> list[Op]:
        # 9x9 cells a sweep: short calls let the host-speed samples track them
        axes = (Axis("J", -2.0, 2.0, 0.5), Axis("Jz", -2.0, 2.0, 0.5))
        ops = []
        for b in (0.0, 1.0):
            grid = Grid(axes, {"T": 1.0, "B": b}, MEASURES, engine="both")
            out = self.outdir / f"crosscheck_B{b:g}.csv"
            ops.append(Op(grid.argv("sweep", out), grid.cells, grid, out))
        return ops

    def check_tables(self, tables, errors) -> None:
        for op in self.ops:
            data = tables.get(id(op))
            if data is None:
                continue
            cols = op.grid.value_columns()
            at_zero_field = op.grid.fixed["B"] == 0.0
            for m in MEASURES:
                oracle, closed, absdiff = (data[:, 2 + cols.index(f"{m}_{k}")]
                                           for k in ("oracle", "closed", "absdiff"))
                if not np.array_equal(absdiff, np.abs(oracle - closed)):
                    errors.append(f"{op.out.name}: {m}_absdiff is not |oracle - closed|")
                if m in RANGES or at_zero_field:
                    worst = float(absdiff.max())
                    if not worst <= AGREE[m]:
                        errors.append(f"{op.out.name}: {m}_absdiff reaches {worst!r} (> {AGREE[m]})")


LINE_MEASURES = ("SCn", "SCRE", "QFI")
# The 1D line families of scripts/figures.py: (axis, fixed, family parameter, values).
LINE_FAMILIES = (
    (Axis("B", 0.0, 10.0, 0.02), {"J": 1.0, "Jz": 1.0}, "T", (2, 3, 5, 8, 10)),
    (Axis("T", 0.05, 10.0, 0.02), {"J": 1.0, "Jz": 1.0}, "B", (1, 2, 3, 5, 8)),
    (Axis("B", 0.0, 5.0, 0.01), {"J": 1.0, "Jz": 0.0}, "T", (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)),
    (Axis("J", -3.0, 3.0, 0.01), {"B": 1.0, "Jz": 0.0}, "T", (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)),
    (Axis("Jz", -3.0, 3.0, 0.01), {"B": 1.0, "J": 1.0}, "T", (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)),
)
# Three of the figures.py coupling-plane heatmaps (T=2): measure and field.
HEATMAPS = (("SCn", 1.0), ("SCRE", 3.0), ("QFI", 8.0))


class Gallery(GridWorkload):
    """Figure panels as `sweep` (CSV) and `plot` (SVG) pairs, closed engine."""

    name = "gallery"

    def build_ops(self) -> list[Op]:
        ops = []

        def panel(tag: str, grid: Grid, mode: str) -> None:
            for command, suffix, extra in (("sweep", ".csv", []), ("plot", ".svg", ["--mode", mode])):
                out = self.outdir / (tag + suffix)
                ops.append(Op(grid.argv(command, out, extra), grid.cells, grid, out))

        for k, (axis, fixed, family, values) in enumerate(LINE_FAMILIES):
            for v in values:
                grid = Grid((axis,), {**fixed, family: float(v)}, LINE_MEASURES)
                panel(f"line{k}_{family}{v:g}", grid, "lines")
        for measure, b in HEATMAPS:
            grid = Grid(COUPLING_AXES, {"T": 2.0, "B": b}, (measure,))
            panel(f"heat_{measure}_B{b:g}", grid, "heatmap")
        return ops


class Points:
    """A closed loop of single `point` calls at seeded draws over the whole box."""

    name = "points"

    def __init__(self, program: Program, rng: np.random.Generator, outdir: Path):
        self.program = program
        regime_error = program.model.ParameterRegimeError
        self.draws = []
        set_aside = 0
        while len(self.draws) < SEEDED_POINTS:
            J, Jz, B = (float(x) for x in rng.uniform(-1e3, 1e3, 3))
            T = float(math.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            try:
                program.fisher.qfi_published(program.model.SpinParams(J, Jz, B, T))
            except regime_error:
                # represented by OVERFLOW_POINTS, so the failed share is fixed
                set_aside += 1
                continue
            self.draws.append((J, Jz, B, T))
        print(f"perfbench: {set_aside} draws set aside for the QFIclosed overflow",
              file=sys.stderr)
        inputs = self.draws + list(OVERFLOW_POINTS) * OVERFLOW_REPEATS
        order = rng.permutation(len(inputs))
        self.inputs = [inputs[i] for i in order]
        self.ops = [Op(["point", "--engine", "closed"] + fix_args(as_params(p)), 1)
                    for p in self.inputs]
        self.probe_argv = ["point", "--engine", "closed"] + fix_args(as_params(self.draws[0]))
        self.latency_cells = []

    def check(self, run: Run, latency_outputs: list[str]) -> list[str]:
        errors: list[str] = []
        overflow = set(OVERFLOW_POINTS)
        checked = set()
        for p, (rc, out, err) in zip(self.inputs, run.first):
            params = as_params(p)
            if rc != 0:
                if p not in overflow or rc != 1 or not err.startswith(OVERFLOW_MESSAGE):
                    errors.append(f"point at {params} failed: rc={rc} {err.strip()}")
                continue
            flat = check_point_output(f"point at {params}", params, out, MEASURES, "closed", errors)
            if flat is not None and p not in checked:
                checked.add(p)
                check_reference(f"point at {params}", params, flat, errors)
        for p in OVERFLOW_POINTS:
            params = as_params(p)
            try:
                self.program.fisher.qfi_published(self.program.model.SpinParams(*p))
            except self.program.model.ParameterRegimeError:
                pass
            else:
                continue  # no longer failing: its outputs were checked above
            others = MEASURES[:-1]
            rc, out, err, *_ = self.program.call(
                ["point", "--engine", "closed"] + measure_args(others) + fix_args(params))
            if rc != 0:
                errors.append(f"point at {params} without QFIclosed failed: {err.strip()}")
                continue
            flat = check_point_output(f"point at {params}", params, out, others, "closed", errors)
            if flat is not None:
                check_reference(f"point at {params}", params, flat, errors)
        return errors


WORKLOADS = {w.name: w for w in (ClosedGrid, Crosscheck, Points, Gallery)}


# --------------------------------------------------------------------------
# Running


class HostClock:
    """Rescales measured durations to a fixed host speed (see calibration.py).

    Raw medians of 10-s runs spread by up to 36% between runs.  So while
    the program runs, a timer signal interrupts it every CALIBRATION_EVERY_S
    and the handler times the calibration chunk; a 15-s sweep is sampled
    during the sweep, not only around it.  A call's duration, less the
    chunks that ran inside it, is scaled by NOMINAL_S over the mean chunk
    time of the samples within CALIBRATION_WINDOW_S of the call's midpoint,
    or within the call's own duration if that is longer.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.seconds.append(chunk_seconds())
            self.starts.append(start)
        finally:
            self._sampling = False

    @contextlib.contextmanager
    def running(self):
        """Sample before the block, all through it, and after it."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds`, measured from `start`, at the nominal host speed."""
        inside = self.seconds[bisect.bisect_left(self.starts, start):
                              bisect.bisect_left(self.starts, start + seconds)]
        mid = start + seconds / 2
        reach = max(CALIBRATION_WINDOW_S, seconds)
        lo = bisect.bisect_left(self.starts, mid - reach)
        hi = bisect.bisect_right(self.starts, mid + reach)
        if lo == hi:  # no sample that close: the ones on either side
            lo, hi = max(lo - 1, 0), lo + 1
        return (seconds - sum(inside)) * NOMINAL_S / statistics.fmean(self.seconds[lo:hi])


def tail_ratio(lat: np.ndarray) -> float:
    """99th percentile of each call's time over the median of the calls around it.

    The host's speed changes within a fraction of a second, faster than the
    calibration samples follow, and such spells filled the top 1% of a
    plain percentile.  The median of the TAIL_WINDOW calls centred on a call
    (in seeded order, so of no particular input) is the typical cost at that
    moment; the ratio keeps what is the call's own: a collection pause, a
    slow input.
    """
    half = TAIL_WINDOW // 2
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(lat, half, mode="edge"), TAIL_WINDOW)
    return float(np.percentile(lat / np.median(windows, axis=1), 99))


def counted_call(program: Program, argv: list[str], run: Run):
    """One counted CLI call; returns its exit code, stdout and stderr."""
    rc, out, err, start, seconds = program.call(argv)
    run.attempted += 1
    run.failed += rc != 0
    run.op_starts.append(start)
    run.op_seconds.append(seconds)
    return rc, out, err


def time_points(program: Program, workload, cells, run: Run) -> list[str]:
    """`point` calls at grid cells, for the latency of a grid workload."""
    outputs = []
    for op, row in cells:
        rc, out, err = counted_call(program, workload.latency_argv(op, row), run)
        outputs.append(out)
        if rc != 0:
            run.errors.append(f"latency point failed: {err.strip()}")
    return outputs


def run_rounds(program: Program, workload, seconds: float, tracer: Tracer | None,
               run: Run) -> None:
    """Whole rounds of the workload's operations until `seconds` have passed."""
    begin = time.perf_counter()
    while True:
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.current_op = run.attempted
            result = counted_call(program, op.argv, run)
            ok = result[0] == 0
            if run.rounds == 0:
                run.first.append(result)
                run.digests.append(digest(op.out) if ok else None)
            elif result != run.first[i] or (ok and digest(op.out) != run.digests[i]):
                run.errors.append(f"round {run.rounds}: output of {op.argv[:1]} #{i} changed")
        run.rounds += 1
        if time.perf_counter() - begin >= seconds:
            return


def time_setup(workload, probes: int) -> list[float]:
    """Seconds from a fresh interpreter to the workload's first result, per probe.

    The probe times the calibration chunk in its own process, on whatever
    CPU it ran.  The time it spent after its command is taken out of the
    wall time, and the chunk's time scales the rest.  The first probe is not
    timed: in a fresh checkout it writes bytecode.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC)] + workload.probe_argv
    times = []
    for _ in range(probes + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - start
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0 or not last[0].startswith("calibration "):
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        chunk, after = (float(x) for x in last[0].split()[1:])
        times.append((wall - after) * NOMINAL_S / chunk)
    return times[1:]


def run_workload(ns: argparse.Namespace) -> dict:
    """One run; returns the result object that is printed as the last line."""
    program = Program()
    outdir = OUT / ns.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    rng = np.random.default_rng(ns.seed)
    workload = WORKLOADS[ns.workload](program, rng, outdir)
    timed = not ns.trace
    clock = HostClock()

    # Set-up probes are split before and after the timed loop, so that their
    # median spans the run and not one moment of it.
    setup = time_setup(workload, SETUP_PROBES // 2) if timed else []

    # lazy set-up inside the process (first argparse build, first numpy calls)
    program.call(workload.probe_argv)
    run = Run()
    latency_outputs: list[str] = []
    tracer = None if timed else Tracer()
    with clock.running():
        if tracer is not None:
            tracer.install()
        try:
            run_rounds(program, workload, ns.seconds, tracer, run)
        finally:
            if tracer is not None:
                tracer.uninstall()
        looped = len(run.op_seconds)
        if timed:
            latency_outputs = time_points(program, workload, workload.latency_cells, run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if timed:
        setup += time_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)

    errors = run.errors + workload.check(run, latency_outputs)
    scaled = [clock.scaled(a, b) for a, b in zip(run.op_starts, run.op_seconds)]
    per_round = len(workload.ops)
    round_cells = sum(op.cells for op in workload.ops)
    starts = range(0, looped, per_round)
    rates = [round_cells / sum(scaled[k:k + per_round]) for k in starts]
    raw_rates = [round_cells / sum(run.op_seconds[k:k + per_round]) for k in starts]
    points_per_s = statistics.median(rates)

    metrics = {}
    if timed:
        lat_us = np.array(scaled[looped:] or scaled) * 1e6
        np.save(outdir / "latency_us.npy", lat_us)
        p50 = float(np.percentile(lat_us, 50))
        plain_p99 = float(np.percentile(lat_us, 99))
        metrics = {
            "points_per_s": {"value": points_per_s, "unit": "points/s"},
            "point_p50_us": {"value": p50, "unit": "us"},
            "point_p99_us": {"value": p50 * tail_ratio(lat_us), "unit": "us"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        samples = (clock.starts, clock.seconds)
        tracer.save(outdir / "spans.npz", samples)
        # self times at the nominal host speed, by the run's median chunk
        speed = NOMINAL_S / statistics.median(clock.seconds)
        for span, (calls, self_ns) in tracer.per_function(samples).items():
            metrics[f"{span}.calls"] = {"value": calls / run.rounds, "unit": "count"}
            metrics[f"{span}.self_us"] = {
                "value": self_ns * speed / calls / 1e3 if calls else 0.0, "unit": "us"}
        metrics["trace.points_per_s"] = {"value": points_per_s, "unit": "points/s"}

    for line in errors[:20]:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    print(
        f"perfbench: {ns.workload} seed={ns.seed} rounds={run.rounds} "
        f"ops={run.attempted} failed={run.failed} checks={'ok' if not errors else len(errors)} "
        f"calibration_ms={1e3 * statistics.median(clock.seconds):.2f} "
        f"raw_points_per_s={statistics.median(raw_rates):.1f}"
        + (f" plain_p99_us={plain_p99:.0f}" if timed else ""),
        file=sys.stderr,
    )
    return {"correct": not errors, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        result = run_workload(ns)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
