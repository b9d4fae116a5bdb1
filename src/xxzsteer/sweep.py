"""Parameter sweeps over (J, Jz, B, T) with CSV/JSON output.

Every grid node is an independent evaluation of the requested measures.
Two evaluation engines exist:

* ``closed``  - closed-form entries plus closed-form measures (fast path),
  each measure one array kernel over the whole grid;
* ``oracle``  - spectral state construction plus the definitional measures
  (brute-force path), each definition one call over the stacked states;
* ``both``    - run the two and record oracle, closed and |difference|.

Both engines evaluate a grid as a stack of cells in one process: the
closed engine one kernel call per measure, the oracle one call per
definition over the stacked spectral states.  A single point is a grid of
one through the same code, so it is bit-identical to its row in any sweep.

A sweep that fails raises what evaluating its cells one at a time, in grid
order, would raise first: the first failing cell's error, and within that
cell the first failing measure's, the oracle before the closed form.  Every
check raises for its own first failing cell; a failing stack is then halved
down to the first failing cell (see ``_evaluate``), which costs about one
more pass over the cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fisher, steering
from .model import (
    PARAM_NAMES,
    SpinParams,
    T_FLOOR,
    ThermalBatch,
    check_params,
    gibbs_spectral,
)
from .steering import CoherenceKind

__all__ = [
    "MEASURES",
    "ENGINES",
    "PARAM_NAMES",
    "AxisSpec",
    "SweepSpec",
    "SweepTable",
    "EngineRecord",
    "evaluate_point",
    "run_sweep",
    "format_value",
    "write_csv",
    "read_csv",
    "write_json",
]

MEASURES = ("SCn", "SCRE", "SCREpaper", "QFI", "QFIclosed")
ENGINES = ("oracle", "closed", "both")

MAX_AXIS_POINTS = 10**6


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: values start, start+step, ..., up to stop."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.name not in PARAM_NAMES:
            raise ValueError(
                f"axis name {self.name!r} is not one of {PARAM_NAMES}"
            )
        for attr in ("start", "stop", "step"):
            val = getattr(self, attr)
            if not math.isfinite(val):
                raise ValueError(f"axis {self.name}: {attr}={val!r} is not finite")
            object.__setattr__(self, attr, float(val))
        if self.step <= 0:
            raise ValueError(f"axis {self.name}: step must be positive")
        if self.start > self.stop:
            raise ValueError(f"axis {self.name}: start {self.start} > stop {self.stop}")
        if self.count > MAX_AXIS_POINTS:
            raise ValueError(
                f"axis {self.name}: {self.count} points exceeds {MAX_AXIS_POINTS}"
            )
        if self.name == "T" and self.start < T_FLOOR:
            raise ValueError(
                f"axis T: start {self.start} is below the temperature floor {T_FLOOR}"
            )

    @property
    def count(self) -> int:
        # small epsilon so 40/0.25-style ratios are not truncated by roundoff
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=float)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a 1D or 2D scan.

    The axis names and the fixed-parameter names must together cover
    J, Jz, B, T exactly once.  The first axis is the outer (slowest) one.
    """

    axes: tuple[AxisSpec, ...]
    fixed: dict[str, float]
    measures: tuple[str, ...] = MEASURES
    engine: str = "closed"
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.fmt!r}; use csv or json")
        if not self.measures:
            raise ValueError("at least one measure is required")
        seen = []
        for m in self.measures:
            if m not in MEASURES:
                raise ValueError(f"unknown measure {m!r}; choose from {MEASURES}")
            if m not in seen:
                seen.append(m)
        object.__setattr__(self, "measures", tuple(seen))
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep takes one or two axes")
        axis_names = [ax.name for ax in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"axis names must be distinct, got {axis_names}")
        fixed_names = set(self.fixed)
        overlap = fixed_names & set(axis_names)
        if overlap:
            raise ValueError(f"parameters both swept and fixed: {sorted(overlap)}")
        missing = set(PARAM_NAMES) - fixed_names - set(axis_names)
        if missing:
            raise ValueError(f"parameters neither swept nor fixed: {sorted(missing)}")
        extra = fixed_names - set(PARAM_NAMES)
        if extra:
            raise ValueError(f"unknown fixed parameters: {sorted(extra)}")

    def value_columns(self) -> tuple[str, ...]:
        cols = []
        for m in self.measures:
            if self.engine == "both":
                cols += [f"{m}_oracle", f"{m}_closed", f"{m}_absdiff"]
            else:
                cols.append(m)
        return tuple(cols)

    def columns(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes) + self.value_columns()


@dataclass(eq=False)
class SweepTable:
    """Tabulated sweep results, axis-major order (outer axis slowest)."""

    columns: tuple[str, ...]
    data: np.ndarray
    axes: tuple[AxisSpec, ...] | None = None

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def grid(self, name: str) -> np.ndarray:
        """A value column reshaped to the 2D grid (outer axis is rows)."""
        if self.axes is None or len(self.axes) != 2:
            raise ValueError("grid() needs a table produced by a 2-axis sweep")
        shape = (self.axes[0].count, self.axes[1].count)
        return self.column(name).reshape(shape)


@dataclass(frozen=True)
class EngineRecord:
    """Oracle and closed values of one measure plus their absolute gap."""

    oracle: float
    closed: float
    absdiff: float


# Closed form of each measure: a kernel over a ThermalBatch.
_CLOSED = {
    "SCn": steering.scn_kernel,
    "SCRE": steering.scre_kernel,
    "SCREpaper": steering.scre_published_kernel,
    "QFI": fisher.qfi_kernel,
    "QFIclosed": fisher.qfi_published_kernel,
}

# Definition each measure is checked against on the oracle engine; the
# published forms share the definition of the quantity they claim to give.
_DEFINITION = {
    "SCn": "sqc_l1",
    "SCRE": "sqc_re",
    "SCREpaper": "sqc_re",
    "QFI": "qfi",
    "QFIclosed": "qfi",
}
# Each takes the cells and their stacked spectral states.
_DEFINITIONS = {
    "sqc_l1": lambda cells, rho: steering.sqc_direct(rho, CoherenceKind.L1),
    "sqc_re": lambda cells, rho: steering.sqc_direct(rho, CoherenceKind.RELATIVE_ENTROPY),
    "qfi": lambda cells, rho: fisher.qfi_spectral(rho, fisher.calibrated_observable(rho)),
}


def _run(cells: ThermalBatch, measures, engine: str) -> list[np.ndarray]:
    """Value columns of every cell, in SweepSpec.value_columns() order.

    The closed kernels run first, then each definition once over the
    stacked spectral states.  Any check raises for its own first failing
    cell, so which error a stack raises depends on the stack.
    """
    closed = [_CLOSED[m](cells) for m in measures] if engine != "oracle" else []
    if engine == "closed":
        return closed
    rho = gibbs_spectral(cells)
    found: dict[str, np.ndarray] = {}
    for m in measures:
        kind = _DEFINITION[m]
        if kind not in found:
            found[kind] = _DEFINITIONS[kind](cells, rho)
    oracle = [found[_DEFINITION[m]] for m in measures]
    if engine == "oracle":
        return oracle
    columns = []
    for o, c in zip(oracle, closed):
        columns += [o, c, np.abs(o - c)]
    return columns


def _evaluate(cells: ThermalBatch, measures, engine: str) -> list[np.ndarray]:
    """:func:`_run`, raising the error a cell-by-cell evaluation meets first.

    That error is the first failing cell's, and within the cell the first
    failing measure's, the oracle before the closed form.  Cells are
    independent, so a slice fails exactly when it holds a failing cell: a
    failing stack is halved, keeping the left half if it fails and the
    right half if not, down to its first failing cell, about one more pass
    over the cells.  That cell then runs measure by measure.  If it passes
    alone, the stack's own error is raised.  One cell on one engine already
    raises in measure order, so a single failing point runs once.
    """
    try:
        return _run(cells, measures, engine)
    except Exception as exc:
        error = exc
    if len(cells) == 1 and engine != "both":
        raise error
    while len(cells) > 1:
        left = cells[: len(cells) // 2]
        try:
            _run(left, measures, engine)
        except Exception:
            cells = left
        else:
            cells = cells[len(left) :]
    engines = ("oracle", "closed") if engine == "both" else (engine,)
    for m in measures:
        for one in engines:
            _run(cells, (m,), one)
    raise error


def evaluate_point(
    params: SpinParams,
    measures: tuple[str, ...] = MEASURES,
    engine: str = "closed",
) -> dict[str, float | EngineRecord]:
    """Evaluate the requested measures at a single parameter point.

    The point is a grid of one: the values are bit-identical to the same
    node's row in any sweep.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown measure {m!r}; choose from {MEASURES}")
    columns = _evaluate(ThermalBatch.of(params), measures, engine)
    values = [float(col[0]) for col in columns]
    if engine != "both":
        return dict(zip(measures, values))
    return {
        m: EngineRecord(*values[3 * k : 3 * k + 3]) for k, m in enumerate(measures)
    }


def _grid(spec: SweepSpec) -> ThermalBatch:
    """The grid's cells, outer axis slowest, checked as SpinParams checks them."""
    values = [ax.values() for ax in spec.axes]
    # The first cell as SpinParams also checks that the fixed values are numbers.
    first = {ax.name: float(v[0]) for ax, v in zip(spec.axes, values)}
    SpinParams(**spec.fixed, **first)
    if len(values) == 2:
        values = [
            np.repeat(values[0], len(values[1])),
            np.tile(values[1], len(values[0])),
        ]
    n = len(values[0])
    columns = {ax.name: v for ax, v in zip(spec.axes, values)}
    for name, value in spec.fixed.items():
        columns[name] = np.full(n, float(value))
    cols = [columns[name] for name in PARAM_NAMES]
    check_params(np.array(cols))
    return ThermalBatch(*cols)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid and return the table, axis values included.

    Every engine evaluates the whole grid as one stack in this process: the
    closed engine calls each measure's kernel once, the oracle each
    definition once.  The output depends on nothing but the spec.
    """
    cells = _grid(spec)
    values = _evaluate(cells, spec.measures, spec.engine)
    axes = [getattr(cells, ax.name) for ax in spec.axes]
    data = np.column_stack(axes + values)

    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise RuntimeError(
            f"sweep produced a non-finite value in column "
            f"{spec.columns()[bad[1]]!r} at row {bad[0]}"
        )
    return SweepTable(columns=spec.columns(), data=data, axes=spec.axes)


def format_value(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return f"{x:.17g}"


def write_csv(table: SweepTable, path) -> None:
    """Plain CSV: header, comma separators, LF endings, 17-digit values."""
    lines = [",".join(table.columns)]
    for row in table.data.tolist():
        lines.append(",".join(map(format_value, row)))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> SweepTable:
    """Parse a file written by :func:`write_csv` (bit-exact round trip)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    columns = tuple(lines[0].split(","))
    data = np.array(
        [[float(tok) for tok in line.split(",")] for line in lines[1:]], dtype=float
    )
    if data.size == 0:
        data = data.reshape(0, len(columns))
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: row width does not match header")
    return SweepTable(columns=columns, data=data, axes=None)


def write_json(table: SweepTable, path) -> None:
    """One object with "columns" and "rows"; numbers use the 17-digit rule."""
    rows = ",".join(
        "[" + ",".join(map(format_value, row)) + "]" for row in table.data.tolist()
    )
    text = '{"columns": ' + json.dumps(list(table.columns)) + ', "rows": [' + rows + "]}\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write JSON to {path}: {exc}") from exc
