"""Parameter sweeps over (J, Jz, B, T) with CSV/JSON output.

Every grid node is an independent evaluation of the requested measures.
One table, ``_MEASURES``, gives each measure its closed form and the
definition it is checked against.  Both engines evaluate a grid as one
stack of cells in this process:

* ``closed``  - closed-form entries, and each measure's closed form called
  once over the whole grid;
* ``oracle``  - spectral state construction, and each definition called
  once over the stacked states (brute-force path);
* ``both``    - run the two and record oracle, closed and |difference|.

A grid has zero, one or two axes, and a single point is a sweep with no
axes: :func:`evaluate_point` reads its one row from :func:`run_sweep`, so
it is bit-identical to its row in any sweep and gets the same checks.

A sweep that fails raises what evaluating its cells one at a time, in grid
order, would raise first: the first failing cell's error, and within that
cell the first failing measure's, the oracle before the closed form.  Every
check raises for its own first failing cell; a failing stack is then halved
down to the first failing cell (see ``_evaluate``), which costs about one
more pass over the cells.

The CSV and JSON writers apply one %-template of a row to blocks of rows;
their bytes are those of :func:`format_value` applied to each value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import fisher, steering
from .linalg import validate_density_matrix
from .model import (
    PARAM_NAMES,
    SpinParams,
    T_FLOOR,
    ThermalBatch,
    check_params,
    gibbs_spectral,
    param_cell,
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

# Each measure: its closed form over a ThermalBatch, and the key in
# _DEFINITIONS of the definition it is checked against on the oracle
# engine; the published forms share the definition of the quantity they
# claim to give.  The closed forms are looked up in their modules at call
# time, as the definitions are, so a wrapper installed there sees each call.
_MEASURES = {
    "SCn": (lambda cells: steering.scn_closed(cells), "sqc_l1"),
    "SCRE": (lambda cells: steering.scre_closed(cells), "sqc_re"),
    "SCREpaper": (lambda cells: steering.scre_published(cells), "sqc_re"),
    "QFI": (lambda cells: fisher.qfi_closed(cells), "qfi"),
    "QFIclosed": (lambda cells: fisher.qfi_published(cells), "qfi"),
}
MEASURES = tuple(_MEASURES)
# Each definition takes the cells and their stacked spectral states,
# checked once.
_DEFINITIONS = {
    "sqc_l1": lambda cells, rho: steering.sqc_direct(rho, CoherenceKind.L1),
    "sqc_re": lambda cells, rho: steering.sqc_direct(rho, CoherenceKind.RELATIVE_ENTROPY),
    "qfi": lambda cells, rho: fisher.qfi_spectral(
        rho, fisher.calibrated_observable(rho.matrix)
    ),
}
ENGINES = ("oracle", "closed", "both")
# Suffixes of each measure's three value columns on the both engine.
_RECORD_FIELDS = ("oracle", "closed", "absdiff")

MAX_AXIS_POINTS = 10**6
# Cells of a whole grid, the product of its axis counts; the closed engine
# holds about 0.4 kB a cell and the both engine about 4 kB.
MAX_GRID_CELLS = 10**6


def _count_text(count: float) -> str:
    """A point count for a message: exact up to 10**7, else three digits."""
    return f"{count}" if count <= 10**7 else f"{count:.3g}"


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
        # a span whose ratio to the step overflows counts as inf points
        span = (self.stop - self.start) / self.step
        count = self.count if math.isfinite(span) else span
        if count > MAX_AXIS_POINTS:
            raise ValueError(
                f"axis {self.name}: {_count_text(count)} points exceeds {MAX_AXIS_POINTS}"
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
    """Declarative description of a scan over zero, one or two axes.

    The axis names and the fixed-parameter names must together cover
    J, Jz, B, T exactly once.  The first axis is the outer (slowest) one;
    with no axes the spec is a single point.  The first cell, the fixed
    values with each axis at its start, is checked as SpinParams checks it;
    a later cell outside the box fails when the sweep runs.
    """

    axes: tuple[AxisSpec, ...]
    fixed: dict[str, float]
    measures: tuple[str, ...] = MEASURES
    engine: str = "closed"

    def __post_init__(self):
        if not self.measures:
            raise ValueError("at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                raise ValueError(f"unknown measure {m!r}; choose from {MEASURES}")
        object.__setattr__(self, "measures", tuple(dict.fromkeys(self.measures)))
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if len(self.axes) > 2:
            raise ValueError("a sweep takes at most two axes")
        axis_names = [ax.name for ax in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"axis names must be distinct, got {axis_names}")
        cells = math.prod(ax.count for ax in self.axes)
        if cells > MAX_GRID_CELLS:
            counts = " x ".join(str(ax.count) for ax in self.axes)
            raise ValueError(
                f"grid of {counts} = {cells} cells exceeds {MAX_GRID_CELLS}"
            )
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
        SpinParams(**self.fixed, **{ax.name: ax.start for ax in self.axes})

    def value_columns(self) -> tuple[str, ...]:
        cols = []
        for m in self.measures:
            if self.engine == "both":
                cols += [f"{m}_{k}" for k in _RECORD_FIELDS]
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


def _run(cells: ThermalBatch, measures, engine: str) -> list[np.ndarray]:
    """Value columns of every cell, in SweepSpec.value_columns() order.

    The closed forms run first, then each definition once over the
    stacked spectral states, which are checked and decomposed once for all
    of them.  Any check raises for its own first failing cell, so which
    error a stack raises depends on the stack.
    """
    forms, kinds = zip(*(_MEASURES[m] for m in measures))
    closed = [form(cells) for form in forms] if engine != "oracle" else []
    if engine == "closed":
        return closed
    rho = validate_density_matrix(gibbs_spectral(cells), "steered state")
    found = {k: _DEFINITIONS[k](cells, rho) for k in dict.fromkeys(kinds)}
    oracle = [found[k] for k in kinds]
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

    The point is a sweep with no axes: the values are its one row, so they
    are bit-identical to the same node's row in any sweep.  Repeated
    measures are reported once.
    """
    fixed = {name: getattr(params, name) for name in PARAM_NAMES}
    spec = SweepSpec(axes=(), fixed=fixed, measures=measures, engine=engine)
    table = run_sweep(spec)
    row = dict(zip(table.columns, table.data[0].tolist()))
    if engine != "both":
        return {m: row[m] for m in spec.measures}
    return {
        m: EngineRecord(*(row[f"{m}_{k}"] for k in _RECORD_FIELDS))
        for m in spec.measures
    }


def _grid(spec: SweepSpec) -> ThermalBatch:
    """The grid's cells, outer axis slowest, checked as SpinParams checks them."""
    values = [ax.values() for ax in spec.axes]
    first = {**spec.fixed, **{ax.name: v[0] for ax, v in zip(spec.axes, values)}}
    # One grid per parameter: the first cell's value, then each axis's values
    # along its own dimension (np.ix_ shapes them so), the outer axis first.
    x = np.empty((len(PARAM_NAMES), *(len(v) for v in values)))
    x.T[...] = param_cell([first[name] for name in PARAM_NAMES])
    for ax, v in zip(spec.axes, np.ix_(*values)):
        x[PARAM_NAMES.index(ax.name)] = v
    x = x.reshape(len(PARAM_NAMES), -1)
    # SweepSpec checked the first cell; a later one fails only where an axis
    # leaves the box after its start.
    check_params(x[:, 1:])
    return ThermalBatch(*x)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid and return the table, axis values included.

    Every engine evaluates the whole grid as one stack in this process: the
    closed engine calls each measure's closed form once, the oracle each
    definition once.  The output depends on nothing but the spec.
    """
    cells = _grid(spec)
    values = _evaluate(cells, spec.measures, spec.engine)
    axes = [getattr(cells, ax.name) for ax in spec.axes]
    data = np.array(axes + values).T

    if not np.isfinite(data).all():
        bad = np.argwhere(~np.isfinite(data))[0]
        raise RuntimeError(
            f"sweep produced a non-finite value in column "
            f"{spec.columns()[bad[1]]!r} at row {bad[0]}"
        )
    return SweepTable(columns=spec.columns(), data=data, axes=spec.axes)


def format_value(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return f"{x:.17g}"


# format_value's conversion as a %-field, for the writers' row templates.
_FIELD = "%.17g"
# Rows formatted per pass of a writer's row template.
_BLOCK_ROWS = 4096


def _rows(table: SweepTable, before: str, after: str):
    """The table's rows as text, each row's fields between before and after.

    One %-template of a row is applied to _BLOCK_ROWS rows at a time, so
    each block is formatted in one pass and the writer holds one block's
    text.
    """
    data = np.asarray(table.data, dtype=np.float64)
    row = before + ",".join([_FIELD] * len(table.columns)) + after
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start : start + _BLOCK_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write(path, kind: str, parts) -> None:
    """Write the text parts in order to path, naming kind and path on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise OSError(f"cannot write {kind} to {path}: {exc}") from exc


def write_csv(table: SweepTable, path) -> None:
    """Plain CSV: header, comma separators, LF endings, 17-digit values."""
    head = ",".join(table.columns) + "\n"
    _write(path, "CSV", itertools.chain([head], _rows(table, "", "\n")))


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
    # Each row is led by its comma, which the first row drops.
    rows = _rows(table, ",[", "]")
    head = '{"columns": ' + json.dumps(list(table.columns)) + ', "rows": ['
    first = next(rows, ",")[1:]
    _write(path, "JSON", itertools.chain([head, first], rows, ["]}\n"]))
