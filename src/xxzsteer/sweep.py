"""Parameter sweeps over (J, Jz, B, T) with CSV/JSON output.

Every grid node is an independent evaluation of the requested measures.
One table, ``_MEASURES``, gives each measure its closed form and the
definition it is checked against.  Both engines evaluate a grid in this
process, one block of ``_BLOCK_ROWS`` consecutive cells at a time, each
block one stack:

* ``closed``  - closed-form entries, and each measure's closed form called
  once over the block;
* ``oracle``  - spectral state construction, and each definition called
  once over the block's stacked states (brute-force path);
* ``both``    - run the two and record oracle, closed and |difference|.

Cells are independent, every sum is a left fold over one cell's terms
(``functools.reduce``, in the kernels' modules), and a stacked product
gives each matrix its bits alone (see ``linalg``), so a block gives each
cell the bits the whole grid would: the table is the same for any block
size.  Each block's parameter rows are made from its cell indices, so
memory is the table plus one block's working set: tracemalloc reads a
27 MB peak for the 1000 x 1000 SCn grid, whose table is 24 MB, and 26 MB
while it is written as CSV (numpy 2.4).
One cap, ``MAX_GRID_CELLS``, bounds a grid's cells and so each of its
axes.

A grid has zero, one or two axes, and a single point is a sweep with no
axes: :func:`evaluate_point` reads its one row from :func:`run_sweep`, so
it is bit-identical to its row in any sweep and gets the same checks.

A sweep that fails raises what evaluating its cells one at a time, in grid
order, would raise first: the first failing cell's error, and within that
cell the first failing measure's, the oracle before the closed form; a cell
outside the supported box fails before any measure.  Every check, the
parameter check of a block's cells included, raises for its own first
failing cell.  The first failing block holds the first failing cell, and it
is halved down to that cell (see ``_evaluate``), which costs about one more
pass over that block.

The CSV and JSON writers take one of two paths, chosen once per table (see
``_rows``).  A 2-axis grid whose inner axis has at least ``_RUN_ROWS``
points goes out a run at a time: its outer value is formatted once per run
of rows that share it, its inner axis once in all, and each run's values
in one %-template pass.  A run whose inner and value bits repeat an
earlier run's takes that run's text: the closed measures keep their bits
under J -> -J, so a grid symmetric in J formats the values of about half
its runs (the 161 x 161 grid's CSV with every measure: 61 -> 36 ms).  The
text of such an earlier run is held only until its last twin takes it, and
at most 4 * _BLOCK_ROWS rows of it at a time, so the writers hold a few
blocks of text, never the table's.  Any other table, a grid of shorter
runs included, goes out a block of _BLOCK_ROWS rows at a time, every field
in one pass.  The bytes are those of :func:`format_value` applied to each
value.

Every writer, SVG included, goes through ``_write``: an existing output is
written over in place and cut to length, not truncated when it is opened,
and a failed write leaves an empty file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from . import fisher, steering
from .model import PARAM_NAMES, SpinParams, ThermalBatch, gibbs_spectral
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
    "write_json",
]

# Each measure: its closed form over a ThermalBatch, and the definition it
# is checked against on the oracle engine, as a key of _DEFINITIONS and the
# argument that picks the measure's quantity there; the published forms
# share the definition of the quantity they claim to give.  The closed forms
# are looked up in their modules at call time, as the definitions are, so a
# wrapper installed there sees each call.
_MEASURES = {
    "SCn": (lambda cells: steering.scn_closed(cells), ("sqc", CoherenceKind.L1)),
    "SCRE": (
        lambda cells: steering.scre_closed(cells),
        ("sqc", CoherenceKind.RELATIVE_ENTROPY),
    ),
    "SCREpaper": (
        lambda cells: steering.scre_published(cells),
        ("sqc", CoherenceKind.RELATIVE_ENTROPY),
    ),
    "QFI": (lambda cells: fisher.qfi_closed(cells), ("qfi", None)),
    "QFIclosed": (lambda cells: fisher.qfi_published(cells), ("qfi", None)),
}
MEASURES = tuple(_MEASURES)
# Each definition takes the stacked spectral states of the cells, checked
# once, and the arguments its measures ask of it, and returns one value per
# argument in that order: one sqc_direct call gives every steered-coherence
# kind of a stack.  The QFI has one quantity, so its argument is None.
_DEFINITIONS = {
    "sqc": lambda rho, kinds: steering.sqc_direct(rho, *kinds),
    "qfi": lambda rho, _: (
        fisher.qfi_spectral(rho, fisher.calibrated_observable(rho)),
    ),
}
ENGINES = ("oracle", "closed", "both")
# Suffixes of each measure's three value columns on the both engine.
_RECORD_FIELDS = ("oracle", "closed", "absdiff")

# Cells of a whole grid, the product of its axis counts, and so also the
# points of one axis.  A sweep holds the table, 8 B a column of a cell
# (136 MB at the cap for every measure on the both engine), plus the working
# set of one block of cells.
MAX_GRID_CELLS = 10**6
# Cells evaluated as one stack, and the most rows a writer formats in one
# pass.
_BLOCK_ROWS = 4096


def _count_text(count: float) -> str:
    """A point count for a message: exact up to 10**7, else three digits."""
    return f"{count}" if count <= 10**7 else f"{count:.3g}"


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: values start, start+step, ..., up to stop; one
    that rounds past stop is stop (-999.9 + 0.1 * 19999 is 1000.0000000000001).
    """

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
        if count > MAX_GRID_CELLS:
            raise ValueError(
                f"axis {self.name}: {_count_text(count)} points exceeds {MAX_GRID_CELLS}"
            )

    @property
    def count(self) -> int:
        # (stop - start) / step misses a whole number of steps by the rounding
        # of start, stop and their difference, up to 2 ulp(1) (|start| +
        # |stop|) / step, so a stop that close to a grid point is on it; never
        # less than 1e-9 (40/0.25-style ratios), never more than half a step
        slack = 2 * math.ulp(1.0) * (abs(self.start) + abs(self.stop)) / self.step
        slack = min(max(slack, 1e-9), 0.5)
        return int(math.floor((self.stop - self.start) / self.step + slack)) + 1

    def values(self) -> np.ndarray:
        return self._at(np.arange(self.count, dtype=float))

    def _at(self, i: np.ndarray) -> np.ndarray:
        """The values at an array of indices: ``start + step * i``, or stop."""
        x = self.start + self.step * i
        x[x > self.stop] = self.stop
        return x


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a scan over zero, one or two axes.

    The axis names and the fixed-parameter names must together cover
    J, Jz, B, T exactly once.  The first axis is the outer (slowest) one;
    with no axes the spec is a single point.  The first cell, the fixed
    values with each axis at its start, is checked as SpinParams checks it,
    and the fixed values are kept as that cell's floats; a later cell
    outside the box fails when the sweep runs.
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
            raise ValueError(
                f"missing parameters, neither swept nor fixed: {sorted(missing)}"
            )
        extra = fixed_names - set(PARAM_NAMES)
        if extra:
            raise ValueError(f"unknown fixed parameters: {sorted(extra)}")
        first = SpinParams(**self.fixed, **{ax.name: ax.start for ax in self.axes})
        object.__setattr__(
            self, "fixed", {name: getattr(first, name) for name in self.fixed}
        )

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
    axes: tuple[AxisSpec, ...] = ()

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def grid(self, name: str) -> np.ndarray:
        """A value column reshaped to the 2D grid (outer axis is rows)."""
        if len(self.axes) != 2:
            raise ValueError("grid() needs a table produced by a 2-axis sweep")
        shape = (self.axes[0].count, self.axes[1].count)
        return self.column(name).reshape(shape)


@dataclass(frozen=True)
class EngineRecord:
    """Oracle and closed values of one measure plus their absolute gap."""

    oracle: float
    closed: float
    absdiff: float


def _run(rows: np.ndarray, measures, engine: str) -> list[np.ndarray]:
    """Value columns of every cell, in SweepSpec.value_columns() order.

    `rows` holds the parameter rows J, Jz, B, T of N cells, shape (4, N);
    the cells are checked first, as one ThermalBatch.  Each definition runs
    next, once over the stacked spectral states, which ``gibbs_spectral``
    builds and checks with their decomposition, with every argument the
    measures ask of it, in first-seen order; the closed forms run last.
    Any check raises for its own first failing cell, so which error a stack
    raises depends on the stack.
    """
    cells = ThermalBatch(*rows)
    forms, definitions = zip(*(_MEASURES[m] for m in measures))
    if engine != "closed":
        rho = gibbs_spectral(cells)
        asked = {}
        for name, arg in dict.fromkeys(definitions):
            asked.setdefault(name, []).append(arg)
        found = {}
        for name, args in asked.items():
            found.update(zip([(name, a) for a in args], _DEFINITIONS[name](rho, args)))
        oracle = [found[d] for d in definitions]
        if engine == "oracle":
            return oracle
    closed = [form(cells) for form in forms]
    if engine == "closed":
        return closed
    return [x for o, c in zip(oracle, closed) for x in (o, c, np.abs(o - c))]


def _evaluate(rows: np.ndarray, measures, engine: str) -> list[np.ndarray]:
    """:func:`_run`, raising the error a cell-by-cell evaluation meets first.

    That error is the first failing cell's, and within the cell its
    parameter check's, else the first failing measure's, the oracle before
    the closed form.  Cells are independent, so a slice fails exactly when
    it holds a failing cell: a failing stack is halved, keeping the left
    half if it fails and the right half if not, down to its first failing
    cell, about one more pass over the stack.  That cell then runs measure
    by measure, each through :func:`_run`, which runs its oracle first.  If
    it passes alone, the stack's own error is raised.  One cell on the
    closed engine already raises in measure order, so a single failing
    closed point runs once; the oracle evaluates the two steered-coherence
    kinds together, and ``both`` every definition first, so they do not.
    """
    try:
        return _run(rows, measures, engine)
    except Exception as exc:
        error = exc
    if rows.shape[1] == 1 and engine == "closed":
        raise error
    while rows.shape[1] > 1:
        half = rows.shape[1] // 2
        try:
            _run(rows[:, :half], measures, engine)
        except Exception:
            rows = rows[:, :half]
        else:
            rows = rows[:, half:]
    for m in measures:
        _run(rows, (m,), engine)
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


def _cells(spec: SweepSpec, start: int, stop: int) -> np.ndarray:
    """Parameter rows J, Jz, B, T of grid cells start..stop-1, shape (4, n).

    Cell k's axis indices are k's digits in the axis counts, the outer axis
    slowest, and each axis value is ``ax._at(i)``, the bits of
    ``ax.values()[i]``.  A point, a grid with no axes, has the one cell 0.
    The cells are not checked here: each block's batch checks its own cells
    in :func:`_run`, so a later cell outside the box cannot pre-empt an
    earlier cell's error.
    """
    rows = np.empty((len(PARAM_NAMES), stop - start))
    for name, value in spec.fixed.items():
        rows[PARAM_NAMES.index(name)] = value
    index = np.arange(start, stop)
    for ax in reversed(spec.axes):
        index, i = np.divmod(index, ax.count)
        rows[PARAM_NAMES.index(ax.name)] = ax._at(i)
    return rows


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid and return the table, axis values included.

    The row-major table is allocated once and filled one block of
    _BLOCK_ROWS consecutive cells at a time, in grid order, each block's
    parameter rows made from its cell indices: on each block the closed
    engine calls each measure's closed form once, the oracle each
    definition once.  A non-finite value is an error, named by its
    column and table row, once every block has been evaluated.  The output
    and the error depend on nothing but the spec, not on the block size.
    """
    columns = spec.columns()
    data = np.empty((math.prod(ax.count for ax in spec.axes), len(columns)))
    for start in range(0, len(data), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(data))
        cells = _cells(spec, start, stop)
        axes = [cells[PARAM_NAMES.index(ax.name)] for ax in spec.axes]
        # unnamed, so a block's values are freed before the next block runs
        data[start:stop].T[...] = axes + _evaluate(cells, spec.measures, spec.engine)

    if not np.isfinite(data).all():
        bad = np.argwhere(~np.isfinite(data))[0]
        raise RuntimeError(
            f"sweep produced a non-finite value in column "
            f"{columns[bad[1]]!r} at row {bad[0]}"
        )
    return SweepTable(columns=columns, data=data, axes=spec.axes)


def format_value(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return f"{x:.17g}"


# format_value's conversion as a %-field, for the writers' row templates.
_FIELD = "%.17g"


# Stands for a run's outer axis text in its row template: it occurs in no
# number's text, no row delimiter and no %-field.
_OUTER = "\0"

# The fewest rows of a run for a grid to be written a run at a time, and of a
# piece whose text may be reused.  A run saves formatting its inner and outer
# value in each row and costs a fixed amount of slicing: on grids of 2 * 10**5
# cells with one value column, runs of 3 rows wrote 6-10% faster a block at a
# time and runs of 4 rows 8-11% faster a run at a time (with five value
# columns the two paths tied at both lengths).
_RUN_ROWS = 4

# Odd 64-bit multiplier of the piece keys' hash (2**64 over the golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _runs(data: np.ndarray) -> np.ndarray:
    """Edges of the pieces of a grid's table, from 0 to its length: runs of
    consecutive rows whose outer values agree bit for bit, each cut into
    pieces of at most _BLOCK_ROWS rows."""
    if not len(data):
        return np.zeros(1, dtype=np.intp)
    bits = data[:, 0].view(np.int64)
    cuts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    runs = np.concatenate([[0], cuts, [len(data)]])
    long = np.flatnonzero(np.diff(runs) > _BLOCK_ROWS).tolist()
    cuts = [np.arange(runs[r] + _BLOCK_ROWS, runs[r + 1], _BLOCK_ROWS) for r in long]
    return np.sort(np.concatenate([runs, *cuts])) if cuts else runs


def _keys(data: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """A 64-bit key per piece from the bits of its inner and value columns:
    pieces with the same bits have the same key.  Rows are hashed a few
    blocks at a time, and each piece folds its rows' hashes into one sum."""
    bits = data[:, 1:].view(np.uint64)
    mult = (2 * np.arange(bits.shape[1], dtype=np.uint64) + 1) * _MIX
    keys = np.empty(len(edges) - 1, np.uint64)
    i = 0
    while i < len(keys):
        j = np.searchsorted(edges, edges[i] + 16 * _BLOCK_ROWS, "right") - 1
        j = max(j, i + 1)
        h = bits[edges[i] : edges[j]] @ mult
        h ^= h >> 29
        h *= _MIX
        h ^= h >> 32
        keys[i:j] = np.add.reduceat(h, edges[i:j] - edges[i])
        i = j
    return keys


def _twins(data: np.ndarray, edges: np.ndarray):
    """For each piece, the index of the last piece before it and of the next
    after it with the same key, or -1.  Only pieces of at least _RUN_ROWS
    rows are keyed.  One sort of their keys, each with the piece's index in
    its low bits, puts every group of equal keys together in index order."""
    prev = np.full(len(edges) - 1, -1)
    nxt = np.full(len(edges) - 1, -1)
    big = np.flatnonzero(np.diff(edges) >= _RUN_ROWS)
    if len(big) > 1:
        low = np.uint64((1 << len(big).bit_length()) - 1)
        keys = _keys(data, edges)[big]
        order = np.sort(keys & ~low | np.arange(len(big), dtype=np.uint64))
        same = (order[1:] ^ order[:-1]) <= low
        order = big[(order & low).astype(np.intp)]
        prev[order[1:][same]] = order[:-1][same]
        nxt[order[:-1][same]] = order[1:][same]
    return prev, nxt


def _text(template: str, values: np.ndarray) -> str:
    """The template's %-fields filled with the values, row by row."""
    return template % tuple(values.ravel().tolist())


def _rows(table: SweepTable, before: str, after: str):
    """The table's rows as text, each row's fields between before and after,
    in parts of at most _BLOCK_ROWS rows.

    A 2-axis grid whose inner axis has at least _RUN_ROWS points goes out a
    run at a time: pieces of rows that share an outer value (see
    :func:`_runs`), whole pieces to a part.  A piece is written through a
    row template that holds its inner-axis text, formatted through _FIELD
    when its inner bits differ from the last piece's, so a grid formats its
    inner axis once.  Its values get one _FIELD pass, and its outer value,
    formatted once, goes into the _OUTER place of each of its rows.  Any
    other table (no axis, one axis, a shorter inner axis) goes out a block
    of _BLOCK_ROWS rows at a time, every field in one _FIELD pass.

    A piece whose inner and value bits repeat exactly in a later piece is a
    twin: the closed measures keep their bits under J -> -J, so on a grid
    symmetric in J each run at J > 0 repeats the run at -J.  The text of the
    first of twins is held, without its outer value, until its last twin
    has taken it; each later twin takes that text, and only its outer value
    is formatted.  Twins are found from one key per piece (:func:`_twins`),
    and each is checked bit for bit before its text is reused.  At most
    4 * _BLOCK_ROWS rows of text are held at a time (the 161^2 grid holds 80
    runs of 161 rows at its middle), so memory stays near two blocks of
    text; a piece past that budget formats its own values.
    """
    data = np.asarray(table.data, dtype=np.float64)
    if len(table.axes) != 2 or table.axes[1].count < _RUN_ROWS:
        row = before + ",".join([_FIELD] * data.shape[1]) + after
        for a in range(0, len(data), _BLOCK_ROWS):
            values = data[a : a + _BLOCK_ROWS]
            yield _text(row * len(values), values)
        return
    # the value fields are escaped for the pass that writes a piece's inner
    # axis into its row template
    row = before + ",".join([_OUTER, _FIELD] + ["%" + _FIELD] * (data.shape[1] - 2)) + after
    edges = _runs(data)
    prev, nxt = _twins(data, edges)
    held, load, seen = {}, 0, None
    i = 0
    while i < len(edges) - 1:
        j = int(np.searchsorted(edges, edges[i] + _BLOCK_ROWS, "right")) - 1
        # a part's values and ints as Python objects, made a part at a time
        # so that a grid of short runs makes no list of the table's length
        cut = edges[i : j + 1].tolist()
        s = cut[0]
        values = np.ascontiguousarray(data[s : cut[-1], 2:])
        inner = data[s : cut[-1], 1].tobytes()
        outer = data[cut[:-1], 0].tolist()
        part = []
        for k, a, b, x, first, later in zip(
            range(i, j), cut, cut[1:], outer, prev[i:j].tolist(), nxt[i:j].tolist()
        ):
            if inner[8 * (a - s) : 8 * (b - s)] != seen:
                seen = inner[8 * (a - s) : 8 * (b - s)]
                template = (row * (b - a)) % tuple(data[a:b, 1].tolist())
            piece = held.pop(first, None)
            if piece is not None:
                piece, ha, hb = piece
                load -= hb - ha
                if data[ha:hb, 1:].tobytes() != data[a:b, 1:].tobytes():
                    piece = None
            if later >= 0 and load + b - a <= 4 * _BLOCK_ROWS:
                if piece is None:
                    piece = _text(template, values[a - s : b - s])
                held[k] = piece, a, b
                load += b - a
            if piece is None:
                part.append(_text(template.replace(_OUTER, _FIELD % x), values[a - s : b - s]))
            else:
                part.append(piece.replace(_OUTER, _FIELD % x))
        yield "".join(part)
        i = j


# open(path, "w")'s flags less O_TRUNC: an existing file is written over in
# place and cut to length at the end (see _write).
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path, kind: str, parts) -> None:
    """Write the text parts in order to path, naming kind and path on failure.

    The path is opened as ``open(path, "w")`` opens it, but not truncated:
    the parts are written over the old bytes, and a regular file is then cut
    to the written length, so an existing output ends up with exactly the
    bytes of a fresh write.  The truncating open was most of the cost of
    rewriting an output: a 20 KB, 300 KB and 2.7 MB file took a median 0.17,
    0.52 and 3.7 ms through ``open(path, "w")``, 0.13, 0.36 and 2.7 ms of it
    in the open, and takes 0.054, 0.21 and 1.7 ms written over in place
    (ext4 mounted with ``discard``, 2 vCPUs, CPython 3.11).  Symlinks, hard
    links and permissions behave as with ``open(path, "w")``, and a device,
    FIFO or pipe is never cut.  If anything fails after the open, a regular
    file is cut to zero bytes before the error is raised, so no old byte
    ever trails new ones.
    """
    try:
        with open(os.open(path, _WRITE_FLAGS, 0o666), "wb", buffering=0) as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                for part in parts:
                    data = memoryview(part.encode("utf-8"))
                    while data:
                        data = data[fh.write(data) :]
                if regular:
                    fh.truncate()
            except BaseException:
                if regular:
                    with contextlib.suppress(OSError):
                        fh.truncate(0)
                raise
    except OSError as exc:
        raise OSError(f"cannot write {kind} to {path}: {exc}") from exc


def write_csv(table: SweepTable, path) -> None:
    """Plain CSV: header, comma separators, LF endings, 17-digit values."""
    head = ",".join(table.columns) + "\n"
    _write(path, "CSV", itertools.chain([head], _rows(table, "", "\n")))


def write_json(table: SweepTable, path) -> None:
    """One object with "columns" and "rows"; numbers use the 17-digit rule."""
    # Each row is led by its comma, which the first row drops.
    rows = _rows(table, ",[", "]")
    head = '{"columns": ' + json.dumps(list(table.columns)) + ', "rows": ['
    first = next(rows, ",")[1:]
    _write(path, "JSON", itertools.chain([head, first], rows, ["]}\n"]))
