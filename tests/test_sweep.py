from __future__ import annotations

import json
import math
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from xxzsteer import fisher, linalg, steering, sweep
from xxzsteer.cli import main
from xxzsteer.model import ParameterRegimeError, SpinParams, ThermalBatch
from xxzsteer.plot import render_svg
from xxzsteer.sweep import (
    MEASURES,
    AxisSpec,
    SweepSpec,
    SweepTable,
    evaluate_point,
    format_value,
    run_sweep,
    write_csv,
    write_json,
)

from conftest import parse_csv


# ------------------------------------------------------------- AxisSpec

def test_axis_point_counts():
    assert AxisSpec("J", -20, 20, 0.25).count == 161
    assert AxisSpec("J", -3, 3, 0.01).count == 601
    assert AxisSpec("T", 1, 1, 0.5).count == 1
    assert AxisSpec("B", 0, 1, 0.3).count == 4  # 0, 0.3, 0.6, 0.9


@pytest.mark.parametrize(
    "axis, rows, last",
    [
        ("B=-767:-766.99986:0.00001", 15, -766.99986),
        ("T=151.21:151.27486:0.00001", 6487, 151.27486),
    ],
)
def test_a_stop_on_the_grid_far_from_zero_is_the_last_row(axis, rows, last, tmp_path):
    """stop - start rounds to a few 1e-8 steps short of a whole number of
    steps here, more than a fixed 1e-9 would forgive."""
    out = tmp_path / "x.csv"
    fixed = [f"--fix={n}=1" for n in ("J", "Jz", "B", "T") if n != axis[0]]
    argv = ["sweep", "--axis", axis, *fixed, "--measure", "SCn", "--out", str(out)]
    assert main(argv) == 0
    _, data = parse_csv(out)
    assert len(data) == rows and data[-1, 0] == last


def test_axis_counts_of_seeded_decimal_specs_are_exact():
    """Decimal specs as typed, |start| <= 1e3 and up to 10**6 steps, half of
    them with the stop on the grid: the count is the exact decimal one."""
    rng = np.random.default_rng(2810)
    on_grid = 0
    for _ in range(20000):
        step = Decimal(int(rng.integers(1, 100))).scaleb(-int(rng.integers(0, 7)))
        start = Decimal(int(rng.integers(-10**6, 10**6))).scaleb(-3)
        n = int(math.exp(rng.uniform(0.0, math.log(999_999))))
        past = 0 if rng.random() < 0.5 else Decimal(int(rng.integers(0, 100))) / 100
        stop = start + (n + past) * step
        ax = AxisSpec("J", float(start), float(stop), float(step))
        assert ax.count == n + 1, (start, stop, step)
        on_grid += past == 0
    assert on_grid > 9000


def test_axis_values_are_arithmetic_progression():
    vals = AxisSpec("Jz", -1, 1, 0.5).values()
    assert np.array_equal(vals, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_axis_values_never_pass_the_stop():
    """Seeded decimal axes, as they are typed: a value where start + step * i
    rounds past the stop is the stop, and every other value keeps the bits of
    start + step * i."""
    rng = np.random.default_rng(2207)
    clamped = 0
    for _ in range(2000):
        step = Decimal(str(rng.choice([0.1, 0.01, 0.3, 0.05, 0.7, 0.001, 0.25, 0.02])))
        start = int(rng.integers(-10**4, 10**4)) * step
        stop = start + int(rng.integers(0, 3000)) * step
        ax = AxisSpec("J", float(start), float(stop), float(step))
        values = ax.values()
        raw = ax.start + ax.step * np.arange(ax.count, dtype=float)
        assert values.max() <= ax.stop and values[0] == ax.start
        past = raw > ax.stop
        assert np.array_equal(values[~past], raw[~past])
        assert np.all(values[past] == ax.stop)
        clamped += past.any()
    assert clamped > 100
    assert AxisSpec("J", -999.9, 1000, 0.1).values()[-1] == 1000.0


def test_axis_rejects_bad_specs():
    with pytest.raises(ValueError, match="step"):
        AxisSpec("J", 0, 1, -0.1)
    with pytest.raises(ValueError, match="start"):
        AxisSpec("J", 2, 1, 0.1)
    with pytest.raises(ValueError, match="floor"):
        SweepSpec(axes=(AxisSpec("T", 0.0, 1, 0.1),), fixed={"J": 1, "Jz": 1, "B": 1})
    with pytest.raises(ValueError, match="axis name"):
        AxisSpec("K", 0, 1, 0.1)
    with pytest.raises(ValueError, match="exceeds"):
        AxisSpec("J", 0, 1000, 1e-6)


@pytest.mark.parametrize(
    "start, stop, step, message",
    [
        (math.nan, 1, 0.5, "axis J: start=nan is not finite"),
        (0, math.inf, 0.5, "axis J: stop=inf is not finite"),
        (0, 1, -math.inf, "axis J: step=-inf is not finite"),
    ],
)
def test_axis_rejects_non_finite_values(start, stop, step, message):
    with pytest.raises(ValueError) as err:
        AxisSpec("J", start, stop, step)
    assert str(err.value) == message


def test_axis_count_past_double_range_is_too_many_points():
    with pytest.raises(ValueError, match=r"^axis J: inf points exceeds 1000000$"):
        AxisSpec("J", 0, 1e300, 1e-300)
    with pytest.raises(ValueError, match=r"^axis B: inf points exceeds 1000000$"):
        AxisSpec("B", -1e308, 1e308, 1.0)


@pytest.mark.parametrize(
    "stop, step, count",
    [
        (1e200, 1.0, "1e+200"),
        (1e7, 1.0, "1e+07"),
        (2e6, 1.0, "2000001"),
        (1e7 - 1, 1.0, "10000000"),
    ],
)
def test_too_many_points_message_is_short(stop, step, count):
    with pytest.raises(ValueError) as info:
        AxisSpec("J", 0, stop, step)
    assert str(info.value) == f"axis J: {count} points exceeds 1000000"


# ------------------------------------------------------------ SweepSpec

def test_spec_requires_full_parameter_cover():
    ax = (AxisSpec("J", 0, 1, 0.5),)
    with pytest.raises(ValueError, match="neither swept nor fixed"):
        SweepSpec(axes=ax, fixed={"Jz": 1, "B": 1})
    with pytest.raises(ValueError, match="both swept and fixed"):
        SweepSpec(axes=ax, fixed={"J": 0, "Jz": 1, "B": 1, "T": 1})
    with pytest.raises(ValueError, match="unknown fixed"):
        SweepSpec(axes=ax, fixed={"Jz": 1, "B": 1, "T": 1, "Q": 2})


def test_spec_rejects_duplicate_axes_and_bad_names():
    axes = (AxisSpec("J", 0, 1, 0.5), AxisSpec("J", 0, 1, 0.5))
    with pytest.raises(ValueError, match="distinct"):
        SweepSpec(axes=axes, fixed={"B": 1, "T": 1})
    with pytest.raises(ValueError, match="unknown measure"):
        SweepSpec(
            axes=(AxisSpec("J", 0, 1, 0.5),),
            fixed={"Jz": 1, "B": 1, "T": 1},
            measures=("SCX",),
        )


def test_spec_rejects_an_unknown_engine():
    with pytest.raises(ValueError) as err:
        SweepSpec(axes=(), fixed={"J": 1, "Jz": 1, "B": 1, "T": 1}, engine="fast")
    assert str(err.value) == (
        "unknown engine 'fast'; choose from ('oracle', 'closed', 'both')"
    )


def test_spec_caps_the_cells_of_the_whole_grid():
    fixed = {"B": 1.0, "T": 1.0}
    at_cap = (AxisSpec("J", 0, 999, 1.0), AxisSpec("Jz", 0, 999, 1.0))
    assert math.prod(ax.count for ax in at_cap) == sweep.MAX_GRID_CELLS
    SweepSpec(axes=at_cap, fixed=fixed)  # built only, never run
    over = (AxisSpec("J", 0, 1000, 1.0), AxisSpec("Jz", 0, 999, 1.0))
    with pytest.raises(ValueError) as info:
        SweepSpec(axes=over, fixed=fixed)
    assert str(info.value) == "grid of 1001 x 1000 = 1001000 cells exceeds 1000000"
    widest = (AxisSpec("J", 0, 1e6 - 1, 1.0), AxisSpec("Jz", 0, 1e6 - 1, 1.0))
    with pytest.raises(ValueError, match=r"^grid of 1000000 x 1000000 = 10{12} cells"):
        SweepSpec(axes=widest, fixed=fixed)


def test_spec_preserves_measure_order_and_dedups():
    spec = SweepSpec(
        axes=(AxisSpec("J", 0, 1, 0.5),),
        fixed={"Jz": 1, "B": 1, "T": 1},
        measures=("QFI", "SCn", "QFI"),
    )
    assert spec.measures == ("QFI", "SCn")
    assert spec.columns() == ("J", "QFI", "SCn")


def test_spec_takes_at_most_two_axes():
    axes = (AxisSpec("J", 0, 1, 0.5), AxisSpec("Jz", 0, 1, 0.5), AxisSpec("B", 0, 1, 0.5))
    with pytest.raises(ValueError, match="^a sweep takes at most two axes$"):
        SweepSpec(axes=axes, fixed={"T": 1})


def test_spec_both_engine_column_layout():
    spec = SweepSpec(
        axes=(AxisSpec("J", 0, 1, 0.5),),
        fixed={"Jz": 1, "B": 1, "T": 1},
        measures=("SCn",),
        engine="both",
    )
    assert spec.columns() == ("J", "SCn_oracle", "SCn_closed", "SCn_absdiff")


# -------------------------------------------------------- evaluate_point

def test_evaluate_point_all_zero_at_free_spins():
    rec = evaluate_point(SpinParams(0, 0, 0, 1), MEASURES, "closed")
    assert all(abs(v) <= 1e-12 for v in rec.values())


def test_evaluate_point_bell_anchors_both_engines():
    rec = evaluate_point(SpinParams(10, 2, 0, 0.01), ("SCn", "SCRE", "QFI"), "both")
    for m, target in (("SCn", 3.0), ("SCRE", 3.0), ("QFI", 4.0)):
        assert abs(rec[m].oracle - target) <= 1e-3
        assert abs(rec[m].closed - target) <= 1e-3
        assert rec[m].absdiff <= 1e-8


def test_evaluate_point_surfaces_parameter_errors():
    with pytest.raises(ValueError, match="T="):
        evaluate_point(SpinParams(1, 1, 1, 1e-9))


def test_evaluate_point_requires_a_measure():
    with pytest.raises(ValueError, match="^at least one measure is required$"):
        evaluate_point(SpinParams(1, 1, 1, 1), ())


@pytest.mark.parametrize("engine", ["closed", "oracle", "both"])
def test_evaluate_point_reports_repeated_measures_once(engine):
    p = SpinParams(1.5, 0.7, 1.0, 2.0)
    rec = evaluate_point(p, ("QFI", "SCn", "QFI", "SCn"), engine)
    assert list(rec) == ["QFI", "SCn"]
    assert rec == evaluate_point(p, ("QFI", "SCn"), engine)


def test_single_point_sweep_matches_evaluate_point():
    """Every sweep row is bit-identical to evaluate_point at that node."""
    p = SpinParams(J=2.0, Jz=1.0, B=0.5, T=0.7)
    spec = SweepSpec(
        axes=(AxisSpec("J", 2.0, 2.0, 1.0),),
        fixed={"Jz": 1.0, "B": 0.5, "T": 0.7},
        measures=("SCn", "QFI"),
    )
    table = run_sweep(spec)
    rec = evaluate_point(p, ("SCn", "QFI"), "closed")
    assert table.data.shape == (1, 3)
    assert table.data[0, 0] == 2.0
    assert table.data[0, 1] == rec["SCn"]
    assert table.data[0, 2] == rec["QFI"]

    cases = [
        # no axes on each engine, one cell, then one axis
        ((), {"J": 1.5, "Jz": 0.7, "B": 1.0, "T": 2.0}, MEASURES, "closed"),
        ((), {"J": 1.5, "Jz": 0.7, "B": 1.0, "T": 2.0}, MEASURES, "oracle"),
        ((), {"J": 1.5, "Jz": 0.7, "B": 1.0, "T": 2.0}, MEASURES, "both"),
        ((("J", 2.0, 2.0, 1.0),), {"Jz": 1.0, "B": 0.5, "T": 0.7}, MEASURES, "closed"),
        ((("T", 1e-3, 1e3, 125.0),), {"J": -1e3, "Jz": 1e3, "B": 0.0},
         ("SCn", "SCRE", "SCREpaper", "QFI"), "closed"),
        ((("B", -2.0, 2.0, 0.5),), {"J": 1.0, "Jz": 0.5, "T": 0.4},
         ("QFIclosed", "SCRE"), "closed"),
        ((("J", -1.0, 1.0, 1.0),), {"Jz": 0.5, "B": 1.0, "T": 2.0}, ("QFI",), "both"),
        # box corners and faces; the published QFI ratio overflows at T=1e-3
        ((("J", -1e3, 1e3, 500.0), ("Jz", -1e3, 1e3, 500.0)), {"B": 1e3, "T": 1e-3},
         ("SCn", "SCRE", "SCREpaper", "QFI"), "closed"),
        ((("J", -1e3, 1e3, 500.0), ("B", -1e3, 1e3, 500.0)), {"Jz": -1e3, "T": 1e3},
         MEASURES, "closed"),
        ((("Jz", -1e3, 1e3, 1e3), ("T", 1e-3, 1e3, 250.0)), {"J": 1e3, "B": 0.0},
         ("QFI", "SCn"), "closed"),
        ((("J", -2.0, 2.0, 0.5), ("Jz", -2.0, 2.0, 1.0)), {"B": 1.0, "T": 0.7},
         MEASURES, "closed"),
        ((("B", -3.0, 3.0, 1.5), ("T", 0.05, 2.05, 0.5)), {"J": 1.0, "Jz": -0.5},
         ("QFIclosed", "SCn"), "closed"),
        ((("J", -2.0, 2.0, 0.5), ("Jz", -2.0, 2.0, 1.0)), {"B": 0.0, "T": 0.3},
         ("QFI", "SCREpaper", "SCRE"), "closed"),
        ((("J", -1.0, 1.0, 1.0), ("Jz", -1.0, 1.0, 2.0)), {"B": 1.0, "T": 0.5},
         ("SCRE", "QFIclosed"), "both"),
    ]
    for axes, fixed, measures, engine in cases:
        spec = SweepSpec(
            axes=tuple(AxisSpec(*ax) for ax in axes),
            fixed=fixed,
            measures=measures,
            engine=engine,
        )
        table = run_sweep(spec)
        n = len(axes)
        assert table.data.shape == (
            math.prod(ax.count for ax in spec.axes), n + len(spec.value_columns())
        )
        for row in table.data:
            p = SpinParams(**fixed, **{ax[0]: x for ax, x in zip(axes, row[:n])})
            rec = evaluate_point(p, measures, engine)
            if engine == "both":
                want = [x for m in measures
                        for x in (rec[m].oracle, rec[m].closed, rec[m].absdiff)]
            else:
                want = [rec[m] for m in measures]
            assert row[n:].tobytes() == np.array(want).tobytes(), (p, measures)


def test_oracle_rows_do_not_depend_on_the_stack_length():
    """An odd stack of seeded cells across the box, faces included, on the
    both engine: every row is bit-identical to evaluate_point of its cell.
    QFIclosed is left out because it overflows on part of the box; its
    oracle column is the QFI's."""
    rng = np.random.default_rng(14)
    n = 41
    J, Jz, B = rng.uniform(-1e3, 1e3, (3, n))
    T = 10.0 ** rng.uniform(-3.0, 3.0, n)
    # a face in each coupling, the T floor, two corners and the near-mixed state
    J[0], Jz[1], B[2], T[3] = 1e3, -1e3, 1e3, 1e-3
    J[4], Jz[4], B[4], T[4] = -1e3, 1e3, -1e3, 1e-3
    J[5], Jz[5], B[5], T[5] = 1e3, 1e3, 1e3, 1e3
    J[6], Jz[6], B[6], T[6] = 1e-6, 1e-6, 1e-6, 1e3
    measures = ("SCn", "SCRE", "SCREpaper", "QFI")
    columns = sweep._evaluate(np.array([J, Jz, B, T]), measures, "both")
    rows = np.array(columns).T
    assert rows.shape == (n, 3 * len(measures))
    for i, row in enumerate(rows):
        rec = evaluate_point(SpinParams(J[i], Jz[i], B[i], T[i]), measures, "both")
        want = [x for m in measures for x in (rec[m].oracle, rec[m].closed, rec[m].absdiff)]
        assert row.tobytes() == np.array(want).tobytes(), i


# ------------------------------------------------------------ run_sweep

def test_sweep_axis_major_ordering():
    spec = SweepSpec(
        axes=(AxisSpec("J", 0, 1, 1.0), AxisSpec("B", 0, 2, 1.0)),
        fixed={"Jz": 0.0, "T": 1.0},
        measures=("SCn",),
    )
    table = run_sweep(spec)
    assert table.columns == ("J", "B", "SCn")
    assert np.array_equal(table.column("J"), [0, 0, 0, 1, 1, 1])
    assert np.array_equal(table.column("B"), [0, 1, 2, 0, 1, 2])


def test_sweep_deterministic_across_jobs(tmp_path):
    from xxzsteer.cli import main

    base = ["sweep", "--axis", "J=-2:2:0.4", "--axis", "Jz=-1:1:0.4",
            "--fix", "B=1", "--fix", "T=2", "--measure", "SCn", "--measure", "QFI"]
    for engine in ("closed", "both"):
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"{engine}-{jobs}.csv"
            assert main([*base, "--engine", engine, "--jobs", jobs, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def spectral_stacks(monkeypatch) -> list:
    """Record the cells of each spectral stack the sweep builds, in order.

    A definition sees only the stacked states; the last recorded cells are
    those of the stack it is called on.
    """
    stacks = []
    spectral = sweep.gibbs_spectral

    def recorded(cells):
        stacks.append(cells)
        return spectral(cells)

    monkeypatch.setattr(sweep, "gibbs_spectral", recorded)
    return stacks


# B = 1 at T = 1e-3 is the first node of this line where the published QFI
# ratio leaves double range (cells 0 and 1 evaluate).
OVERFLOW_LINE = dict(
    axes=(AxisSpec("B", 0.0, 2.0, 0.5),), fixed={"J": 1.0, "Jz": 0.0, "T": 1e-3}
)
OVERFLOW_MESSAGE = (
    "published QFI ratio overflows double precision at J=1.0, Jz=0.0, B=1.0, T=0.001"
)


def test_sweep_raises_at_the_first_failing_node():
    with pytest.raises(ParameterRegimeError) as err:
        run_sweep(SweepSpec(**OVERFLOW_LINE))
    assert str(err.value) == OVERFLOW_MESSAGE
    with pytest.raises(ParameterRegimeError) as err:
        evaluate_point(SpinParams(1.0, 0.0, 1.0, 1e-3))
    assert str(err.value) == OVERFLOW_MESSAGE
    others = run_sweep(SweepSpec(**OVERFLOW_LINE, measures=MEASURES[:4]))
    assert np.all(np.isfinite(others.data))
    axis = (AxisSpec("J", 800.0, 1200.0, 100.0),)
    with pytest.raises(ValueError, match=r"^\|J\|=1100.0 exceeds"):
        run_sweep(SweepSpec(axes=axis, fixed={"Jz": 0.0, "B": 1.0, "T": 1.0}))
    with pytest.raises(ValueError, match="^Jz=nan is not a finite number"):
        run_sweep(SweepSpec(axes=axis, fixed={"Jz": float("nan"), "B": 1.0, "T": 1.0}))
    with pytest.raises(ValueError, match="^Jz='1.5' is not a finite number"):
        run_sweep(SweepSpec(axes=axis, fixed={"Jz": "1.5", "B": 1.0, "T": 1.0}))


@pytest.mark.parametrize(
    "oracle_fails_at, measures, raised, kind",
    [
        (0.5, ("SCn", "QFIclosed"), "oracle", "sqc"),
        (1.0, ("SCn", "QFIclosed"), "oracle", "sqc"),
        (1.0, ("QFIclosed", "SCn"), "closed", "sqc"),
        (1.5, ("SCn", "QFIclosed"), "closed", "sqc"),
        (1.0, ("QFIclosed",), "oracle", "qfi"),
    ],
    # an earlier node; same node, earlier measure; same node, later measure;
    # a later node; same node, same measure
    ids=[
        "0.5-measures0-oracle",
        "1.0-measures1-oracle",
        "1.0-measures2-closed",
        "1.5-measures3-closed",
        "1.0-measures4-oracle-qfi",
    ],
)
def test_engine_both_raises_in_node_then_measure_order(
    monkeypatch, oracle_fails_at, measures, raised, kind
):
    real = sweep._DEFINITIONS[kind]
    stacks = spectral_stacks(monkeypatch)

    def failing(rho, args):
        if np.any(stacks[-1].B == oracle_fails_at):
            raise ValueError("oracle failure")
        return real(rho, args)

    monkeypatch.setitem(sweep._DEFINITIONS, kind, failing)
    with pytest.raises(ValueError) as err:
        run_sweep(SweepSpec(**OVERFLOW_LINE, measures=measures, engine="both"))
    want = "oracle failure" if raised == "oracle" else OVERFLOW_MESSAGE
    assert str(err.value) == want
    # the overflowing node alone, as a point
    with pytest.raises(ValueError) as err:
        evaluate_point(SpinParams(1.0, 0.0, 1.0, 1e-3), measures, "both")
    assert str(err.value) == (want if oracle_fails_at == 1.0 else OVERFLOW_MESSAGE)


def test_oracle_raises_for_the_first_failing_cell(monkeypatch):
    """Over a stack, a later definition failing at an earlier cell raises first."""

    stacks = spectral_stacks(monkeypatch)

    def failing_at(b, real):
        def definition(rho, args):
            if np.any(stacks[-1].B == b):
                raise ValueError(f"oracle failure at B={b}")
            return real(rho, args)

        return definition

    for kind, b in (("sqc", 1.0), ("qfi", 0.5)):
        monkeypatch.setitem(
            sweep._DEFINITIONS, kind, failing_at(b, sweep._DEFINITIONS[kind])
        )
    line = dict(axes=(AxisSpec("B", 0.0, 2.0, 0.5),), fixed={"J": 1.0, "Jz": 0.0, "T": 1.0})
    for engine in ("oracle", "both"):
        with pytest.raises(ValueError, match=r"^oracle failure at B=0.5$"):
            run_sweep(SweepSpec(**line, measures=("SCn", "QFI"), engine=engine))


def _error(call, *args) -> str | None:
    """Type and message of what call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - any error is part of the contract
        return f"{type(exc).__name__}: {exc}"
    return None


def _first_cell_error(spec: SweepSpec) -> str | None:
    """Brute force: the error of the first cell, in grid order, that raises alone.

    The cells are the grid's unchecked parameter rows, so a cell outside
    the box fails alone, as SpinParams checks it.
    """
    cells = math.prod(ax.count for ax in spec.axes)
    for cell in sweep._cells(spec, 0, cells).T.tolist():
        error = _error(
            lambda: evaluate_point(SpinParams(*cell), spec.measures, spec.engine)
        )
        if error is not None:
            return error
    return None


def _seeded_grids(rng) -> list[tuple[AxisSpec, ...]]:
    """Small 1-D and 2-D grids reaching into the QFIclosed overflow near T = 1e-3."""
    grids = []
    for _ in range(3):
        j0, b0 = rng.uniform(-3, 1, size=2)
        t0 = rng.uniform(1e-3, 1.2e-3)
        grids.append((AxisSpec("B", b0, b0 + 3.0, 0.5),))
        grids.append((AxisSpec("T", t0, t0 + 0.004, 0.0005),))
        grids.append(
            (AxisSpec("J", j0, j0 + 2.0, 0.5), AxisSpec("B", b0, b0 + 2.0, 0.5))
        )
    return grids


def _crossing_grids(rng) -> list[tuple[AxisSpec, ...]]:
    """A J line and a J, B grid near T = 1e-3 whose later cells leave the box at
    |J| = 1e3, after cells where QFIclosed overflows."""
    j0, b0 = rng.uniform(998.0, 999.5), rng.uniform(-1.0, 1.0)
    return [
        (AxisSpec("J", j0, j0 + 2.0, 0.25),),
        (AxisSpec("J", j0, j0 + 2.0, 0.5), AxisSpec("B", b0, b0 + 2.0, 0.5)),
    ]


def _check_first_failing_cells_error(monkeypatch) -> None:
    """run_sweep raises what the first cell to fail alone raises, on every
    engine, for seeded grids with and without a definition that fails."""
    rng = np.random.default_rng(6061)
    measure_sets = (MEASURES, ("QFIclosed", "SCn"), ("SCRE", "QFI"))
    cases = [(axes, measure_sets[k // 3]) for k, axes in enumerate(_seeded_grids(rng))]
    cases += [
        (axes, measures)
        for axes in _crossing_grids(np.random.default_rng(6062))
        for measures in measure_sets
    ]
    failing_seen = patched_seen = outside_seen = 0
    for axes, measures in cases:
        fixed = {"J": 2.0, "Jz": 0.0, "B": 1.0, "T": 1e-3}
        for ax in axes:
            del fixed[ax.name]
        for engine in ("closed", "oracle", "both"):
            spec = SweepSpec(axes=axes, fixed=fixed, measures=measures, engine=engine)
            want = _first_cell_error(spec)
            assert _error(run_sweep, spec) == want, spec
            failing_seen += want is not None
            outside_seen += want is not None and "exceeds the supported" in want

        # a definition that fails at one seeded cell of the grid
        J, _, B, T = sweep._cells(spec, 0, math.prod(ax.count for ax in axes))
        at = int(rng.integers(len(T)))
        kind = sweep._MEASURES[measures[int(rng.integers(len(measures)))]][1][0]
        real = sweep._DEFINITIONS[kind]

        def failing(rho, args, b=B[at], t=T[at], j=J[at]):
            batch = stacks[-1]
            if np.any((batch.B == b) & (batch.T == t) & (batch.J == j)):
                raise RuntimeError(f"{kind} fails at B={b}, T={t}, J={j}")
            return real(rho, args)

        with monkeypatch.context() as m:
            stacks = spectral_stacks(m)
            m.setitem(sweep._DEFINITIONS, kind, failing)
            for engine in ("oracle", "both"):
                spec = SweepSpec(
                    axes=axes, fixed=fixed, measures=measures, engine=engine
                )
                want = _first_cell_error(spec)
                assert _error(run_sweep, spec) == want, spec
                patched_seen += want is not None and want.startswith("RuntimeError")
    assert failing_seen and patched_seen and outside_seen


def test_sweep_error_is_the_first_failing_cells_error(monkeypatch):
    """run_sweep raises what the first cell to fail alone raises, on every
    engine; a later cell outside the box does not pre-empt an earlier one."""
    _check_first_failing_cells_error(monkeypatch)


def test_blocked_sweep_error_is_the_first_failing_cells_error(monkeypatch):
    """The same in blocks of 7 cells: the first failing block holds the first
    failing cell, and the error's type and message do not change."""
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 7)
    _check_first_failing_cells_error(monkeypatch)


def test_failing_stack_is_halved_not_rerun_cell_by_cell(monkeypatch):
    """A failure at the last of N cells costs O(log N) spectral stacks, not N."""
    spec = SweepSpec(
        axes=(AxisSpec("J", -2.0, 2.0, 0.1), AxisSpec("Jz", -2.0, 2.0, 0.1)),
        fixed={"B": 1.0, "T": 1.0},
        measures=("SCn",),
        engine="oracle",
    )
    n = spec.axes[0].count * spec.axes[1].count
    last = [ax.values()[-1] for ax in spec.axes]
    real = sweep._DEFINITIONS["sqc"]

    stacks = spectral_stacks(monkeypatch)

    def failing(rho, args):
        value = real(rho, args)
        cells = stacks[-1]
        if np.any((cells.J == last[0]) & (cells.Jz == last[1])):
            raise ValueError("late failure")
        return value

    monkeypatch.setitem(sweep._DEFINITIONS, "sqc", failing)
    with pytest.raises(ValueError, match="^late failure$"):
        run_sweep(spec)
    calls = [len(cells) for cells in stacks]
    assert n == 1681
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 4, calls


def test_stack_error_is_raised_when_its_first_failing_cell_passes_alone(monkeypatch):
    """A definition that fails only on stacks of two or more cells: the halving
    ends at a cell that passes alone, and the sweep raises the whole stack's
    error."""
    real = sweep._DEFINITIONS["qfi"]
    stacks = spectral_stacks(monkeypatch)

    def failing(rho, args):
        if len(rho.matrix) > 1:
            raise ValueError(f"stack of {len(rho.matrix)} cells")
        return real(rho, args)

    monkeypatch.setitem(sweep._DEFINITIONS, "qfi", failing)
    spec = SweepSpec(
        axes=(AxisSpec("B", 0.0, 2.0, 0.5),),
        fixed={"J": 1.0, "Jz": 0.0, "T": 1.0},
        measures=("QFI",),
        engine="oracle",
    )
    with pytest.raises(ValueError, match="^stack of 5 cells$"):
        run_sweep(spec)
    # the stack, its failing left half, that half's passing left cell, and
    # its right cell measure by measure, which passes
    assert [len(cells) for cells in stacks] == [5, 2, 1, 1]
    assert [cells.B.tolist() for cells in stacks[2:]] == [[0.0], [0.5]]


# 9 x 5 = 45 cells: six blocks of 7 and one of 3.
BLOCKED_GRID = dict(
    axes=(AxisSpec("J", -2.0, 2.0, 0.5), AxisSpec("Jz", -1.0, 1.0, 0.5)),
    fixed={"B": 1.0, "T": 0.5},
)


@pytest.mark.parametrize("engine", ["closed", "both"])
def test_blocked_sweep_writes_the_whole_grid_bytes(monkeypatch, tmp_path, engine):
    """Blocks of 7 cells give the CSV and JSON bytes of the grid as one block."""
    spec = SweepSpec(**BLOCKED_GRID, engine=engine)
    outputs = []
    for block_rows in (sweep._BLOCK_ROWS, 7):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        table = run_sweep(spec)
        assert table.data.flags.c_contiguous
        write_csv(table, tmp_path / "t.csv")
        write_json(table, tmp_path / "t.json")
        outputs.append([(tmp_path / name).read_bytes() for name in ("t.csv", "t.json")])
    assert len(table.data) == 45
    assert outputs[0] == outputs[1]


def test_each_block_checks_its_cells_in_one_batch(monkeypatch):
    """One batch per block, and each cell in exactly one: a grid of one block
    makes a single batch of its cells, and no cell is checked twice."""
    sizes = []
    batch = sweep.ThermalBatch

    def counted(*columns):
        sizes.append(len(columns[0]))
        return batch(*columns)

    monkeypatch.setattr(sweep, "ThermalBatch", counted)
    evaluate_point(SpinParams(1.5, 0.5, 1.0, 1.0), MEASURES, "both")
    assert sizes == [1]
    for engine in ("closed", "oracle"):
        spec = SweepSpec(**BLOCKED_GRID, measures=("SCn", "QFI"), engine=engine)
        for block_rows, want in ((sweep._BLOCK_ROWS, [45]), (7, [7] * 6 + [3])):
            sizes.clear()
            with monkeypatch.context() as m:
                m.setattr(sweep, "_BLOCK_ROWS", block_rows)
                run_sweep(spec)
            assert sizes == want, (engine, block_rows)


def test_failure_in_the_last_block_costs_that_block_and_its_halving(monkeypatch):
    """Blocks before the failing one run once each; the failing block is then
    halved, with no second pass over the grid."""
    spec = SweepSpec(
        axes=(AxisSpec("J", -2.0, 2.0, 0.5), AxisSpec("Jz", -2.0, 2.0, 0.5)),
        fixed={"B": 1.0, "T": 1.0},
        measures=("SCn",),
        engine="oracle",
    )
    last = [ax.values()[-1] for ax in spec.axes]
    real = sweep._DEFINITIONS["sqc"]

    stacks = spectral_stacks(monkeypatch)

    def failing(rho, args):
        value = real(rho, args)
        cells = stacks[-1]
        if np.any((cells.J == last[0]) & (cells.Jz == last[1])):
            raise ValueError("late failure")
        return value

    monkeypatch.setitem(sweep._DEFINITIONS, "sqc", failing)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 7)
    with pytest.raises(ValueError, match="^late failure$"):
        run_sweep(spec)
    calls = [len(cells) for cells in stacks]
    # 81 cells: eleven blocks of 7, then the failing block of 4
    blocks = [7] * 11 + [4]
    assert calls[: len(blocks)] == blocks
    halving = calls[len(blocks) :]
    assert len(halving) <= math.ceil(math.log2(4)) + 1, calls
    assert sum(halving) <= 4, calls


def test_non_finite_value_names_its_table_row(monkeypatch):
    """The finite-output check names the row of the whole table, in any block."""
    form, definition = sweep._MEASURES["SCn"]

    def spoiled(cells):
        return np.where(cells.J == 1.5, np.nan, form(cells))

    monkeypatch.setitem(sweep._MEASURES, "SCn", (spoiled, definition))
    spec = SweepSpec(**BLOCKED_GRID, measures=("QFI", "SCn"))
    # J = 1.5 first at row 7 * 5 = 35, column 3 (J, Jz, QFI, SCn)
    message = r"^sweep produced a non-finite value in column 'SCn' at row 35$"
    for block_rows in (sweep._BLOCK_ROWS, 7):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        with pytest.raises(RuntimeError, match=message):
            run_sweep(spec)


def test_evaluation_error_comes_before_a_non_finite_value(monkeypatch):
    """A raising cell wins over an earlier non-finite value, in any block."""
    spoil_form, spoil_definition = sweep._MEASURES["SCn"]
    raise_form, raise_definition = sweep._MEASURES["QFI"]

    def spoiled(cells):
        return np.where(cells.J == 1.5, np.nan, spoil_form(cells))

    def failing(cells):
        if np.any((cells.J == 2.0) & (cells.Jz == 1.0)):
            raise ValueError("late cell")
        return raise_form(cells)

    monkeypatch.setitem(sweep._MEASURES, "SCn", (spoiled, spoil_definition))
    monkeypatch.setitem(sweep._MEASURES, "QFI", (failing, raise_definition))
    spec = SweepSpec(**BLOCKED_GRID, measures=("QFI", "SCn"))
    # NaN first at row 35 (block 5 at size 7), the raise at row 44 (block 6)
    for block_rows in (sweep._BLOCK_ROWS, 7):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        with pytest.raises(ValueError, match="^late cell$"):
            run_sweep(spec)


def test_sweep_memory_is_one_blocks_working_set(monkeypatch):
    """An 81 x 81 both sweep in two blocks peaks at most 3/4 of the same
    sweep evaluated as one stack.

    Measured with tracemalloc on numpy 2.4: 15.7 MB in blocks of 4096 cells,
    24.4 MB as one stack of 6561, a ratio of 0.64; the table itself is
    0.9 MB.  The ratio, not either size, is bounded, so the test does not
    rest on the size of one numpy version's temporaries.
    """
    spec = SweepSpec(
        axes=(AxisSpec("J", -20.0, 20.0, 0.5), AxisSpec("Jz", -20.0, 20.0, 0.5)),
        fixed={"B": 1.0, "T": 2.0},
        engine="both",
    )
    peaks = []
    for block_rows in (6561, sweep._BLOCK_ROWS):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        tracemalloc.start()
        try:
            table = run_sweep(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del table
    whole, blocked = peaks
    assert 6561 > sweep._BLOCK_ROWS
    assert blocked <= 0.75 * whole, peaks


def _traced_sweep(spec: SweepSpec) -> tuple[int, int]:
    """tracemalloc's peak while run_sweep evaluates spec, and the table's size."""
    tracemalloc.start()
    try:
        table = run_sweep(spec)
        return tracemalloc.get_traced_memory()[1], table.data.nbytes
    finally:
        tracemalloc.stop()


def test_sweep_holds_the_table_plus_one_blocks_working_set():
    """A one-measure 301 x 301 sweep, 23 blocks, peaks within its table plus
    twice what a sweep of one block holds beside its own table.

    Measured with tracemalloc on numpy 2.4: one block of 64 x 64 cells holds
    0.73 MB beside its table, and the 301 x 301 grid peaks at 2.9 MB for a
    2.2 MB table; when the parameter rows of the whole grid were made before
    the first block, it peaked at 5.7 MB.
    """
    fixed = {"B": 1.0, "T": 2.0}
    block = SweepSpec(
        axes=(AxisSpec("J", 0.0, 63.0, 1.0), AxisSpec("Jz", 0.0, 63.0, 1.0)),
        fixed=fixed,
        measures=("SCn",),
    )
    assert math.prod(ax.count for ax in block.axes) == sweep._BLOCK_ROWS
    peak, table = _traced_sweep(block)
    working_set = peak - table
    spec = SweepSpec(
        axes=(AxisSpec("J", -15.0, 15.0, 0.1), AxisSpec("Jz", -15.0, 15.0, 0.1)),
        fixed=fixed,
        measures=("SCn",),
    )
    assert -(-math.prod(ax.count for ax in spec.axes) // sweep._BLOCK_ROWS) >= 10
    peak, table = _traced_sweep(spec)
    assert peak <= table + 2 * working_set, (peak, table, working_set)


def test_block_cells_have_the_bits_of_the_axis_values(monkeypatch):
    """Each block's parameter rows hold the bits of ax.values() on a grid in
    outer-major order, and a point's one row holds its fixed values."""
    axes = (AxisSpec("T", 0.1, 2.0, 0.3), AxisSpec("J", -1.3, 1.7, 0.1))
    spec = SweepSpec(axes=axes, fixed={"Jz": 0.7, "B": -0.3}, measures=("SCn",))
    T, J = np.meshgrid(axes[0].values(), axes[1].values(), indexing="ij")
    cells = len(T.ravel())
    want = np.array([J.ravel(), np.full(cells, 0.7), np.full(cells, -0.3), T.ravel()])
    for start, stop in ((0, cells), (0, 7), (5, 38), (cells - 3, cells)):
        got = sweep._cells(spec, start, stop)
        assert got.tobytes() == want[:, start:stop].tobytes()
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 7)
    table = run_sweep(spec)
    assert table.data[:, :2].T.tobytes() == want[[3, 0]].tobytes()
    point = SweepSpec(axes=(), fixed={"J": 1.5, "Jz": 0.7, "B": 1.0, "T": 2.0})
    assert sweep._cells(point, 0, 1).tolist() == [[1.5], [0.7], [1.0], [2.0]]


def test_oracle_decomposes_each_stack_once(monkeypatch):
    """One LAPACK eigh and one closed 2x2 eigensolve for every measure on
    the oracle, whatever the stack size.

    LAPACK takes the Hamiltonians, whose eigenvectors also diagonalize rho,
    which every definition shares; the closed form takes Bob's conditional
    states, which the two steered-coherence kinds share.
    """
    calls = []

    def counted(name, solve):
        def spy(a):
            calls.append((name, a.shape))
            return solve(a)

        return spy

    monkeypatch.setattr(np.linalg, "eigh", counted("lapack", np.linalg.eigh))
    monkeypatch.setattr(linalg, "_eigh_2x2", counted("2x2", linalg._eigh_2x2))
    evaluate_point(SpinParams(1.5, 0.5, 1.0, 1.0), MEASURES, "oracle")
    assert [(name, shape[-2:]) for name, shape in calls] == [
        ("lapack", (4, 4)),
        ("2x2", (2, 2)),
    ], calls
    calls.clear()
    run_sweep(
        SweepSpec(
            axes=(AxisSpec("J", -2.0, 2.0, 0.5), AxisSpec("Jz", -2.0, 2.0, 0.5)),
            fixed={"B": 1.0, "T": 1.0},
            engine="both",
        )
    )
    assert [name for name, _ in calls] == ["lapack", "2x2"], calls


@pytest.mark.parametrize(
    "measures, kinds",
    [
        (MEASURES, ("L1", "RELATIVE_ENTROPY")),
        (("QFI", "SCRE", "SCn", "SCREpaper"), ("RELATIVE_ENTROPY", "L1")),
        (("SCn", "QFI"), ("L1",)),
        (("SCREpaper",), ("RELATIVE_ENTROPY",)),
        (("QFIclosed",), ()),
    ],
)
def test_oracle_stack_makes_one_steering_call(monkeypatch, measures, kinds):
    """Every steered-coherence kind of a stack comes from one sqc_direct call."""
    calls = []
    real = steering.sqc_direct

    def counted(rho, *asked):
        calls.append(tuple(kind.name for kind in asked))
        return real(rho, *asked)

    monkeypatch.setattr(steering, "sqc_direct", counted)
    spec = SweepSpec(
        axes=(AxisSpec("J", -2.0, 2.0, 1.0), AxisSpec("Jz", -1.0, 1.0, 1.0)),
        fixed={"B": 1.0, "T": 1.0},
        measures=measures,
        engine="both",
    )
    run_sweep(spec)
    assert calls == ([kinds] if kinds else [])


@pytest.mark.parametrize("engine", ["closed", "both"])
@pytest.mark.parametrize(
    "measures",
    [MEASURES, ("SCREpaper", "SCRE"), ("QFIclosed", "SCn", "QFI"), ("SCRE", "QFI")],
)
def test_each_block_evaluates_a_shared_kernel_once(monkeypatch, engine, measures):
    """SCRE and SCREpaper share one entropy evaluation a block, QFI and
    QFIclosed one X-state QFI, and each column keeps the bits of its
    single-measure sweep."""
    # each shared kernel: its module and the measures that read it
    kernels = {
        "_even_entropies": (steering, {"SCRE", "SCREpaper"}),
        "_x_state_qfi": (fisher, {"QFI", "QFIclosed"}),
    }
    calls = {name: [] for name in kernels}
    for name, (module, _) in kernels.items():

        def counted(cells, real=getattr(module, name), seen=calls[name]):
            seen.append(len(cells))
            return real(cells)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 7)
    spec = SweepSpec(**BLOCKED_GRID, measures=measures, engine=engine)
    table = run_sweep(spec)
    blocks = [7] * 6 + [3]
    for name, (_, users) in kernels.items():
        assert calls[name] == (blocks if users & set(measures) else []), name
    for m in measures:
        alone = run_sweep(SweepSpec(**BLOCKED_GRID, measures=(m,), engine=engine))
        for column in spec.value_columns():
            if column.split("_")[0] == m:
                assert table.column(column).tobytes() == alone.column(column).tobytes()


def test_a_shared_kernel_is_read_only():
    """A batch's shared arrays reject writes; the measures' values do not."""
    cells = ThermalBatch.of(SpinParams(1.5, 0.5, 1.0, 1.0), SpinParams(-1, 2, 0, 0.5))
    for part in (steering._even_entropies, fisher._x_state_qfi):
        shared = cells.shared(part)
        assert cells.shared(part) is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    for measure in (steering.scre_closed, steering.scre_published, fisher.qfi_closed,
                    fisher.qfi_published):
        measure(cells)[0] = 0.0


@pytest.mark.parametrize("name", ["vn_entropy", "binary_entropy"])
def test_scn_oracle_never_reaches_relative_entropy_work(monkeypatch, name):
    """An SCn-only oracle stack evaluates with the entropies out of reach."""
    spec = dict(
        axes=(AxisSpec("J", -2.0, 2.0, 0.5),),
        fixed={"Jz": 0.5, "B": 1.0, "T": 1.0},
        engine="oracle",
    )
    want = run_sweep(SweepSpec(**spec, measures=("SCn",))).data

    def unreachable(*args):
        raise RuntimeError(f"{name} reached")

    monkeypatch.setattr(steering, name, unreachable)
    got = run_sweep(SweepSpec(**spec, measures=("SCn",))).data
    assert got.tobytes() == want.tobytes()
    for measures in (("SCRE",), ("SCn", "SCRE")):
        with pytest.raises(RuntimeError, match=f"^{name} reached$"):
            run_sweep(SweepSpec(**spec, measures=measures))


def test_oracle_point_raises_in_measure_order_around_the_shared_steering_call(
    monkeypatch,
):
    """SCn and SCRE share one call, yet QFI listed between them fails first."""
    real = sweep._DEFINITIONS["qfi"]

    def failing(rho, args):
        raise ValueError("qfi failure")

    def unreachable(*args):
        raise RuntimeError("relative-entropy failure")

    monkeypatch.setitem(sweep._DEFINITIONS, "qfi", failing)
    monkeypatch.setattr(steering, "binary_entropy", unreachable)
    point = SpinParams(1.5, 0.5, 1.0, 1.0)
    for engine in ("oracle", "both"):
        with pytest.raises(ValueError, match="^qfi failure$"):
            evaluate_point(point, ("SCn", "QFI", "SCRE"), engine)
        with pytest.raises(RuntimeError, match="^relative-entropy failure$"):
            evaluate_point(point, ("SCRE", "QFI", "SCn"), engine)
    monkeypatch.setitem(sweep._DEFINITIONS, "qfi", real)
    with pytest.raises(RuntimeError, match="^relative-entropy failure$"):
        evaluate_point(point, ("SCn", "QFI", "SCRE"), "oracle")


def test_closed_engine_calls_each_closed_form_through_its_module(monkeypatch):
    """A wrapper set on a module's closed form sees the sweep's one call."""
    calls = []
    names = {
        "SCn": (steering, "scn_closed"),
        "SCRE": (steering, "scre_closed"),
        "SCREpaper": (steering, "scre_published"),
        "QFI": (fisher, "qfi_closed"),
        "QFIclosed": (fisher, "qfi_published"),
    }
    for module, name in names.values():

        def counted(cells, form=getattr(module, name), name=name):
            calls.append(name)
            return form(cells)

        monkeypatch.setattr(module, name, counted)
    spec = SweepSpec(
        axes=(AxisSpec("J", -2.0, 2.0, 0.5),),
        fixed={"Jz": 1.0, "B": 1.0, "T": 1.0},
    )
    run_sweep(spec)
    assert calls == [names[m][1] for m in MEASURES]


def test_both_engine_calls_its_definitions_before_its_closed_forms(monkeypatch):
    """On a stack, as on one cell, the oracle runs before the closed form."""
    calls = []
    names = [
        (steering, "sqc_direct"),
        (fisher, "qfi_spectral"),
        (steering, "scn_closed"),
        (steering, "scre_closed"),
        (steering, "scre_published"),
        (fisher, "qfi_closed"),
        (fisher, "qfi_published"),
    ]
    for module, name in names:

        def counted(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    spec = SweepSpec(
        axes=(AxisSpec("J", -2.0, 2.0, 0.5),),
        fixed={"Jz": 1.0, "B": 1.0, "T": 1.0},
        engine="both",
    )
    run_sweep(spec)
    assert calls == [name for _, name in names]


def test_sweep_engine_both_cross_check():
    spec = SweepSpec(
        axes=(AxisSpec("J", -3, 3, 1.0),),
        fixed={"Jz": 1.0, "B": 1.0, "T": 0.5},
        measures=MEASURES,
        engine="both",
    )
    table = run_sweep(spec)
    for m in ("SCn", "SCRE", "QFI"):
        assert table.column(f"{m}_absdiff").max() <= 1e-8
    # the published-form columns deviate away from B=0 and are only reported
    assert table.column("SCREpaper_absdiff").max() > 0.01
    assert table.column("QFIclosed_absdiff").max() > 0.01


def test_temperature_line_anchors():
    """Each measure starts at 2 for T -> 0 at J=Jz=B=1 and dies off by T=50."""
    spec = SweepSpec(
        axes=(AxisSpec("T", 0.05, 50, 49.95),),
        fixed={"J": 1.0, "Jz": 1.0, "B": 1.0},
        measures=("SCn", "SCRE", "QFI"),
    )
    table = run_sweep(spec)
    assert np.array_equal(table.column("T"), [0.05, 50.0])
    for m in ("SCn", "SCRE", "QFI"):
        cold, hot = table.column(m)
        assert abs(cold - 2.0) <= 5e-2
        assert hot < 0.1


# Each coupling on a face of the supported box or anywhere inside it; T at
# its floor or log-uniform up to 1e3.
_COUPLING = st.one_of(st.sampled_from([-1e3, 1e3]), st.floats(-1e3, 1e3))
_TEMPERATURE = st.one_of(
    st.just(1e-3), st.floats(-3.0, 3.0).map(lambda e: max(1e-3, 10.0**e))
)


@settings(max_examples=60, deadline=None)
@given(J=_COUPLING, Jz=_COUPLING, B=_COUPLING, T=_TEMPERATURE)
def test_box_faces_are_finite_and_engines_agree(J, Jz, B, T):
    """On the faces and corners of the box both engines give finite values
    within the A4 bounds; the only error is the QFIclosed overflow."""
    assume(1e3 in (abs(J), abs(Jz), abs(B)) or T == 1e-3)
    p = SpinParams(J, Jz, B, T)
    measures = MEASURES
    try:
        both = evaluate_point(p, measures, "both")
    except ParameterRegimeError as exc:
        assert str(exc).startswith("published QFI ratio overflows double precision")
        measures = tuple(m for m in MEASURES if m != "QFIclosed")
        both = evaluate_point(p, measures, "both")
    closed = evaluate_point(p, measures, "closed")
    bounds = {"SCn": 1e-10, "SCRE": 1e-10, "QFI": 1e-8}
    if B == 0.0:
        bounds.update(SCREpaper=1e-10, QFIclosed=1e-8)
    for m in measures:
        rec = both[m]
        assert all(math.isfinite(x) for x in (rec.oracle, rec.closed, rec.absdiff))
        assert rec.closed == closed[m]
        assert rec.absdiff <= bounds.get(m, math.inf), (m, rec)


def test_sweep_emits_finite_values_across_the_box():
    spec = SweepSpec(
        axes=(AxisSpec("J", -20, 20, 10.0), AxisSpec("Jz", -20, 20, 10.0)),
        fixed={"B": 10.0, "T": 0.05},
        measures=MEASURES,
    )
    table = run_sweep(spec)
    assert np.all(np.isfinite(table.data))


# ----------------------------------------------------------- csv / json

def test_format_value_17_significant_digits():
    assert format_value(0.25) == "0.25"
    assert format_value(1 / 3) == "0.33333333333333331"


def test_csv_single_cell_has_two_lines(tmp_path):
    table = SweepTable(columns=("J", "SCn"), data=np.array([[1.0, 2.0]]))
    path = tmp_path / "one.csv"
    write_csv(table, path)
    text = path.read_text(encoding="utf-8")
    assert text == "J,SCn\n1,2\n"
    assert len(text.splitlines()) == 2


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    data = np.concatenate(
        [
            rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3)),
            np.array([[0.0, -0.0, 1e-323]]),
        ]
    )
    table = SweepTable(columns=("a", "b", "c"), data=data)
    path = tmp_path / "rt.csv"
    write_csv(table, path)
    columns, back = parse_csv(path)
    assert columns == table.columns
    assert back.shape == table.data.shape
    assert np.array_equal(back, table.data)
    assert np.array_equal(np.signbit(back), np.signbit(table.data))


def test_json_structure_and_numbers(tmp_path):
    spec = SweepSpec(
        axes=(AxisSpec("J", 0, 1, 0.5),),
        fixed={"Jz": 1.0, "B": 1.0, "T": 1.0},
        measures=("SCn",),
    )
    table = run_sweep(spec)
    path = tmp_path / "t.json"
    write_json(table, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == ["columns", "rows"]
    assert doc["columns"] == ["J", "SCn"]
    assert np.array_equal(np.array(doc["rows"]), table.data)


# Doubles whose 17-digit text is easy to get wrong: signed zeros, the
# smallest subnormal, the ends of the exponent range, integer values.
AWKWARD = (
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
    1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3,
)


def reference_csv(table):
    """The CSV bytes written one value at a time with format_value."""
    lines = [",".join(table.columns)]
    lines += [",".join(map(format_value, row)) for row in table.data.tolist()]
    return "\n".join(lines) + "\n"


def reference_json(table):
    """The JSON bytes written one value at a time with format_value."""
    rows = ",".join(
        "[" + ",".join(map(format_value, row)) + "]" for row in table.data.tolist()
    )
    return '{"columns": ' + json.dumps(list(table.columns)) + ', "rows": [' + rows + "]}\n"


def awkward_table(seed, rows, columns, n_axes):
    """A seeded table mixing random doubles over the whole exponent range with
    AWKWARD values; its first n_axes columns are axes, each repeating a few
    values, -0.0 and 0.0 among them."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-300, 300, (rows, columns))
    picked = rng.random((rows, columns)) < 0.3
    data[picked] = rng.choice(AWKWARD, picked.sum())
    names = ("J", "Jz")[:n_axes] + tuple(f"m{k}" for k in range(columns - n_axes))
    axes = tuple(AxisSpec(name, 0, 1, 1.0) for name in names[:n_axes])
    for k in range(n_axes):
        data[:, k] = rng.choice((0.0, -0.0, 0.25, -20.0, 1e-300), rows)
    return SweepTable(columns=names, data=data, axes=axes)


@pytest.mark.parametrize(
    "rows, columns, n_axes",
    [
        (1, 6, 0),
        (1, 3, 2),
        (300, 1, 0),
        (300, 1, 1),
        (0, 3, 2),
        (2 * sweep._BLOCK_ROWS + 3, 3, 0),
        (2 * sweep._BLOCK_ROWS + 3, 7, 2),
    ],
)
def test_writers_match_format_value_byte_for_byte(tmp_path, rows, columns, n_axes):
    for seed in (11, 12):
        table = awkward_table(seed, rows, columns, n_axes)
        write_csv(table, tmp_path / "t.csv")
        write_json(table, tmp_path / "t.json")
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(table).encode()
        assert (tmp_path / "t.json").read_bytes() == reference_json(table).encode()


def test_writers_match_format_value_on_a_sweep(tmp_path):
    spec = SweepSpec(
        axes=(AxisSpec("J", -2, 2, 0.25), AxisSpec("Jz", -1, 1, 0.5)),
        fixed={"B": 1.0, "T": 0.5},
        engine="both",
    )
    table = run_sweep(spec)
    write_csv(table, tmp_path / "t.csv")
    write_json(table, tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(table).encode()
    assert (tmp_path / "t.json").read_bytes() == reference_json(table).encode()


def grid_table(outer, inner, values=0, seed=0):
    """A 2-axis table: each outer value with every inner value in turn, an
    inner sequence per outer value if `inner` is 2-D, then seeded values."""
    inner = np.broadcast_to(inner, (len(outer), np.shape(inner)[-1]))
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [
            np.repeat(outer, inner.shape[1]),
            inner.ravel(),
            rng.normal(size=(inner.size, values)) * 10.0 ** rng.integers(-300, 300),
        ]
    )
    names = ("J", "Jz") + tuple(f"m{k}" for k in range(values))
    axes = AxisSpec("J", 0, len(outer) - 1, 1.0), AxisSpec("Jz", 0, inner.shape[1] - 1, 1.0)
    return SweepTable(names, data, axes)


@pytest.fixture(scope="module")
def closed_grid_161():
    """The 161 x 161 (J, Jz) grid at T=2, B=1 with every measure, closed."""
    axis = AxisSpec("J", -20, 20, 0.25), AxisSpec("Jz", -20, 20, 0.25)
    return run_sweep(SweepSpec(axes=axis, fixed={"T": 2.0, "B": 1.0}))


# Each table is made from the test's request, for the fixture.
WRITER_TABLES = {
    # 161 runs of 161 rows, cut into pieces by a block of 7
    "closed_grid_161": lambda request: request.getfixturevalue("closed_grid_161"),
    # the inner axis is longer than a block of 4096 rows, so runs are cut
    "long_inner": lambda _: grid_table([-1.0, 0.5, 2.0], np.arange(4100) * 0.01, 2),
    # runs of 4 rows, so written a run at a time, whose consecutive inner
    # sequences differ only by the sign of a zero, which a reused row
    # template would write wrong, as would a run that took the outer 0.0
    # and -0.0 for one value
    "signed_zeros": lambda _: grid_table(
        [1.0, 2.0, 3.0, 4.0, 0.0, -0.0, 5.0],
        [[z, 0.1, 1 / 3, 0.5] for z in (0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0)],
        3,
    ),
    "no_values": lambda _: grid_table([-2.0, 0.0, 5e-324], [0.25, 0.5, 0.75, 1e300]),
    # a last axis of one point: every row would be a run of its own
    "one_point_inner": lambda _: one_point_grid(
        AxisSpec("J", -20, 20, 0.005), AxisSpec("Jz", 0, 0, 1)
    ),
    # an outer axis of one point: the whole grid is one run
    "one_point_outer": lambda _: one_point_grid(
        AxisSpec("J", 0, 0, 1), AxisSpec("Jz", -20, 20, 0.005)
    ),
    # runs mirrored in J whose values differ only by one ulp or by the sign
    # of a zero in one column, which must not take their mirror's text
    "near_twins": lambda _: near_twins(),
    # 300 mirrored runs of 120 rows: more text pending than the held budget
    "past_the_budget": lambda _: mirrored(np.arange(-150, 150) * 0.02, np.arange(120.0), 3),
    # mirrored runs of 4100 rows, cut into pieces by either block size
    "long_twins": lambda _: mirrored([-1.0, 0.5, 1.0], np.arange(4100) * 0.01, 3),
    # 1400 runs of 3 rows, below _RUN_ROWS, so written a block at a time
    "three_row_runs": lambda _: grid_table(np.arange(1400) * 0.01 - 7, [-0.0, 0.5, 2.0], 1),
    # 1100 mirrored runs of exactly _RUN_ROWS rows, so written and keyed a
    # run at a time
    "at_the_threshold": lambda _: mirrored(
        np.arange(-550, 550) * 0.01, np.arange(sweep._RUN_ROWS) * 0.5, 1
    ),
    # runs of 2 rows with the 15 value columns of the both engine
    "two_row_runs_both": lambda _: run_sweep(
        SweepSpec(
            axes=(AxisSpec("J", -2, 2, 0.25), AxisSpec("Jz", 0, 1, 1)),
            fixed={"T": 2.0, "B": 1.0},
            engine="both",
        )
    ),
}


def mirrored(outer, inner, values):
    """A grid_table whose value rows at each outer value repeat those at its
    negative, if the grid has it, bit for bit."""
    table = grid_table(outer, inner, values)
    outer = list(outer)
    runs = table.data.reshape(len(outer), -1, table.data.shape[1])
    mirror = [outer.index(-x) if x > 0 and -x in outer else k for k, x in enumerate(outer)]
    runs[:, :, 2:] = runs[mirror, :, 2:]
    return table


def near_twins():
    """A grid mirrored in J, each run at J > 0 one ulp or one zero's sign
    away from its mirror, bar one exact twin."""
    table = mirrored([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], np.arange(40.0), 3)
    runs = table.data.reshape(6, 40, -1)
    runs[3, 17, 3] = np.nextafter(runs[3, 17, 3], np.inf)
    runs[4, 5, 4] = 0.0
    runs[1, 5, 4] = -0.0
    return table


def one_point_grid(outer, inner):
    """SCn over a 2-axis grid at T=2, B=1, closed."""
    spec = SweepSpec(axes=(outer, inner), fixed={"T": 2.0, "B": 1.0}, measures=("SCn",))
    return run_sweep(spec)


@pytest.mark.parametrize("name", WRITER_TABLES)
@pytest.mark.parametrize("block_rows", [sweep._BLOCK_ROWS, 7])
def test_writers_format_each_run_of_a_grid_as_value_by_value(
    request, monkeypatch, tmp_path, name, block_rows
):
    table = WRITER_TABLES[name](request)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
    write_csv(table, tmp_path / "t.csv")
    write_json(table, tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(table).encode()
    assert (tmp_path / "t.json").read_bytes() == reference_json(table).encode()


@pytest.mark.parametrize("block_rows", [sweep._BLOCK_ROWS, 7])
def test_a_one_point_last_axis_is_written_a_block_at_a_time(monkeypatch, block_rows):
    """The axis columns then go through each block's pass as values, as in a
    table without axes, not one run per row."""
    table = WRITER_TABLES["one_point_inner"](None)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
    parts = list(sweep._rows(table, "", "\n"))
    assert len(parts) == -(-len(table.data) // block_rows)
    assert "".join(parts) == reference_csv(table).split("\n", 1)[1]


@pytest.mark.parametrize("name", ["three_row_runs", "two_row_runs_both"])
@pytest.mark.parametrize("block_rows", [sweep._BLOCK_ROWS, 7])
def test_a_grid_of_short_runs_is_written_a_block_at_a_time(monkeypatch, name, block_rows):
    """A grid whose runs are shorter than _RUN_ROWS rows goes out as a table
    without axes does: every part but the last is a whole block of rows,
    wherever its runs end."""
    table = WRITER_TABLES[name](None)
    assert table.axes[1].count < sweep._RUN_ROWS
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
    parts = list(sweep._rows(table, "", "\n"))
    assert len(parts) == -(-len(table.data) // block_rows)
    assert [part.count("\n") for part in parts[:-1]] == [block_rows] * (len(parts) - 1)
    assert "".join(parts) == reference_csv(table).split("\n", 1)[1]


def test_a_grid_is_written_in_blocks_of_whole_runs():
    """25 runs of 161 rows fit a block of 4096, so the 161 runs of the 161^2
    grid go out in 7 parts; the first run is not a part of its own."""
    axes = AxisSpec("J", -20, 20, 0.25), AxisSpec("Jz", -20, 20, 0.25)
    spec = SweepSpec(axes=axes, fixed={"T": 2.0, "B": 1.0}, measures=("SCn",))
    table = run_sweep(spec)
    assert sweep._BLOCK_ROWS == 4096
    parts = list(sweep._rows(table, "", "\n"))
    assert [part.count("\n") for part in parts] == [25 * 161] * 6 + [11 * 161]
    assert "".join(parts) == reference_csv(table).split("\n", 1)[1]


def test_a_twin_key_is_checked_bit_for_bit(monkeypatch, tmp_path):
    """Pieces whose keys are forced equal share no text unless their bits do."""
    monkeypatch.setattr(sweep, "_keys", lambda data, edges: np.zeros(len(edges) - 1, np.uint64))
    for block_rows in (sweep._BLOCK_ROWS, 7):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        for table in (grid_table([1.0, 2.0, 3.0], np.arange(40.0), 3), near_twins()):
            write_csv(table, tmp_path / "t.csv")
            write_json(table, tmp_path / "t.json")
            assert (tmp_path / "t.csv").read_bytes() == reference_csv(table).encode()
            assert (tmp_path / "t.json").read_bytes() == reference_json(table).encode()


def test_a_grid_symmetric_in_j_formats_the_values_of_half_its_runs(
    monkeypatch, closed_grid_161
):
    """The closed measures keep their bits under J -> -J, so the 161^2 grid's
    runs at J > 0 take the text of their mirrors: the value fields of 81 of
    its 161 runs are formatted, J <= 0."""
    table = closed_grid_161
    formatted = []
    text = sweep._text
    monkeypatch.setattr(
        sweep, "_text", lambda template, values: formatted.append(len(values)) or text(template, values)
    )
    parts = list(sweep._rows(table, "", "\n"))
    assert sum(formatted) == 81 * 161
    assert "".join(parts) == reference_csv(table).split("\n", 1)[1]


def pieces(data):
    """(start, stop) of each piece that sweep._runs cuts a table into."""
    edges = sweep._runs(data).tolist()
    return list(zip(edges, edges[1:]))


def test_runs_share_every_axis_but_the_last_and_fit_a_block(monkeypatch):
    grid = grid_table(np.arange(3.0), np.arange(10.0), 1).data
    assert pieces(grid) == [(0, 10), (10, 20), (20, 30)]
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 4)
    assert pieces(grid) == [
        (0, 4), (4, 8), (8, 10), (10, 14), (14, 18), (18, 20), (20, 24), (24, 28), (28, 30)
    ]
    zeros = grid_table([0.0, -0.0, -0.0], [1.0, 2.0]).data
    assert pieces(zeros) == [(0, 2), (2, 6)]
    assert pieces(zeros[:0]) == []


def test_grid_needs_a_two_axis_table():
    spec = SweepSpec(
        axes=(AxisSpec("J", 0, 1, 0.5),), fixed={"Jz": 1, "B": 1, "T": 1},
        measures=("SCn",),
    )
    message = r"^grid\(\) needs a table produced by a 2-axis sweep$"
    with pytest.raises(ValueError, match=message):
        run_sweep(spec).grid("SCn")


def test_csv_write_failure_carries_path_context(tmp_path):
    table = SweepTable(columns=("a",), data=np.array([[1.0]]))
    missing = tmp_path / "no" / "dir" / "f.csv"
    with pytest.raises(OSError, match="f.csv"):
        write_csv(table, missing)


# -------------------------------------------------- writing over a file

# Each writer by the kind its errors name; line_table has one axis, so
# render_svg draws it as lines.
WRITERS = {"CSV": write_csv, "JSON": write_json, "SVG": render_svg}


@pytest.fixture(scope="module")
def line_table():
    spec = SweepSpec(
        axes=(AxisSpec("J", -3, 3, 0.01),),
        fixed={"Jz": 0.0, "B": 1.0, "T": 0.4},
        measures=("SCn", "SCRE", "QFI"),
    )
    return run_sweep(spec)


@pytest.mark.parametrize("kind", WRITERS)
def test_writing_over_a_longer_file_leaves_the_bytes_of_a_fresh_write(
    tmp_path, line_table, kind
):
    write = WRITERS[kind]
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    write(line_table, fresh)
    expected = fresh.read_bytes()
    old.write_bytes(b"stale " * (len(expected) // 3))
    write(line_table, old)
    assert old.read_bytes() == expected
    # and over a shorter one
    old.write_bytes(b"x")
    write(line_table, old)
    assert old.read_bytes() == expected


def test_writing_through_a_symlink_updates_its_target(tmp_path, line_table):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"stale\n" * 100000)
    try:
        os.symlink(target, link)
    except (OSError, NotImplementedError):
        pytest.skip("no symlinks here")
    write_csv(line_table, link)
    write_csv(line_table, tmp_path / "fresh.csv")
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
def test_writing_to_a_pipe_does_not_cut_it():
    read_end, write_end = os.pipe()
    try:
        sweep._write(f"/dev/fd/{write_end}", "CSV", ["a,b\n", "1,2\n"])
        assert os.read(read_end, 100) == b"a,b\n1,2\n"
    finally:
        os.close(read_end)
        os.close(write_end)


@pytest.mark.parametrize("error", [OSError("disk full"), ValueError("bad part")])
def test_a_failed_write_over_a_file_leaves_it_empty(tmp_path, error):
    path = tmp_path / "t.csv"
    path.write_bytes(b"0.125,0.25\n" * 10000)

    def parts():
        yield "J,SCn\n"
        raise error

    with pytest.raises(type(error)) as err:
        sweep._write(path, "CSV", parts())
    if isinstance(error, OSError):
        assert str(err.value) == f"cannot write CSV to {path}: disk full"
    else:
        assert err.value is error
    assert path.read_bytes() == b""
