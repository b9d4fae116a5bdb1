from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xxzsteer import plot, sweep
from xxzsteer.plot import layout, render_svg
from xxzsteer.sweep import AxisSpec, SweepSpec, SweepTable, run_sweep


def small_grid_table(values):
    """2x2 sweep table with prescribed SCn values."""
    values = np.asarray(values, dtype=float).reshape(4)
    axes = (AxisSpec("J", 0, 1, 1.0), AxisSpec("Jz", 0, 1, 1.0))
    data = np.column_stack(
        [np.repeat([0.0, 1.0], 2), np.tile([0.0, 1.0], 2), values]
    )
    return SweepTable(columns=("J", "Jz", "SCn"), data=data, axes=axes)


def rendered(table, tmp_path) -> str:
    """The document render_svg writes for the table."""
    path = tmp_path / "rendered.svg"
    render_svg(table, path)
    return path.read_text(encoding="utf-8")


def hex_colors(positions) -> list[str]:
    """The color map's hex color at each position, through _channels."""
    rgb = plot._channels(np.asarray(positions, dtype=float))
    return ["#%02x%02x%02x" % tuple(c) for c in rgb.tolist()]


AXIS = AxisSpec("J", 0, 1, 1.0)


@pytest.mark.parametrize(
    "axes, values, want",
    [
        ((AXIS, AXIS), ["SCn"], "heatmap"),
        ((AXIS,), ["SCn"], "lines"),
        ((AXIS,), ["SCn", "SCRE", "QFI"], "lines"),
        ((AXIS,), ["SCn_oracle", "SCn_closed", "SCn_absdiff"], "lines"),
        ((AXIS, AXIS), ["SCn", "QFI"], "exactly one value column, got \\['SCn', 'QFI'\\]"),
        ((AXIS, AXIS), [], "exactly one value column, got \\[\\]"),
        ((AXIS,), [], "at least one value column"),
        ((), ["SCn"], "1-axis"),
        (SweepTable(("SCn",), np.zeros((1, 1))).axes, ["SCn"], "1-axis"),
        ((AXIS, AXIS, AXIS), ["SCn"], "1-axis"),
    ],
    ids=["heatmap", "lines", "three-lines", "both-engine-lines", "two-values",
         "no-value", "lines-no-value", "no-axes", "default-axes", "three-axes"],
)
def test_layout_is_the_one_plot_rule(axes, values, want):
    if want in ("heatmap", "lines"):
        assert layout(axes, values) == want
        assert layout(axes, tuple(values)) == want
    else:
        with pytest.raises(ValueError, match=want):
            layout(axes, values)


def test_heatmap_has_one_cell_per_grid_node(tmp_path):
    svg = rendered(small_grid_table([0.0, 1.0, 2.0, 3.0]), tmp_path)
    assert svg.count('class="cell"') == 4
    assert svg.count('class="cbar"') > 0
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


def test_heatmap_constant_table_has_uniform_cells(tmp_path):
    svg = rendered(small_grid_table([1.5, 1.5, 1.5, 1.5]), tmp_path)
    fills = re.findall(r'class="cell"[^/]*fill="(#[0-9a-f]{6})"', svg)
    assert len(set(fills)) == 1


def test_heatmap_color_map_endpoints():
    assert hex_colors([0.0, 1.0, 0.5]) == ["#440154", "#fde725", "#21918c"]


def test_heatmap_rejects_multi_measure(tmp_path):
    table = small_grid_table([0, 1, 2, 3])
    two_cols = SweepTable(
        columns=("J", "Jz", "SCn", "QFI"),
        data=np.column_stack([table.data, table.data[:, 2]]),
        axes=table.axes,
    )
    with pytest.raises(ValueError, match="exactly one value column"):
        render_svg(two_cols, tmp_path / "h.svg")
    assert not (tmp_path / "h.svg").exists()


def test_lines_draw_one_polyline_per_measure(tmp_path):
    spec = SweepSpec(
        axes=(AxisSpec("J", -2, 2, 0.5),),
        fixed={"Jz": 0.0, "B": 1.0, "T": 0.5},
        measures=("SCn", "SCRE", "QFI"),
    )
    # a one-axis table is drawn as lines
    svg = rendered(run_sweep(spec), tmp_path)
    assert svg.count('class="series"') == 3
    assert 'data-name="SCn"' in svg
    assert 'data-name="QFI"' in svg


def test_lines_path_data_reproduces_table_minima(tmp_path):
    """Groove positions in the rendered polyline match the table."""
    spec = SweepSpec(
        axes=(AxisSpec("J", -3, 3, 0.05),),
        fixed={"Jz": 0.0, "B": 1.0, "T": 0.1},
        measures=("SCn",),
    )
    table = run_sweep(spec)
    svg = rendered(table, tmp_path)
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    ys = np.array([float(tok.split(",")[1]) for tok in points])
    # svg y grows downward: value minima are path maxima
    svg_minima = {
        i for i in range(1, len(ys) - 1) if ys[i] > ys[i - 1] and ys[i] > ys[i + 1]
    }
    col = table.column("SCn")
    table_minima = {
        i
        for i in range(1, len(col) - 1)
        if col[i] < col[i - 1] and col[i] < col[i + 1]
    }
    grooves = {i for i in table_minima if abs(abs(table.column("J")[i]) - 1.0) < 0.2}
    assert grooves <= svg_minima
    assert len(grooves) == 2


def reference_points(table):
    """Each series' polyline points, formatted one coordinate at a time."""
    fmt = "{:.6g}".format
    axis = table.axes[0].name
    xs = table.column(axis).tolist()
    series = [table.column(c).tolist() for c in table.columns if c != axis]
    ymin = min(min(ys) for ys in series)
    ymax = max(max(ys) for ys in series)
    pad = 0.05 * (ymax - ymin) if ymax > ymin else 0.5
    ymin, ymax = ymin - pad, ymax + pad
    x0, y0 = plot.MARGIN_LEFT, plot.MARGIN_TOP
    w = plot.PLOT_WIDTH - plot.MARGIN_LEFT - plot.MARGIN_RIGHT
    h = plot.PLOT_HEIGHT - plot.MARGIN_TOP - plot.MARGIN_BOTTOM
    xspan = xs[-1] - xs[0] if len(xs) > 1 and xs[-1] > xs[0] else 1.0
    return [
        " ".join(
            f"{fmt(x0 + (x - xs[0]) / xspan * w)},{fmt(y0 + (ymax - y) / (ymax - ymin) * h)}"
            for x, y in zip(xs, ys)
        )
        for ys in series
    ]


def line_table(xs, *series):
    axis = AxisSpec("B", 0, 1, 1.0)
    names = ("B",) + tuple(f"m{k}" for k in range(len(series)))
    return SweepTable(names, np.column_stack([xs, *series]), (axis,))


@pytest.mark.parametrize(
    "table",
    [
        lambda: run_sweep(
            SweepSpec(
                axes=(AxisSpec("B", 0, 6, 0.01),),
                fixed={"J": 1.0, "Jz": 1.0, "T": 2.0},
                measures=("SCn", "SCRE", "QFI"),
            )
        ),
        lambda: line_table(
            np.arange(7.0) ** 3 / 7, *np.random.default_rng(4).normal(size=(7, 7))
        ),
        lambda: line_table([0.5], [2.0], [-1e300]),
        lambda: line_table([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]),
    ],
    ids=["figure-panel", "seven-series", "one-point", "constant"],
)
def test_lines_points_match_a_per_point_loop(table, tmp_path):
    table = table()
    svg = rendered(table, tmp_path)
    assert re.findall(r'points="([^"]*)"', svg) == reference_points(table)


def test_render_svg_rejects_a_table_without_axes(tmp_path):
    grid = small_grid_table([0, 1, 2, 3])
    # a table built without axes has none, as one whose axes are ()
    built_without = SweepTable(grid.columns, grid.data)
    grid.axes = ()
    for table in (built_without, grid):
        with pytest.raises(ValueError, match="1-axis"):
            render_svg(table, tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


def test_render_is_deterministic(tmp_path):
    table = small_grid_table([0.3, 0.1, 4.0, 2.0])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(table, a)
    render_svg(table, b)
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------- heatmap against a per-cell loop

def reference_color(t):
    """The three-stop map evaluated one position at a time."""
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, f = plot.COLOR_STOPS[0], plot.COLOR_STOPS[1], t * 2.0
    else:
        lo, hi, f = plot.COLOR_STOPS[1], plot.COLOR_STOPS[2], (t - 0.5) * 2.0
    rgb = tuple(round(a + (b - a) * f) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def reference_rects(table):
    """The heatmap's cell and color-bar rects, drawn one at a time."""
    fmt = "{:.6g}".format
    outer, inner = table.axes
    grid = table.grid(table.columns[-1])
    vmin, vmax = float(grid.min()), float(grid.max())
    span = vmax - vmin
    x0, y0 = plot.MARGIN_LEFT, plot.MARGIN_TOP
    w = plot.PLOT_WIDTH - plot.MARGIN_LEFT - plot.MARGIN_RIGHT
    h = plot.PLOT_HEIGHT - plot.MARGIN_TOP - plot.MARGIN_BOTTOM
    cw, ch = w / inner.count, h / outer.count
    rects = []
    for i in range(outer.count):
        for j in range(inner.count):
            t = 0.0 if span == 0.0 else (float(grid[i, j]) - vmin) / span
            cx, cy = x0 + j * cw, y0 + h - (i + 1) * ch
            rects.append(
                f'<rect class="cell" x="{fmt(cx)}" y="{fmt(cy)}" width="{fmt(cw)}" '
                f'height="{fmt(ch)}" fill="{reference_color(t)}"/>'
            )
    bx = plot.PLOT_WIDTH - plot.MARGIN_RIGHT + 30
    seg_h = h / plot.COLORBAR_SEGMENTS
    for k in range(plot.COLORBAR_SEGMENTS):
        t = (k + 0.5) / plot.COLORBAR_SEGMENTS
        cy = y0 + h - (k + 1) * seg_h
        rects.append(
            f'<rect class="cbar" x="{bx}" y="{fmt(cy)}" width="18" '
            f'height="{fmt(seg_h)}" fill="{reference_color(t)}"/>'
        )
    return rects


def grid_table(values):
    """A 2-axis SCn table holding the given 2D grid of values."""
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    axes = (AxisSpec("J", 0, rows - 1, 1.0), AxisSpec("Jz", 0, cols - 1, 1.0))
    J, Jz = np.meshgrid(axes[0].values(), axes[1].values(), indexing="ij")
    data = np.column_stack([J.ravel(), Jz.ravel(), values.ravel()])
    return SweepTable(columns=("J", "Jz", "SCn"), data=data, axes=axes)


# Over [0, 64]: t = 0.5 exactly at 32; the green channel lands on 5.5 at 1
# and on 14.5 at 3, red on 50.5 at 16 and blue on 88.5 at 48, which round
# half to even.
HALVES = [[0.0, 1.0, 3.0, 16.0], [32.0, 48.0, 64.0, 40.0]]


@pytest.mark.parametrize(
    "values",
    [
        HALVES,
        np.full((3, 4), 1.5),  # span == 0
        -np.arange(12.0).reshape(3, 4) ** 2,
        np.random.default_rng(5).normal(size=(17, 23)) * 1e-3 - 2.0,
        np.random.default_rng(6).uniform(-1e300, 1e300, size=(9, 8)),
        [[7.0]],
    ],
    ids=["halves", "constant", "negative", "seeded", "wide", "one-cell"],
)
def test_heatmap_rects_match_a_per_cell_loop(values, tmp_path):
    table = grid_table(values)
    lines = rendered(table, tmp_path).split("\n")
    rects = [line for line in lines if line.startswith('<rect class=')]
    assert rects == reference_rects(table)
    # the cells follow the title, and the color bar the plot frame and labels
    assert lines[3:3 + table.data.shape[0]] == rects[: table.data.shape[0]]


def test_color_map_is_the_per_position_map():
    positions = [0.0, 1 / 64, 3 / 64, 0.25, 0.5, 0.75, 1.0, -0.3, 1.7, 0.5 + 2**-53]
    positions += np.random.default_rng(8).random(200).tolist()
    assert hex_colors(positions) == [reference_color(t) for t in positions]
    # green 5.5 rounds up to 6, and 14.5 down to 14
    assert hex_colors([1 / 64, 3 / 64]) == ["#430656", "#410e59"]
    # one position, and a 2-D array of them, as the heatmap colors its parts
    assert plot._channels(np.float64(1 / 64)).tolist() == [67, 6, 86]
    grid = np.reshape(positions[:200], (10, 20))
    assert plot._channels(grid).reshape(-1, 3).tolist() == plot._channels(
        grid.ravel()).tolist()


def test_heatmap_of_a_nan_table_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="NaN"):
        render_svg(grid_table([[0.0, float("nan")], [1.0, 2.0]]), tmp_path / "h.svg")
    assert not (tmp_path / "h.svg").exists()


INF = float("inf")
NAN = float("nan")


@pytest.mark.parametrize(
    "values, span",
    [
        ([[0.0, INF], [1.0, 2.0]], "[0, inf]"),
        ([[-INF, 0.0], [1.0, 2.0]], "[-inf, 2]"),
        ([[INF, INF], [INF, INF]], "[inf, inf]"),
        ([[-1e308, 0.0], [1.0, 1e308]], "[-1e+308, 1e+308]"),  # the span overflows
    ],
    ids=["inf", "-inf", "all-inf", "wider-than-a-double"],
)
def test_heatmap_without_a_finite_span_is_an_error(values, span, tmp_path):
    """Each of these tables has a NaN color-map position, as a NaN table has,
    and the error names the range of its values."""
    table = grid_table(values)
    grid = table.grid("SCn")
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan((grid - grid.min()) / (grid.max() - grid.min())).any()
    message = f"heatmap values span {span}, which has no finite width"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render_svg(table, tmp_path / "h.svg")
    assert not (tmp_path / "h.svg").exists()


def test_figures_script_writes_the_line_panels(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "figures.py"), "--only", "lines",
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    csvs = sorted(p.stem for p in tmp_path.glob("*.csv"))
    svgs = sorted(p.stem for p in tmp_path.glob("*.svg"))
    assert len(csvs) == 28 and csvs == svgs
    assert all(name.startswith(("vsB_", "vsT_", "vsJ_", "vsJz_")) for name in csvs)
    text = (tmp_path / "vsB_J1Jz1_T2.svg").read_text(encoding="utf-8")
    assert text.count('class="series"') == 3


# ----------------------------------------------------- writing in blocks

def seeded_grid(rows, cols):
    return grid_table(np.random.default_rng(11).normal(size=(rows, cols)))


def seeded_lines(points):
    """Three seeded series over sorted, unevenly spaced x values."""
    rng = np.random.default_rng(12)
    return line_table(np.sort(rng.uniform(0.0, 10.0, points)), *rng.normal(size=(3, points)))


BLOCK_TABLES = {
    # 7-cell parts: two rows of 3 a part, and a last part of one row
    "rows-of-3": lambda: seeded_grid(5, 3),
    # rows of 9 in pieces of 7 and 2, and of 16 in 7, 7 and 2
    "rows-of-9": lambda: seeded_grid(4, 9),
    "rows-of-16": lambda: seeded_grid(3, 16),
    "one-row": lambda: seeded_grid(1, 17),
    "one-column": lambda: seeded_grid(19, 1),
    "lines": lambda: seeded_lines(30),
}


@pytest.mark.parametrize("name", BLOCK_TABLES)
def test_svg_in_blocks_of_7_has_the_bytes_of_the_default_block(monkeypatch, tmp_path, name):
    """Parts of at most 7 rects or points give the document of the default
    block size, which holds each of these tables in one part."""
    table = BLOCK_TABLES[name]()
    values = table.columns[len(table.axes):]
    heatmap = layout(table.axes, values) == "heatmap"
    assert len(table.data) <= sweep._BLOCK_ROWS
    written = []
    for block_rows in (sweep._BLOCK_ROWS, 7):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        render_svg(table, tmp_path / "t.svg")
        written.append((tmp_path / "t.svg").read_bytes())
    assert written[0] == written[1]
    whole = written[0].decode()
    # still at block size 7: the cells and points really come in parts of 7
    parts = list((plot._heatmap if heatmap else plot._polylines)(table, values))
    assert "".join(parts) == whole
    if heatmap:
        drawn = [part.count('class="cell"') for part in parts]
        assert sum(drawn) == len(table.data)
    else:
        # the chunks of points, between each polyline's head and tail
        drawn = [part.count(",") for part in parts if not part.startswith(("<", '"'))]
        assert sum(drawn) == len(table.data) * (len(table.columns) - 1)
    drawn = [n for n in drawn if n]
    assert len(drawn) > 1 and max(drawn) <= 7
    if heatmap:
        assert whole.count('class="cbar"') == plot.COLORBAR_SEGMENTS
    else:
        assert whole.count('class="series"') == 3
        assert 'class="cbar"' not in whole and whole.count("<line ") == 3


def traced_peak(table, path):
    """tracemalloc's peak while render_svg writes the table to path."""
    tracemalloc.start()
    try:
        render_svg(table, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "table, parts",
    [(lambda: seeded_grid(321, 321), 26), (lambda: seeded_lines(100_000), 25)],
    ids=["heatmap-321x321", "lines-3x100000"],
)
def test_svg_memory_is_one_blocks_working_set(tmp_path, table, parts):
    """render_svg peaks below half the size of the file it writes.

    Measured with tracemalloc on numpy 2.4: the 321 x 321 heatmap, 26 parts
    of 4096 cells, peaks at 1.8 MB for a 9.6 MB file (0.19; 3.0 when the
    document was built whole), and three series of 100000 points, 25 chunks
    each, at 1.7 MB for a 4.7 MB file (0.35; 3.9 built whole).  A line plot
    holds its x texts, about 12 bytes a point, for every series to share.
    """
    table = table()
    assert -(-len(table.data) // sweep._BLOCK_ROWS) == parts
    path = tmp_path / "t.svg"
    peak = traced_peak(table, path)
    size = path.stat().st_size
    assert peak < 0.5 * size, (peak, size)


WIDTH = ", which has no finite width"


def failing_tables():
    """Tables render_svg rejects, with the message of each."""
    nan = grid_table([[0.0, float("nan")], [1.0, 2.0]])
    table = small_grid_table([0, 1, 2, 3])
    two_cols = SweepTable(
        columns=("J", "Jz", "SCn", "QFI"),
        data=np.column_stack([table.data, table.data[:, 2]]),
        axes=table.axes,
    )
    no_axes = SweepTable(columns=table.columns, data=table.data)
    xs = [0.0, 1.0, 2.0]
    return {
        "NaN": nan,
        "exactly one value column": two_cols,
        "1-axis": no_axes,
        # a polyline point of each line plot below would be NaN or infinite
        "line plot values hold a NaN": line_table(xs, [1.0, NAN, 2.0]),
        "line plot values span [0, inf]" + WIDTH: line_table(xs, [0.0, INF, 1.0]),
        "line plot values span [-inf, 1]" + WIDTH: line_table(xs, [-INF, 0.0, 1.0]),
        "line plot values span [-1e+308, 1e+308]" + WIDTH: line_table(xs, [-1e308, 0.0, 1e308]),
        # 1.797e308 padded by 5% of its distance from 1e308 is past the largest double
        "line plot y labels span [9.6015e+307, inf]" + WIDTH: line_table(
            xs, [1e308, 1e308, 1.797e308]),
        "line plot B values hold a NaN": line_table([0.0, NAN, 2.0], xs),
        "line plot B values span [0, inf]" + WIDTH: line_table([0.0, 1.0, INF], xs),
    }


@pytest.mark.parametrize("message", failing_tables())
def test_a_failing_render_leaves_an_existing_output_as_it_was(tmp_path, message):
    """Every error is raised before the output is opened, with its message."""
    path = tmp_path / "old.svg"
    old = b"<svg>an earlier plot</svg>\n" * 1000
    path.write_bytes(old)
    with pytest.raises(ValueError, match=re.escape(message)):
        render_svg(failing_tables()[message], path)
    assert path.read_bytes() == old
