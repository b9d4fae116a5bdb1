"""Deterministic SVG rendering of sweep tables.

No plotting library: the documents are assembled from fixed style
constants, so identical tables produce byte-identical files.  A document is
made as a sequence of text parts, which :func:`render_svg` streams to its
file through ``sweep._write``.  Rects and polyline points are formatted by
%-templates over whole arrays, one part at a time:

* a heatmap writes its cells in C order, at most ``sweep._BLOCK_ROWS`` rects
  a part, coloured a part at a time.  A part is whole rows, or a piece of a
  row longer than a block; each y coordinate is formatted once, and each x
  once for a grid of whole-row parts, once a row for longer rows;
* a line plot writes each polyline in chunks of at most ``_BLOCK_ROWS``
  points, from x templates built once, a chunk each, that every series
  fills with its y coordinates.

So a plot holds its table plus one part's working set, and a line plot its
x texts, about 12 bytes a point.  Measured with tracemalloc (CPython 3.11,
numpy 2.4): a 321 x 321 heatmap peaks at 1.8 MB while writing a 9.6 MB
file, and three series of 100000 points at 1.7 MB for 4.7 MB.  Every
error is raised before the output is opened, that of a table whose values
hold a NaN or have no finite range included (see ``_width``).

:func:`layout` is the one rule for which plot a table gets, from its axes
and value columns:

* ``heatmap`` - two axes and exactly one value column; one rect of class
  "cell" per grid node, linear three-stop color map over [min, max],
  labeled color bar;
* ``lines`` - one axis and at least one value column; one polyline of
  class "series" per value column plus a legend.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import sweep
from .sweep import SweepTable, _write

__all__ = ["layout", "render_svg"]

# Fixed geometry/style; structural tests rely on the class names only.
PLOT_WIDTH = 640
PLOT_HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 110
MARGIN_TOP = 40
MARGIN_BOTTOM = 55
FONT = "font-family=\"sans-serif\" font-size=\"12\""

# Three-stop linear color map (dark violet -> teal -> yellow).
COLOR_STOPS = ((68, 1, 84), (33, 145, 140), (253, 231, 37))

LINE_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

COLORBAR_SEGMENTS = 64


# Six significant digits for coordinates and labels, as a %-field.
_NUM = "%.6g"


def _fmt(x: float) -> str:
    return _NUM % x


def _fmt_all(values: np.ndarray) -> np.ndarray:
    """_fmt of each value of a 1-D array, as an object array."""
    return np.array([_fmt(x) for x in values.tolist()], dtype=object)


_STOPS = np.array(COLOR_STOPS, dtype=float)
# Two lowercase hex digits of each channel value.
_HEX = np.array([f"{k:02x}" for k in range(256)], dtype=object)


def _channels(t: np.ndarray) -> np.ndarray:
    """Red, green and blue (a last axis of 3) at positions t of the color map.

    t is clipped to [0, 1], each half of the map is a linear interpolation
    between two stops, and the channels are rounded half to even.  The
    heatmap colors its cells and color bar with it, a whole array at a time.
    """
    t = np.clip(t, 0.0, 1.0)
    low = t <= 0.5
    f = np.where(low, t * 2.0, (t - 0.5) * 2.0)[..., None]
    low = low[..., None]
    lo = np.where(low, _STOPS[0], _STOPS[1])
    hi = np.where(low, _STOPS[1], _STOPS[2])
    return np.rint(lo + (hi - lo) * f).astype(np.intp)


def _rects(cls: str, x, y, width, height, t: np.ndarray) -> str:
    """One rect line per entry of t, in C order, filled with its color.

    x and y are text, or arrays of text that broadcast against t.
    """
    args = np.empty(t.shape + (5,), dtype=object)
    args[..., 0] = x
    args[..., 1] = y
    args[..., 2:] = _HEX[_channels(t)]
    rect = (
        f'<rect class="{cls}" x="%s" y="%s" width="{width}" '
        f'height="{height}" fill="#%s%s%s"/>\n'
    )
    return (rect * t.size) % tuple(args.ravel().tolist())


def _text_lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _svg_document(*body):
    """The document's text parts: its head, each iterable of body parts in
    turn, and its end; every part ends a line."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_WIDTH}" '
        f'height="{PLOT_HEIGHT}" viewBox="0 0 {PLOT_WIDTH} {PLOT_HEIGHT}">'
    )
    background = f'<rect width="{PLOT_WIDTH}" height="{PLOT_HEIGHT}" fill="white"/>'
    return itertools.chain([_text_lines(head, background)], *body, ["</svg>\n"])


def _plot_frame(x0, y0, w, h) -> str:
    return (
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
        f'fill="none" stroke="black"/>'
    )


def _cell_blocks(rows: int, cols: int):
    """(rows, columns) slices of the grid's parts, in C order: whole rows, at
    most _BLOCK_ROWS cells a part, or a row longer than that in pieces of
    _BLOCK_ROWS cells."""
    size = sweep._BLOCK_ROWS
    per = max(size // cols, 1)
    for i in range(0, rows, per):
        for j in range(0, cols, size):
            yield slice(i, min(i + per, rows)), slice(j, min(j + size, cols))


def _width(lo: float, hi: float, what: str) -> float:
    """hi - lo, the width of a range a plot maps onto its page or color map.

    A NaN, or a width that is not finite (an infinite end, or ends further
    apart than the largest double), would put a value at NaN: a ValueError.
    """
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"{what} hold a NaN")
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"{what} span [{lo:g}, {hi:g}], which has no finite width")
    return span


def _heatmap(table: SweepTable, value_cols):
    """The heatmap's text parts; its error is raised by this call, before
    the first part is made."""
    (name,) = value_cols
    outer, inner = table.axes
    grid = table.grid(name)
    vmin = float(grid.min())
    vmax = float(grid.max())
    span = _width(vmin, vmax, "heatmap values")

    def positions(values):
        return np.zeros_like(values) if span == 0.0 else (values - vmin) / span

    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    w = PLOT_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    h = PLOT_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cw = w / inner.count
    ch = h / outer.count

    def cells():
        # Row 0 (smallest outer value) at the bottom.  A part's x texts are
        # formatted when its columns are not the last part's: once for a grid
        # of whole rows, once a row for the pieces of a longer row.
        width, height = _fmt(cw), _fmt(ch)
        columns = xs = None
        for rows, cols in _cell_blocks(*grid.shape):
            if cols != columns:
                columns, xs = cols, _fmt_all(x0 + np.arange(cols.start, cols.stop) * cw)
            ys = _fmt_all(y0 + h - (np.arange(rows.start, rows.stop) + 1) * ch)
            t = positions(grid[rows, cols])
            yield _rects("cell", xs, ys[:, None], width, height, t)

    # axis labels: inner axis along x, outer axis along y
    iv, ov = inner.values(), outer.values()
    frame = _text_lines(
        _plot_frame(x0, y0, w, h),
        f'<text x="{x0 + w / 2}" y="{PLOT_HEIGHT - 18}" text-anchor="middle" {FONT}>{inner.name}</text>',
        f'<text x="{x0}" y="{PLOT_HEIGHT - 34}" text-anchor="middle" {FONT}>{_fmt(iv[0])}</text>',
        f'<text x="{x0 + w}" y="{PLOT_HEIGHT - 34}" text-anchor="middle" {FONT}>{_fmt(iv[-1])}</text>',
        f'<text x="{x0 - 45}" y="{y0 + h / 2}" {FONT}>{outer.name}</text>',
        f'<text x="{x0 - 8}" y="{y0 + h}" text-anchor="end" {FONT}>{_fmt(ov[0])}</text>',
        f'<text x="{x0 - 8}" y="{y0 + 12}" text-anchor="end" {FONT}>{_fmt(ov[-1])}</text>',
    )

    # color bar with min/mid/max labels
    bx = PLOT_WIDTH - MARGIN_RIGHT + 30
    bw = 18
    seg_h = h / COLORBAR_SEGMENTS
    k = np.arange(COLORBAR_SEGMENTS)
    cy = y0 + h - (k + 1) * seg_h
    t = (k + 0.5) / COLORBAR_SEGMENTS
    bar = _rects("cbar", bx, _fmt_all(cy), bw, _fmt(seg_h), t) + _text_lines(
        _plot_frame(bx, y0, bw, h),
        f'<text x="{bx + bw + 6}" y="{y0 + h}" {FONT}>{_fmt(vmin)}</text>',
        f'<text x="{bx + bw + 6}" y="{y0 + h / 2}" {FONT}>{_fmt((vmin + vmax) / 2)}</text>',
        f'<text x="{bx + bw + 6}" y="{y0 + 12}" {FONT}>{_fmt(vmax)}</text>',
    )
    title = _text_lines(f'<text x="{x0}" y="{MARGIN_TOP - 14}" {FONT}>{name}</text>')
    return _svg_document([title], cells(), [frame, bar])


def _polylines(table: SweepTable, value_cols):
    """The line plot's text parts, one polyline per value column; its error
    is raised by this call, before the first part is made."""
    axis = table.axes[0]
    xs = table.column(axis.name)
    _width(float(xs.min()), float(xs.max()), f"line plot {axis.name} values")
    ymin = float(np.min([table.column(c).min() for c in value_cols]))
    ymax = float(np.max([table.column(c).max() for c in value_cols]))
    _width(ymin, ymax, "line plot values")
    pad = 0.05 * (ymax - ymin) if ymax > ymin else 0.5
    ymin, ymax = ymin - pad, ymax + pad
    _width(ymin, ymax, "line plot y labels")

    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    w = PLOT_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    h = PLOT_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    xspan = float(xs[-1] - xs[0]) if len(xs) > 1 and xs[-1] > xs[0] else 1.0

    # The points of every polyline in chunks of at most _BLOCK_ROWS, with the
    # x coordinates written once and a y field, escaped for this pass, for
    # each series to fill.
    size = sweep._BLOCK_ROWS
    chunks = [slice(k, k + size) for k in range(0, len(xs), size)]
    points = [
        (f"{_NUM},%{_NUM} " * len(xs[chunk]))
        % tuple((x0 + (xs[chunk] - float(xs[0])) / xspan * w).tolist())
        for chunk in chunks
    ]
    points[-1] = points[-1][:-1]

    def series():
        for k, col in enumerate(value_cols):
            color = LINE_COLORS[k % len(LINE_COLORS)]
            ys = table.column(col)
            yield f'<polyline class="series" data-name="{col}" points="'
            for chunk, template in zip(chunks, points):
                sy = y0 + (ymax - ys[chunk]) / (ymax - ymin) * h
                yield template % tuple(sy.tolist())
            yield f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'

    # legend
    lx = PLOT_WIDTH - MARGIN_RIGHT + 14
    legend = []
    for k, col in enumerate(value_cols):
        color = LINE_COLORS[k % len(LINE_COLORS)]
        ly = y0 + 14 + 18 * k
        legend += [
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{lx + 24}" y="{ly}" {FONT}>{col}</text>',
        ]

    labels = _text_lines(
        *legend,
        f'<text x="{x0 + w / 2}" y="{PLOT_HEIGHT - 18}" text-anchor="middle" {FONT}>{axis.name}</text>',
        f'<text x="{x0}" y="{PLOT_HEIGHT - 34}" text-anchor="middle" {FONT}>{_fmt(float(xs[0]))}</text>',
        f'<text x="{x0 + w}" y="{PLOT_HEIGHT - 34}" text-anchor="middle" {FONT}>{_fmt(float(xs[-1]))}</text>',
        f'<text x="{x0 - 8}" y="{y0 + h}" text-anchor="end" {FONT}>{_fmt(ymin)}</text>',
        f'<text x="{x0 - 8}" y="{y0 + 12}" text-anchor="end" {FONT}>{_fmt(ymax)}</text>',
    )
    return _svg_document([_text_lines(_plot_frame(x0, y0, w, h))], series(), [labels])


def layout(axes, value_columns) -> str:
    """The plot of a table with these axes and value columns.

    "heatmap" for two axes and exactly one value column, "lines" for one
    axis and at least one value column; any other table is a ValueError.
    """
    count = len(axes)
    if count == 2:
        if len(value_columns) != 1:
            raise ValueError(
                f"heatmap requires exactly one value column, got "
                f"{list(value_columns)}; sweep a single measure with a single engine"
            )
        return "heatmap"
    if count != 1:
        raise ValueError("lines mode requires a table produced by a 1-axis sweep")
    if not value_columns:
        raise ValueError("lines mode needs at least one value column")
    return "lines"


def render_svg(table: SweepTable, path) -> None:
    """Write a standalone SVG document for the table, drawn as its
    :func:`layout` says; every error comes before the output is opened."""
    axes = [ax.name for ax in table.axes]
    values = [c for c in table.columns if c not in axes]
    draw = _heatmap if layout(table.axes, values) == "heatmap" else _polylines
    _write(path, "SVG", draw(table, values))
