"""Exact symmetries of the measures as metamorphic checks on both engines.

The measures depend on the parameters only through J/T, Jz/T and B/T, so
scaling all four by a power of two is exact in binary floating point and
must leave every value unchanged.  The closed forms are plain arithmetic on
the scaled numbers, so their columns must keep their bits.  The oracle also
rests on LAPACK ``eigh``, which no LAPACK promises to commute with the
scaling, so its columns are held to a few ulp and the test prints how many
cells differ at all (run with ``pytest -s`` to see it).

J -> -J conjugates the state by sigma_z ox I, which negates v and keeps
a, b and d.  The closed entries depend on J only through |J| and the sign
of v, and every closed form reads |v| or v^2, so every closed column must
keep its bits under it: on the reference 161x161 grid and on seeded draws
of the whole supported box, its faces, T floor and near-mixed corner (A4's
draws).  QFIclosed leaves double range on part of the box, so it is checked
cell by cell on every fourth draw, and must raise at J and at -J alike.

B -> -B swaps the populations a and d of the X state.  SCn, SCRE, SCREpaper
and QFI are even under that swap; their bounds below are set from the
worst gaps measured on these draws (CPython 3.11, numpy 2.4, OpenBLAS
0.3.31), with headroom.  QFIclosed is not even and is not checked here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from xxzsteer.fisher import qfi_published
from xxzsteer.model import COUPLING_MAX, T_FLOOR, ParameterRegimeError, SpinParams
from xxzsteer.sweep import MEASURES, _run

from conftest import whole_box

# Power-of-two factors and the oracle's allowance under them, in ulp.
SCALES = (2.0, 0.25)
ORACLE_ULP = 4

# Worst |f(B) - f(-B)| allowed, per measure: (oracle, closed).  Measured on
# the draws below: SCn 1.3e-15 and 8.9e-16, SCRE 4.0e-15 and 3.6e-15,
# SCREpaper 4.0e-15 and 8.9e-16, QFI 0 and 0.  The closed QFI sums the same
# two terms in swapped order, so it is held to exact evenness; the oracle's
# QFI to 4 ulp of its ceiling 4.
EVEN_BOUNDS = {
    "SCn": (4e-15, 4e-15),
    "SCRE": (1.6e-14, 5e-14),
    "SCREpaper": (1.6e-14, 1e-14),
    "QFI": (4 * np.spacing(4.0), 0.0),
}


def _columns(rows: np.ndarray) -> dict:
    """{measure: (oracle column, closed column)} of the cells in `rows`."""
    values = _run(rows, MEASURES, "both")
    return {m: (values[3 * k], values[3 * k + 1]) for k, m in enumerate(MEASURES)}


@pytest.fixture(scope="module")
def draws() -> np.ndarray:
    """Parameter rows (4, N): seeded draws and the cells that the scaling
    carries onto the box limits, |J|, |Jz|, |B| = COUPLING_MAX under x2 and
    T = T_FLOOR under x1/4."""
    rng = np.random.default_rng(20261019)
    n = 4000
    couplings = rng.uniform(-20, 20, (3, n))
    temperatures = 10 ** rng.uniform(-1, 1.5, n)
    half, low = COUPLING_MAX / 2, 4 * T_FLOOR
    limits = np.array([
        (half, half, half, half),
        (-half, half, -half, half),
        (half, -half, 0.0, COUPLING_MAX),
        (low, -low, low, low),
        (0.0, 2 * low, -low, low),
    ]).T
    return np.hstack([np.vstack([couplings, temperatures]), limits])


@pytest.fixture(scope="module")
def base(draws) -> dict:
    return _columns(draws)


@pytest.mark.parametrize("factor", SCALES)
def test_power_of_two_scaling_keeps_every_closed_column_bit_identical(
    draws, base, factor
):
    # ThermalBatch raises for a scaled cell outside the box
    for m, (_, closed) in _columns(draws * factor).items():
        assert closed.tobytes() == base[m][1].tobytes(), m


@pytest.mark.parametrize("factor", SCALES)
def test_power_of_two_scaling_moves_oracle_columns_at_most_four_ulp(
    draws, base, factor
):
    for m, (oracle, _) in _columns(draws * factor).items():
        want = base[m][0]
        ulp = np.abs(oracle - want) / np.spacing(np.maximum(np.abs(oracle), np.abs(want)))
        print(f"x{factor:g} {m} oracle: {np.count_nonzero(oracle != want)} of "
              f"{want.size} cells differ, worst {ulp.max():g} ulp")
        assert ulp.max() <= ORACLE_ULP, m


def _reflected(rows: np.ndarray) -> np.ndarray:
    return rows * np.array([[-1.0], [1.0], [1.0], [1.0]])


def _reference_grid() -> np.ndarray:
    """Parameter rows (4, 161**2) of the 161x161 (J, Jz) grid at T=2, B=1."""
    axis = np.linspace(-20.0, 20.0, 161)
    J, Jz = np.meshgrid(axis, axis, indexing="ij")
    return np.vstack([J.ravel(), Jz.ravel(), np.ones(J.size), np.full(J.size, 2.0)])


def test_j_reflection_keeps_every_closed_column_bit_identical_on_the_grid():
    rows = _reference_grid()
    base = _run(rows, MEASURES, "closed")
    for m, got, want in zip(MEASURES, _run(_reflected(rows), MEASURES, "closed"), base):
        assert got.tobytes() == want.tobytes(), m


def _published_cell_by_cell(rows: np.ndarray) -> np.ndarray:
    """QFIclosed of every fourth cell, each alone, NaN where it raises."""
    values = []
    for cell in rows[:, ::4].T:
        try:
            values.append(qfi_published(SpinParams(*cell)))
        except ParameterRegimeError:
            values.append(math.nan)
    return np.array(values)


@pytest.mark.parametrize("seed", [30, 31, 32])
def test_j_reflection_keeps_every_closed_column_bit_identical_over_the_box(seed):
    rows = whole_box(seed, 4096)
    # QFIclosed leaves double range on part of the box, so it goes cell by cell
    bounded = tuple(m for m in MEASURES if m != "QFIclosed")
    base = _run(rows, bounded, "closed")
    for m, got, want in zip(bounded, _run(_reflected(rows), bounded, "closed"), base):
        assert got.tobytes() == want.tobytes(), m
    got, want = _published_cell_by_cell(_reflected(rows)), _published_cell_by_cell(rows)
    print(f"seed {seed}: QFIclosed raises at {np.isnan(want).sum()} of {want.size} cells")
    assert got.tobytes() == want.tobytes(), "QFIclosed"


def test_steering_and_fisher_measures_are_even_in_b(draws, base):
    flipped = draws * np.array([[1.0], [1.0], [-1.0], [1.0]])
    columns = _columns(flipped)
    for m, bounds in EVEN_BOUNDS.items():
        for engine, bound, got, want in zip(
            ("oracle", "closed"), bounds, columns[m], base[m]
        ):
            gap = np.abs(got - want).max()
            assert gap <= bound, f"{m} {engine}: |f(B) - f(-B)| = {gap:.3e} > {bound:.3e}"
