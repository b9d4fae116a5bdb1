from __future__ import annotations

import decimal
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from xxzsteer import SpinParams, ThermalBatch, hamiltonian
from xxzsteer.model import COUPLING_MAX, T_FLOOR, check_entries


def parse_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """The header and rows of a CSV file, each field parsed with float()."""
    head, *rows = Path(path).read_text(encoding="utf-8").split("\n")[:-1]
    columns = tuple(head.split(","))
    data = [[float(field) for field in row.split(",")] for row in rows]
    return columns, np.array(data).reshape(len(rows), len(columns))


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def draw_params(rng, j=(-20, 20), jz=(-20, 20), b=(0, 10), t=(0.05, 10)):
    return SpinParams(
        J=rng.uniform(*j),
        Jz=rng.uniform(*jz),
        B=rng.uniform(*b),
        T=rng.uniform(*t),
    )


def box_draws(rng, n: int) -> np.ndarray:
    """(n, 4) cells over the supported box, every third scaled into |x| <= 1."""
    couplings = rng.uniform(-1e3, 1e3, size=(n, 3))
    couplings[::3] *= 1e-3
    temperatures = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n, 1)))
    return np.hstack((couplings, temperatures))


def small_draws(rng, n: int) -> np.ndarray:
    """(n, 4) cells with |J|, |Jz|, |B| <= 5 and T in [0.2, 5]."""
    return np.column_stack((rng.uniform(-5, 5, (n, 3)), rng.uniform(0.2, 5, n)))


def whole_box(seed: int, draws: int) -> np.ndarray:
    """Parameter rows (4, draws) over the whole supported box: |J|, |Jz|,
    |B| log-uniform in [1e-6, COUPLING_MAX] with random signs, T log-uniform
    in [T_FLOOR, 1e3].  Rows 0-2999 are put on the J, Jz and B faces (1000
    each, the drawn sign kept), rows 3000-3999 at the T floor, and row 4000
    at the near-mixed corner (1e-6, 1e-6, 1e-6, 1e3)."""
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), (3, draws))
    couplings = signs * 10.0 ** rng.uniform(-6, math.log10(COUPLING_MAX), (3, draws))
    rows = np.vstack([couplings, 10.0 ** rng.uniform(math.log10(T_FLOOR), 3, draws)])
    for k in range(3):
        face = slice(1000 * k, 1000 * (k + 1))
        rows[k, face] = np.copysign(COUPLING_MAX, rows[k, face])
    rows[3, 3000:4000] = T_FLOOR
    rows[:, 4000] = 1e-6, 1e-6, 1e-6, 1e3
    return rows


# 60 significant digits, and an exponent range that holds e^{-1e6}
DEEP = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def decimal_xstate(J, Jz, B, T) -> tuple[Decimal, Decimal, Decimal, Decimal, Decimal]:
    """X-state entries a, b, d, v and log Z of one cell at 60 significant
    digits, from the cell's floats, with the standard library alone.

    The weights are e^{-E/T} of the four levels as the module docstring of
    xxzsteer.model prints them, each over the largest.
    """
    with decimal.localcontext(DEEP):
        J, Jz, B, T = (Decimal(float(x)) for x in (J, Jz, B, T))
        exponents = [(Jz / 2 + B) / T, (Jz / 2 - B) / T, (J - Jz / 2) / T, (-J - Jz / 2) / T]
        top = max(exponents)
        w00, w11, w_plus, w_minus = ((x - top).exp() for x in exponents)
        z = w00 + w11 + w_plus + w_minus
        a, d = w00 / z, w11 / z
        b, v = (w_plus + w_minus) / (2 * z), (w_plus - w_minus) / (2 * z)
        return a, b, d, v, z.ln() + top


def xstate(a, b, d, v) -> ThermalBatch:
    """A batch of one that carries the X-state entries (a, b, d, v), checked."""
    cells = ThermalBatch.of(SpinParams(0, 0, 0, 1))
    entries = tuple(np.array([x], dtype=float) for x in (a, b, d, v))
    check_entries(*entries)
    cells._entries = entries
    return cells


def spectral_log_z(cells: ThermalBatch) -> np.ndarray:
    """log Z of each cell from the eigenvalues of its Hamiltonian, shifted."""
    energies = np.linalg.eigvalsh(hamiltonian(cells))
    lowest = energies[:, 0]
    weights = np.exp(-(energies - lowest[:, None]) / cells.T[:, None])
    return -lowest / cells.T + np.log(weights.sum(axis=1))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
