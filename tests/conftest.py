from __future__ import annotations

import numpy as np
import pytest

from xxzsteer import SpinParams, ThermalBatch, hamiltonian
from xxzsteer.model import check_entries


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


def batch(points) -> ThermalBatch:
    """The given SpinParams, in order, as the cells of one batch."""
    return ThermalBatch(*np.array([[p.J, p.Jz, p.B, p.T] for p in points]).T)


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
