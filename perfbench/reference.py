"""Independent numpy reference for SCn, SCRE and QFI of the XXZ Gibbs state.

Shares no code with ``xxzsteer``.  The Hamiltonian is assembled from Pauli
matrices, the Gibbs state comes from ``numpy.linalg.eigh``, and the
measures are the literal definitions:

* SCn and SCRE are the steering average of Baumgratz, Cramer & Plenio,
  PRL 113, 140401 (2014): Alice measures each Pauli axis mu on qubit A,
  Bob's conditional state is scored by its l1 or relative-entropy
  coherence in the eigenbases of the two other axes, and the sum over
  axes, outcomes (weighted by probability) and bases is halved;
* QFI is the spectral sum of Liu et al., J. Phys. A 53, 023001 (2020),
  2 sum_{m,n} (p_m - p_n)^2 / (p_m + p_n) |<m|O|n>|^2, with the collective
  generator O = (sx I + I sx)/2, conjugated by sz on qubit A when the
  state's coherence <01|rho|10> is negative (the J < 0 gauge copy).

Parameters are passed as ``(J, Jz, B, T)``; entropies are in bits.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)

# Eigenbasis of each Pauli operator as columns, from numpy itself.
_BASES = tuple(np.linalg.eigh(s)[1] for s in PAULIS)

# Outcomes and spectral pairs below this weight contribute nothing.
FLOOR = 1e-12

_COLLECTIVE_X = (np.kron(SX, I2) + np.kron(I2, SX)) / 2
_STAGGERED_X = (np.kron(SX, I2) - np.kron(I2, SX)) / 2


def hamiltonian(J: float, Jz: float, B: float) -> np.ndarray:
    return -0.5 * (
        J * (np.kron(SX, SX) + np.kron(SY, SY)) + Jz * np.kron(SZ, SZ)
    ) - 0.5 * B * (np.kron(SZ, I2) + np.kron(I2, SZ))


def gibbs(J: float, Jz: float, B: float, T: float) -> np.ndarray:
    """exp(-H/T)/Z from the eigendecomposition of H, shifted to stay finite."""
    energies, vectors = np.linalg.eigh(hamiltonian(J, Jz, B))
    weights = np.exp(-(energies - energies.min()) / T)
    rho = (vectors * (weights / weights.sum())) @ vectors.conj().T
    return (rho + rho.conj().T) / 2


def _entropy_bits(probs: np.ndarray) -> float:
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    probs = probs[probs > 0.0]
    return float(-(probs * np.log2(probs)).sum())


def _coherence_l1(bob: np.ndarray, basis: np.ndarray) -> float:
    return 2.0 * abs(complex(basis[:, 0].conj() @ bob @ basis[:, 1]))


def _coherence_re(bob: np.ndarray, basis: np.ndarray) -> float:
    p0 = float((basis[:, 0].conj() @ bob @ basis[:, 0]).real)
    populations = np.array([p0, 1.0 - p0])
    return max(_entropy_bits(populations) - _entropy_bits(np.linalg.eigvalsh(bob)), 0.0)


def steered_coherence(rho: np.ndarray) -> tuple[float, float]:
    """(SCn, SCRE): the steering average with the l1 and relative-entropy scores."""
    l1 = re = 0.0
    for mu, sigma in enumerate(PAULIS):
        for sign in (1.0, -1.0):
            proj = np.kron((I2 + sign * sigma) / 2, I2)
            projected = proj @ rho @ proj
            prob = float(np.trace(projected).real)
            if prob <= FLOOR:
                continue
            bob = np.einsum("ijik->jk", projected.reshape(2, 2, 2, 2)) / prob
            bob = (bob + bob.conj().T) / 2
            for nu, basis in enumerate(_BASES):
                if nu != mu:
                    l1 += prob * _coherence_l1(bob, basis)
                    re += prob * _coherence_re(bob, basis)
    return 0.5 * l1, 0.5 * re


def qfi(rho: np.ndarray) -> float:
    """Spectral-sum QFI under the gauge-aligned collective X generator."""
    generator = _COLLECTIVE_X if rho[1, 2].real >= 0.0 else _STAGGERED_X
    probs, vectors = np.linalg.eigh(rho)
    elements = np.abs(vectors.conj().T @ generator @ vectors) ** 2
    sums = probs[:, None] + probs[None, :]
    diffs = probs[:, None] - probs[None, :]
    keep = sums > FLOOR
    terms = np.where(keep, diffs**2 / np.where(keep, sums, 1.0), 0.0) * elements
    return max(2.0 * float(terms.sum()), 0.0)


def measures(J: float, Jz: float, B: float, T: float) -> dict[str, float]:
    """SCn, SCRE and QFI at one parameter point."""
    rho = gibbs(J, Jz, B, T)
    scn, scre = steered_coherence(rho)
    return {"SCn": scn, "SCRE": scre, "QFI": qfi(rho)}
