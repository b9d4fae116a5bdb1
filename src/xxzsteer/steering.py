"""Steered quantum coherence: measurements, conditional states, measures.

Alice measures one Pauli axis on qubit A; Bob's qubit collapses to a
two-outcome ensemble.  Averaging Bob's basis coherence over Alice's three
axes and, for each, over the two complementary Pauli reference bases gives
the steered coherence

    SQC = 1/2 sum_{mu} sum_{a} sum_{nu != mu} p_{mu,a} C^{nu}(rho_{B|mu,a})

with the 1/2 prefactor and the unweighted sum over all three mu (this
normalization puts the Bell-state l1 value at 3 and the product-state
relative-entropy value at 2).

:func:`sqc_direct` evaluates that average literally and acts as the
reference for the closed forms.  For the thermal X state the l1 version
collapses to :func:`scn_closed` and the relative-entropy version to
:func:`scre_closed`.  A previously published relative-entropy closed form
is kept verbatim in :func:`scre_published`; it agrees with the definition
only on the zero-field slice a = d and is reported, not silently fixed.

The closed forms read the entries of a ThermalBatch and give one value per
cell, or the float of a SpinParams point (``closed_form``).  The definition
and its parts take one matrix or a stack, such as ``gibbs_spectral(cells)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_cells,
    binary_entropy,
    dagger,
    first_cell,
    kron,
    partial_trace_A,
    shannon_bits,
    trace,
    validate_density_matrix,
    vn_entropy,
    xlog2x,
)
from .model import ThermalBatch, closed_form

__all__ = [
    "PauliAxis",
    "CoherenceKind",
    "ConditionalState",
    "ConditionalEnsemble",
    "measurement_operator",
    "steer",
    "coherence",
    "sqc_direct",
    "scn_closed",
    "scre_closed",
    "scre_published",
]

# Outcomes below this weight contribute nothing to the average; their
# conditional state is conventionally I/2 (removable singularity of
# p * C(state/p)).
PROBABILITY_FLOOR = 1e-12


class PauliAxis(enum.Enum):
    X = "X"
    Y = "Y"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES = {
    PauliAxis.X: PAULI_X,
    PauliAxis.Y: PAULI_Y,
    PauliAxis.Z: PAULI_Z,
}

class CoherenceKind(enum.Enum):
    L1 = "l1"
    RELATIVE_ENTROPY = "relative_entropy"


def measurement_operator(axis: PauliAxis, outcome: int) -> np.ndarray:
    """Projector [I + (-1)^outcome sigma^axis] / 2."""
    if outcome not in (0, 1):
        raise ValueError(f"measurement outcome must be 0 or 1, got {outcome!r}")
    return (IDENTITY_2 + (-1) ** outcome * axis.matrix) / 2


# Alice's projectors Pi_a ox I on the pair, by axis and outcome.
_PROJECTORS = {
    axis: tuple(kron(measurement_operator(axis, k), IDENTITY_2) for k in (0, 1))
    for axis in PauliAxis
}
# Each axis's eigenbasis as the columns of a unitary, +1 eigenvector first.
_BASES = {
    PauliAxis.X: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    PauliAxis.Y: np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
    PauliAxis.Z: np.array([[1, 0], [0, 1]], dtype=complex),
}


@dataclass(frozen=True)
class ConditionalState:
    outcome: int
    probability: float | np.ndarray
    state: np.ndarray


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Bob's two-outcome ensemble after Alice measures one axis."""

    axis: PauliAxis
    entries: tuple[ConditionalState, ConditionalState]

    def __post_init__(self):
        total = self.entries[0].probability + self.entries[1].probability
        i = first_cell(np.abs(total - 1.0) > 1e-12)
        if i is not None:
            raise ValueError(
                f"ensemble probabilities sum to {float(np.ravel(total)[i])!r}, not 1"
            )


def steer(rho: np.ndarray, axis: PauliAxis) -> ConditionalEnsemble:
    """Alice's projective measurement of `axis` on qubit A.

    p_a = Tr[(Pi_a ox I) rho];  Bob's state is the normalized partial trace
    of the projected state.  Outcomes with p <= 1e-12 are recorded as I/2.
    `rho` is one 4x4 state, giving float probabilities and 2x2 states, or a
    stack, giving an array of probabilities and a stack of states; a
    DensityStates is not checked again.
    """
    rho = validate_density_matrix(rho, "steered state").matrix
    if rho.shape[-1] != 4:
        raise ValueError("steering requires a two-qubit (4x4) state")
    entries = []
    for outcome, proj in enumerate(_PROJECTORS[axis]):
        projected = proj @ rho @ proj
        p = trace(projected).real
        i = first_cell(p < -PROBABILITY_FLOOR)
        if i is not None:
            raise ValueError(
                f"negative outcome probability {float(p.flat[i])!r} for {axis}"
            )
        kept = (p > PROBABILITY_FLOOR)[..., None, None]
        state = partial_trace_A(projected) / np.where(kept, p[..., None, None], 1.0)
        state = np.where(kept, (state + dagger(state)) / 2, IDENTITY_2 / 2)
        p = as_cells(np.maximum(p, 0.0))
        entries.append(ConditionalState(outcome=outcome, probability=p, state=state))
    return ConditionalEnsemble(axis=axis, entries=tuple(entries))


def coherence(rho2: np.ndarray, basis_axis: PauliAxis, kind: CoherenceKind):
    """Basis coherence of qubit states in the eigenbasis of one Pauli axis.

    L1: sum of the magnitudes of the off-diagonal elements in that basis.
    Relative entropy: H(diagonal populations) - S(rho), in bits.
    One 2x2 state gives a float, a stack an array; a DensityStates is not
    checked or decomposed again.
    """
    rho2 = validate_density_matrix(rho2, "coherence input")
    if rho2.matrix.shape[-1] != 2:
        raise ValueError("coherence is defined here for qubit (2x2) states")
    u = _BASES[basis_axis]
    in_basis = dagger(u) @ rho2.matrix @ u
    if kind is CoherenceKind.L1:
        return as_cells(2.0 * np.abs(in_basis[..., 0, 1]))
    population = in_basis[..., 0, 0].real
    val = binary_entropy(population) - vn_entropy(rho2)
    i = first_cell(val < -1e-12)
    if i is not None:
        raise AssertionError(
            f"relative-entropy coherence came out negative: {float(np.ravel(val)[i])!r}"
        )
    return as_cells(np.maximum(val, 0.0))


def sqc_direct(rho: np.ndarray, kind: CoherenceKind):
    """Steered quantum coherence straight from the definition.

    Deliberately brute force - every projector, conditional state and
    entropy is evaluated explicitly - so it can arbitrate the closed forms.
    One 4x4 state gives a float, an (N, 4, 4) stack N values.
    """
    rho = validate_density_matrix(rho, "steered state")
    ensembles = [steer(rho, mu) for mu in PauliAxis]
    # Bob's six conditional states, checked once and taken in each basis
    states = np.array([[e.state for e in ens.entries] for ens in ensembles])
    states = validate_density_matrix(states, "coherence input")
    coh = {nu: coherence(states, nu, kind) for nu in PauliAxis}
    total = 0.0
    for m, ens in enumerate(ensembles):
        for a, entry in enumerate(ens.entries):
            kept = entry.probability > PROBABILITY_FLOOR
            for nu in PauliAxis:
                if nu is not ens.axis:
                    term = entry.probability * coh[nu][m, a]
                    total = total + np.where(kept, term, 0.0)
    return as_cells(0.5 * total)


def _radius(a, d, v):
    """r = sqrt((a-d)^2 + 4v^2), shared by the three steering forms."""
    return np.sqrt((a - d) ** 2 + 4 * v * v)


@closed_form
def scn_closed(cells: ThermalBatch) -> np.ndarray:
    """l1 steered coherence of the thermal X state.

    SCn = sqrt((a-d)^2 + 4v^2) + |a-b| + |b-d| + 2|v|
    """
    a, b, d, v = cells.entries()
    return _radius(a, d, v) + np.abs(a - b) + np.abs(b - d) + 2 * np.abs(v)


@closed_form
def scre_closed(cells: ThermalBatch) -> np.ndarray:
    """Relative-entropy steered coherence of the thermal X state.

    With r = sqrt((a-d)^2 + 4v^2):

        SCRE = 2 + 2 H2(a+b) - H(a, b, b, d) - 2 H2((1+r)/2)

    This is the X-state reduction of the definitional average (the Z
    ensemble contributes 2 H2(a+b) - ... via the entropy chain rule, the X
    and Y ensembles the r term); it is validated against
    :func:`sqc_direct` rather than trusted.
    """
    a, b, d, v = cells.entries()
    u = np.minimum((1.0 + _radius(a, d, v)) / 2.0, 1.0)
    return (
        2.0
        + 2.0 * binary_entropy(a + b)
        - shannon_bits((a, b, b, d))
        - 2.0 * binary_entropy(u)
    )


@closed_form
def scre_published(cells: ThermalBatch) -> np.ndarray:
    """A published closed form for SCRE, reproduced exactly as printed.

    1/4 [(1-a-2b+3d) log(1-a-2b+3d) + (1+3a-2b-d) log(1+3a-2b-d)]
      + 1/2 (1-a+2b-d) log(1-a+2b-d)
      + sum_{+-} (1 +- r) log(1 +- r),      r = sqrt((a-d)^2 + 4v^2)

    Where the definitional average produces the term 2 H2(a+b), this
    expression carries the constant 2, so it matches :func:`sqc_direct`
    only when a = d (zero field).  It is kept for comparison; the canonical
    closed form is :func:`scre_closed`.
    """
    a, b, d, v = cells.entries()
    r = _radius(a, d, v)
    x = xlog2x(
        np.array(
            [
                1 - a - 2 * b + 3 * d,
                1 + 3 * a - 2 * b - d,
                1 - a + 2 * b - d,
                1 + r,
                np.maximum(1 - r, 0.0),
            ]
        )
    )
    return 0.25 * (x[0] + x[1]) + 0.5 * x[2] + x[3] + x[4]
