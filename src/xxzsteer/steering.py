"""Steered quantum coherence: measurements, conditional states, measures.

Alice measures one Pauli axis on qubit A; Bob's qubit collapses to a
two-outcome ensemble, which :func:`steer` returns as plain arrays: the
outcome probabilities p and Bob's normalized states, outcome first.
Averaging Bob's basis coherence over Alice's three axes and, for each,
over the two complementary Pauli reference bases gives the steered
coherence

    SQC = 1/2 sum_{mu} sum_{a} sum_{nu != mu} p_{mu,a} C^{nu}(rho_{B|mu,a})

with the 1/2 prefactor and the unweighted sum over all three mu (this
normalization puts the Bell-state l1 value at 3 and the product-state
relative-entropy value at 2).

:func:`sqc_direct` evaluates that average literally and acts as the
reference for the closed forms.  It gives the l1 and the relative-entropy
kind from one pass: the three ensembles, built together, one check of
Bob's six conditional states and one change into all three reference
bases serve both, and each kind adds only its own formula (the l1 kind
reads the off-diagonals, the relative entropy the populations and one von
Neumann entropy).  :func:`steer` is the one-axis view of the same
ensembles.  :func:`coherence` applies the same per-kind formulas to one
basis.  For the thermal X state the l1 version collapses to
:func:`scn_closed` and the relative-entropy version to :func:`scre_closed`.
A previously published relative-entropy closed form is kept in
:func:`scre_published`; it agrees with the definition only on the
zero-field slice a = d and is reported, not silently fixed.  Its printed
five terms reduce exactly to 4 - H(a, b, b, d) - 2 H2((1+r)/2), so it is
evaluated from the same entropies as :func:`scre_closed`, which differs
from it by exactly 2 (1 - H2(a + b)); a batch evaluates those entropies
once for both (``ThermalBatch.shared``).

Both fixed steps of the definition are linear maps of a matrix's entries,
each written out as a matrix and applied to a whole stack as one 2-D GEMM
(:func:`_linear_map`): Bob's unnormalized states Tr_A[P rho P] for all of
Alice's projectors P (:func:`_conditional_map`, built from ``_PROJECTORS``
at each call), and U^dagger sigma U for the three Pauli bases U
(``_BASIS_CHANGE``; :func:`coherence` reads its block for one basis).  The
maps are the literal definitions, with no X-state structure.  The oracle's
bits rest on BLAS ``zgemm`` through them: each element of the product is
one complex dot product of a matrix's entries with a fixed column, so a
matrix gets the same bits alone as in any stack, however many rows a call
has.  No BLAS promises that, so tests/test_steering.py pins it on slices
of one batch, and CI compares the reference outputs at one and two BLAS
threads.

The closed forms read the entries of a ThermalBatch and give one value per
cell, or the float of a SpinParams point (``closed_form``).  The definition
and its parts take one matrix, a stack, or a checked stack such as
``gibbs_spectral(cells)``: :func:`sqc_direct` and :func:`coherence` give a
float for one matrix and an array for a stack, :func:`steer` arrays with
the outcome axis leading.
"""

from __future__ import annotations

import enum
import math
from functools import reduce
from operator import add

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    binary_entropy,
    dagger,
    first_cell,
    kron,
    shannon_bits,
    trace,
    validate_density_matrix,
    vn_entropy,
)
from .model import ThermalBatch, closed_form

__all__ = [
    "PauliAxis",
    "CoherenceKind",
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
# U^dagger sigma U for the three bases as one linear map of sigma's entries:
# sigma.reshape(-1, 4) @ _BASIS_CHANGE has columns (nu, j, l), nu in
# PauliAxis order, from C[(b, b'), (nu, j, l)] = conj(U_nu[b, j]) U_nu[b', l].
_BASIS_CHANGE = np.einsum(
    "nbj,ncl->bcnjl",
    np.conj([_BASES[axis] for axis in PauliAxis]),
    [_BASES[axis] for axis in PauliAxis],
).reshape(4, 12)
# Each basis's own 4x4 block of that map.
_ONE_BASIS_CHANGE = {
    axis: _BASIS_CHANGE[:, 4 * nu : 4 * nu + 4] for nu, axis in enumerate(PauliAxis)
}

# The terms of the steered-coherence average, [m, a, nu] as in sqc_direct:
# every reference basis nu but Alice's own axis m, in summation order.
_CROSS_TERMS = np.repeat(~np.eye(3, dtype=bool)[:, None, :], 2, axis=1)


def _linear_map(m: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """A fixed linear map of each matrix's entries to K 2x2 blocks, one GEMM.

    `m` is one matrix or a stack, shape (..., n, n), and `columns` the map
    as an (n*n, 4K) matrix whose columns run over (k, j, l).  Returns the
    (K, ..., 2, 2) blocks, block k of every matrix together.
    """
    out = m.reshape(-1, m.shape[-1] ** 2) @ columns
    return np.moveaxis(out.reshape(*m.shape[:-2], -1, 2, 2), -3, 0)


def _conditional_map(projectors: np.ndarray) -> np.ndarray:
    """Tr_A[P rho P] for each of K projectors as one (16, 4K) linear map.

    rho.reshape(-1, 16) @ map has columns (k, b, b'), the entries of Bob's
    unnormalized state after projector k, from
    map[(x, y), (k, b, b')] = sum_i P_k[(i b), x] P_k[y, (i b')].
    """
    left = projectors.reshape(-1, 2, 2, 4)
    right = projectors.reshape(-1, 4, 2, 2)
    return np.einsum("kibx,kyic->xykbc", left, right).reshape(16, -1)


def _ensembles(rho, axes) -> tuple[np.ndarray, np.ndarray]:
    """Alice's measurements of each axis of `axes` on qubit A, as arrays (p, states).

    p[k, a] and states[k, a] are outcome a of axes[k], as :func:`steer`
    gives them for one axis.  Bob's unnormalized states Tr_A[P rho P] for
    all outcomes come from one GEMM of rho's entries by
    :func:`_conditional_map`, which is built from ``_PROJECTORS`` at each
    call, and their traces are the outcomes' weights q.  The checks raise
    what one :func:`steer` call per axis would raise first: axes in the
    given order, and within an axis outcome 0's probability, then outcome
    1's, then their sum.
    """
    rho = validate_density_matrix(rho, "steered state").matrix
    if rho.shape[-1] != 4:
        raise ValueError("steering requires a two-qubit (4x4) state")
    projectors = np.array([proj for axis in axes for proj in _PROJECTORS[axis]])
    bob = _linear_map(rho, _conditional_map(projectors))
    q = trace(bob).real
    p = np.maximum(q, 0.0).reshape(len(axes), 2, *q.shape[1:])
    total, tr = p[:, 0] + p[:, 1], trace(rho).real
    negative = (q < -PROBABILITY_FLOOR).reshape(p.shape)
    off = np.abs(total - tr) > 1e-12
    if negative.any() or off.any():
        for k, axis in enumerate(axes):
            for a in (0, 1):
                i = first_cell(negative[k, a])
                if i is not None:
                    raise ValueError(
                        f"negative outcome probability "
                        f"{float(np.ravel(q[2 * k + a])[i])!r} for {axis}"
                    )
            i = first_cell(off[k])
            if i is not None:
                raise ValueError(
                    f"ensemble probabilities sum to {float(np.ravel(total[k])[i])!r}, "
                    f"not the state's trace {float(np.ravel(tr)[i])!r}"
                )
    kept = (q > PROBABILITY_FLOOR)[..., None, None]
    states = bob / np.where(kept, q[..., None, None], 1.0)
    states = np.where(kept, (states + dagger(states)) / 2, IDENTITY_2 / 2)
    return p, states.reshape(*p.shape, 2, 2)


def steer(rho: np.ndarray, axis: PauliAxis) -> tuple[np.ndarray, np.ndarray]:
    """Alice's projective measurement of `axis` on qubit A, as arrays (p, states).

    p[a] = Tr[(Pi_a ox I) rho];  Bob's state states[a] is the normalized
    partial trace of the projected state.  Outcomes with p <= 1e-12 are
    recorded as I/2.  `rho` is one 4x4 state, giving p of shape (2,) and
    states of shape (2, 2, 2), or an (N, 4, 4) stack, giving (2, N) and
    (2, N, 2, 2); a DensityStates is not checked again.  The outcomes'
    probabilities must add up to the state's own trace, which checks that
    Alice's projectors are complete.  This is the one-axis case of the
    ensembles that :func:`sqc_direct` builds for all three axes at once.
    """
    p, states = _ensembles(rho, (axis,))
    return p[0], states[0]


def _l1(in_basis: np.ndarray, entropy) -> np.ndarray:
    """Sum of the magnitudes of the two off-diagonal elements."""
    return 2.0 * np.abs(in_basis[..., 0, 1])


def _relative_entropy(in_basis: np.ndarray, entropy) -> np.ndarray:
    """H(diagonal populations) - S(rho) in bits, S(rho) given as `entropy`."""
    population = in_basis[..., 0, 0].real
    val = binary_entropy(population) - entropy
    i = first_cell(val < -1e-12)
    if i is not None:
        raise RuntimeError(
            f"relative-entropy coherence came out negative: {float(np.ravel(val)[i])!r}"
        )
    return np.maximum(val, 0.0)


# Each kind's coherence from the states in one basis and their von Neumann
# entropy, which only the relative entropy reads.
_FORMS = {CoherenceKind.L1: _l1, CoherenceKind.RELATIVE_ENTROPY: _relative_entropy}


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
    entropy = vn_entropy(rho2) if kind is CoherenceKind.RELATIVE_ENTROPY else None
    in_basis = _linear_map(rho2.matrix, _ONE_BASIS_CHANGE[basis_axis])[0]
    return _FORMS[kind](in_basis, entropy)


def sqc_direct(rho: np.ndarray, *kinds: CoherenceKind) -> tuple:
    """Steered quantum coherence of each kind asked, straight from the definition.

    Deliberately brute force - every projector, conditional state and
    entropy is evaluated explicitly - so it can arbitrate the closed forms.
    Returns one value per kind, in the order asked: a float for one 4x4
    state, N values for an (N, 4, 4) stack.  The kinds share one pass: the
    three ensembles are built together, from one GEMM by the six
    projectors' conditional-state map, Bob's six conditional states are
    checked once and taken into all three Pauli bases by one GEMM more,
    and only the work of the kinds asked is done, so a kind raises nothing
    on behalf of another.  The
    ensembles raise what one :func:`steer` call per axis, in PauliAxis
    order, would raise first.  Each kind is evaluated once over all three
    bases, and each of its checks raises for its first failing value in
    (basis, axis, outcome, cell) order, the value that one evaluation per
    basis in PauliAxis order meets first.
    """
    if not kinds:
        raise ValueError("sqc_direct needs at least one coherence kind")
    p, states = _ensembles(rho, tuple(PauliAxis))
    # Bob's six conditional states, checked once and taken into all three
    # bases at once: in_basis[nu, m, a] is outcome a of axis m in basis nu
    states = validate_density_matrix(states, "coherence input")
    entropy = vn_entropy(states) if CoherenceKind.RELATIVE_ENTROPY in kinds else None
    in_basis = _linear_map(states.matrix, _BASIS_CHANGE)
    # p[m, a, 0]: the weight of outcome a of Alice's axis m
    p = p[:, :, None]
    kept = p > PROBABILITY_FLOOR
    totals = {}
    for kind in dict.fromkeys(kinds):
        # c[m, a, nu]: C^nu of Bob's state after outcome a of axis m, from
        # one call over all three bases, whose checks meet the bases in
        # PauliAxis order
        c = np.moveaxis(_FORMS[kind](in_basis, entropy), 0, 2)
        terms = np.where(kept, p * c, 0.0)[_CROSS_TERMS]
        totals[kind] = 0.5 * reduce(add, terms, 0.0)
    return tuple(totals[kind] for kind in kinds)


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


def _even_entropies(cells: ThermalBatch) -> np.ndarray:
    """H(a, b, b, d) + 2 H2((1+r)/2), the part SCRE and SCREpaper share.

    Both terms are even under the swap a <-> d that B -> -B makes.  The
    measures read it through ``cells.shared``, so a batch evaluates it once
    for both.
    """
    a, b, d, v = cells.entries()
    # binary_entropy clips (1+r)/2, which rounding may carry past 1
    u = (1.0 + _radius(a, d, v)) / 2.0
    return shannon_bits((a, b, b, d)) + 2.0 * binary_entropy(u)


@closed_form
def scre_closed(cells: ThermalBatch) -> np.ndarray:
    """Relative-entropy steered coherence of the thermal X state.

    With r = sqrt((a-d)^2 + 4v^2):

        SCRE = 2 + 2 H2(a+b) - H(a, b, b, d) - 2 H2((1+r)/2)

    This is the X-state reduction of the definitional average (the Z
    ensemble contributes 2 H2(a+b) - ... via the entropy chain rule, the X
    and Y ensembles the r term); it is validated against
    :func:`sqc_direct` rather than trusted.  Alice's Z outcome a + b is
    read as (1 + a - d)/2, which is exactly 1/2 where a = d.
    """
    a, _, d, _ = cells.entries()
    z_outcome = binary_entropy((1.0 + a - d) / 2.0)
    return 2.0 + 2.0 * z_outcome - cells.shared(_even_entropies)


@closed_form
def scre_published(cells: ThermalBatch) -> np.ndarray:
    """A published closed form for SCRE, as printed (logarithms base 2):

    1/4 [(1-a-2b+3d) log(1-a-2b+3d) + (1+3a-2b-d) log(1+3a-2b-d)]
      + 1/2 (1-a+2b-d) log(1-a+2b-d)
      + sum_{+-} (1 +- r) log(1 +- r),      r = sqrt((a-d)^2 + 4v^2)

    With a + 2b + d = 1 its three first arguments are exactly 4d, 4a and
    4b, and 1 +- r is 2u and 2(1 - u) with u = (1+r)/2, so the printed form
    is exactly

        SCREpaper = 4 - H(a, b, b, d) - 2 H2((1+r)/2),

    which is how it is evaluated.  Where the definitional average produces
    the term 2 H2(a+b), this expression carries the constant 2, so it
    matches :func:`sqc_direct` only when a = d (zero field); there
    :func:`scre_closed` reads H2(1/2) = 1 exactly and the two share their
    bits.  It is kept for comparison; the canonical closed form is
    :func:`scre_closed`.
    """
    return 4.0 - cells.shared(_even_entropies)
