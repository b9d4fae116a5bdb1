"""Quantum Fisher information of the thermal state.

The spectral definition

    F(rho, O) = 2 sum_{m,n} (p_m - p_n)^2 / (p_m + p_n) |<m|O|n>|^2

is evaluated literally in :func:`qfi_spectral`.  The generator is the
collective spin component O = (sigma^mu ox I + I ox sigma^mu)/2; on the
thermal family the X and Y choices are equivalent and reproduce the known
anchors (4 on the Bell-like ground state at zero field, 2 on the fully
polarized large-field state).

Only the triplet (|01>+|10>)/sqrt2 couples |00> and |11> through the
collective X generator, which collapses the spectral sum on the X state to

    F = 2 (a-p)^2/(a+p) + 2 (d-p)^2/(d+p),      p = b + |v|,

the closed form :func:`qfi_closed`.  Each of its terms is at most twice
its weight, so only an exact 0/0 is dropped; the spectral sum, whose
eigenvalues carry rounding, drops pairs below ``PAIR_FLOOR``.  |v| rather
than v appears because the J<0 states are the sigma_z ox I gauge copies of
the J>0 ones and the generator is transported along
(:func:`calibrated_observable`), keeping the measure even in J as the
model's phase diagrams show.

A published closed-form ratio for this quantity is the QFIclosed measure,
:func:`qfi_published`.  Its numerator differs from the X-state reduction
in a single term, 2 y^2 u^3 in place of 2 y u^3 (x, y, u and n as in its
docstring; y = e^{B/T}), so exactly

    QFIclosed - QFI = 2 u^3 (y^2 - y) / n:

the two agree only at B = 0, which is why the ratio is exposed as a
separate measure and not as the canonical closed form.  QFI is even in B,
so QFIclosed's asymmetry under B -> -B is exactly that of the right-hand
side.  :func:`qfi_published` evaluates the ratio through this identity,
on the kernel that :func:`qfi_closed` uses.

The closed forms give one value per cell of a ThermalBatch, or the float of
a SpinParams point (see ``closed_form``); the spectral definition takes one
density matrix or an (N, 4, 4) stack, such as ``gibbs_closed(cells)``.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    DensityStates,
    dagger,
    eig_hermitian,
    first_cell,
    kron,
    validate_density_matrix,
)
from .model import ParameterRegimeError, ThermalBatch, closed_form
from .steering import PauliAxis

__all__ = [
    "collective_observable",
    "calibrated_observable",
    "qfi_spectral",
    "qfi_closed",
    "qfi_published",
]

# 0/0 pairs in the spectral sum are removable; skip below this weight.
PAIR_FLOOR = 1e-12

_LN4 = math.log(4.0)


def collective_observable(axis: PauliAxis) -> np.ndarray:
    """Collective spin component (sigma^axis ox I + I ox sigma^axis)/2."""
    m = (kron(axis.matrix, IDENTITY_2) + kron(IDENTITY_2, axis.matrix)) / 2
    spectrum = eig_hermitian(m).values
    if np.abs(spectrum - np.array([-1.0, 0.0, 0.0, 1.0])).max() > 1e-12:
        raise RuntimeError(
            f"collective {axis} spectrum {spectrum} is not (-1, 0, 0, 1)"
        )
    return m


# The collective X generator and its gauge partner: conjugation by
# sigma_z ox I, which also maps the J<0 thermal states onto the J>0 ones.
# Shared, so read-only.
_COLLECTIVE_X = collective_observable(PauliAxis.X)
_STAGGERED_X = (kron(PAULI_X, IDENTITY_2) - kron(IDENTITY_2, PAULI_X)) / 2
_COLLECTIVE_X.flags.writeable = False
_STAGGERED_X.flags.writeable = False


def calibrated_observable(rho) -> np.ndarray:
    """Generator under which the thermal family's QFI is even in J.

    For v >= 0 this is the collective X component; for v < 0 the state is
    (sigma_z ox I) rho(+|J|) (sigma_z ox I), so the generator is conjugated
    the same way.  Both choices couple |00> and |11> to whichever of the
    central eigenstates carries the weight b + |v|.

    `rho` is a density matrix or a stack of them, or a DensityStates; each
    gets its generator from the sign of its coherence v = rho[1, 2].
    """
    if isinstance(rho, DensityStates):
        rho = rho.matrix
    v = np.asarray(rho)[..., 1, 2].real
    return np.where((v >= 0.0)[..., None, None], _COLLECTIVE_X, _STAGGERED_X)


def qfi_spectral(rho: np.ndarray, obs):
    """Quantum Fisher information from the eigendecomposition of rho.

    `rho` is one state or a stack, `obs` one matrix or a stack of matrices
    matching `rho`.  One state gives a float; a DensityStates is not checked
    or decomposed again.  For a pure state this reduces to
    4(<O^2> - <O>^2).
    """
    eig = validate_density_matrix(rho, "qfi probe state")
    elements = dagger(eig.vectors) @ np.asarray(obs, complex) @ eig.vectors
    # every pair (m, k) at once, as (..., n, n) arrays indexed [m, k]
    pm, pk = eig.values[..., :, None], eig.values[..., None, :]
    s = pm + pk
    kept = s > PAIR_FLOOR
    diff = pm - pk
    term = diff * diff / np.where(kept, s, 1.0) * np.abs(elements) ** 2
    terms = np.where(kept, term, 0.0)
    # summed from 0 in pair order, m major, as a left fold; every term is >= +0
    pairs = np.moveaxis(terms.reshape(*terms.shape[:-2], -1), -1, 0)
    return 2.0 * reduce(add, pairs, 0.0)


def _x_state_qfi(cells: ThermalBatch) -> np.ndarray:
    """2(a-p)^2/(a+p) + 2(d-p)^2/(d+p) with p = b + |v|, each term 0 where
    its denominator is exactly 0.  QFI and QFIclosed read it through
    ``cells.shared``, so a batch evaluates it once for both."""
    a, b, d, v = cells.entries()
    p = b + np.abs(v)
    total = 0.0
    for corner in (a, d):
        s = corner + p
        kept = s > 0.0
        diff = corner - p
        term = 2.0 * diff * diff / np.where(kept, s, 1.0)
        total = total + np.where(kept, term, 0.0)
    return total


@closed_form
def qfi_closed(cells: ThermalBatch) -> np.ndarray:
    """X-state closed form: 2(a-p)^2/(a+p) + 2(d-p)^2/(d+p) with p = b + |v|.

    A term is at most twice its weight a + p or d + p, so it needs no floor:
    only a term whose weight is exactly 0, a removable 0/0, is dropped.
    """
    # a copy, so the caller may write into it as into any measure's values
    return cells.shared(_x_state_qfi).copy()


@closed_form
def qfi_published(cells: ThermalBatch) -> np.ndarray:
    """A published closed-form ratio m/n for the thermal QFI, as printed.

    With x = e^{Jz/T}, y = e^{B/T}, u = sinh(|J|/T) + cosh(J/T) = e^{|J|/T}:

        m = x^2 u (1/y - 4y + y^3) - x u^2 (y^2 + 1) + 2 y^2 u^3
            + x^3 (y^2 + 1)
        n = (x cosh(B/T) + cosh(J/T)) (u + xy) (yu + x)

    The term 2 y^2 u^3 is what separates this expression from the X-state
    reduction (which carries 2 y u^3), so the ratio is evaluated as that
    reduction's QFI, from the kernel of :func:`qfi_closed`, plus the exact
    difference 2 u^3 (y^2 - y)/n.  Divided through by u^2 y, that is

        4 (y - 1) / ((1 + e^alpha) (1 + e^beta) (1 + e^{-2|J|/T} + e^alpha + e^beta))

    with alpha = (Jz + B - |J|)/T and beta = (Jz - B - |J|)/T: sign(B) e^E,
    with E summed in the log domain from those exponents and from
    log|y - 1| (by ``expm1``), so it is finite wherever the ratio is.  It is
    exactly 0 at B = 0, so there the ratio has the bits of
    :func:`qfi_closed`.  Kept for comparison as the QFIclosed measure.

    Raises :class:`ParameterRegimeError` for the first cell where the ratio
    leaves double range.
    """
    lx = cells.Jz / cells.T
    ly = cells.B / cells.T
    lu = np.abs(cells.J) / cells.T
    alpha = lx + ly - lu
    beta = lx - ly - lu
    with np.errstate(divide="ignore", over="ignore"):
        # log|y - 1|, -inf at B = 0
        log_y1 = np.maximum(ly, 0.0) + np.log(-np.expm1(-np.abs(ly)))
        exponent = (
            _LN4 + log_y1 - np.logaddexp(0.0, alpha) - np.logaddexp(0.0, beta)
            - np.logaddexp(np.logaddexp(0.0, -2 * lu), np.logaddexp(alpha, beta))
        )
        field = np.sign(ly) * np.exp(exponent)
    value = cells.shared(_x_state_qfi) + field

    i = first_cell(~np.isfinite(value))
    if i is not None:
        raise ParameterRegimeError(
            f"published QFI ratio overflows double precision at {cells.describe(i)}"
        )
    return value
