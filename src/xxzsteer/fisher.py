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

the closed form :func:`qfi_closed`.  |v| rather than v appears because the
J<0 states are the sigma_z ox I gauge copies of the J>0 ones and the
generator is transported along (:func:`calibrated_observable`), keeping the
measure even in J as the model's phase diagrams show.

A published closed-form ratio for this quantity is kept verbatim in
:func:`qfi_published`.  :func:`calibrate_observable` compares it against
the spectral definition for every collective-generator candidate; on this
family the comparison fails for all of them (its numerator differs from
the X-state reduction in a single term, 2 e^{2B/T} u^3 in place of
2 e^{B/T} u^3, so agreement holds only at B = 0), which is why the ratio
is exposed as a separate measure and not as the canonical closed form.

The closed forms give one value per cell of a ThermalBatch, or the float of
a SpinParams point (see ``closed_form``); the spectral definition takes one
density matrix or an (N, 4, 4) stack, such as ``gibbs_closed(cells)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    as_cells,
    dagger,
    eig_hermitian,
    first_cell,
    kron,
    logsumexp,
    validate_density_matrix,
)
from .model import (
    ParameterRegimeError,
    SpinParams,
    ThermalBatch,
    closed_form,
    gibbs_closed,
)
from .steering import PauliAxis

__all__ = [
    "collective_observable",
    "calibrated_observable",
    "qfi_spectral",
    "qfi_closed",
    "qfi_published",
    "CalibrationReport",
    "calibrate_observable",
]

# 0/0 pairs in the spectral sum are removable; skip below this weight.
PAIR_FLOOR = 1e-12

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)


def collective_observable(axis: PauliAxis) -> np.ndarray:
    """Collective spin component (sigma^axis ox I + I ox sigma^axis)/2."""
    m = (kron(axis.matrix, IDENTITY_2) + kron(IDENTITY_2, axis.matrix)) / 2
    spectrum = eig_hermitian(m).values
    if np.abs(spectrum - np.array([-1.0, 0.0, 0.0, 1.0])).max() > 1e-12:
        raise AssertionError(
            f"collective {axis} spectrum {spectrum} is not (-1, 0, 0, 1)"
        )
    return m


# The collective X generator, as collective_observable(PauliAxis.X) builds it,
# and its gauge partner: conjugation by sigma_z ox I, which also maps the J<0
# thermal states onto the J>0 ones.  Shared, so read-only.
_COLLECTIVE_X = (kron(PAULI_X, IDENTITY_2) + kron(IDENTITY_2, PAULI_X)) / 2
_STAGGERED_X = (kron(PAULI_X, IDENTITY_2) - kron(IDENTITY_2, PAULI_X)) / 2
_COLLECTIVE_X.flags.writeable = False
_STAGGERED_X.flags.writeable = False


def calibrated_observable(rho) -> np.ndarray:
    """Generator under which the thermal family's QFI is even in J.

    For v >= 0 this is the collective X component; for v < 0 the state is
    (sigma_z ox I) rho(+|J|) (sigma_z ox I), so the generator is conjugated
    the same way.  Both choices couple |00> and |11> to whichever of the
    central eigenstates carries the weight b + |v|.

    `rho` is a density matrix or a stack of them; each gets its generator
    from the sign of its coherence v = rho[1, 2].
    """
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
    p = eig.values
    n = p.shape[-1]
    total = 0.0
    for m in range(n):
        for k in range(n):
            s = p[..., m] + p[..., k]
            kept = s > PAIR_FLOOR
            diff = p[..., m] - p[..., k]
            term = diff * diff / np.where(kept, s, 1.0) * np.abs(elements[..., m, k]) ** 2
            total = total + np.where(kept, term, 0.0)
    return as_cells(np.maximum(2.0 * total, 0.0))


@closed_form
def qfi_closed(cells: ThermalBatch) -> np.ndarray:
    """X-state closed form: 2(a-p)^2/(a+p) + 2(d-p)^2/(d+p) with p = b + |v|.

    Terms whose denominator is below the pair floor are dropped, matching
    the removable-singularity convention of the spectral sum.
    """
    a, b, d, v = cells.entries()
    p = b + np.abs(v)
    total = 0.0
    for corner in (a, d):
        s = corner + p
        kept = s > PAIR_FLOOR
        diff = corner - p
        term = 2.0 * diff * diff / np.where(kept, s, 1.0)
        total = total + np.where(kept, term, 0.0)
    return total


@closed_form
def qfi_published(cells: ThermalBatch) -> np.ndarray:
    """A published closed-form ratio m/n for the thermal QFI, as printed.

    With x = e^{Jz/T}, y = e^{B/T}, u = sinh(|J|/T) + cosh(J/T) = e^{|J|/T}:

        m = x^2 u (1/y - 4y + y^3) - x u^2 (y^2 + 1) + 2 y^2 u^3
            + x^3 (y^2 + 1)
        n = (x cosh(B/T) + cosh(J/T)) (u + xy) (yu + x)

    Evaluated entirely in the log domain (signed log-sum-exp for m), so the
    full parameter box stays finite.  The term 2 y^2 u^3 is what separates
    this expression from the X-state reduction (which carries 2 y u^3);
    consequently it matches :func:`qfi_closed` and :func:`qfi_spectral`
    only at B = 0.  Kept for comparison as the QFIclosed measure.  It reads
    only the parameters, never the entries.

    Raises :class:`ParameterRegimeError` for the first cell where the ratio
    leaves double range.
    """
    lx = cells.Jz / cells.T
    ly = cells.B / cells.T
    lu = np.abs(cells.J) / cells.T

    m = logsumexp(
        (
            2 * lx + lu - ly,
            _LN4 + 2 * lx + lu + ly,
            2 * lx + lu + 3 * ly,
            lx + 2 * lu + 2 * ly,
            lx + 2 * lu,
            _LN2 + 2 * ly + 3 * lu,
            3 * lx + 2 * ly,
            3 * lx,
        ),
        (1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0),
    )
    log_n = (
        logsumexp((lx + ly, lx - ly, lu, -lu)).log_abs - _LN2
        + logsumexp((lu, lx + ly)).log_abs
        + logsumexp((ly + lu, lx)).log_abs
    )

    exponent = m.log_abs - log_n
    with np.errstate(over="ignore"):
        value = np.where(m.sign == 0.0, 0.0, m.sign * np.exp(exponent))

    i = first_cell(~np.isfinite(value))
    if i is not None:
        p = cells.params(i)
        if math.isfinite(exponent[i]):
            raise ParameterRegimeError(
                f"published QFI ratio overflows double precision at "
                f"J={p.J}, Jz={p.Jz}, B={p.B}, T={p.T}"
            )
        raise ParameterRegimeError(
            f"published QFI ratio is not finite at J={p.J}, Jz={p.Jz}, "
            f"B={p.B}, T={p.T}"
        )
    return value


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of comparing the published ratio with the spectral definition.

    max_relative_deviation maps candidate name -> worst relative deviation
    of qfi_spectral(rho, candidate) from qfi_published over the draws.
    selected is the best candidate if it beats the threshold, else None.
    """

    max_relative_deviation: dict[str, float]
    threshold: float
    selected: str | None


def calibrate_observable(
    draws: list[SpinParams], threshold: float = 1e-6
) -> CalibrationReport:
    """Try to identify the generator implied by the published QFI ratio.

    Candidates are the three collective components and each without the
    1/2 normalization.  On this model family every candidate fails the
    threshold - the published numerator deviates from the X-state algebra
    away from B = 0 - so callers should expect ``selected is None`` and
    fall back to the spectral definition with the gauge-aligned collective
    X generator (equivalently :func:`qfi_closed`).
    """
    candidates = {
        "collective_x": collective_observable(PauliAxis.X),
        "collective_y": collective_observable(PauliAxis.Y),
        "collective_z": collective_observable(PauliAxis.Z),
        "collective_x_unhalved": 2 * collective_observable(PauliAxis.X),
        "collective_y_unhalved": 2 * collective_observable(PauliAxis.Y),
        "collective_z_unhalved": 2 * collective_observable(PauliAxis.Z),
    }
    columns = np.array([[p.J, p.Jz, p.B, p.T] for p in draws]).reshape(-1, 4).T
    cells = ThermalBatch(*columns)
    reference = qfi_published(cells)
    rho = gibbs_closed(cells)
    scale = np.maximum(np.abs(reference), 1e-12)
    worst = {
        name: float(np.max(np.abs(qfi_spectral(rho, m) - reference) / scale, initial=0.0))
        for name, m in candidates.items()
    }
    best = min(worst, key=lambda name: worst[name])
    selected = best if worst[best] <= threshold else None
    return CalibrationReport(
        max_relative_deviation=worst, threshold=threshold, selected=selected
    )
