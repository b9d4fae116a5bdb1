"""Two-qubit XXZ Hamiltonian and its thermal state.

    H = -1/2 [J (sx ox sx + sy ox sy) + Jz sz ox sz] - B/2 (sz ox I + I ox sz)

In the |A B> product basis (A the leading bit) the Gibbs state e^{-H/T}/Z
is an X state with diagonal (a, b, b, d) and a single real coherence v
between |01> and |10>:

    a = e^{(Jz/2+B)/T} / Z        b = e^{-Jz/2T} cosh(J/T) / Z
    d = e^{(Jz/2-B)/T} / Z        v = e^{-Jz/2T} sinh(J/T) / Z

    Z = 2 (e^{Jz/2T} cosh(B/T) + e^{-Jz/2T} cosh(J/T))

v carries the sign of J (the matrix exponential forces sinh(J/T), not
sinh(|J|/T)); every measure downstream depends only on |v| or on the
spectrum, so states at +-J give identical measure values.

Two independent construction routes are provided - closed-form entries and
a spectral matrix exponential - and must agree entrywise to 1e-10.  All
exponentials are evaluated after subtracting the largest exponent, so the
full parameter box (|couplings| up to 1e3, T down to 1e-3) stays finite.

:class:`ThermalBatch` is the one thermal-state type: N parameter cells, one
array per parameter, entry and log Z.  A single point is a batch of one,
``ThermalBatch.of(SpinParams(...))``.  Both routes work array-at-a-time over
a batch and give an (N, 4, 4) stack: :func:`gibbs_closed` assembles the
density matrices from the closed-form entries, :func:`gibbs_spectral`
exponentiates the stacked Hamiltonians of :func:`hamiltonian`.  Each closed
measure is one function, made by :func:`closed_form`, that gives one value
per cell of a batch, or the float of a SpinParams point.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PROBABILITY_TOL,
    dagger,
    eig_hermitian,
    first_cell,
    frobenius,
    kron,
    logsumexp,
    trace,
)

__all__ = [
    "PARAM_NAMES",
    "T_FLOOR",
    "COUPLING_MAX",
    "ParameterRegimeError",
    "SpinParams",
    "ThermalBatch",
    "closed_form",
    "param_cell",
    "check_params",
    "check_entries",
    "hamiltonian",
    "gibbs_closed",
    "gibbs_spectral",
]

T_FLOOR = 1e-3
COUPLING_MAX = 1e3

# The four controls, in SpinParams field order.
PARAM_NAMES = ("J", "Jz", "B", "T")
# The supported box, one row per parameter; NaN and +-inf fall outside it.
_PARAM_LOW = np.array([[-COUPLING_MAX]] * 3 + [[T_FLOOR]])
_PARAM_HIGH = np.array([[COUPLING_MAX]] * 3 + [[sys.float_info.max]])

# Number operator sz ox I + I ox sz, conserved by H (U(1) symmetry).
_TOTAL_SZ = kron(PAULI_Z, IDENTITY_2) + kron(IDENTITY_2, PAULI_Z)

# H = J H_J + Jz H_Jz + B H_B: the operator each control multiplies.
_H_J = -0.5 * (kron(PAULI_X, PAULI_X) + kron(PAULI_Y, PAULI_Y))
_H_JZ = -0.5 * kron(PAULI_Z, PAULI_Z)
_H_B = -0.5 * _TOTAL_SZ

# Entries a spectral Gibbs state may carry: the diagonal and the central pair.
_X_MASK = np.eye(4, dtype=bool)
_X_MASK[1, 2] = _X_MASK[2, 1] = True


class ParameterRegimeError(ValueError):
    """A quantity overflows double precision even after exponent shifting."""


@dataclass(frozen=True)
class SpinParams:
    """Physical controls of the model: couplings J, Jz, field B, temperature T.

    Energy units throughout; the Boltzmann constant is absorbed into T.
    """

    J: float
    Jz: float
    B: float
    T: float

    def __post_init__(self):
        given = (self.J, self.Jz, self.B, self.T)
        cell = param_cell(given)
        check_params(np.array(cell)[:, None], given=given)
        for name, x in zip(PARAM_NAMES, cell):
            object.__setattr__(self, name, x)


def param_cell(given) -> list[float]:
    """One cell's J, Jz, B, T as floats, for :func:`check_params`.

    Anything but a real number becomes NaN, so it fails as NaN does and
    the check shows it as given.  A float is tested first, which skips the
    slower abstract-base-class check.
    """
    return [
        float(x) if isinstance(x, (float, numbers.Real)) else math.nan for x in given
    ]


def check_params(x: np.ndarray, given: tuple | None = None) -> None:
    """Reject parameter cells outside the supported box.

    `x` holds the rows J, Jz, B, T of N cells, shape (4, N).  The box is
    |J|, |Jz|, |B| <= COUPLING_MAX and T_FLOOR <= T, all finite.  Raises
    ValueError for the first failing cell, in array order, naming the first
    of J, Jz, B, T that is not a finite number, else T below the floor,
    else the first coupling out of bounds.  `given` is the failing cell's
    values before :func:`param_cell` converted them, shown when one is not
    finite.
    """
    inside = (_PARAM_LOW <= x) & (x <= _PARAM_HIGH)
    if inside.all():
        return
    i = first_cell(~inside.all(axis=0))
    cell = x[:, i]
    finite = np.isfinite(cell)
    if not finite.all():
        k = int(np.argmin(finite))
        shown = given[k] if given is not None else float(cell[k])
        raise ValueError(f"{PARAM_NAMES[k]}={shown!r} is not a finite number")
    if not inside[3, i]:
        raise ValueError(f"T={float(cell[3])} is below the supported floor {T_FLOOR}")
    k = int(np.argmin(inside[:3, i]))
    raise ValueError(
        f"|{PARAM_NAMES[k]}|={abs(float(cell[k]))} exceeds the supported bound "
        f"{COUPLING_MAX}"
    )


def hamiltonian(cells: ThermalBatch) -> np.ndarray:
    """H of each cell as the operator sum J H_J + Jz H_Jz + B H_B.

    Real entries, one 4x4 matrix per cell: an (N, 4, 4) stack.
    """
    J, Jz, B = (x[:, None, None] for x in (cells.J, cells.Jz, cells.B))
    return J * _H_J + Jz * _H_JZ + B * _H_B


def check_entries(a, b, d, v) -> None:
    """Reject X-state entries (a, b, d, v) that do not form a density matrix.

    Raises ValueError for the first failing cell, in array order, with the
    message of its first failing clause: a, b, d outside [0, 1], a+2b+d
    off 1, |v| above b; each by more than PROBABILITY_TOL.
    """
    tol = PROBABILITY_TOL
    diagonal = np.array((a, b, d))
    in_range = (-tol <= diagonal) & (diagonal <= 1.0 + tol)
    norm_res = np.abs(a + 2 * b + d - 1.0)
    bad = np.array((*~in_range, norm_res > tol, ~(np.abs(v) <= b + tol)))
    if not bad.any():
        return
    i = first_cell(bad.any(axis=0))
    clause = int(np.argmax(bad[:, i]))
    if clause < 3:
        raise ValueError(
            f"Gibbs entry {'abd'[clause]}={float(diagonal[clause, i])!r} "
            f"outside [0, 1] by more than {tol}"
        )
    if clause == 3:
        raise ValueError(f"Gibbs entries violate a+2b+d=1 by {norm_res[i]:.3e}")
    raise ValueError(
        f"Gibbs coherence |v|={abs(float(v[i]))!r} exceeds b={float(b[i])!r}: "
        f"central block not positive semidefinite"
    )


class ThermalBatch:
    """Thermal X states of N parameter cells, one array per quantity.

    The closed engine evaluates each measure once over a whole batch (see
    :func:`closed_form`); a single point is a batch of one.  J, Jz, B, T are
    the parameter columns (already checked, see :func:`check_params`); the
    entries a, b, d, v and log Z are computed, checked and kept on first use.

    Every check on a batch raises for its first failing cell.  Which cell
    and check a whole sweep reports is settled in ``sweep._evaluate``.
    """

    def __init__(self, J, Jz, B, T):
        self.J, self.Jz, self.B, self.T = J, Jz, B, T
        self._entries = None
        self._log_z = None

    @classmethod
    def of(cls, p: SpinParams) -> "ThermalBatch":
        """A parameter point as a batch of one."""
        return cls(*(np.array([x]) for x in (p.J, p.Jz, p.B, p.T)))

    def __len__(self) -> int:
        return len(self.T)

    def __getitem__(self, index: slice) -> "ThermalBatch":
        """The cells of a slice, as a new batch."""
        return ThermalBatch(self.J[index], self.Jz[index], self.B[index], self.T[index])

    def params(self, i: int) -> SpinParams:
        """Cell i as SpinParams."""
        return SpinParams(
            float(self.J[i]), float(self.Jz[i]), float(self.B[i]), float(self.T[i])
        )

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Closed-form (a, b, d, v), checked by :func:`check_entries`."""
        if self._entries is None:
            J, Jz, B, T = self.J, self.Jz, self.B, self.T
            # -E_i/T for |00>, |11>, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2
            z = logsumexp(
                (
                    (Jz / 2 + B) / T,
                    (Jz / 2 - B) / T,
                    (-Jz / 2 + J) / T,
                    (-Jz / 2 - J) / T,
                )
            )
            w0, w1, w2, w3 = z.weights
            a, d = w0 / z.total, w1 / z.total
            b = (w2 + w3) / (2 * z.total)
            v = (w2 - w3) / (2 * z.total)
            check_entries(a, b, d, v)
            self._log_z = z.log_abs
            self._entries = (a, b, d, v)
        return self._entries

    @property
    def log_Z(self) -> np.ndarray:
        """log Z of each cell, finite on the whole supported box."""
        self.entries()
        return self._log_z


def closed_form(formula):
    """A closed measure that takes a batch or a point.

    `formula` maps a ThermalBatch to one value per cell.  The measure it
    makes returns that array for a ThermalBatch, and the float of the batch
    of one for a SpinParams, so a point's value is bit-identical to its
    cell's in any batch.
    """

    @functools.wraps(formula)
    def measure(source):
        if isinstance(source, ThermalBatch):
            return formula(source)
        return float(formula(ThermalBatch.of(source))[0])

    return measure


def gibbs_closed(cells: ThermalBatch) -> np.ndarray:
    """The (N, 4, 4) density matrices assembled from the closed-form entries."""
    a, b, d, v = cells.entries()
    rho = np.zeros((len(cells), 4, 4), dtype=complex)
    rho[:, 0, 0] = a
    rho[:, 1, 1] = rho[:, 2, 2] = b
    rho[:, 3, 3] = d
    rho[:, 1, 2] = rho[:, 2, 1] = v
    return rho


def gibbs_spectral(cells: ThermalBatch) -> np.ndarray:
    """Thermal states via eigendecomposition of H and a shifted exponential.

    Gives the (N, 4, 4) stack of density matrices.  Checks the X structure,
    Hermiticity, trace and U(1) commutation of the computed matrices and
    raises, for the first failing cell, with the measured residuals; then
    checks their X-state entries as :func:`check_entries` does.
    """
    eig = eig_hermitian(hamiltonian(cells))
    lowest = eig.values[:, 0]
    weights = np.exp(-(eig.values - lowest[:, None]) / cells.T[:, None])
    total = weights[:, 0]
    for k in range(1, 4):
        total = total + weights[:, k]
    rho = (eig.vectors * (weights / total[:, None])[:, None, :]) @ dagger(eig.vectors)
    rho = (rho + dagger(rho)) / 2

    tol = 1e-12
    residuals = {
        "off_x_structure": np.abs(rho[:, ~_X_MASK]).max(axis=1),
        "imag_part": np.abs(rho[:, _X_MASK].imag).max(axis=1),
        "trace": np.abs(trace(rho).real - 1.0),
        "central_symmetry": np.abs(rho[:, 1, 1].real - rho[:, 2, 2].real),
        "number_commutator": frobenius(rho @ _TOTAL_SZ - _TOTAL_SZ @ rho),
    }
    i = first_cell(np.any([r > tol for r in residuals.values()], axis=0))
    if i is not None:
        p = cells.params(i)
        raise ValueError(
            f"spectral Gibbs construction violates X-state invariants at "
            f"J={p.J}, Jz={p.Jz}, B={p.B}, T={p.T}: "
            + ", ".join(f"{k}={r[i]:.3e}" for k, r in residuals.items() if r[i] > tol)
        )

    a, d = rho[:, 0, 0].real, rho[:, 3, 3].real
    b = (rho[:, 1, 1].real + rho[:, 2, 2].real) / 2
    v = (rho[:, 1, 2] + rho[:, 2, 1]).real / 2
    check_entries(a, b, d, v)
    return rho
