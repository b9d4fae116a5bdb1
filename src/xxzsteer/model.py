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
The closed entries weigh each level against the lower central level, by an
exponent formed from the parameters, such as (Jz + B - |J|)/T for |00>,
never as the difference of two rounded level energies of size |Jz|/2T.
Nothing in them but the sign of v depends on the sign of J, so a, b, d
and log Z at -J have the bits of those at J, v is exactly negated, and
every closed measure keeps its bits under J -> -J.

:class:`ThermalBatch` is the one thermal-state type: N parameter cells,
one array per parameter, entry and log Z, converted and checked by the
rule SpinParams applies to a point.  A single point is a batch of one,
``ThermalBatch.of(SpinParams(...))``.  Both routes work array-at-a-time
over a batch and give an (N, 4, 4) stack: :func:`gibbs_closed` assembles
the density matrices from the closed-form entries, :func:`gibbs_spectral`
exponentiates the stacked Hamiltonians of :func:`hamiltonian` and returns
its stack as a DensityStates with the decomposition it is built from, H's
eigenvectors and the Gibbs weights, so the oracle neither checks nor
decomposes it again.  Each closed measure is one function, made by
:func:`closed_form`, that gives one value per cell of a batch, or the
float of a SpinParams point.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from operator import add

import numpy as np

from .linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PROBABILITY_TOL,
    DensityStates,
    dagger,
    eig_hermitian,
    first_cell,
    frobenius,
    kron,
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
# s_j - s_i at [i, j], s the diagonal of the diagonal _TOTAL_SZ: so
# _SZ_GAPS * rho is the commutator rho S_z - S_z rho, entry by entry.
_SZ = np.diag(_TOTAL_SZ).real
_SZ_GAPS = _SZ - _SZ[:, None]

# H = J H_J + Jz H_Jz + B H_B: the operator each control multiplies.
_H_J = -0.5 * (kron(PAULI_X, PAULI_X) + kron(PAULI_Y, PAULI_Y))
_H_JZ = -0.5 * kron(PAULI_Z, PAULI_Z)
_H_B = -0.5 * _TOTAL_SZ

# Entries a spectral Gibbs state may carry: the diagonal and the central pair.
_X_MASK = np.eye(4, dtype=bool)
_X_MASK[1, 2] = _X_MASK[2, 1] = True


def _floats(values) -> np.ndarray:
    """Parameter values as float64, the one rule for a point and a batch: a
    real number is its float, anything else NaN, which fails check_params as
    NaN does.  A float is tested first, which skips the slower
    abstract-base-class check."""
    real = (float, numbers.Real)
    return np.array([float(x) if isinstance(x, real) else math.nan for x in values])


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
        # converted and checked as ThermalBatch converts and checks a cell
        given = (self.J, self.Jz, self.B, self.T)
        cell = _floats(given)
        check_params(cell[:, None], [(x,) for x in given])
        for name, x in zip(PARAM_NAMES, cell.tolist()):
            object.__setattr__(self, name, x)


def check_params(x: np.ndarray, given=None) -> None:
    """Reject parameter cells outside the supported box.

    `x` holds the rows J, Jz, B, T of N cells, shape (4, N).  The box is
    |J|, |Jz|, |B| <= COUPLING_MAX and T_FLOOR <= T, all finite.  Raises
    ValueError for the first failing cell, in array order, naming the first
    of J, Jz, B, T that is not a finite number, else T below the floor,
    else the first coupling out of bounds.  `given` is the columns as
    given, to show a value there that is not a real number.
    """
    inside = (_PARAM_LOW <= x) & (x <= _PARAM_HIGH)
    if inside.all():
        return
    i = first_cell(~inside.all(axis=0))
    cell = x[:, i]
    finite = np.isfinite(cell)
    if not finite.all():
        k = int(np.argmin(finite))
        shown = float(cell[k])
        if given is not None and not isinstance(given[k][i], numbers.Real):
            shown = given[k][i]
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
    off_norm = norm_res > tol
    coherence_ok = np.abs(v) <= b + tol
    if in_range.all() and not off_norm.any() and coherence_ok.all():
        return
    bad = np.array((*~in_range, off_norm, ~coherence_ok))
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


def _as_column(x) -> np.ndarray:
    """A parameter column as given: float64 if it holds numbers, else objects."""
    a = np.asarray(x)
    if a.dtype.kind in "biuf":
        return a.astype(np.float64, copy=False)
    return np.asarray(x, dtype=object)


class ThermalBatch:
    """Thermal X states of N parameter cells, one array per quantity.

    The closed engine evaluates each measure once over a whole batch (see
    :func:`closed_form`); a single point is a batch of one.  J, Jz, B, T are
    the parameter columns: 1-D float64 arrays of one length, checked cell by
    cell (see :func:`check_params`) when the batch is made.  A column of
    numbers is converted whole, a float64 one kept as given; any other goes
    value by value as SpinParams goes (see ``_floats``), and a value that is
    not a real number fails as NaN does but is shown as given.  The entries
    a, b, d, v and log Z are computed, checked and kept on first use, and
    so is any part two measures share (:meth:`shared`).

    Every check on a batch raises for its first failing cell.  Which cell
    and check a whole sweep reports is settled in ``sweep._evaluate``.
    """

    def __init__(self, J, Jz, B, T):
        given = [_as_column(x) for x in (J, Jz, B, T)]
        shapes = [a.shape for a in given]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(
                f"J, Jz, B, T must be 1-D arrays of one length, got shapes "
                f"{', '.join(map(str, shapes))}"
            )
        columns = [a if a.dtype != object else _floats(a.tolist()) for a in given]
        check_params(np.array(columns), given)
        self.J, self.Jz, self.B, self.T = columns
        self._entries = None
        self._log_z = None
        self._shared = {}

    @classmethod
    def of(cls, *points: SpinParams) -> "ThermalBatch":
        """The given points, in order, as the cells of one batch."""
        return cls(
            *(np.array([getattr(p, name) for p in points]) for name in PARAM_NAMES)
        )

    def __len__(self) -> int:
        return len(self.T)

    def describe(self, i: int) -> str:
        """Cell i as "J=..., Jz=..., B=..., T=...", for error messages."""
        return ", ".join(f"{n}={float(getattr(self, n)[i])}" for n in PARAM_NAMES)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Closed-form (a, b, d, v), checked by :func:`check_entries`."""
        if self._entries is None:
            J, Jz, B, T = self.J, self.Jz, self.B, self.T
            lx, ly, lu = Jz / T, B / T, np.abs(J) / T
            # (E_low - E_i)/T for |00>, |11> and the lower and upper central
            # levels, E_low that of the lower, (|01> + sign(J)|10>)/sqrt2:
            # each a difference of parameters, never of two rounded energies,
            # and none changed by the sign of J
            w = np.array((lx + ly - lu, lx - ly - lu, np.zeros_like(lu), -2 * lu))
            shift = np.maximum.reduce(w)
            w -= shift
            np.exp(w, out=w)
            total = functools.reduce(add, w)
            a, d = w[0] / total, w[1] / total
            b = (w[2] + w[3]) / (2 * total)
            v = np.copysign((w[2] - w[3]) / (2 * total), J)
            check_entries(a, b, d, v)
            self._log_z = np.log(total) + shift + (np.abs(J) - Jz / 2) / T
            self._entries = (a, b, d, v)
        return self._entries

    def shared(self, part) -> np.ndarray:
        """``part(self)``, computed on first use and kept, read-only.

        A part that two measures share, such as the entropies of SCRE and
        SCREpaper, is then evaluated once per batch whichever measures ask.
        The array is read-only because every later caller gets it too.  A
        part that raises is not kept, so the next caller raises the same.
        """
        if part not in self._shared:
            value = part(self)
            value.flags.writeable = False
            self._shared[part] = value
        return self._shared[part]

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


def gibbs_spectral(cells: ThermalBatch) -> DensityStates:
    """Thermal states via eigendecomposition of H and a shifted exponential.

    Gives the (N, 4, 4) stack of density matrices as a DensityStates,
    ``.matrix``, with the decomposition they are built from: H's
    eigenvectors and the Gibbs weights over their sum, in reverse, so that
    the eigenvalues ascend.  e^{-H/T} shares H's eigenvectors, whatever H
    is, so no other ``eigh`` is needed.  Checks the X structure, trace and
    U(1) commutation of the computed matrices and raises, for the first
    failing cell, with the measured residuals; then checks their X-state
    entries as :func:`check_entries` does.  The states are not checked
    again as ``validate_density_matrix`` would: they are Hermitian as
    built, as (rho + rho^dagger)/2, the trace check is stricter than its
    own, the weights are nonnegative, and they rebuild from the
    decomposition that built them.
    """
    eig = eig_hermitian(hamiltonian(cells))
    lowest = eig.values[:, 0]
    weights = np.exp(-(eig.values - lowest[:, None]) / cells.T[:, None])
    total = functools.reduce(add, weights.T)
    p = weights / total[:, None]
    rho = (eig.vectors * p[:, None, :]) @ dagger(eig.vectors)
    rho = (rho + dagger(rho)) / 2

    tol = 1e-12
    residuals = {
        "off_x_structure": np.abs(rho[:, ~_X_MASK]).max(axis=1),
        "imag_part": np.abs(rho[:, _X_MASK].imag).max(axis=1),
        "trace": np.abs(trace(rho).real - 1.0),
        "central_symmetry": np.abs(rho[:, 1, 1].real - rho[:, 2, 2].real),
        "number_commutator": frobenius(_SZ_GAPS * rho),
    }
    i = first_cell(np.any([r > tol for r in residuals.values()], axis=0))
    if i is not None:
        raise ValueError(
            f"spectral Gibbs construction violates X-state invariants at "
            f"{cells.describe(i)}: "
            + ", ".join(f"{k}={r[i]:.3e}" for k, r in residuals.items() if r[i] > tol)
        )

    a, d = rho[:, 0, 0].real, rho[:, 3, 3].real
    b = (rho[:, 1, 1].real + rho[:, 2, 2].real) / 2
    v = (rho[:, 1, 2] + rho[:, 2, 1]).real / 2
    check_entries(a, b, d, v)
    # the weights fall as H's eigenvalues rise: reversed, they ascend
    return DensityStates(
        values=np.ascontiguousarray(p[:, ::-1]),
        vectors=np.ascontiguousarray(eig.vectors[:, :, ::-1]),
        matrix=rho,
    )
