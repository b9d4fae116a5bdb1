"""Dense complex linear algebra sized for two-qubit work.

Operators and density matrices live in dimensions 2 and 4 only, so this
module carries its own cyclic Jacobi eigensolver for complex Hermitian
matrices instead of leaning on LAPACK: at these sizes Jacobi is simple,
deterministic, and lets us report a measured off-diagonal residual when
something fails to converge.  Everything else (tensor products, spectral
functions, the partial trace over the first qubit, entropies) is built on
top of it.

All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "EigenDecomposition",
    "JacobiConvergenceError",
    "kron",
    "eig_hermitian",
    "spectral_fn",
    "partial_trace_A",
    "vn_entropy",
    "binary_entropy",
    "binary_entropy_rejects",
    "LogSumExp",
    "logsumexp",
    "shannon_bits",
    "frobenius",
    "hermiticity_residual",
    "validate_density_matrix",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Supported operator sizes: single qubit and qubit pair.
_ALLOWED_DIMS = (2, 4)

# Jacobi sweep controls: converged when the off-diagonal Frobenius norm
# drops below JACOBI_OFF_TOL * ||A||_F; hard cap on the number of sweeps.
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
ENTROPY_CLAMP = 1e-10
# How far rounding may carry a probability outside [0, 1] before a check
# rejects it (entropy arguments here, Gibbs entries in model).
PROBABILITY_TOL = 1e-12


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap; carries the final off-diagonal norm."""

    def __init__(self, off_norm: float, sweeps: int):
        self.off_norm = off_norm
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal Frobenius norm {off_norm:.3e})"
        )


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermiticity_residual(a: np.ndarray) -> float:
    """||A - A^dagger||_F, the distance from the Hermitian cone."""
    return frobenius(a - a.conj().T)


def _as_operator(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in _ALLOWED_DIMS:
        raise ValueError(
            f"{name} must have dimension in {_ALLOWED_DIMS}, got {a.shape[0]}"
        )
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, restricted to results of dimension at most 4."""
    a = _as_operator(a, "kron left factor")
    b = _as_operator(b, "kron right factor")
    dim = a.shape[0] * b.shape[0]
    if dim > 4:
        raise ValueError(
            f"tensor product dimension {dim} exceeds the two-qubit limit 4"
        )
    return np.kron(a, b)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with orthonormal column eigenvectors.

    Satisfies ``vectors @ diag(values) @ vectors.conj().T == input`` and
    ``vectors.conj().T @ vectors == I`` to 1e-12 relative.
    """

    values: np.ndarray
    vectors: np.ndarray


def _require_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    res = hermiticity_residual(a)
    bound = HERMITICITY_TOL * max(1.0, frobenius(a))
    if res > bound:
        raise ValueError(
            f"{name} is not Hermitian: ||A - A^dagger||_F = {res:.3e} "
            f"exceeds {bound:.3e}"
        )
    return (a + a.conj().T) / 2


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Diagonalize a complex Hermitian matrix by cyclic Jacobi rotations.

    Eigenvalues are returned in ascending order; exact ties keep their
    original diagonal order, so the output is deterministic for identical
    input.  Non-Hermitian input is rejected with the measured residual;
    failure to converge within the sweep budget raises
    :class:`JacobiConvergenceError` carrying the final off-diagonal norm.
    """
    a = _as_operator(a, "eig_hermitian input")
    h = _require_hermitian(a, "eig_hermitian input")
    n = h.shape[0]

    work = h.copy()
    vecs = np.eye(n, dtype=complex)
    scale = frobenius(h)
    tol = JACOBI_OFF_TOL * scale

    sweeps = 0
    while _off_norm(work) > tol:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(_off_norm(work), sweeps)
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                absb = abs(apq)
                if absb == 0.0:
                    continue
                phase = apq / absb
                tau = (work[q, q].real - work[p, p].real) / (2.0 * absb)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sigma = (t * c) * phase

                rp = work[p, :].copy()
                rq = work[q, :].copy()
                work[p, :] = c * rp - sigma * rq
                work[q, :] = np.conj(sigma) * rp + c * rq
                cp = work[:, p].copy()
                cq = work[:, q].copy()
                work[:, p] = c * cp - np.conj(sigma) * cq
                work[:, q] = sigma * cp + c * cq
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[p, p] = complex(work[p, p].real, 0.0)
                work[q, q] = complex(work[q, q].real, 0.0)

                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - np.conj(sigma) * vq
                vecs[:, q] = sigma * vp + c * vq

    values = np.diag(work).real.copy()
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values=values[order], vectors=vecs[:, order])


def spectral_fn(a: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix: V diag(f(lambda)) V^dagger."""
    eig = eig_hermitian(a)
    fvals = np.empty_like(eig.values)
    for i, lam in enumerate(eig.values):
        try:
            val = float(fn(float(lam)))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(
                f"spectral function failed at eigenvalue {lam!r}: {exc}"
            ) from exc
        if not math.isfinite(val):
            raise ValueError(
                f"spectral function is not finite at eigenvalue {lam!r}: {val!r}"
            )
        fvals[i] = val
    out = (eig.vectors * fvals) @ eig.vectors.conj().T
    return (out + out.conj().T) / 2


def partial_trace_A(m: np.ndarray) -> np.ndarray:
    """Trace out the first qubit of a two-qubit operator.

    Bit convention |A B> with A the leading (most significant) factor:
    (Tr_A M)_{jk} = M_{(0j),(0k)} + M_{(1j),(1k)}.
    """
    m = _as_operator(m, "partial trace input")
    if m.shape[0] != 4:
        raise ValueError(f"partial trace requires a 4x4 matrix, got {m.shape[0]}")
    return m[:2, :2] + m[2:, 2:]


def validate_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; return the Hermitian part.

    Raises ValueError with the measured residuals on violation.
    """
    rho = _as_operator(rho, name)
    h = _require_hermitian(rho, name)
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace is {tr!r}, off unity by {abs(tr - 1.0):.3e}")
    lam_min = float(eig_hermitian(h).values[0])
    if lam_min < -PSD_TOL:
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {lam_min:.3e}"
        )
    return h


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits.

    Eigenvalues are clamped to [0, 1] before the log; low-temperature Gibbs
    states round-trip into tiny negative eigenvalues that would otherwise
    poison the log.
    """
    h = validate_density_matrix(rho, "vn_entropy input")
    lam = np.clip(eig_hermitian(h).values, 0.0, 1.0)
    return shannon_bits(lam)


def shannon_bits(probs) -> float:
    """Shannon entropy of a nonnegative sequence, 0 log 0 = 0, in bits."""
    total = 0.0
    for p in np.asarray(probs, dtype=float).ravel():
        if p > 0.0:
            total -= float(p) * math.log2(p)
    return total


def binary_entropy(q: float) -> float:
    """H2(q) = -q log2 q - (1-q) log2(1-q), clamped near the endpoints."""
    if not math.isfinite(q):
        raise ValueError(f"binary_entropy argument is not finite: {q!r}")
    if q < -PROBABILITY_TOL or q > 1.0 + PROBABILITY_TOL:
        raise ValueError(f"binary_entropy argument {q!r} outside [0, 1] tolerance")
    q = min(max(q, 0.0), 1.0)
    return shannon_bits((q, 1.0 - q))


def binary_entropy_rejects(q: np.ndarray) -> np.ndarray:
    """Cells of an array for which :func:`binary_entropy` raises."""
    return ~np.isfinite(q) | (q < -PROBABILITY_TOL) | (q > 1.0 + PROBABILITY_TOL)


class LogSumExp(NamedTuple):
    """A sum of exponentials s_i e^{t_i} kept in double range, cell by cell."""

    log_abs: np.ndarray  # log |sum|; -inf where the sum is zero
    sign: np.ndarray  # sign of the sum: -1, 0 or 1
    weights: np.ndarray  # s_i e^{t_i - max_i t_i}, one row per term
    total: np.ndarray  # the sum of the weights


def logsumexp(terms, signs=None) -> LogSumExp:
    """Sum s_i e^{t_i} with the largest exponent subtracted first.

    `terms` is a sequence of equal-shape arrays, `signs` the matching +-1
    factors (all +1 when omitted).  The sum is an explicit left fold: numpy's
    reductions sum a stacked (k, N) array in an order that depends on N, so
    a cell evaluated alone could differ in its last bits from the same cell
    in a grid.
    """
    t = np.array(terms)
    shift = t[0]
    for row in t[1:]:
        shift = np.maximum(shift, row)
    w = np.exp(t - shift)
    if signs is not None:
        w *= np.array(signs)[:, None]
    total = w[0]
    for row in w[1:]:
        total = total + row
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(total)) + shift
    return LogSumExp(log_abs, np.sign(total), w, total)
