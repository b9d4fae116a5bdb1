"""Dense complex linear algebra sized for two-qubit work.

Operators and density matrices live in dimensions 2 and 4 only.  Every
function takes one matrix or a stack of them, shape (..., n, n), and a
failed check raises for the first failing matrix with the measured
residual.  Eigendecompositions of 4x4 matrices come from LAPACK
(``np.linalg.eigh``), those of 2x2 matrices from a closed form that is
plain linear algebra for any Hermitian 2x2 matrix (:func:`_eigh_2x2`), and
both are checked against the input they diagonalize.  Density matrices are
checked in one place, :func:`validate_density_matrix`: it returns a
:class:`DensityStates`, the checked matrices with the decomposition that
its positivity check computed, and returns a DensityStates unchanged.
``model.gibbs_spectral`` returns a DensityStates too, with the
decomposition its states are built from, H's eigenvectors and the Gibbs
weights; they are not checked again, as how they are built and the checks
it makes imply these.  The entropy and the oracle measures read that
decomposition, so each stack is checked and decomposed once.  Sums within
one matrix or cell are left folds, ``functools.reduce`` over the terms in
index order, never numpy's additive reductions, whose order depends on the
array width; so a matrix gives the same bits alone as inside any stack.
All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, sub

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "DensityStates",
    "first_cell",
    "kron",
    "dagger",
    "trace",
    "eig_hermitian",
    "partial_trace_A",
    "vn_entropy",
    "binary_entropy",
    "shannon_bits",
    "frobenius",
    "validate_density_matrix",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Supported operator sizes: single qubit and qubit pair.
_ALLOWED_DIMS = (2, 4)

HERMITICITY_TOL = 1e-10
# Allowed ||V diag(w) V^dagger - A||_F of an eigendecomposition, per max(1, ||A||_F).
RECONSTRUCTION_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
# How far rounding may carry a probability outside [0, 1] before a check
# rejects it (entropy arguments here, Gibbs entries in model).
PROBABILITY_TOL = 1e-12


def first_cell(bad: np.ndarray) -> int | None:
    """Flat index of the first set cell of a boolean array, or None."""
    if not bad.size:
        return None
    # argmax gives the first set cell, or 0 when none is set
    i = int(bad.argmax())
    return i if bad.item(i) else None


def frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.

    numpy's own ``np.linalg.norm(a, axis=(-2, -1))`` expression, so the same
    bits, without the dispatch that costs more than the arithmetic on a
    small stack.
    """
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix, row-major whatever the stack size."""
    return np.conj(np.swapaxes(a, -2, -1), order="C")


def trace(a: np.ndarray) -> np.ndarray:
    """Trace of each matrix of a stack, summed in index order."""
    return reduce(add, (a[..., k, k] for k in range(a.shape[-1])))


def _as_operator(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] not in _ALLOWED_DIMS:
        raise ValueError(
            f"{name} must have dimension in {_ALLOWED_DIMS}, got {a.shape[-1]}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, restricted to results of dimension at most 4."""
    a = _as_operator(a, "kron left factor")
    b = _as_operator(b, "kron right factor")
    dim = a.shape[-1] * b.shape[-1]
    if dim > 4:
        raise ValueError(
            f"tensor product dimension {dim} exceeds the two-qubit limit 4"
        )
    return np.kron(a, b)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with orthonormal column eigenvectors.

    Satisfies ``vectors @ diag(values) @ vectors.conj().T == input`` to
    RECONSTRUCTION_TOL relative, matrix by matrix.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class DensityStates(EigenDecomposition):
    """Density matrices with their eigendecomposition, checked.

    Made by :func:`validate_density_matrix`, whose checks they passed, or by
    ``model.gibbs_spectral``, whose construction and checks imply the same:
    `matrix` is Hermitian with unit trace, `values` ascend from at least
    -PSD_TOL, and with `vectors` they rebuild `matrix` to
    RECONSTRUCTION_TOL.  A consumer reads the spectrum without another
    ``eigh``.
    """

    matrix: np.ndarray


def _require_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    adjoint = dagger(a)
    res = frobenius(a - adjoint)
    bound = HERMITICITY_TOL * np.maximum(1.0, frobenius(a))
    i = first_cell(res > bound)
    if i is not None:
        raise ValueError(
            f"{name} is not Hermitian: ||A - A^dagger||_F = {res.flat[i]:.3e} "
            f"exceeds {bound.flat[i]:.3e}"
        )
    return (a + adjoint) / 2


def _eigh_2x2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of Hermitian 2x2 matrices in closed form.

    Write the matrix as [[a, b], [conj b, d]], m = (a+d)/2, delta = (a-d)/2
    and r = hypot(delta, |b|).  The eigenvalues are m -+ r.  The one of
    larger magnitude, m + sign(m) r, is formed so, free of cancellation; the
    other as (a d - |b|^2) / that, as LAPACK's 2x2 kernel ``dlaev2`` does,
    so that the small eigenvalue of a nearly pure state keeps its relative
    accuracy, which its entropy term needs.

    With s = r + |delta|, n = hypot(s, |b|), p = s/n and q = b/n, the m + r
    eigenvector is (p, conj q) for delta > 0 and (q, p) otherwise, free of
    cancellation too, and the m - r one is its orthogonal partner:
    V = [[u, w], [-conj w, conj u]] with (u, w) = (q, p) or (p, q).  s, n, p
    and q are formed from delta and b scaled by the power of two that brings
    r into [1/2, 1), which is exact, so that no step underflows or keeps
    only the few bits of a subnormal.  r = 0 takes s = 1, giving V = I.
    Every operation is elementwise, so a matrix gets the same bits alone as
    in any stack.
    """
    cells = h.shape[:-2]
    # one row a matrix, (a, 0, Re b, Im b, Re b, -Im b, d, 0), so b comes as
    # the real pairs that ldexp scales
    x = np.ascontiguousarray(h).reshape(-1, 4).view(float)
    a, d, b = x[:, 0], x[:, 6], x[:, 2:4]
    m, delta = (a + d) / 2, (a - d) / 2
    mod = np.hypot(b[:, 0], b[:, 1])
    r = np.hypot(delta, mod)
    big = m + np.copysign(r, m)
    # 1 in place of a 0, which only the zero matrix has; its other
    # eigenvalue is 0 too
    over = big + (big == 0.0)
    small = (a / over) * d - (mod / over) * mod
    values = np.empty((len(x), 2))
    np.minimum(small, big, out=values[:, 0])
    np.maximum(small, big, out=values[:, 1])
    e = -np.frexp(r)[1]
    delta, b = np.ldexp(delta, e), np.ldexp(b, e[:, None])
    mod = np.hypot(b[:, 0], b[:, 1])
    s = np.hypot(delta, mod) + np.abs(delta) + (r == 0.0)
    n = np.hypot(s, mod)
    p, q = s / n, (b / n[:, None]).view(complex)[:, 0]
    up = delta > 0.0
    u, w = np.where(up, q, p), np.where(up, p, q)
    vectors = np.empty((len(x), 2, 2), complex)
    vectors[:, 0, 0], vectors[:, 0, 1] = u, w
    np.negative(w.conj(), out=vectors[:, 1, 0])
    np.conjugate(u, out=vectors[:, 1, 1])
    return values.reshape(*cells, 2), vectors.reshape(*cells, 2, 2)


def _eigh(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of Hermitian matrices, checked by reconstruction.

    2x2 matrices go through the closed form :func:`_eigh_2x2`, 4x4 ones
    through LAPACK ``eigh``.
    """
    values, vectors = (_eigh_2x2 if h.shape[-1] == 2 else np.linalg.eigh)(h)
    # V diag(w) V^dagger over the whole stack, not a stacked @ of one BLAS
    # call per small matrix: for 2x2 matrices a left fold over k of the
    # outer products, for 4x4 ones one einsum loop, the faster of the two
    # at each size; only the residual's size meets the bound, so its bits
    # are free to differ between them
    scaled, conj = vectors * values[..., None, :], vectors.conj()
    if h.shape[-1] == 2:
        rebuilt = reduce(add, (scaled[..., :, k, None] * conj[..., None, :, k] for k in range(2)))
    else:
        rebuilt = np.einsum("...ik,...jk->...ij", scaled, conj)
    res = frobenius(rebuilt - h)
    bound = RECONSTRUCTION_TOL * np.maximum(1.0, frobenius(h))
    i = first_cell(res > bound)
    if i is not None:
        raise RuntimeError(
            f"eigendecomposition does not rebuild its input: "
            f"||V diag(w) V^dagger - A||_F = {res.flat[i]:.3e} "
            f"exceeds {bound.flat[i]:.3e}"
        )
    return EigenDecomposition(values=values, vectors=vectors)


def eig_hermitian(a: np.ndarray) -> EigenDecomposition:
    """Diagonalize complex Hermitian matrices: 4x4 ones with LAPACK ``eigh``,
    2x2 ones in closed form.

    Takes one matrix or a stack; eigenvalues ascend.  Non-Hermitian input is
    rejected with the measured residual, and a decomposition that does not
    rebuild its input to RECONSTRUCTION_TOL raises RuntimeError with the
    measured reconstruction residual.
    """
    a = _as_operator(a, "eig_hermitian input")
    return _eigh(_require_hermitian(a, "eig_hermitian input"))


def partial_trace_A(m: np.ndarray) -> np.ndarray:
    """Trace out the first qubit of two-qubit operators.

    Bit convention |A B> with A the leading (most significant) factor:
    (Tr_A M)_{jk} = M_{(0j),(0k)} + M_{(1j),(1k)}.
    """
    m = _as_operator(m, "partial trace input")
    if m.shape[-1] != 4:
        raise ValueError(f"partial trace requires a 4x4 matrix, got {m.shape[-1]}")
    return m[..., :2, :2] + m[..., 2:, 2:]


def validate_density_matrix(rho, name: str = "state") -> DensityStates:
    """Check operator shape, Hermiticity, unit trace and positivity, once.

    Returns the Hermitian part with the eigendecomposition that the
    positivity check computed; a DensityStates is returned unchanged.
    Raises ValueError with the measured residuals on violation.
    """
    if isinstance(rho, DensityStates):
        return rho
    h = _require_hermitian(_as_operator(rho, name), name)
    tr = trace(h).real
    i = first_cell(np.abs(tr - 1.0) > TRACE_TOL)
    if i is not None:
        t = float(tr.flat[i])
        raise ValueError(f"{name} trace is {t!r}, off unity by {abs(t - 1.0):.3e}")
    eig = _eigh(h)
    lam_min = eig.values[..., 0]
    i = first_cell(lam_min < -PSD_TOL)
    if i is not None:
        raise ValueError(
            f"{name} is not positive semidefinite: "
            f"min eigenvalue {lam_min.flat[i]:.3e}"
        )
    return DensityStates(values=eig.values, vectors=eig.vectors, matrix=h)


def vn_entropy(rho):
    """Von Neumann entropy -Tr(rho log2 rho) in bits, of each state of a stack.

    Eigenvalues are clamped to [0, 1] before the log; low-temperature Gibbs
    states round-trip into tiny negative eigenvalues that would otherwise
    poison the log.  A single state gives a float.
    """
    lam = np.clip(validate_density_matrix(rho, "vn_entropy input").values, 0.0, 1.0)
    return shannon_bits(np.moveaxis(lam, -1, 0))


def shannon_bits(probs):
    """Shannon entropy in bits of nonnegative weights, 0 log 0 = 0.

    `probs` runs over the outcomes along its first axis; each outcome may
    be an array of cells.  The terms are summed from 0 in outcome order.
    A sequence of numbers gives a float.  A weight at or below 0 gives a
    term of 0.
    """
    q = np.asarray(probs, dtype=float)
    # 1 log2 1 is exactly 0, so the cells set to 1 give 0
    safe = np.where(q > 0.0, q, 1.0)
    return reduce(sub, safe * np.log2(safe), 0.0)


def binary_entropy(q):
    """H2(q) = -q log2 q - (1-q) log2(1-q), clamped near the endpoints.

    Takes a number or an array of cells; a number gives a float.  Raises for
    the first cell that is not finite or lies outside [0, 1] by more than
    PROBABILITY_TOL, then clips q to [0, 1].
    """
    q = np.asarray(q, dtype=float)
    i = first_cell(~((-PROBABILITY_TOL <= q) & (q <= 1.0 + PROBABILITY_TOL)))
    if i is not None:
        bad = float(q.flat[i])
        if not math.isfinite(bad):
            raise ValueError(f"binary_entropy argument is not finite: {bad!r}")
        raise ValueError(f"binary_entropy argument {bad!r} outside [0, 1] tolerance")
    q = q.clip(0.0, 1.0)
    return shannon_bits((q, 1.0 - q))
