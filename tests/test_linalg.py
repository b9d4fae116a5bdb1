from __future__ import annotations

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xxzsteer.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    binary_entropy,
    eig_hermitian,
    kron,
    logsumexp,
    partial_trace_A,
    validate_density_matrix,
    vn_entropy,
)
from xxzsteer.fisher import qfi_spectral
from xxzsteer.steering import CoherenceKind, PauliAxis, coherence, steer

from conftest import random_density, random_hermitian, random_unitary

I4 = np.eye(4, dtype=complex)


# ---------------------------------------------------------------- kron

def test_kron_identities():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), I4)


def test_kron_sigma_z_identity():
    assert np.allclose(kron(PAULI_Z, IDENTITY_2), np.diag([1, 1, -1, -1]))


def test_kron_sigma_x_pair_is_antidiagonal():
    expect = np.fliplr(np.eye(4))
    assert np.allclose(kron(PAULI_X, PAULI_X), expect)


def test_kron_rejects_dimension_overflow():
    with pytest.raises(ValueError, match="exceeds"):
        kron(np.eye(2), np.eye(4))


def test_kron_rejects_non_finite():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        kron(bad, IDENTITY_2)


# ------------------------------------------------------- eig_hermitian

def test_eig_identity():
    eig = eig_hermitian(IDENTITY_2)
    assert np.allclose(eig.values, [1.0, 1.0])


def test_eig_pauli_x_spectrum():
    eig = eig_hermitian(PAULI_X)
    assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)


def test_eig_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(bad)


def test_eig_deterministic():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 4)
    e1 = eig_hermitian(a)
    e2 = eig_hermitian(a)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)
    # a column-major copy and a stack of one give the same bits
    e3 = eig_hermitian(np.asfortranarray(a))
    assert np.array_equal(e1.values, e3.values)
    e4 = eig_hermitian(a[None])
    assert np.array_equal(e1.values, e4.values[0])
    assert np.array_equal(e1.vectors, e4.vectors[0])


def test_eig_zero_matrix():
    eig = eig_hermitian(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(eig.values, np.zeros(4))
    assert np.array_equal(eig.vectors, I4)


def test_eig_reports_reconstruction_residual(monkeypatch):
    """A decomposition that does not rebuild its input raises with the residual."""
    lapack = np.linalg.eigh

    def perturbed(a):
        values, vectors = lapack(a)
        return values + 1e-6, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(RuntimeError, match="does not rebuild") as err:
        eig_hermitian(PAULI_X)
    # the two eigenvalues moved by 1e-6 each: ||diag(1e-6, 1e-6)||_F
    assert f"{math.sqrt(2) * 1e-6:.3e}" in str(err.value)
    stack = np.array([IDENTITY_2, PAULI_Z])
    with pytest.raises(RuntimeError, match="does not rebuild"):
        eig_hermitian(stack)
    monkeypatch.undo()
    assert np.array_equal(eig_hermitian(stack).values, [[1.0, 1.0], [-1.0, 1.0]])


def test_eig_reconstruction_residuals_bulk():
    """1000 random Hermitian matrices over both dims and a wide scale range."""
    rng = np.random.default_rng(123)
    for i in range(1000):
        dim = 2 if i % 2 == 0 else 4
        scale = 10.0 ** rng.uniform(-3, 3)
        a = random_hermitian(rng, dim, scale)
        eig = eig_hermitian(a)
        bound = 1e-12 * max(1.0, np.linalg.norm(a))
        rebuild = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(rebuild - a) <= bound
        assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - np.eye(dim)) <= 1e-12
        assert np.all(np.diff(eig.values) >= 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4]))
def test_eig_matches_lapack_spectrum(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    eig = eig_hermitian(a)
    assert np.abs(eig.values - np.linalg.eigvalsh(a)).max() <= 1e-12 * max(
        1.0, np.linalg.norm(a)
    )


# ------------------------------------------------------ partial trace

def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1 / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace_A(rho), IDENTITY_2 / 2, atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(8)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    assert np.abs(partial_trace_A(np.kron(rho_a, rho_b)) - rho_b).max() <= 1e-14


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_linear_and_trace_preserving(seed):
    rng = np.random.default_rng(seed)
    m1 = random_density(rng, 4)
    m2 = random_density(rng, 4)
    c = rng.uniform(-2, 2)
    lhs = partial_trace_A(c * m1 + m2)
    rhs = c * partial_trace_A(m1) + partial_trace_A(m2)
    assert np.abs(lhs - rhs).max() <= 1e-14
    assert abs(np.trace(partial_trace_A(m1)).real - np.trace(m1).real) <= 1e-14


def test_partial_trace_requires_dim_4():
    with pytest.raises(ValueError, match="4x4"):
        partial_trace_A(IDENTITY_2)


# ----------------------------------------------------------- entropies

def test_vn_entropy_pure_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert vn_entropy(rho) == 0.0


def test_vn_entropy_maximally_mixed():
    assert abs(vn_entropy(IDENTITY_2 / 2) - 1.0) <= 1e-14
    assert abs(vn_entropy(I4 / 4) - 2.0) <= 1e-14


def test_vn_entropy_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        assert abs(vn_entropy(u @ rho @ u.conj().T) - vn_entropy(rho)) <= 1e-10


def test_vn_entropy_rejects_bad_states():
    with pytest.raises(ValueError, match="positive"):
        vn_entropy(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        vn_entropy(np.diag([0.7, 0.7]).astype(complex))


def test_validated_states_are_not_checked_or_decomposed_again(rng, monkeypatch):
    rho, bob = random_density(rng, 4), random_density(rng, 2)
    obs = kron(PAULI_X, IDENTITY_2)
    checked, checked_bob = validate_density_matrix(rho), validate_density_matrix(bob)
    assert validate_density_matrix(checked) is checked
    assert np.array_equal(checked.matrix, (rho + rho.conj().T) / 2)
    assert np.array_equal(checked.values, eig_hermitian(checked.matrix).values)
    want = (
        steer(rho, PauliAxis.X).entries[0].state,
        coherence(bob, PauliAxis.Y, CoherenceKind.RELATIVE_ENTROPY),
        vn_entropy(bob),
        qfi_spectral(rho, obs),
    )
    calls = []
    lapack = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or lapack(a))
    got = (
        steer(checked, PauliAxis.X).entries[0].state,
        coherence(checked_bob, PauliAxis.Y, CoherenceKind.RELATIVE_ENTROPY),
        vn_entropy(checked_bob),
        qfi_spectral(checked, obs),
    )
    assert calls == []
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) <= 1e-15
    assert abs(binary_entropy(0.25) - 0.8112781244591328) <= 1e-12


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def decimal_logsumexp(terms, signs) -> tuple[float, float]:
    """log|sum_k s_k e^{t_k}| and its sign, evaluated at 60 significant digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        total = sum(
            decimal.Decimal(s) * decimal.Decimal(t).exp() for t, s in zip(terms, signs)
        )
        if total == 0:
            return -math.inf, 0.0
        return float(abs(total).ln()), math.copysign(1.0, total)


def test_logsumexp_matches_decimal_reference(rng):
    for k in (2, 4, 8):
        terms = rng.uniform(-800.0, 800.0, size=(k, 300))
        signs = tuple(rng.choice([-1.0, 1.0], size=k))
        for signed in (None, signs):
            got = logsumexp(tuple(terms), signed)
            for j in range(terms.shape[1]):
                ref, ref_sign = decimal_logsumexp(terms[:, j], signed or (1.0,) * k)
                assert got.sign[j] == ref_sign
                assert abs(got.log_abs[j] - ref) <= 1e-12 * max(1.0, abs(ref))
                # a cell alone gives the same bits as within the batch
                alone = logsumexp(tuple(terms[:, j : j + 1]), signed)
                assert (alone.log_abs[0], alone.sign[0]) == (got.log_abs[j], got.sign[j])
                assert alone.total[0] == got.total[j]
                assert np.array_equal(alone.weights[:, 0], got.weights[:, j])
    zero = logsumexp((np.array([0.5]), np.array([0.5])), (1.0, -1.0))
    assert zero.log_abs[0] == -np.inf and zero.sign[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric_and_bounded(q):
    h = binary_entropy(q)
    assert 0.0 <= h <= 1.0 + 1e-15
    assert abs(h - binary_entropy(1.0 - q)) <= 1e-12
