from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xxzsteer import ThermalBatch, gibbs_spectral, hamiltonian, linalg, steering
from xxzsteer.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    binary_entropy,
    dagger,
    eig_hermitian,
    first_cell,
    frobenius,
    kron,
    partial_trace_A,
    validate_density_matrix,
    vn_entropy,
)
from xxzsteer.fisher import qfi_spectral
from xxzsteer.steering import CoherenceKind, PauliAxis, coherence, steer

from conftest import box_draws, random_density, random_hermitian, random_unitary, whole_box

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
    """A decomposition that does not rebuild its input raises with the residual.

    The 2x2 case patches the closed-form kernel that 2x2 matrices go
    through, so the check is shown to fire on it as on LAPACK's 4x4 output.
    """
    kernel = linalg._eigh_2x2

    def perturbed(a):
        values, vectors = kernel(a)
        return values + 1e-6, vectors

    monkeypatch.setattr(linalg, "_eigh_2x2", perturbed)
    with pytest.raises(RuntimeError, match="does not rebuild") as err:
        eig_hermitian(PAULI_X)
    # the two eigenvalues moved by 1e-6 each: ||diag(1e-6, 1e-6)||_F
    assert f"{math.sqrt(2) * 1e-6:.3e}" in str(err.value)
    stack = np.array([IDENTITY_2, PAULI_Z])
    with pytest.raises(RuntimeError, match="does not rebuild"):
        eig_hermitian(stack)
    monkeypatch.undo()
    assert np.array_equal(eig_hermitian(stack).values, [[1.0, 1.0], [-1.0, 1.0]])


def test_eig_names_the_first_stacked_matrix_that_does_not_rebuild(monkeypatch):
    """One perturbed 4x4 matrix of a stack of three raises with its residual."""
    lapack = np.linalg.eigh

    def perturbed(a):
        values, vectors = lapack(a)
        values[1] += 2e-6
        values[2, 0] += 1.0
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    stack = np.array([I4, np.diag([1.0, 2.0, 3.0, 4.0]), I4], dtype=complex)
    with pytest.raises(RuntimeError, match="does not rebuild") as err:
        eig_hermitian(stack)
    # the second matrix is named, each of its four eigenvalues moved by 2e-6
    assert f"= {4e-6:.3e} exceeds" in str(err.value)


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


@pytest.mark.parametrize(
    "shape, message",
    [
        ((4, 3), r"^eig_hermitian input must be square, got shape \(4, 3\)$"),
        ((4,), r"^eig_hermitian input must be square, got shape \(4,\)$"),
        ((3, 3), r"^eig_hermitian input must have dimension in \(2, 4\), got 3$"),
    ],
)
def test_operator_of_the_wrong_shape_is_rejected(shape, message):
    with pytest.raises(ValueError, match=message):
        eig_hermitian(np.zeros(shape))


# ------------------------------------------------- the closed 2x2 kernel

EPS = np.finfo(float).eps
_TINY = 1.5e-311  # a subnormal off-diagonal element, as A4's draws reach
# Matrices the closed form treats apart: multiples of I (r = 0), diagonal
# ones with delta > 0, < 0 and = 0, and subnormal off-diagonals.
_SPECIAL_2x2 = {
    "I/2": IDENTITY_2 / 2,
    "3I": 3 * IDENTITY_2,
    "-2.5e-7 I": -2.5e-7 * IDENTITY_2,
    "zero": np.zeros((2, 2), complex),
    "diag(2, 1)": np.diag([2.0, 1.0]).astype(complex),
    "diag(1, 2)": np.diag([1.0, 2.0]).astype(complex),
    "diag(1e-300, -1e-300)": np.diag([1e-300, -1e-300]).astype(complex),
    "I/2 + tiny X": np.array([[0.5, _TINY], [_TINY, 0.5]], complex),
    "I/2 + tiny Y": np.array([[0.5, -1j * _TINY], [1j * _TINY, 0.5]], complex),
    "diag(0.5, 0.5 - 2 eps) + tiny X": np.array(
        [[0.5, _TINY], [_TINY, 0.5 - 2.0**-53]], complex
    ),
    "tiny X": np.array([[0.0, _TINY], [_TINY, 0.0]], complex),
    "tiny Z + tiny Y": np.array([[_TINY, -1j * _TINY], [1j * _TINY, -_TINY]], complex),
    "X": PAULI_X,
}


def _hermitian_stack(rng, n, scale):
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return scale * (a + dagger(a)) / 2


def _assert_diagonalizes(a, values, vectors):
    """Values within 8 eps ||A||_F of LAPACK's, V unitary to 4 eps and
    V^dagger A V diagonal to 4 eps ||A||_F.

    A is first scaled by the power of two that brings max |a_ij| into
    [1/2, 1), which is exact, so that neither these products nor LAPACK's
    lose bits to underflow or overflow.  The values are compared in that
    scale too, where those of a subnormal input carry its rounding: 4 of the
    smallest subnormals of the input's own scale are allowed on top.  On
    1000 matrices of unit scale the closed values are within 0.91 eps
    ||A||_F of a 40-digit evaluation of m -+ r and LAPACK's within 3.7, so
    the bound on the values is mostly LAPACK's.
    """
    size = np.abs(a).max(axis=(-2, -1))
    k = -np.frexp(size)[1]
    unit = np.ldexp(np.ascontiguousarray(a).view(float), k[..., None, None]).view(complex)
    norm = frobenius(unit)
    gap = np.abs(np.ldexp(values, k[..., None]) - np.linalg.eigvalsh(unit)).max(axis=-1)
    assert np.all(gap <= 8 * EPS * norm + np.ldexp(4 * np.spacing(0.0), k))
    assert np.abs(dagger(vectors) @ vectors - IDENTITY_2).max() <= 4 * EPS
    off = np.abs((dagger(vectors) @ unit @ vectors)[..., 0, 1])
    assert np.all(off <= 4 * EPS * norm)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150])
def test_closed_2x2_kernel_diagonalizes_random_stacks(scale):
    """The closed form against LAPACK on 4096 seeded Hermitian matrices a
    scale, from 1e-300 to 1e150."""
    a = _hermitian_stack(np.random.default_rng(int(-np.log10(scale)) % 997), 4096, scale)
    values, vectors = linalg._eigh_2x2(a)
    assert np.all(values[:, 0] <= values[:, 1])
    _assert_diagonalizes(a, values, vectors)


@pytest.mark.parametrize("name", list(_SPECIAL_2x2))
def test_closed_2x2_kernel_on_the_matrices_it_treats_apart(name):
    a = _SPECIAL_2x2[name]
    eig = eig_hermitian(a)
    _assert_diagonalizes(a, eig.values, eig.vectors)
    if a[0, 1] == 0:
        # a diagonal matrix: exact values, and V is I, or the swap when
        # a_00 > a_11 puts the larger eigenvalue first
        d = a.diagonal().real
        assert np.array_equal(eig.values, np.sort(d))
        swap = d[0] > d[1]
        assert np.array_equal(np.abs(eig.vectors), np.eye(2)[:, ::-1] if swap else np.eye(2))


def test_closed_2x2_kernel_keeps_the_small_eigenvalue_of_a_nearly_pure_state():
    """diag(t, 1 - t) with an off-diagonal |b| <= sqrt(t)/2, t log-uniform in
    [1e-40, 1e-5], both ways round: the small eigenvalue, about t, within
    4 eps relative of a 120-digit evaluation of m - r.  Measured: 1.3 eps
    (LAPACK 5.5 eps).  m - r formed in double is 0 or negative at 70% of
    these matrices; the entropy of a nearly pure state reads this
    eigenvalue."""
    rng = np.random.default_rng(11)
    t = 10.0 ** rng.uniform(-40, -5, 500)
    b = np.sqrt(t) / 2 * rng.uniform(size=500) * np.exp(2j * np.pi * rng.uniform(size=500))
    h = np.zeros((500, 2, 2), complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 0, 1], h[:, 1, 0] = t, 1 - t, b, b.conj()
    h[1::2] = h[1::2, ::-1, ::-1]
    small = linalg._eigh_2x2(h)[0][:, 0]
    deep = decimal.Context(prec=120)
    for got, (row0, row1) in zip(small, h):
        a, d, br, bi = map(Decimal, (row0[0].real, row1[1].real, row0[1].real, row0[1].imag))
        with decimal.localcontext(deep):
            want = (a + d) / 2 - ((a - d) ** 2 / 4 + br * br + bi * bi).sqrt()
        assert abs(Decimal(float(got)) - want) <= 4 * Decimal(EPS) * want


def test_closed_2x2_kernel_gives_a_matrix_the_bits_it_gets_in_a_stack():
    """Each matrix of a 4096 stack, the special ones among them, alone."""
    rng = np.random.default_rng(2024)
    stack = _hermitian_stack(rng, 4096, 1.0)
    stack[::7] *= 10.0 ** rng.integers(-300, 150, size=len(stack[::7]))[:, None, None]
    stack[100 : 100 + len(_SPECIAL_2x2)] = list(_SPECIAL_2x2.values())
    values, vectors = linalg._eigh_2x2(stack)
    for i, a in enumerate(stack):
        alone = linalg._eigh_2x2(a)
        assert alone[0].tobytes() == values[i].tobytes()
        assert alone[1].tobytes() == vectors[i].tobytes()


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
        steer(rho, PauliAxis.X)[1][0],
        coherence(bob, PauliAxis.Y, CoherenceKind.RELATIVE_ENTROPY),
        vn_entropy(bob),
        qfi_spectral(rho, obs),
    )
    calls = []
    lapack, kernel = np.linalg.eigh, linalg._eigh_2x2
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or lapack(a))
    monkeypatch.setattr(linalg, "_eigh_2x2", lambda a: calls.append(a.shape) or kernel(a))
    got = (
        steer(checked, PauliAxis.X)[1][0],
        coherence(checked_bob, PauliAxis.Y, CoherenceKind.RELATIVE_ENTROPY),
        vn_entropy(checked_bob),
        qfi_spectral(checked, obs),
    )
    assert calls == []
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_spectral_states_keep_an_ascending_decomposition_that_rebuilds_them():
    """gibbs_spectral's states carry H's eigenvectors and the Gibbs weights,
    ascending, over the whole box, its faces and corners included.  They
    hold what validate_density_matrix checks, though it does not run on
    them: each matrix equals its conjugate transpose exactly (up to the
    sign of a zero), the weights are nonnegative, the trace is 1 and the
    decomposition rebuilds each state, both to 1e-12."""
    states = gibbs_spectral(ThermalBatch(*whole_box(34, 8192)))
    assert np.array_equal(states.matrix, dagger(states.matrix))
    assert np.all(states.values >= 0.0)
    assert np.all(np.diff(states.values, axis=-1) >= 0.0)
    assert np.abs(np.trace(states.matrix, axis1=1, axis2=2) - 1.0).max() <= 1e-12
    rebuilt = (states.vectors * states.values[:, None, :]) @ dagger(states.vectors)
    assert frobenius(rebuilt - states.matrix).max() <= 1e-12
    assert frobenius(dagger(states.vectors) @ states.vectors - I4).max() <= 1e-12
    assert np.abs(states.values.sum(axis=-1) - 1.0).max() <= 1e-12
    validate_density_matrix(states.matrix)


def test_spectral_states_are_checked_once_on_the_hamiltonian(rng, monkeypatch):
    """One Hermiticity check and one reconstruction residual per
    gibbs_spectral call, both on the stacked Hamiltonians: the states built
    from their decomposition are not checked again."""
    cells = ThermalBatch(*box_draws(rng, 64).T)
    h = hamiltonian(cells)
    hermitian, rebuilt = [], []
    require_hermitian, einsum = linalg._require_hermitian, np.einsum

    def spy_hermitian(a, name):
        hermitian.append(a)
        return require_hermitian(a, name)

    def spy_einsum(subscripts, *operands):
        out = einsum(subscripts, *operands)
        if subscripts == "...ik,...jk->...ij":
            rebuilt.append(out)
        return out

    monkeypatch.setattr(linalg, "_require_hermitian", spy_hermitian)
    monkeypatch.setattr(np, "einsum", spy_einsum)
    gibbs_spectral(cells)
    assert len(hermitian) == 1 and np.array_equal(hermitian[0], h)
    assert len(rebuilt) == 1
    assert frobenius(rebuilt[0] - h).max() <= 1e-12 * frobenius(h).max()


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


# ----------------------------------------------------------- first_cell

@pytest.mark.parametrize(
    "mask, index",
    [
        (np.zeros(0, bool), None),
        (np.zeros(5, bool), None),
        (np.zeros((3, 4), bool), None),
        (np.array([False, False, True, True]), 2),
        (np.array([True]), 0),
        (np.array([[False, False, False], [False, True, True]]), 4),
        (np.bool_(True), 0),
        (np.bool_(False), None),
    ],
)
def test_first_cell_is_the_flat_index_of_the_first_hit(mask, index):
    assert first_cell(mask) == index
    hits = np.flatnonzero(mask)
    assert index == (int(hits[0]) if hits.size else None)


# ----------------------------------------------------------- frobenius

def test_frobenius_has_the_bits_of_numpys_norm(rng):
    """frobenius is np.linalg.norm's matrix-norm expression without its
    dispatch: the same bits on every stack the checks measure."""
    cells = ThermalBatch(*box_draws(rng, 300).T)
    states = gibbs_spectral(cells)
    stacks = [
        hamiltonian(cells).real,
        states.matrix,
        steering._ensembles(states, tuple(PauliAxis))[1],
        random_hermitian(rng, 2) + 1j * random_hermitian(rng, 2),
    ]
    assert [a.shape for a in stacks] == [(300, 4, 4), (300, 4, 4), (3, 2, 300, 2, 2), (2, 2)]
    assert stacks[0].dtype == float
    for a in stacks:
        assert frobenius(a).tobytes() == np.linalg.norm(a, axis=(-2, -1)).tobytes()


@settings(max_examples=100, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric_and_bounded(q):
    h = binary_entropy(q)
    assert 0.0 <= h <= 1.0 + 1e-15
    assert abs(h - binary_entropy(1.0 - q)) <= 1e-12
