from __future__ import annotations

import decimal
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xxzsteer import steering
from xxzsteer.linalg import DensityStates, frobenius, partial_trace_A, validate_density_matrix
from xxzsteer.model import (
    T_FLOOR,
    SpinParams,
    ThermalBatch,
    gibbs_closed,
    gibbs_spectral,
)
from xxzsteer.steering import (
    _BASES,
    PROBABILITY_FLOOR,
    CoherenceKind,
    PauliAxis,
    coherence,
    measurement_operator,
    scn_closed,
    scre_closed,
    scre_published,
    sqc_direct,
    steer,
)

from conftest import box_draws, decimal_xstate, draw_params, small_draws, whole_box, xstate

I2 = np.eye(2, dtype=complex)
SZ_I = np.kron(np.diag([1.0, -1.0]), I2)

BELL = np.zeros((4, 4), dtype=complex)
BELL[1:3, 1:3] = 0.5

KET00 = np.zeros((4, 4), dtype=complex)
KET00[0, 0] = 1.0


# ------------------------------------------------------- measurements

def test_measurement_operator_z0():
    assert np.allclose(measurement_operator(PauliAxis.Z, 0), np.diag([1.0, 0.0]))


def test_measurement_operator_x0():
    assert np.allclose(measurement_operator(PauliAxis.X, 0), np.full((2, 2), 0.5))


def test_measurement_operator_y1():
    expect = 0.5 * np.array([[1, 1j], [-1j, 1]])
    assert np.allclose(measurement_operator(PauliAxis.Y, 1), expect)


def test_measurement_operators_complete_and_projective():
    for axis in PauliAxis:
        p0 = measurement_operator(axis, 0)
        p1 = measurement_operator(axis, 1)
        assert np.allclose(p0 + p1, I2)
        for p in (p0, p1):
            assert np.abs(p @ p - p).max() <= 1e-15
            assert abs(np.trace(p).real - 1.0) <= 1e-15


def test_measurement_operator_rejects_bad_outcome():
    with pytest.raises(ValueError, match="outcome"):
        measurement_operator(PauliAxis.Z, 2)


def test_pauli_bases_are_eigenbases():
    # the bases coherence reads, +1 eigenvector in the first column
    for axis in PauliAxis:
        basis = _BASES[axis]
        for k, ket in enumerate(basis.T):
            assert np.linalg.norm(axis.matrix @ ket - (-1) ** k * ket) <= 1e-14


# ------------------------------------------------------------ steering

def test_steer_bell_state_along_z():
    p, states = steer(BELL, PauliAxis.Z)
    assert abs(p[0] - 0.5) <= 1e-14
    assert abs(p[1] - 0.5) <= 1e-14
    assert np.allclose(states[0], np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(states[1], np.diag([1.0, 0.0]), atol=1e-14)


def test_steer_product_state_leaves_bob_alone():
    for probability, state in zip(*steer(KET00, PauliAxis.X)):
        assert abs(probability - 0.5) <= 1e-14
        assert np.allclose(state, np.diag([1.0, 0.0]), atol=1e-14)


def test_steer_thermal_state_bloch_vectors():
    """X-axis steering of the X state gives Bloch vectors (+-2v, 0, a-d)."""
    cells = ThermalBatch.of(SpinParams(1, 1, 1, 1))
    a, _, d, v = (float(x[0]) for x in cells.entries())
    p, states = steer(gibbs_closed(cells)[0], PauliAxis.X)
    for probability, state, sign in zip(p, states, (1.0, -1.0)):
        nx = 2 * float(state[0, 1].real)
        ny = -2 * float(state[0, 1].imag)
        nz = float((state[0, 0] - state[1, 1]).real)
        assert abs(probability - 0.5) <= 1e-14
        assert abs(nx - sign * 2 * v) <= 1e-13
        assert abs(ny) <= 1e-13
        assert abs(nz - (a - d)) <= 1e-13


def test_steer_zero_probability_outcome_uses_maximally_mixed():
    p, states = steer(KET00, PauliAxis.Z)
    assert abs(p[0] - 1.0) <= 1e-14
    assert p[1] <= 1e-12
    assert np.allclose(states[1], I2 / 2)


def test_steer_rejects_invalid_state():
    with pytest.raises(ValueError, match="trace"):
        steer(2 * BELL, PauliAxis.Z)


def test_steer_accepts_a_trace_the_state_check_accepts():
    # 5e-11 off unit trace is inside TRACE_TOL; the outcomes add up to it
    rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex) * (1 + 5e-11)
    p, _ = steer(rho, PauliAxis.Z)
    assert abs(p.sum() - (1 + 5e-11)) <= 1e-15
    scn, scre = sqc_direct(rho, CoherenceKind.L1, CoherenceKind.RELATIVE_ENTROPY)
    assert np.isfinite(scn) and np.isfinite(scre)


def test_steer_rejects_incomplete_projectors_at_the_first_cell(monkeypatch):
    proj0, _ = steering._PROJECTORS[PauliAxis.Z]
    monkeypatch.setitem(steering._PROJECTORS, PauliAxis.Z, (proj0, np.zeros((4, 4))))
    # outcome 1 is lost: KET00 has none of it, the next two cells lose 1/4 and 1/2
    rho = np.array([KET00, np.diag([0.5, 0.25, 0.125, 0.125]), np.eye(4) / 4])
    with pytest.raises(ValueError, match=r"sum to 0\.75, not the state's trace 1\.0$"):
        steer(rho, PauliAxis.Z)


def _first_steer_error(rho) -> str:
    """The message of the first error of one steer call per axis, in order."""
    for axis in PauliAxis:
        try:
            steer(rho, axis)
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no axis failed")


# Patched projector pairs by axis, with the message the sequential steer
# calls raise first: i P gives the outcome -Tr(P rho P), 2i P four times
# that, and zeros lose it.
_TWO_FAILING_AXES = {
    "outcome before sum": (
        {PauliAxis.X: ("P0", "iP1"), PauliAxis.Y: ("0", "P1")},
        r"^negative outcome probability -0\.5 for PauliAxis\.X$",
    ),
    "first axis's sum before a later outcome": (
        {PauliAxis.X: ("P0", "0"), PauliAxis.Z: ("iP0", "P1")},
        r"^ensemble probabilities sum to 0\.5, not the state's trace 1\.0$",
    ),
    "outcome 0 before outcome 1": (
        {PauliAxis.Y: ("iP0", "2iP1"), PauliAxis.Z: ("0", "0")},
        r"^negative outcome probability -0\.5 for PauliAxis\.Y$",
    ),
}


@pytest.mark.parametrize("case", list(_TWO_FAILING_AXES))
def test_sqc_direct_raises_what_sequential_steer_calls_raise_first(monkeypatch, case):
    """With two axes failing, the stacked ensembles raise the first axis's
    error, and within it the outcomes' before the sum's, as one steer call
    per axis in PauliAxis order does, whichever cell each axis fails at."""
    patches, message = _TWO_FAILING_AXES[case]
    for axis, names in patches.items():
        p0, p1 = steering._PROJECTORS[axis]
        ops = {"P0": p0, "P1": p1, "iP0": 1j * p0, "iP1": 1j * p1, "2iP1": 2j * p1,
               "0": np.zeros((4, 4))}
        monkeypatch.setitem(steering._PROJECTORS, axis, tuple(ops[n] for n in names))
    mixed = np.eye(4, dtype=complex) / 4
    # |+0>: Alice's X outcome 1 has weight 0, so the X patches fail only at
    # the mixed cell after it, while the Y and Z patches fail at this one
    plus0 = np.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0])).astype(complex)
    for rho in (mixed, np.array([plus0, mixed])):
        expected = _first_steer_error(rho)
        assert re.match(message, expected)
        with pytest.raises(ValueError) as raised:
            sqc_direct(rho, CoherenceKind.L1, CoherenceKind.RELATIVE_ENTROPY)
        assert str(raised.value) == expected


def test_steer_requires_a_two_qubit_state():
    with pytest.raises(ValueError, match=r"^steering requires a two-qubit \(4x4\) state$"):
        steer(I2 / 2, PauliAxis.Z)


def test_steer_rejects_a_negative_outcome_the_state_check_accepts():
    # the eigenvalue -5e-11 is inside PSD_TOL, but the Z outcome 0 has it as
    # its probability, below -PROBABILITY_FLOOR
    rho = np.diag([-5e-11, 0.0, 0.5, 0.5 + 5e-11]).astype(complex)
    validate_density_matrix(rho)
    with pytest.raises(
        ValueError, match=r"^negative outcome probability -5e-11 for PauliAxis\.Z$"
    ):
        steer(rho, PauliAxis.Z)


def test_steer_ensembles_are_valid_on_draws(rng):
    for rho in gibbs_closed(ThermalBatch.of(*(draw_params(rng) for _ in range(25)))):
        for axis in PauliAxis:
            p, states = steer(rho, axis)
            total = sum(p)
            assert abs(total - 1.0) <= 1e-12
            for probability, state in zip(p, states):
                if probability > 1e-12:
                    validate_density_matrix(state)


# ----------------------------------------------------------- coherence

def test_coherence_incoherent_in_own_basis():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert coherence(rho, PauliAxis.Z, CoherenceKind.L1) == 0.0


def test_coherence_maximal_in_conjugate_basis():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(coherence(rho, PauliAxis.X, CoherenceKind.L1) - 1.0) <= 1e-14
    assert (
        abs(coherence(rho, PauliAxis.X, CoherenceKind.RELATIVE_ENTROPY) - 1.0) <= 1e-14
    )


def test_coherence_requires_a_qubit_state():
    message = r"^coherence is defined here for qubit \(2x2\) states$"
    with pytest.raises(ValueError, match=message):
        coherence(np.eye(4, dtype=complex) / 4, PauliAxis.X, CoherenceKind.L1)


# ------------------------------------------------- fixed linear maps

def _projector_stack(scale=1.0) -> np.ndarray:
    """Alice's six projectors in PauliAxis order, each times `scale`."""
    return scale * np.array([p for axis in PauliAxis for p in steering._PROJECTORS[axis]])


def _unit_matrices(n: int) -> np.ndarray:
    """E_xy for the n*n entries in row-major order, shape (n*n, n, n)."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


# The projector stacks the contraction is built from: Alice's own, and the
# i P, 2i P and zero stacks that the monkeypatch tests put in their place.
@pytest.mark.parametrize("scale", [1.0, 1j, 2j, 0.0], ids=["P", "iP", "2iP", "0"])
def test_conditional_map_is_the_partial_trace_of_the_projected_units(scale):
    """Row (x, y) of the map is Tr_A[P E_xy P] for each projector P, entry
    for entry: the literal map applied to each unit matrix."""
    projectors = _projector_stack(scale)
    k = steering._conditional_map(projectors)
    assert k.shape == (16, 24)
    for row, e in zip(k, _unit_matrices(4)):
        for block, p in zip(row.reshape(6, 2, 2), projectors):
            assert np.array_equal(block, partial_trace_A(p @ e @ p))


def test_basis_change_map_is_the_basis_change_of_the_units():
    """Row (b, b') of the map is U^dagger E_bb' U for each Pauli basis, and
    each basis's one-basis block is its own slice of it."""
    c = steering._BASIS_CHANGE
    assert c.shape == (4, 12)
    for row, e in zip(c, _unit_matrices(2)):
        for block, axis in zip(row.reshape(3, 2, 2), PauliAxis):
            u = _BASES[axis]
            assert np.array_equal(block, u.conj().T @ e @ u)
    for nu, axis in enumerate(PauliAxis):
        assert np.array_equal(steering._ONE_BASIS_CHANGE[axis], c[:, 4 * nu : 4 * nu + 4])


@pytest.fixture(scope="module")
def box_states():
    """Thermal states of 4096 whole-box draws and Bob's 24576 conditional states."""
    rho = gibbs_spectral(ThermalBatch(*whole_box(3636, 4096)))
    bob = steering._ensembles(rho, tuple(PauliAxis))[1]
    return {4: rho.matrix, 2: bob.reshape(-1, 2, 2)}


@pytest.mark.parametrize("dim", [4, 2])
@pytest.mark.parametrize(
    "cells",
    [(), (1,), (37,), (3, 2, 37), (4096,)],
    ids=["matrix", "1", "37", "3x2x37", "4096"],
)
def test_fixed_maps_match_the_literal_products(box_states, dim, cells):
    """The one-GEMM maps give each matrix of a stack of whole-box states
    what the literal products give, to 4 ulps of the matrix's norm: Bob's
    unnormalized states Tr_A[P rho P] (dim 4) and the three basis changes
    U^dagger sigma U of his states (dim 2)."""
    pool = box_states[dim]
    rng = np.random.default_rng([dim, *cells])
    m = pool[rng.permutation(len(pool))[: int(np.prod(cells))]].reshape(*cells, dim, dim)
    if dim == 4:
        ops = _projector_stack()
        got = steering._linear_map(m, steering._conditional_map(ops))
        want = [partial_trace_A(p @ m @ p) for p in ops]
    else:
        got = steering._linear_map(m, steering._BASIS_CHANGE)
        want = [_BASES[axis].conj().T @ m @ _BASES[axis] for axis in PauliAxis]
    assert got.shape == (len(want), *cells, 2, 2)
    bound = 4 * np.finfo(float).eps * frobenius(m)[..., None, None]
    for block, literal in zip(got, want):
        assert np.all(np.abs(block - literal) <= bound)


def test_sqc_direct_has_the_bits_of_the_whole_batch_on_its_slices():
    """1-, 7- and 81-cell slices of one 4096-cell whole-box batch, and every
    97th cell alone, give the bits the whole batch gives: each GEMM element
    is one dot product of the same numbers, however many rows the call has."""
    kinds = (CoherenceKind.L1, CoherenceKind.RELATIVE_ENTROPY)
    rho = gibbs_spectral(ThermalBatch(*whole_box(3637, 4096)))
    whole = sqc_direct(rho, *kinds)
    for n in (1, 7, 81):
        for start in range(0, 4096, n):
            cut = slice(start, start + n)
            part = DensityStates(
                values=rho.values[cut], vectors=rho.vectors[cut], matrix=rho.matrix[cut]
            )
            for got, want in zip(sqc_direct(part, *kinds), whole):
                assert got.tobytes() == want[cut].tobytes()
    for i in range(0, 4096, 97):
        for got, want in zip(sqc_direct(rho.matrix[i], *kinds), whole):
            assert np.float64(got).tobytes() == want[i].tobytes()


# ------------------------------------------------------ steered average

def test_sqc_maximally_mixed_is_zero():
    rho = np.eye(4, dtype=complex) / 4
    scn, scre = sqc_direct(rho, CoherenceKind.L1, CoherenceKind.RELATIVE_ENTROPY)
    assert scn <= 1e-14
    assert scre <= 1e-14


def test_sqc_bell_state_l1_reaches_three():
    (scn,) = sqc_direct(BELL, CoherenceKind.L1)
    assert abs(scn - 3.0) <= 1e-12


def test_sqc_product_state_relative_entropy_reaches_two():
    (scre,) = sqc_direct(KET00, CoherenceKind.RELATIVE_ENTROPY)
    assert abs(scre - 2.0) <= 1e-12


def test_sqc_invariant_under_v_flip(rng):
    """Conjugation by sigma_z ox I only permutes Alice's X/Y outcome labels."""
    rho = gibbs_closed(ThermalBatch.of(*(draw_params(rng) for _ in range(25))))
    flipped = SZ_I @ rho @ SZ_I
    kinds = tuple(CoherenceKind)
    for value, flip in zip(sqc_direct(rho, *kinds), sqc_direct(flipped, *kinds)):
        assert np.abs(value - flip).max() <= 1e-12


def test_relative_entropy_checks_meet_the_bases_in_pauli_order(monkeypatch):
    """sqc_direct evaluates the relative entropy over all three bases at
    once, and a negative value raises for the value that one evaluation per
    basis, X then Y then Z, meets first.  The shifted entropy makes the
    value negative at a late state in every basis and, in a later basis
    only, at an earlier one, which any order but basis first would name."""
    points = [SpinParams(1.0, 0.5, 0.3, 1.0), SpinParams(-2.0, 1.0, 1.0, 2.0),
              SpinParams(0.5, -1.0, 0.2, 0.7)]
    rho = gibbs_spectral(ThermalBatch.of(*points))
    states = validate_density_matrix(steering._ensembles(rho, tuple(PauliAxis))[1])
    re = CoherenceKind.RELATIVE_ENTROPY
    # c[nu, m, a, cell]: unshifted coherence of each of Bob's states in basis nu
    c = np.array([coherence(states, axis, re) for axis in PauliAxis])
    shift = np.zeros(c.shape[1:])
    late = (2, 1, len(points) - 1)
    shift[late] = c[(slice(None), *late)].max() + 0.01
    # the first earlier state that basis Y or Z finds below basis X
    early = next(
        k for k in np.ndindex(shift.shape)
        if c[(slice(1, None), *k)].min() < c[(0, *k)] - 1e-3
    )
    assert np.ravel_multi_index(early, shift.shape) < np.ravel_multi_index(late, shift.shape)
    shift[early] = (c[(slice(1, None), *early)].min() + c[(0, *early)]) / 2
    negative = c - shift < -1e-12
    assert np.flatnonzero(negative[0]).tolist() == [np.ravel_multi_index(late, shift.shape)]
    assert negative[(slice(1, None), *early)].any()

    entropy = steering.vn_entropy
    monkeypatch.setattr(steering, "vn_entropy", lambda s: entropy(s) + shift)
    with pytest.raises(RuntimeError, match="came out negative") as stacked:
        sqc_direct(rho, re)
    for axis in PauliAxis:
        try:
            coherence(states, axis, re)
        except RuntimeError as err:
            first = str(err)
            break
    assert str(stacked.value) == first


def test_sqc_kinds_in_one_pass_match_single_kind_calls_bit_for_bit(rng):
    """Seeded draws, the B = 0 slice and near-pure cells at the T floor."""
    points = [draw_params(rng) for _ in range(40)]
    points += [draw_params(rng, b=(0, 0)) for _ in range(20)]
    points += [draw_params(rng, t=(T_FLOOR, T_FLOOR)) for _ in range(20)]
    points += [SpinParams(J, Jz, B, T_FLOOR) for J, Jz, B in
               ((5, 1, 0), (-5, 1, 0), (1, 3, 2), (20, -20, 10), (0, 0, 1))]
    rho = gibbs_spectral(ThermalBatch.of(*points))
    # near-pure cells at the floor give Alice outcomes below the probability
    # floor, whose Bob state is I/2
    probabilities, _ = steer(rho, PauliAxis.Z)
    assert np.min(probabilities) <= PROBABILITY_FLOOR
    l1, re = CoherenceKind.L1, CoherenceKind.RELATIVE_ENTROPY
    (alone_l1,) = sqc_direct(rho, l1)
    (alone_re,) = sqc_direct(rho, re)
    for kinds, want in (
        ((l1, re), (alone_l1, alone_re)),
        ((re, l1), (alone_re, alone_l1)),
        ((re, l1, re), (alone_re, alone_l1, alone_re)),
    ):
        got = sqc_direct(rho, *kinds)
        assert len(got) == len(want)
        for value, expected in zip(got, want):
            assert value.tobytes() == expected.tobytes()
    # one matrix gives floats, the same as its cell of the stack
    for value, cell in zip(sqc_direct(rho.matrix[-1], l1, re), (alone_l1, alone_re)):
        assert isinstance(value, float) and value == cell[-1]


def test_sqc_needs_a_kind():
    with pytest.raises(ValueError, match="at least one coherence kind"):
        sqc_direct(BELL)


# ---------------------------------------------------------- fast paths

def test_scn_closed_examples():
    assert scn_closed(xstate(0.25, 0.25, 0.25, 0.0))[0] == 0.0
    assert scn_closed(xstate(0.0, 0.5, 0.0, 0.5))[0] == 3.0


def test_scn_closed_matches_direct_average(rng):
    cells = ThermalBatch.of(*(draw_params(rng) for _ in range(120)))
    (direct,) = sqc_direct(gibbs_closed(cells), CoherenceKind.L1)
    assert np.abs(scn_closed(cells) - direct).max() <= 1e-10


def test_scre_closed_examples():
    assert scre_closed(xstate(0.25, 0.25, 0.25, 0.0))[0] == 0.0
    assert abs(scre_closed(xstate(0.0, 0.5, 0.0, 0.5))[0] - 3.0) <= 1e-14
    assert abs(scre_closed(xstate(1.0, 0.0, 0.0, 0.0))[0] - 2.0) <= 1e-14


def test_scre_closed_matches_direct_average(rng):
    cells = ThermalBatch.of(*(draw_params(rng) for _ in range(120)))
    (direct,) = sqc_direct(gibbs_closed(cells), CoherenceKind.RELATIVE_ENTROPY)
    assert np.abs(scre_closed(cells) - direct).max() <= 1e-10


def test_scre_published_examples():
    assert scre_published(xstate(0.25, 0.25, 0.25, 0.0))[0] == 0.0
    assert abs(scre_published(xstate(0.0, 0.5, 0.0, 0.5))[0] - 3.0) <= 1e-14
    # the printed expression overshoots the definition on the polarized state
    assert abs(scre_published(xstate(1.0, 0.0, 0.0, 0.0))[0] - 4.0) <= 1e-14
    assert abs(sqc_direct(KET00, CoherenceKind.RELATIVE_ENTROPY)[0] - 2.0) <= 1e-12


def test_scre_published_agrees_only_at_zero_field(rng):
    cells = ThermalBatch.of(*(draw_params(rng, b=(0, 0)) for _ in range(50)))
    assert np.abs(scre_published(cells) - scre_closed(cells)).max() <= 1e-10
    cells = ThermalBatch.of(*(draw_params(rng, b=(1, 10)) for _ in range(50)))
    worst = np.abs(scre_published(cells) - scre_closed(cells)).max()
    assert worst > 0.1


def test_scre_published_has_the_bits_of_scre_at_zero_field():
    """At B = +-0, a = d to the bit, so SCRE reads H2((1 + a - d)/2) =
    H2(1/2) = 1 exactly and SCREpaper = 4 - ... has SCRE's bits.  The cells
    are whole-box draws (A4's kind) and the 161x161 (J, Jz) grid at T = 2."""
    box = whole_box(11, 8192)
    box[2] = 0.0
    box[2, ::2] = -0.0
    axis = np.linspace(-20.0, 20.0, 161)
    J, Jz = np.meshgrid(axis, axis, indexing="ij")
    grid = np.vstack([J.ravel(), Jz.ravel(), np.zeros(J.size), np.full(J.size, 2.0)])
    for rows in (box, grid):
        cells = ThermalBatch(*rows)
        assert scre_published(cells).tobytes() == scre_closed(cells).tobytes()
    for cell in box[:, :5].T:
        point = SpinParams(*cell)
        assert scre_published(point) == scre_closed(point)


# 50 significant digits, and an exponent range that holds e^{-1e6}
WIDE = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def printed_scre_reference(cell) -> Decimal:
    """SCREpaper's five printed terms, as in scre_published's docstring, of
    one cell, summed at 50 significant digits.

    The entries are conftest's 60-digit decimal X state; the logarithms
    are base 2, with 0 log 0 = 0.  No term is rewritten through
    a + 2b + d = 1.
    """
    a, b, d, v, _ = decimal_xstate(*cell)
    with decimal.localcontext(WIDE):
        r = ((a - d) ** 2 + 4 * v * v).sqrt()
        ln2 = Decimal(2).ln()

        def xlog2x(q: Decimal) -> Decimal:
            return q * q.ln() / ln2 if q > 0 else Decimal(0)

        return (
            (xlog2x(1 - a - 2 * b + 3 * d) + xlog2x(1 + 3 * a - 2 * b - d)) / 4
            + xlog2x(1 - a + 2 * b - d) / 2
            + xlog2x(1 + r)
            + xlog2x(1 - r)
        )


@pytest.mark.parametrize("cells", [1, 4096])
def test_scre_published_tracks_the_printed_form(rng, cells):
    """SCREpaper against its printed five terms at 50 digits, in a stack or
    cell by cell, in absolute error.  Each set starts with signed-zero
    cells and B = 0 cells.  Worst measured over seeds 0-24 of 4,096 draws:
    1.6e-14 on small couplings and 1.4e-13 on box draws, at Jz/T near 2e3
    with |B| < T, where |00> and |11> lie lowest and the closed entries
    carry the rounding of exponents of that size (the printed terms read
    the same entries, so summing them term by term loses the same).
    """
    n = 4096 if cells > 1 else 400
    for name, draws, bound in (
        ("small", small_draws(rng, n), 3e-14),
        ("box", box_draws(rng, n), 3e-13),
    ):
        draws[:3] = ((0.0, -0.0, 0.0, 1.0), (-0.0, 0.0, -0.0, 2.0), (0.0, 0.0, -0.0, 1e-3))
        draws[3 : n // 8, 2] = 0.0
        if cells > 1:
            got = scre_published(ThermalBatch(*draws.T))
        else:
            got = [scre_published(SpinParams(*cell)) for cell in draws]
        with decimal.localcontext(WIDE):
            worst = max(
                abs(Decimal(float(value)) - printed_scre_reference(cell))
                for value, cell in zip(got, draws)
            )
        print(f"SCREpaper, {name} draws: worst {float(worst):.2e}, bound {bound:.0e}")
        assert worst <= bound, worst


def test_measures_even_in_coupling_sign(rng):
    cells = ThermalBatch.of(*(draw_params(rng) for _ in range(100)))
    flipped = ThermalBatch(-cells.J, cells.Jz, cells.B, cells.T)
    assert np.abs(scn_closed(cells) - scn_closed(flipped)).max() <= 1e-10
    assert np.abs(scre_closed(cells) - scre_closed(flipped)).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    j=st.floats(-20, 20),
    jz=st.floats(-20, 20),
    b=st.floats(-10, 10),
    t=st.floats(0.05, 10),
)
def test_steered_coherence_bounds(j, jz, b, t):
    p = SpinParams(J=j, Jz=jz, B=b, T=t)
    assert -1e-12 <= scn_closed(p) <= 3.0 + 1e-12
    assert -1e-12 <= scre_closed(p) <= 3.0 + 1e-12
