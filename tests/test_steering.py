from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xxzsteer.linalg import validate_density_matrix
from xxzsteer.model import SpinParams, ThermalBatch, gibbs_closed
from xxzsteer.steering import (
    _BASES,
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

from conftest import batch, draw_params, xstate

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
    ens = steer(BELL, PauliAxis.Z)
    assert abs(ens.entries[0].probability - 0.5) <= 1e-14
    assert abs(ens.entries[1].probability - 0.5) <= 1e-14
    assert np.allclose(ens.entries[0].state, np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(ens.entries[1].state, np.diag([1.0, 0.0]), atol=1e-14)


def test_steer_product_state_leaves_bob_alone():
    ens = steer(KET00, PauliAxis.X)
    for entry in ens.entries:
        assert abs(entry.probability - 0.5) <= 1e-14
        assert np.allclose(entry.state, np.diag([1.0, 0.0]), atol=1e-14)


def test_steer_thermal_state_bloch_vectors():
    """X-axis steering of the X state gives Bloch vectors (+-2v, 0, a-d)."""
    cells = ThermalBatch.of(SpinParams(1, 1, 1, 1))
    a, _, d, v = (float(x[0]) for x in cells.entries())
    ens = steer(gibbs_closed(cells)[0], PauliAxis.X)
    for entry, sign in zip(ens.entries, (1.0, -1.0)):
        nx = 2 * float(entry.state[0, 1].real)
        ny = -2 * float(entry.state[0, 1].imag)
        nz = float((entry.state[0, 0] - entry.state[1, 1]).real)
        assert abs(entry.probability - 0.5) <= 1e-14
        assert abs(nx - sign * 2 * v) <= 1e-13
        assert abs(ny) <= 1e-13
        assert abs(nz - (a - d)) <= 1e-13


def test_steer_zero_probability_outcome_uses_maximally_mixed():
    ens = steer(KET00, PauliAxis.Z)
    assert abs(ens.entries[0].probability - 1.0) <= 1e-14
    assert ens.entries[1].probability <= 1e-12
    assert np.allclose(ens.entries[1].state, I2 / 2)


def test_steer_rejects_invalid_state():
    with pytest.raises(ValueError, match="trace"):
        steer(2 * BELL, PauliAxis.Z)


def test_steer_ensembles_are_valid_on_draws(rng):
    for rho in gibbs_closed(batch([draw_params(rng) for _ in range(25)])):
        for axis in PauliAxis:
            ens = steer(rho, axis)
            total = sum(e.probability for e in ens.entries)
            assert abs(total - 1.0) <= 1e-12
            for entry in ens.entries:
                if entry.probability > 1e-12:
                    validate_density_matrix(entry.state)


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


# ------------------------------------------------------ steered average

def test_sqc_maximally_mixed_is_zero():
    rho = np.eye(4, dtype=complex) / 4
    assert sqc_direct(rho, CoherenceKind.L1) <= 1e-14
    assert sqc_direct(rho, CoherenceKind.RELATIVE_ENTROPY) <= 1e-14


def test_sqc_bell_state_l1_reaches_three():
    assert abs(sqc_direct(BELL, CoherenceKind.L1) - 3.0) <= 1e-12


def test_sqc_product_state_relative_entropy_reaches_two():
    assert abs(sqc_direct(KET00, CoherenceKind.RELATIVE_ENTROPY) - 2.0) <= 1e-12


def test_sqc_invariant_under_v_flip(rng):
    """Conjugation by sigma_z ox I only permutes Alice's X/Y outcome labels."""
    rho = gibbs_closed(batch([draw_params(rng) for _ in range(25)]))
    flipped = SZ_I @ rho @ SZ_I
    for kind in CoherenceKind:
        assert np.abs(sqc_direct(rho, kind) - sqc_direct(flipped, kind)).max() <= 1e-12


# ---------------------------------------------------------- fast paths

def test_scn_closed_examples():
    assert scn_closed(xstate(0.25, 0.25, 0.25, 0.0))[0] == 0.0
    assert scn_closed(xstate(0.0, 0.5, 0.0, 0.5))[0] == 3.0


def test_scn_closed_matches_direct_average(rng):
    cells = batch([draw_params(rng) for _ in range(120)])
    direct = sqc_direct(gibbs_closed(cells), CoherenceKind.L1)
    assert np.abs(scn_closed(cells) - direct).max() <= 1e-10


def test_scre_closed_examples():
    assert scre_closed(xstate(0.25, 0.25, 0.25, 0.0))[0] == 0.0
    assert abs(scre_closed(xstate(0.0, 0.5, 0.0, 0.5))[0] - 3.0) <= 1e-14
    assert abs(scre_closed(xstate(1.0, 0.0, 0.0, 0.0))[0] - 2.0) <= 1e-14


def test_scre_closed_matches_direct_average(rng):
    cells = batch([draw_params(rng) for _ in range(120)])
    direct = sqc_direct(gibbs_closed(cells), CoherenceKind.RELATIVE_ENTROPY)
    assert np.abs(scre_closed(cells) - direct).max() <= 1e-10


def test_scre_published_examples():
    assert scre_published(xstate(0.25, 0.25, 0.25, 0.0))[0] == 0.0
    assert abs(scre_published(xstate(0.0, 0.5, 0.0, 0.5))[0] - 3.0) <= 1e-14
    # the printed expression overshoots the definition on the polarized state
    assert abs(scre_published(xstate(1.0, 0.0, 0.0, 0.0))[0] - 4.0) <= 1e-14
    assert abs(sqc_direct(KET00, CoherenceKind.RELATIVE_ENTROPY) - 2.0) <= 1e-12


def test_scre_published_agrees_only_at_zero_field(rng):
    cells = batch([draw_params(rng, b=(0, 0)) for _ in range(50)])
    assert np.abs(scre_published(cells) - scre_closed(cells)).max() <= 1e-10
    cells = batch([draw_params(rng, b=(1, 10)) for _ in range(50)])
    worst = np.abs(scre_published(cells) - scre_closed(cells)).max()
    assert worst > 0.1


def test_measures_even_in_coupling_sign(rng):
    cells = batch([draw_params(rng) for _ in range(100)])
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
