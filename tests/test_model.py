from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xxzsteer import fisher, model, steering
from xxzsteer.linalg import PROBABILITY_TOL, binary_entropy, eig_hermitian
from xxzsteer.model import (
    COUPLING_MAX,
    T_FLOOR,
    SpinParams,
    ThermalBatch,
    check_entries,
    check_params,
    gibbs_closed,
    gibbs_spectral,
    hamiltonian,
)
from xxzsteer.steering import scn_closed

from conftest import batch, draw_params, spectral_log_z

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SZ_I = np.kron(SZ, I2)


def kron_built_hamiltonian(p):
    """Independent operator-sum oracle using numpy's kron directly."""
    h = -0.5 * (p.J * (np.kron(SX, SX) + np.kron(SY, SY)) + p.Jz * np.kron(SZ, SZ))
    return h - 0.5 * p.B * (np.kron(SZ, I2) + np.kron(I2, SZ))


def one_state(builder, p: SpinParams) -> np.ndarray:
    """The 4x4 density matrix that a construction route gives for one point."""
    return builder(ThermalBatch.of(p))[0]


def x_entries(rho: np.ndarray) -> tuple[float, float, float, float]:
    """(a, b, d, v) read off an X-state density matrix."""
    b = (rho[1, 1].real + rho[2, 2].real) / 2
    return rho[0, 0].real, b, rho[3, 3].real, (rho[1, 2] + rho[2, 1]).real / 2


# ----------------------------------------------------------- SpinParams

def test_params_reject_low_temperature():
    with pytest.raises(ValueError, match="T=0.0001"):
        SpinParams(J=1, Jz=1, B=1, T=1e-4)


def test_params_reject_large_couplings():
    with pytest.raises(ValueError, match="Jz"):
        SpinParams(J=1, Jz=2000, B=1, T=1)


def test_params_reject_non_finite():
    with pytest.raises(ValueError, match="B"):
        SpinParams(J=1, Jz=1, B=float("nan"), T=1)


def test_params_store_numpy_numbers_as_floats():
    p = SpinParams(np.int64(1), np.int32(-2), np.float32(0.5), np.int64(1))
    assert (p.J, p.Jz, p.B, p.T) == (1.0, -2.0, 0.5, 1.0)
    assert all(type(x) is float for x in (p.J, p.Jz, p.B, p.T))
    for bad in ("1", None):
        with pytest.raises(ValueError, match=f"^T={bad!r} is not a finite number$"):
            SpinParams(0, 0, 0, bad)


# ---------------------------------------------------------- Hamiltonian

def test_hamiltonian_zero():
    h = hamiltonian(ThermalBatch.of(SpinParams(0, 0, 0, 1)))
    assert np.array_equal(h, np.zeros((1, 4, 4)))


def test_hamiltonian_zeeman_only():
    h = hamiltonian(ThermalBatch.of(SpinParams(J=0, Jz=0, B=1, T=1)))[0]
    assert np.allclose(h, np.diag([-1.0, 0.0, 0.0, 1.0]))


def test_hamiltonian_isotropic_point():
    h = hamiltonian(ThermalBatch.of(SpinParams(J=1, Jz=1, B=1, T=1)))[0]
    expect = np.array(
        [
            [-1.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, -1.0, 0.0],
            [0.0, -1.0, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.5],
        ]
    )
    assert np.allclose(h, expect)
    assert np.abs(h.imag).max() == 0.0


def test_hamiltonian_matches_kron_oracle_on_draws(rng):
    points = [draw_params(rng, b=(-10, 10)) for _ in range(50)]
    h = hamiltonian(batch(points))
    assert h.shape == (50, 4, 4)
    for p, hp in zip(points, h):
        assert np.abs(hp - kron_built_hamiltonian(p)).max() <= 1e-13


# ---------------------------------------------------- partition function

def test_partition_function_free_spins():
    log_z = ThermalBatch.of(SpinParams(0, 0, 0, 1)).log_Z[0]
    assert abs(math.exp(log_z) - 4.0) <= 1e-14


def test_partition_function_isotropic_point():
    cells = ThermalBatch.of(SpinParams(1, 1, 1, 1))
    z = math.exp(cells.log_Z[0])
    assert abs(z - 4 * math.cosh(1.0) * math.cosh(0.5)) <= 1e-12
    evals = eig_hermitian(hamiltonian(cells)[0]).values
    assert abs(z - np.exp(-evals).sum()) <= 1e-10 * z


def test_partition_function_log_domain_stays_finite():
    """log Z stays finite where Z itself leaves double range."""
    log_z = ThermalBatch.of(SpinParams(J=10, Jz=2, B=0, T=0.01)).log_Z[0]
    assert math.isfinite(log_z)
    assert log_z > math.log(sys.float_info.max)


def test_partition_function_matches_eigenvalue_sum(rng):
    cells = batch([draw_params(rng, b=(-10, 10)) for _ in range(300)])
    assert np.abs(np.expm1(cells.log_Z - spectral_log_z(cells))).max() <= 1e-10


# ----------------------------------------------------------- Gibbs state

def test_gibbs_free_spins_is_maximally_mixed():
    for builder in (gibbs_closed, gibbs_spectral):
        rho = one_state(builder, SpinParams(0, 0, 0, 1))
        assert np.allclose(x_entries(rho), (0.25, 0.25, 0.25, 0.0), atol=1e-15)
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_gibbs_bell_limit():
    p = SpinParams(J=10, Jz=2, B=0, T=0.01)
    eig = eig_hermitian(hamiltonian(ThermalBatch.of(p))[0])
    ground = np.outer(eig.vectors[:, 0], eig.vectors[:, 0].conj())
    for builder in (gibbs_closed, gibbs_spectral):
        rho = one_state(builder, p)
        assert np.allclose(x_entries(rho), (0, 0.5, 0, 0.5), atol=1e-6)
        assert np.abs(rho - ground).max() <= 1e-6


def test_gibbs_polarized_limit():
    p = SpinParams(J=1, Jz=0, B=20, T=0.1)
    eig = eig_hermitian(hamiltonian(ThermalBatch.of(p))[0])
    ground = np.outer(eig.vectors[:, 0], eig.vectors[:, 0].conj())
    for builder in (gibbs_closed, gibbs_spectral):
        rho = one_state(builder, p)
        assert abs(x_entries(rho)[0] - 1.0) <= 1e-6
        assert np.abs(rho - ground).max() <= 1e-6


def test_gibbs_entries_match_printed_forms():
    cells = ThermalBatch.of(SpinParams(1, 1, 1, 1))
    a, b, d, v = (float(x[0]) for x in cells.entries())
    z = math.exp(cells.log_Z[0])
    assert abs(a - math.exp(1.5) / z) <= 1e-14
    assert abs(a - 0.6439) <= 1e-4
    assert abs(b - math.exp(-0.5) * math.cosh(1.0) / z) <= 1e-14
    assert abs(d - math.exp(-0.5) / z) <= 1e-14
    assert abs(v - math.exp(-0.5) * math.sinh(1.0) / z) <= 1e-14
    assert np.array_equal(gibbs_closed(cells)[0], np.array(
        [[a, 0, 0, 0], [0, b, v, 0], [0, v, b, 0], [0, 0, 0, d]], dtype=complex
    ))


def test_gibbs_negative_coupling_flips_v_only():
    ap, bp, dp, vp = ThermalBatch.of(SpinParams(10, 2, 0, 0.01)).entries()
    am, bm, dm, vm = ThermalBatch.of(SpinParams(-10, 2, 0, 0.01)).entries()
    assert abs(vp[0] - 0.5) <= 1e-6
    assert abs(vm[0] + 0.5) <= 1e-6
    assert abs(ap[0] - am[0]) <= 1e-15
    assert abs(bp[0] - bm[0]) <= 1e-15
    assert abs(dp[0] - dm[0]) <= 1e-15


def test_gibbs_closed_equals_spectral_bulk(rng):
    """1000 random draws: entrywise and partition-function agreement."""
    cells = batch([draw_params(rng, b=(-10, 10)) for _ in range(1000)])
    assert np.abs(gibbs_closed(cells) - gibbs_spectral(cells)).max() <= 1e-10
    assert np.abs(np.expm1(cells.log_Z - spectral_log_z(cells))).max() <= 1e-10


def test_gibbs_state_invariants_on_draws(rng):
    cells = batch([draw_params(rng, b=(-10, 10)) for _ in range(100)])
    number = np.diag([2.0, 0.0, 0.0, -2.0])
    for rho in gibbs_spectral(cells):
        a, b, d, v = x_entries(rho)
        assert abs(a + 2 * b + d - 1.0) <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(v) <= b + 1e-12
        assert eig_hermitian(rho).values.min() >= -1e-12
        assert np.linalg.norm(rho @ number - number @ rho) <= 1e-12


def test_sigma_z_conjugation_maps_j_to_minus_j(rng):
    cells = batch([draw_params(rng, b=(-10, 10)) for _ in range(100)])
    flipped = ThermalBatch(-cells.J, cells.Jz, cells.B, cells.T)
    lhs = SZ_I @ gibbs_closed(cells) @ SZ_I
    assert np.abs(lhs - gibbs_closed(flipped)).max() <= 1e-10


def test_degenerate_spectrum_is_deterministic():
    p = SpinParams(0, 0, 0, 0.5)
    assert np.array_equal(one_state(gibbs_spectral, p), one_state(gibbs_spectral, p))


def test_gibbs_state_rejects_inconsistent_entries():
    with pytest.raises(ValueError, match="a\\+2b\\+d"):
        check_entries(*np.array([[0.5], [0.5], [0.5], [0.0]]))
    with pytest.raises(ValueError, match="central block"):
        check_entries(*np.array([[0.25], [0.25], [0.25], [0.4]]))


@pytest.mark.parametrize(
    "cell, message",
    [
        ((np.nan, "x", 2e3, 0.0), "J=nan is not a finite number"),
        ((1.0, "x", np.inf, 1.0), "Jz='x' is not a finite number"),
        ((1.0, 0.0, -np.inf, np.nan), "B=-inf is not a finite number"),
        ((2e3, -2e3, 0.0, 0.0), "T=0.0 is below the supported floor 0.001"),
        ((1.0, -2e3, 3e3, 1.0), "|Jz|=2000.0 exceeds the supported bound 1000.0"),
    ],
)
def test_spin_params_reports_its_first_failing_clause(cell, message):
    with pytest.raises(ValueError) as err:
        SpinParams(*cell)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "entries, message",
    [
        ((2.0, -1.0, 2.0, 5.0), "Gibbs entry a=2.0 outside [0, 1] by more than 1e-12"),
        ((0.5, 0.25, -0.5, 5), "Gibbs entry d=-0.5 outside [0, 1] by more than 1e-12"),
        ((0.5, 0.5, 0.5, 5.0), "Gibbs entries violate a+2b+d=1 by 1.000e+00"),
        (
            (0.25, 0.25, 0.25, -0.4),
            "Gibbs coherence |v|=0.4 exceeds b=0.25: central block not positive "
            "semidefinite",
        ),
        (
            (0.25, 0.25, 0.25, np.nan),
            "Gibbs coherence |v|=nan exceeds b=0.25: central block not positive "
            "semidefinite",
        ),
    ],
)
def test_gibbs_state_reports_its_first_failing_clause(entries, message):
    with pytest.raises(ValueError) as err:
        check_entries(*np.array(entries, dtype=float)[:, None])
    assert str(err.value) == message


def test_batch_keeps_entries_only_after_their_check(monkeypatch):
    """A batch whose entries fail their check raises on every use, not once."""

    def rejecting(a, b, d, v):
        raise ValueError("entries rejected")

    monkeypatch.setattr(model, "check_entries", rejecting)
    cells = ThermalBatch.of(SpinParams(1, 1, 1, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="^entries rejected$"):
            scn_closed(cells)


@pytest.mark.parametrize(
    "module, name",
    [
        (steering, "scn_closed"),
        (steering, "scre_closed"),
        (steering, "scre_published"),
        (fisher, "qfi_closed"),
        (fisher, "qfi_published"),
    ],
)
def test_closed_form_gives_a_point_the_bits_of_its_cell(module, name, rng):
    """A point gives a float with the same bits as its cell in a batch."""
    measure = getattr(module, name)
    points = [draw_params(rng, b=(-10, 10)) for _ in range(30)]
    points += [SpinParams(j, jz, 0.0, 1.0) for j in (-2, 0, 2) for jz in (-1, 1)]
    values = measure(batch(points))
    assert isinstance(values, np.ndarray) and values.shape == (len(points),)
    for p, cell in zip(points, values):
        value = measure(p)
        assert type(value) is float
        assert np.float64(value).tobytes() == cell.tobytes(), (p, value, cell)


@settings(max_examples=40, deadline=None)
@given(
    j=st.floats(-20, 20),
    jz=st.floats(-20, 20),
    b=st.floats(-10, 10),
    t=st.floats(0.05, 10),
)
def test_construction_routes_agree_property(j, jz, b, t):
    cells = ThermalBatch.of(SpinParams(J=j, Jz=jz, B=b, T=t))
    assert np.abs(gibbs_closed(cells) - gibbs_spectral(cells)).max() <= 1e-10


# ------------------------------------------ stacked checks vs one cell alone

def _around(x: float) -> list[float]:
    """x and the doubles on either side of it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


_NON_FINITE = [np.nan, np.inf, -np.inf]


def _vary(base: tuple, values: list[list[float]]) -> np.ndarray:
    """Cells equal to `base` but in one position, one row per cell."""
    cells = []
    for k, column in enumerate(values):
        for x in column:
            cell = list(base)
            cell[k] = x
            cells.append(cell)
    return np.array(cells)


def _param_cells() -> np.ndarray:
    coupling = _around(COUPLING_MAX) + _around(-COUPLING_MAX) + [0.0] + _NON_FINITE
    temperature = _around(T_FLOOR) + [0.0, -1.0, 1e6] + _NON_FINITE
    cells = _vary((1.0, -0.5, 2.0, 1.0), [coupling] * 3 + [temperature])
    # several clauses failing at once: the first in clause order is reported
    mixed = [
        (np.nan, np.inf, 2e3, 0.0),
        (2e3, np.nan, 0.0, -1.0),
        (2e3, -2e3, 0.0, 0.0),
    ]
    return np.concatenate((cells, mixed))


def _entry_cells() -> np.ndarray:
    tol = PROBABILITY_TOL
    bounds = _around(-tol) + _around(1.0 + tol) + _NON_FINITE
    # a + 2b + d - 1 on either side of the tolerance
    norm = [0.25 + tol + k * 2.0**-54 for k in range(-40, 41, 4)]
    norm += [0.25 - tol + k * 2.0**-54 for k in range(-40, 41, 4)]
    coherence = _around(0.25 + tol) + _around(-0.25 - tol) + _NON_FINITE
    return _vary((0.25, 0.25, 0.25, 0.1), [bounds + norm, bounds, bounds, coherence])


def _entropy_cells() -> np.ndarray:
    tol = PROBABILITY_TOL
    values = _around(-tol) + _around(1.0 + tol) + [0.0, 0.5, 1.0] + _NON_FINITE
    return np.array(values)[:, None]


def _message(check, *args) -> str | None:
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "scalar, stacked, cells, passing",
    [
        (
            SpinParams,
            lambda *rows: check_params(np.array(rows)),
            _param_cells(),
            (1.0, -0.5, 2.0, 1.0),
        ),
        (
            lambda *cell: check_entries(*np.array(cell)[:, None]),
            check_entries,
            _entry_cells(),
            (0.25, 0.25, 0.25, 0.1),
        ),
        (binary_entropy, binary_entropy, _entropy_cells(), (0.5,)),
    ],
    ids=["SpinParams", "check_entries", "binary_entropy"],
)
def test_array_checks_reject_what_scalar_checks_reject(scalar, stacked, cells, passing):
    """Each edge cell, after passing cells in a stack, raises as it does alone."""
    alone = [_message(scalar, *(float(x) for x in cell)) for cell in cells]
    assert any(alone) and not all(alone)
    for cell, want in zip(cells, alone):
        stack = np.array([passing] * 3 + [cell])
        assert _message(stacked, *stack.T) == want, cell
        assert want is None or "np.float64" not in want, want
    # the first failing cell wins over a later cell's earlier clause
    assert _message(stacked, *cells.T) == next(m for m in alone if m)
