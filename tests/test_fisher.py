from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xxzsteer.fisher import (
    calibrate_observable,
    calibrated_observable,
    collective_observable,
    qfi_closed,
    qfi_published,
    qfi_spectral,
)
from xxzsteer.linalg import eig_hermitian
from xxzsteer.model import SpinParams, ThermalBatch, gibbs_closed
from xxzsteer.steering import PauliAxis

from conftest import (
    batch,
    draw_params,
    random_hermitian,
    random_pure_density,
    random_unitary,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[1:3, 1:3] = 0.5

KET00 = np.zeros((4, 4), dtype=complex)
KET00[0, 0] = 1.0

OX = collective_observable(PauliAxis.X)
OY = collective_observable(PauliAxis.Y)
OZ = collective_observable(PauliAxis.Z)


# ----------------------------------------------------------- observables

def test_collective_z_matrix():
    assert np.allclose(OZ, np.diag([1.0, 0.0, 0.0, -1.0]))


def test_collective_x_matrix():
    expect = np.zeros((4, 4))
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        expect[i, j] = expect[j, i] = 0.5
    assert np.allclose(OX, expect)


def test_collective_spectra():
    for obs in (OX, OY, OZ):
        vals = eig_hermitian(obs).values
        assert np.abs(vals - np.array([-1.0, 0.0, 0.0, 1.0])).max() <= 1e-12


# ------------------------------------------------------------- spectral

def test_qfi_maximally_mixed_is_zero():
    assert qfi_spectral(np.eye(4, dtype=complex) / 4, OX) == 0.0


def test_qfi_bell_state_reaches_four():
    assert abs(qfi_spectral(BELL, OX) - 4.0) <= 1e-12


def test_qfi_polarized_state_reaches_two():
    assert abs(qfi_spectral(KET00, OX) - 2.0) <= 1e-12


def test_qfi_pure_states_equal_four_variances(rng):
    for _ in range(100):
        rho = random_pure_density(rng, 4)
        obs = random_hermitian(rng, 4)
        mean = np.trace(rho @ obs).real
        second = np.trace(rho @ obs @ obs).real
        assert abs(qfi_spectral(rho, obs) - 4 * (second - mean**2)) <= 1e-9


def test_qfi_unitary_covariance(rng):
    for _ in range(50):
        rho = gibbs_closed(ThermalBatch.of(draw_params(rng)))[0]
        obs = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        rotated = qfi_spectral(u @ rho @ u.conj().T, u @ obs @ u.conj().T)
        assert abs(rotated - qfi_spectral(rho, obs)) <= 1e-9


def test_qfi_x_and_y_generators_agree_on_thermal_states(rng):
    rho = gibbs_closed(batch([draw_params(rng) for _ in range(100)]))
    assert np.abs(qfi_spectral(rho, OX) - qfi_spectral(rho, OY)).max() <= 1e-10


def test_qfi_rejects_invalid_state():
    with pytest.raises(ValueError, match="trace"):
        qfi_spectral(2 * BELL, OX)


# ------------------------------------------------------------ fast path

def test_qfi_closed_free_spins_is_zero():
    assert qfi_closed(SpinParams(0, 0, 0, 1)) == 0.0


def test_qfi_closed_bell_limit():
    assert abs(qfi_closed(SpinParams(10, 2, 0, 0.01)) - 4.0) <= 1e-3


def test_qfi_closed_matches_spectral_on_draws(rng):
    cells = batch([draw_params(rng) for _ in range(150)])
    rho = gibbs_closed(cells)
    spectral = qfi_spectral(rho, calibrated_observable(rho))
    assert np.abs(qfi_closed(cells) - spectral).max() <= 1e-8


def test_gauge_aligned_generator_keeps_qfi_even_in_j(rng):
    rho_p = gibbs_closed(ThermalBatch.of(SpinParams(10, 2, 0, 0.01)))[0]
    rho_m = gibbs_closed(ThermalBatch.of(SpinParams(-10, 2, 0, 0.01)))[0]
    assert np.array_equal(calibrated_observable(rho_p), OX)
    assert abs(qfi_spectral(rho_m, calibrated_observable(rho_m)) - 4.0) <= 1e-6
    # the fixed collective-X generator is blind to the singlet-like state
    assert qfi_spectral(rho_m, OX) <= 1e-6
    cells = batch([draw_params(rng) for _ in range(50)])
    flipped = ThermalBatch(-cells.J, cells.Jz, cells.B, cells.T)
    assert np.abs(qfi_closed(cells) - qfi_closed(flipped)).max() <= 1e-10


def test_qfi_bounds_on_draws(rng):
    qfi = qfi_closed(batch([draw_params(rng) for _ in range(200)]))
    assert -1e-12 <= qfi.min() and qfi.max() <= 4.0 + 1e-12


# ------------------------------------------------------- published ratio

def test_qfi_published_free_spins_is_zero():
    assert abs(qfi_published(SpinParams(0, 0, 0, 1))) <= 1e-14


def test_qfi_published_bell_limit_in_log_domain():
    val = qfi_published(SpinParams(10, 2, 0, 0.01))
    assert math.isfinite(val)
    assert abs(val - 4.0) <= 1e-3


def test_qfi_published_matches_definition_only_at_zero_field(rng):
    cells = batch([draw_params(rng, b=(0, 0)) for _ in range(60)])
    assert np.abs(qfi_published(cells) - qfi_closed(cells)).max() <= 1e-8
    cells = batch([draw_params(rng, b=(1, 10)) for _ in range(60)])
    worst = np.abs(qfi_published(cells) - qfi_closed(cells)).max()
    assert worst > 0.1


def test_qfi_published_even_in_coupling_sign(rng):
    for _ in range(50):
        p = draw_params(rng)
        q = SpinParams(-p.J, p.Jz, p.B, p.T)
        assert abs(qfi_published(p) - qfi_published(q)) <= 1e-10


# ----------------------------------------------------------- calibration

def test_calibration_fails_for_every_collective_candidate(rng):
    """The published ratio deviates from all six candidate generators.

    The minimizer is still reported, but nothing beats the threshold, so
    the canonical pair stays (qfi_closed, spectral with the gauge-aligned
    collective X) - which does meet a far tighter bound.
    """
    draws = [draw_params(rng) for _ in range(100)]
    report = calibrate_observable(draws)
    assert report.selected is None
    assert set(report.max_relative_deviation) == {
        "collective_x",
        "collective_y",
        "collective_z",
        "collective_x_unhalved",
        "collective_y_unhalved",
        "collective_z_unhalved",
    }
    for deviation in report.max_relative_deviation.values():
        assert deviation > report.threshold
    cells = batch(draws[:50])
    rho = gibbs_closed(cells)
    spectral = qfi_spectral(rho, calibrated_observable(rho))
    assert np.abs(qfi_closed(cells) - spectral).max() <= 1e-10


def test_calibration_report_script_runs():
    """The script feeds one batch of states and raw candidate matrices in."""
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    out = subprocess.run(
        [sys.executable, str(repo / "scripts" / "calibration_report.py"), "--draws", "5"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert "published ratio vs spectral QFI, 5 draws" in out
    assert out.count("[fail]") == 6
    assert "selected candidate: None" in out
    worst = float(out.rsplit("max |difference|", 1)[1])
    assert worst <= 1e-8
