"""Properties the reference must have, checked without xxzsteer.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402


def test_bell_limit_anchor():
    m = reference.measures(10, 2, 0, 0.01)
    assert m["SCn"] == pytest.approx(3.0, abs=1e-10)
    assert m["SCRE"] == pytest.approx(3.0, abs=1e-10)
    assert m["QFI"] == pytest.approx(4.0, abs=1e-10)


def test_polarized_plateau():
    m = reference.measures(1, 0, 20, 0.1)
    for name in ("SCn", "SCRE", "QFI"):
        assert m[name] == pytest.approx(2.0, abs=1e-10), name


def test_high_temperature_l1_law():
    m = reference.measures(1, 1, 1, 100)
    assert 100 * m["SCn"] == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-3)


def test_free_spins_are_incoherent():
    m = reference.measures(0, 0, 0, 1)
    assert max(m.values()) <= 1e-12


def test_bounds_and_j_reflection_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(200):
        J, Jz, B = rng.uniform(-20, 20, 3)
        T = float(np.exp(rng.uniform(np.log(1e-2), np.log(10))))
        m = reference.measures(J, Jz, B, T)
        mirrored = reference.measures(-J, Jz, B, T)
        assert -1e-12 <= m["SCn"] <= 3 + 1e-12
        assert -1e-12 <= m["SCRE"] <= 3 + 1e-12
        assert -1e-12 <= m["QFI"] <= 4 + 1e-12
        for name, value in m.items():
            assert mirrored[name] == pytest.approx(value, abs=1e-10), name


def test_gibbs_state_is_a_unit_trace_x_state():
    rho = reference.gibbs(0.7, -1.3, 0.4, 0.9)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    mask = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)):
        mask[i, j] = True
    assert np.abs(rho[~mask]).max() <= 1e-14
    assert np.linalg.eigvalsh(rho).min() >= -1e-14
