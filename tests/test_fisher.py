from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from xxzsteer import fisher
from xxzsteer.fisher import (
    PAIR_FLOOR,
    calibrated_observable,
    collective_observable,
    qfi_closed,
    qfi_published,
    qfi_spectral,
)
from xxzsteer.linalg import dagger, eig_hermitian, validate_density_matrix
from xxzsteer.model import (
    ParameterRegimeError,
    SpinParams,
    ThermalBatch,
    gibbs_closed,
    gibbs_spectral,
)
from xxzsteer.steering import PauliAxis
from xxzsteer.sweep import evaluate_point

from conftest import (
    box_draws,
    draw_params,
    random_density,
    random_hermitian,
    random_pure_density,
    random_unitary,
    small_draws,
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


def test_collective_observable_with_a_wrong_spectrum_is_a_runtime_error(monkeypatch):
    def shifted(m):
        eig = eig_hermitian(m)
        return type(eig)(values=eig.values + 1e-6, vectors=eig.vectors)

    monkeypatch.setattr(fisher, "eig_hermitian", shifted)
    with pytest.raises(RuntimeError, match=r"spectrum .* is not \(-1, 0, 0, 1\)$"):
        collective_observable(PauliAxis.X)


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


@pytest.mark.parametrize(
    "generator, factor",
    [(OY, 1.0), (OZ, 0.0), (2 * OX, 4.0), (2 * OY, 4.0), (2 * OZ, 0.0)],
    ids=["y", "z", "x_unhalved", "y_unhalved", "z_unhalved"],
)
def test_qfi_of_each_collective_generator_on_thermal_states(rng, generator, factor):
    """On thermal states each collective generator gives a fixed multiple of
    the collective-X QFI: Y gives what X gives, Z gives 0 (the state
    commutes with the total S_z), and without the 1/2 each gives 4 times as
    much (the QFI is quadratic in the generator).  So no fixed collective
    generator reproduces QFIclosed away from B = 0."""
    rho = gibbs_closed(ThermalBatch.of(*(draw_params(rng) for _ in range(100))))
    want = factor * qfi_spectral(rho, OX)
    assert np.abs(qfi_spectral(rho, generator) - want).max() <= 1e-10


def test_qfi_rejects_invalid_state():
    with pytest.raises(ValueError, match="trace"):
        qfi_spectral(2 * BELL, OX)


# ------------------------------------------------------------ fast path

def test_qfi_closed_free_spins_is_zero():
    assert qfi_closed(SpinParams(0, 0, 0, 1)) == 0.0


def test_qfi_closed_bell_limit():
    assert abs(qfi_closed(SpinParams(10, 2, 0, 0.01)) - 4.0) <= 1e-3


def test_qfi_closed_matches_spectral_on_draws(rng):
    cells = ThermalBatch.of(*(draw_params(rng) for _ in range(150)))
    rho = gibbs_closed(cells)
    spectral = qfi_spectral(rho, calibrated_observable(rho))
    assert np.abs(qfi_closed(cells) - spectral).max() <= 1e-10


def test_qfi_spectral_sums_its_pair_terms_from_zero_m_major(rng):
    """The 16 pair terms of each state are one left fold from 0.0, pair
    (m, k) in m-major order, so any other order (a numpy reduction, whose
    order depends on the stack) shows in the bits of a random stack."""
    eig = validate_density_matrix(np.array([random_density(rng, 4) for _ in range(256)]))
    obs = random_hermitian(rng, 4)
    weight = np.abs(dagger(eig.vectors) @ obs @ eig.vectors) ** 2
    total = 0.0
    for m in range(4):
        for k in range(4):
            pm, pk = eig.values[:, m], eig.values[:, k]
            s = pm + pk
            kept = s > PAIR_FLOOR
            term = (pm - pk) * (pm - pk) / np.where(kept, s, 1.0) * weight[:, m, k]
            total = total + np.where(kept, term, 0.0)
    assert qfi_spectral(eig, obs).tobytes() == (2.0 * total).tobytes()


def test_gauge_aligned_generator_keeps_qfi_even_in_j(rng):
    rho_p = gibbs_closed(ThermalBatch.of(SpinParams(10, 2, 0, 0.01)))[0]
    rho_m = gibbs_closed(ThermalBatch.of(SpinParams(-10, 2, 0, 0.01)))[0]
    assert np.array_equal(calibrated_observable(rho_p), OX)
    assert abs(qfi_spectral(rho_m, calibrated_observable(rho_m)) - 4.0) <= 1e-6
    # the fixed collective-X generator is blind to the singlet-like state
    assert qfi_spectral(rho_m, OX) <= 1e-6
    cells = ThermalBatch.of(*(draw_params(rng) for _ in range(50)))
    flipped = ThermalBatch(-cells.J, cells.Jz, cells.B, cells.T)
    assert np.abs(qfi_closed(cells) - qfi_closed(flipped)).max() <= 1e-10


def test_qfi_bounds_on_draws(rng):
    qfi = qfi_closed(ThermalBatch.of(*(draw_params(rng) for _ in range(200))))
    assert -1e-12 <= qfi.min() and qfi.max() <= 4.0 + 1e-12


def test_qfi_closed_drops_only_a_zero_pair_weight():
    """Each term 2(c - p)^2/(c + p) is at most twice its weight c + p, so the
    closed QFI needs no floor; it drops a term only where its weight is
    exactly 0, an exact 0/0.

    The first cell has a + p = 7.3e-13: flooring it at PAIR_FLOOR cost
    1.5e-12, against its 50-digit value 1.99999999999561845.  The other
    cells are fully polarized, so one weight is exactly 0, and give 2 with
    no warning, in a stack and each alone.
    """
    point = SpinParams(
        -2.0604601983630366, 4.085108274267331, -4.5818425071254385, 0.23640704770509818
    )
    assert abs(qfi_closed(point) - 1.9999999999956184) <= 1e-14
    polarized = [(0.0, 1000.0, 1.0, 1e-3), (0.0, 1000.0, -1.0, 1e-3), (0.5, 1000.0, 2.0, 1e-3)]
    cells = ThermalBatch(*np.array(polarized).T)
    a, b, d, v = cells.entries()
    p = b + np.abs(v)
    assert np.all((a + p == 0.0) | (d + p == 0.0))
    assert qfi_closed(cells).tolist() == [2.0] * len(polarized)
    assert [qfi_closed(SpinParams(*cell)) for cell in polarized] == [2.0] * len(polarized)


# ------------------------------------------------------- published ratio

@pytest.mark.parametrize(
    "J, Jz, T",
    [(1, 1, 0.1), (3, 3, 2), (-2, 2, 50), (0.5, 0.5, 1e-3), (1e3, 1e3, 1e3),
     (-7, 7, 0.37)],
)
def test_qfi_vanishes_on_the_isotropic_zero_field_line(J, Jz, T):
    """At B = 0 and Jz = |J| the state commutes with the generator, so the
    QFI is 0 at every temperature, on both engines.  The largest value on
    these points is 1.2e-30 (the oracle at J = -7, T = 0.37)."""
    record = evaluate_point(SpinParams(J, Jz, 0, T), ("QFI",), "both")["QFI"]
    assert max(abs(record.oracle), abs(record.closed)) <= 1e-28, record


def test_qfi_published_free_spins_is_zero():
    assert abs(qfi_published(SpinParams(0, 0, 0, 1))) <= 1e-14


def test_qfi_published_bell_limit_in_log_domain():
    val = qfi_published(SpinParams(10, 2, 0, 0.01))
    assert math.isfinite(val)
    assert abs(val - 4.0) <= 1e-3


def test_qfi_published_even_in_coupling_sign(rng):
    for _ in range(50):
        p = draw_params(rng)
        q = SpinParams(-p.J, p.Jz, p.B, p.T)
        assert abs(qfi_published(p) - qfi_published(q)) <= 1e-10


# The published ratio's (J, Jz, B, T) inputs that leave double range, as the
# benchmark's `points` workload draws them: the first inside the box, the
# second its corner.
OVERFLOW_POINTS = (
    (1.0, 0.0, 1.0, 1e-3),
    (1e3, -1e3, 1e3, 1e-3),
    (877.2, -732.0, 659.6, 0.1188),
    (289.5, -494.2, 945.5, 0.0137),
    (279.6, -379.0, 134.3, 0.1286),
    (916.9, -158.8, 362.6, 0.00937),
    (202.1, -384.9, 614.3, 0.3377),
    (989.1, -21.58, 404.2, 0.001627),
    (27.65, -465.5, 22.82, 0.006911),
    (-648.5, -755.8, 694.0, 0.191),
    (894.6, -446.4, 183.3, 0.001187),
    (734.8, -604.5, 420.9, 0.005308),
    (820.0, 102.2, 271.2, 0.02309),
)


def regime_error(cells: ThermalBatch) -> str | None:
    try:
        qfi_published(cells)
    except ParameterRegimeError as exc:
        return str(exc)
    return None


def overflow_message(cells: ThermalBatch, i: int) -> str:
    return f"published QFI ratio overflows double precision at {cells.describe(i)}"


# Wide enough for e^{3|J|/T} at |J|/T = 10**6.
WIDE = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
LARGEST = Decimal(np.finfo(float).max)


def published_reference(cell) -> tuple[Decimal, Decimal]:
    """QFIclosed = m/n and the field term 2 u^3 (y^2 - y)/n of one cell.

    Evaluated at 50 significant digits from the cell's (J, Jz, B, T) floats,
    with x, y, u, m and n as in qfi_published's docstring.
    """
    J, Jz, B, T = (Decimal(float(value)) for value in cell)
    with decimal.localcontext(WIDE):
        x, y, u = (Jz / T).exp(), (B / T).exp(), (abs(J) / T).exp()
        m = (
            x * x * u * (1 / y - 4 * y + y**3) - x * u * u * (y * y + 1)
            + 2 * y * y * u**3 + x**3 * (y * y + 1)
        )
        n = (x * (y + 1 / y) / 2 + (u + 1 / u) / 2) * (u + x * y) * (y * u + x)
        return m / n, 2 * u**3 * (y * y - y) / n


def scaled_error(got: float, ratio: Decimal) -> Decimal:
    """|got - m/n| / max(1, |m/n|)."""
    with decimal.localcontext(WIDE):
        return abs(Decimal(float(got)) - ratio) / max(1, abs(ratio))


@pytest.mark.parametrize("cells", [1, 4096])
def test_qfi_published_tracks_the_printed_ratio(rng, cells):
    """QFIclosed against the 50-digit printed m/n, in a stack or cell by cell.

    A cell raises exactly where |m/n| exceeds the largest double, and
    elsewhere is within the bound of m/n in |error| / max(1, |m/n|).  Each
    set starts with signed-zero cells and B = 0 cells.  Worst measured over
    seeds 0-24 of 4,096 draws: 7.5e-15 on small couplings and 8.2e-11 on
    box draws, where B/T is near 5e5 and the field term's exponent carries
    the rounding of B/T, Jz/T and |J|/T.
    """
    n = 4096 if cells > 1 else 400
    for name, draws, bound in (
        ("small", small_draws(rng, n), 2e-14),
        ("box", box_draws(rng, n), 2e-10),
    ):
        draws[:3] = ((0.0, -0.0, 0.0, 1.0), (-0.0, 0.0, -0.0, 2.0), (0.0, 0.0, -0.0, 1e-3))
        draws[3 : n // 8, 2] = 0.0
        ratios = [published_reference(cell)[0] for cell in draws]
        fits = np.array([abs(ratio) <= LARGEST for ratio in ratios])
        if cells > 1:
            got = qfi_published(ThermalBatch(*draws[fits].T))
        else:
            got = [qfi_published(SpinParams(*cell)) for cell in draws[fits]]
        worst = max(map(scaled_error, got, np.array(ratios, object)[fits]))
        print(f"QFIclosed, {name} draws: worst {float(worst):.2e}, bound {bound:.0e}")
        assert worst <= bound, worst
        for cell in draws[~fits]:
            alone = ThermalBatch(*cell[:, None])
            assert regime_error(alone) == overflow_message(alone, 0)
    assert not fits.all()


def test_qfi_published_overflow_names_the_first_cell_as_before(rng):
    for point in OVERFLOW_POINTS:
        assert abs(published_reference(point)[0]) > LARGEST
        cells = ThermalBatch.of(SpinParams(*point))
        assert regime_error(cells) == overflow_message(cells, 0)
    inside = box_draws(rng, 64)
    inside = inside[[abs(published_reference(cell)[0]) <= LARGEST for cell in inside]]
    for k in range(len(OVERFLOW_POINTS)):
        draws = np.vstack((inside[:k], OVERFLOW_POINTS[k:], inside[k:]))
        cells = ThermalBatch(*draws.T)
        assert regime_error(cells) == overflow_message(cells, k)


def test_qfi_published_has_the_bits_of_qfi_at_zero_field(rng):
    """At B = +-0 the field term is exactly 0, so QFIclosed is QFI to the bit,
    from the kernel both share.  The first cell sits on the J face at low T,
    where summing the printed form term by term loses about 1e6 ulps
    (3.4e-10 from the oracle).
    """
    draws = box_draws(rng, 4096)
    draws[:, 2] = 0.0
    draws[::2, 2] = -0.0
    draws[0] = (-1000.0, 2.455252, 0.0, 3.16751239e-3)
    cells = ThermalBatch(*draws.T)
    assert qfi_published(cells).tobytes() == qfi_closed(cells).tobytes()
    point = SpinParams(*draws[0])
    assert qfi_published(point) == qfi_closed(point)
    assert abs(qfi_published(point) - 4.0) <= 1e-14


def test_qfi_published_matches_definition_only_at_zero_field(rng):
    """QFIclosed - QFI = 2 u^3 (y^2 - y)/n exactly, on both engines' QFI.

    The printed numerator carries 2 y^2 u^3 where the X-state reduction
    carries 2 y u^3, and the difference vanishes exactly when B = 0.  The
    right-hand side is a 50-digit reference; the cells where QFIclosed
    leaves double range, by that reference, are dropped.  Worst measured
    over seeds 0-19, in max(1, |QFIclosed|): on the small-coupling draws
    4.6e-15 with the closed QFI and 2.4e-13 with the spectral one, a pair
    term below the spectral sum's floor that the printed ratio keeps; on
    the box draws 6.9e-12 with either.
    """
    small = small_draws(rng, 1000)
    small[:100, 2] = 0.0
    for draws, bound in ((small, 2e-12), (box_draws(rng, 1000), 3e-9)):
        reference = [published_reference(cell) for cell in draws]
        fits = np.array([abs(ratio) < 1e300 for ratio, _ in reference])
        terms = [term for (_, term), ok in zip(reference, fits) if ok]
        draws = draws[fits]
        assert [term == 0 for term in terms] == list(draws[:, 2] == 0)
        cells = ThermalBatch(*draws.T)
        published = qfi_published(cells)
        rho = gibbs_spectral(cells)
        for qfi in (qfi_closed(cells), qfi_spectral(rho, calibrated_observable(rho))):
            with decimal.localcontext(WIDE):
                worst = max(
                    abs(Decimal(got) - Decimal(q) - term) / max(1, abs(Decimal(got)))
                    for got, q, term in zip(published, qfi, terms)
                )
            assert worst <= bound, worst
