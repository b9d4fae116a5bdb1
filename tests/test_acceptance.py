"""Acceptance suite: every check pins its tolerance and prints one
pass/fail line (run with ``pytest -s`` to see the lines as they go).

Check index:

  A1  Bell-limit anchors: SCn = SCRE = 3, QFI = 4 at (J=10, Jz=2, B=0, T=0.01)
  A2  Polarized plateau: all three measures = 2 at (J=1, Jz=0, B=20, T=0.1)
  A3  High-temperature decay at (J, Jz, B) = (1, 1, 1): SCn = (1 + 1/sqrt2)/T,
      SCRE and QFI ~ 1/T^2 and <= 1e-2 at T=100; the exact free-spin zero
  A4  Closed forms track the definitional averages over 1000 random draws,
      and over the whole 161x161 (J, Jz) grid at T=2, B=1 and B=0
  A5  Closed and spectral state constructions agree over the same draws
  A6  All three measures are even in J
  A7  SCn grid maxima near 3 and the low-coherence zone grows with B
  A8  SCn grooves at J = +-1 on the B=1, Jz=0, T=0.1 line
  A9  SCn never increases with temperature at strong transverse coupling
  A10 The published SCRE closed form holds exactly on (and only on) B=0
  A11 Bounds, generator equivalences, covariance, pure-state variance law
  A12 Byte-identical sweeps across --jobs values; CSV round trip
  A13 SCRE and QFI share SCn's grooves (A8) and its fall with T (A9)

A3 pins the rate at which each measure vanishes in the nearly mixed state
rho = (1 - H/T)/4 + O(T^-2).  The conditional Bloch vectors of Bob are
O(1/T): (+-J, 0, B)/2T after Alice measures x (likewise y) and
(0, 0, B +- Jz)/2T after z.  The l1 coherence is linear in them, so
SCn = (1 + 1/sqrt(2))/T - O(T^-3) at (1, 1, 1), which is 0.01707 at T=100;
the entropic SCRE (5/(8 ln 2)/T^2) and the QFI (about 0.5/T^2) are
quadratic.  A3 therefore checks T*SCn against 1 + 1/sqrt(2), SCRE and QFI
against 1e-2 at T=100, and the decay order from T=100 to T=200 (SCn
halves, SCRE and QFI quarter) on the values of both engines, which must
agree there to the A4 bounds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from xxzsteer.fisher import (
    calibrated_observable,
    collective_observable,
    qfi_closed,
    qfi_spectral,
)
from xxzsteer.model import SpinParams, ThermalBatch, gibbs_closed, gibbs_spectral
from xxzsteer.steering import (
    CoherenceKind,
    PauliAxis,
    scn_closed,
    scre_closed,
    scre_published,
    sqc_direct,
)
from xxzsteer.sweep import (
    MEASURES,
    AxisSpec,
    SweepSpec,
    evaluate_point,
    read_csv,
    run_sweep,
    write_csv,
)

from conftest import (
    batch,
    draw_params,
    random_hermitian,
    random_pure_density,
    random_unitary,
    spectral_log_z,
)

BELL_POINT = SpinParams(J=10, Jz=2, B=0, T=0.01)
POLARIZED_POINT = SpinParams(J=1, Jz=0, B=20, T=0.1)


def check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def prominent_minima(values: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local minima of `values` with at least this prominence.

    A flat run of equal values that is lower than both its neighbours is one
    minimum, at its middle index; the ends of the array are never minima.
    A minimum's prominence is the smaller of its rises to the highest value
    on each side before a lower value (or the end of the array).  This is
    scipy.signal.find_peaks(-values, prominence=prominence)[0].
    """
    x = -np.asarray(values, dtype=float)
    n = len(x)
    found = []
    i = 1
    while i < n - 1:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < n - 1 and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                found.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    kept = []
    for p in found:
        higher = np.flatnonzero(x[:p] > x[p])
        left = x[(higher[-1] + 1 if higher.size else 0) : p + 1].min()
        higher = np.flatnonzero(x[p + 1 :] > x[p])
        right = x[p : (p + 1 + higher[0] if higher.size else n)].min()
        if x[p] - max(left, right) >= prominence:
            kept.append(p)
    return np.array(kept, dtype=int)


@pytest.fixture(scope="module")
def bulk():
    """1000 seeded draws (J, Jz in [-20,20], B in [0,10], T in [0.05,10])
    as one batch, with every per-draw quantity the bulk checks need,
    computed once."""
    rng = np.random.default_rng(424242)
    cells = batch([draw_params(rng) for _ in range(1000)])
    rho = gibbs_closed(cells)
    return {
        "rho": rho,
        "scn_closed": scn_closed(cells),
        "scre_closed": scre_closed(cells),
        "qfi_closed": qfi_closed(cells),
        "sqc_l1": sqc_direct(rho, CoherenceKind.L1),
        "sqc_re": sqc_direct(rho, CoherenceKind.RELATIVE_ENTROPY),
        "qfi_spectral": qfi_spectral(rho, calibrated_observable(rho)),
        "entry_diff": np.abs(rho - gibbs_spectral(cells)).max(axis=(1, 2)),
        # log Z of the closed route against the Hamiltonian's eigenvalues
        "z_rel": np.abs(np.expm1(cells.log_Z - spectral_log_z(cells))),
    }


def test_a1_bell_limit_anchors():
    rec = evaluate_point(BELL_POINT, ("SCn", "SCRE", "QFI"), "both")
    targets = {"SCn": 3.0, "SCRE": 3.0, "QFI": 4.0}
    worst = max(
        max(abs(rec[m].oracle - t), abs(rec[m].closed - t))
        for m, t in targets.items()
    )
    check(
        "A1 Bell-limit anchors",
        worst <= 1e-3,
        f"SCn={rec['SCn'].closed:.6f} SCRE={rec['SCRE'].closed:.6f} "
        f"QFI={rec['QFI'].closed:.6f} (worst deviation {worst:.2e}, bound 1e-3)",
    )


def test_a2_polarized_plateau():
    rec = evaluate_point(POLARIZED_POINT, ("SCn", "SCRE", "QFI"), "both")
    worst = max(
        max(abs(rec[m].oracle - 2.0), abs(rec[m].closed - 2.0))
        for m in ("SCn", "SCRE", "QFI")
    )
    check(
        "A2 polarized plateau",
        worst <= 1e-3,
        f"all three measures at 2 within {worst:.2e} (bound 1e-3)",
    )


def test_a3_high_temperature_decay():
    zero = evaluate_point(SpinParams(0, 0, 0, 1), ("SCn", "SCRE", "QFI"), "both")
    worst_zero = max(
        max(abs(v.oracle), abs(v.closed)) for v in zero.values()
    )
    check(
        "A3 free-spin point is exactly zero",
        worst_zero <= 1e-12,
        f"worst |value| {worst_zero:.2e} (bound 1e-12)",
    )
    hot = {
        t: evaluate_point(SpinParams(1, 1, 1, t), ("SCn", "SCRE", "QFI"), "both")
        for t in (100.0, 200.0)
    }
    agree_bounds = {"SCn": 1e-10, "SCRE": 1e-10, "QFI": 1e-8}
    absdiff = {m: max(rec[m].absdiff for rec in hot.values()) for m in agree_bounds}
    check(
        "A3 closed vs oracle at T=100 and T=200",
        all(absdiff[m] <= b for m, b in agree_bounds.items()),
        f"|SCn| {absdiff['SCn']:.2e} (<=1e-10), |SCRE| {absdiff['SCRE']:.2e} "
        f"(<=1e-10), |QFI| {absdiff['QFI']:.2e} (<=1e-8)",
    )

    def values(t, m):
        return (hot[t][m].oracle, hot[t][m].closed)

    quadratic = max(abs(v) for m in ("SCRE", "QFI") for v in values(100.0, m))
    check(
        "A3 SCRE and QFI bound at T=100",
        quadratic <= 1e-2,
        f"SCRE={hot[100.0]['SCRE'].oracle:.2e} QFI={hot[100.0]['QFI'].oracle:.2e} "
        f"(bound 1e-2; both decay as 1/T^2)",
    )

    scn_coeff = 1 + 1 / math.sqrt(2)
    law_dev = max(abs(100.0 * v - scn_coeff) for v in values(100.0, "SCn"))
    check(
        "A3 SCn linear law at T=100",
        law_dev <= 1e-3,
        f"SCn={hot[100.0]['SCn'].oracle:.6f}, T*SCn vs 1+1/sqrt2 = {scn_coeff:.6f} "
        f"off by {law_dev:.2e} (bound 1e-3)",
    )

    # decay order: halving (1/T) or quartering (1/T^2) when T doubles
    orders = {"SCn": (2.0, 0.01), "SCRE": (4.0, 0.05), "QFI": (4.0, 0.05)}
    ratios = {
        m: [a / b for a, b in zip(values(100.0, m), values(200.0, m))] for m in orders
    }
    check(
        "A3 decay order from T=100 to T=200",
        all(abs(r - want) <= tol for m, (want, tol) in orders.items() for r in ratios[m]),
        ", ".join(
            f"{m} ratio {ratios[m][0]:.5f} (= {want:g} +- {tol:g})"
            for m, (want, tol) in orders.items()
        ),
    )


def test_a4_closed_forms_track_definitions(bulk):
    d_scn = np.abs(bulk["scn_closed"] - bulk["sqc_l1"]).max()
    d_scre = np.abs(bulk["scre_closed"] - bulk["sqc_re"]).max()
    d_qfi = np.abs(bulk["qfi_closed"] - bulk["qfi_spectral"]).max()
    check(
        "A4 closed forms vs definitional averages (1000 draws)",
        d_scn <= 1e-10 and d_scre <= 1e-10 and d_qfi <= 1e-8,
        f"|SCn| {d_scn:.2e} (<=1e-10), |SCRE| {d_scre:.2e} (<=1e-10), "
        f"|QFI| {d_qfi:.2e} (<=1e-8)",
    )


def test_a4_full_grid_closed_forms_track_definitions():
    """Every cell of the reference grid on --engine both, with all measures.

    The published forms match the definitions only at zero field, so they
    are held to the bounds at B=0 alone.
    """
    bounds = {"SCn": 1e-10, "SCRE": 1e-10, "QFI": 1e-8}
    zero_field = dict(bounds, SCREpaper=1e-10, QFIclosed=1e-8)
    axes = (AxisSpec("J", -20, 20, 0.25), AxisSpec("Jz", -20, 20, 0.25))
    for field, checked in ((1.0, bounds), (0.0, zero_field)):
        spec = SweepSpec(
            axes=axes, fixed={"B": field, "T": 2.0}, measures=MEASURES, engine="both"
        )
        table = run_sweep(spec)
        assert table.data.shape[0] == 161 * 161
        worst = {m: float(table.column(f"{m}_absdiff").max()) for m in checked}
        check(
            f"A4 closed forms vs definitions on the 161x161 grid, T=2, B={field:g}",
            all(worst[m] <= checked[m] for m in checked),
            ", ".join(f"|{m}| {worst[m]:.2e} (<={checked[m]:g})" for m in checked),
        )


def test_a5_construction_routes_agree(bulk):
    d_entry = bulk["entry_diff"].max()
    d_z = bulk["z_rel"].max()
    check(
        "A5 closed vs spectral construction (1000 draws)",
        d_entry <= 1e-10 and d_z <= 1e-10,
        f"entrywise {d_entry:.2e} (<=1e-10), partition rel. {d_z:.2e} (<=1e-10)",
    )


def test_a6_measures_even_in_j():
    rng = np.random.default_rng(606060)
    worst = 0.0
    for i in range(200):
        p = draw_params(rng)
        q = SpinParams(-p.J, p.Jz, p.B, p.T)
        for engine in ("closed",) if i >= 20 else ("closed", "oracle"):
            a = evaluate_point(p, ("SCn", "SCRE", "QFI"), engine)
            b = evaluate_point(q, ("SCn", "SCRE", "QFI"), engine)
            worst = max(worst, max(abs(a[m] - b[m]) for m in a))
    check(
        "A6 J-reflection symmetry (200 draws)",
        worst <= 1e-8,
        f"worst |f(J) - f(-J)| {worst:.2e} (bound 1e-8)",
    )


def test_a7_grid_maxima_and_zone_growth():
    maxima = []
    low_zone = []
    for b in (1, 2, 3, 5, 8, 10):
        spec = SweepSpec(
            axes=(AxisSpec("J", -20, 20, 0.25), AxisSpec("Jz", -20, 20, 0.25)),
            fixed={"T": 2.0, "B": float(b)},
            measures=("SCn",),
        )
        col = run_sweep(spec).column("SCn")
        maxima.append(float(col.max()))
        low_zone.append(int((col <= 2.5).sum()))
    in_band = all(2.95 <= m <= 3.0 for m in maxima)
    growing = all(b >= a for a, b in zip(low_zone, low_zone[1:]))
    check(
        "A7 grid maxima and low-coherence zone growth",
        in_band and growing,
        f"maxima {['%.4f' % m for m in maxima]} in [2.95, 3.0]; "
        f"cells with SCn<=2.5 {low_zone} non-decreasing in B",
    )


def test_a8_grooves_on_the_j_line():
    spec = SweepSpec(
        axes=(AxisSpec("J", -3, 3, 0.01),),
        fixed={"B": 1.0, "Jz": 0.0, "T": 0.1},
        measures=("SCn",),
    )
    table = run_sweep(spec)
    j = table.column("J")
    vals = table.column("SCn")
    n = len(vals)

    strict = [
        i for i in range(1, n - 1) if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    ]
    # groove = feature-level minimum; prominence 1e-3 separates the two
    # grooves (depth ~0.29) from the 8e-6-deep cusp at J=0 where |v| kinks
    idx = prominent_minima(vals, prominence=1e-3)
    locations = j[idx]
    even_residual = max(abs(vals[i] - vals[n - 1 - i]) for i in range(n))
    between = vals[idx[0] : idx[-1] + 1].max() if len(idx) == 2 else float("nan")
    ok = (
        len(idx) == 2
        and all(0.9 <= abs(x) <= 1.1 for x in locations)
        and even_residual <= 1e-8
        and abs(between - 2.0) <= 5e-2
    )
    check(
        "A8 grooves at J = +-1",
        ok,
        f"grooves at J={[round(float(x), 3) for x in locations]} "
        f"(strict grid minima incl. the J=0 cusp: {len(strict)}), "
        f"even to {even_residual:.2e} (<=1e-8), plateau max {between:.4f} "
        f"= 2 +- 5e-2",
    )


def test_a9_temperature_monotonicity():
    worst_rise = 0.0
    t_grid = [0.5 * k for k in range(1, 21)]
    for jz in (2.0, 5.0, 8.0):
        for b in (0.0, 2.0, 5.0):
            vals = [scn_closed(SpinParams(10.0, jz, b, t)) for t in t_grid]
            rises = [b2 - a2 for a2, b2 in zip(vals, vals[1:])]
            worst_rise = max(worst_rise, max(rises))
    check(
        "A9 SCn non-increasing in T (J=10, Jz in {2,5,8}, B in {0,2,5})",
        worst_rise <= 1e-9,
        f"largest increase along T {worst_rise:.2e} (slack 1e-9)",
    )


def test_a10_published_scre_form_holds_only_at_zero_field():
    rng = np.random.default_rng(101010)
    deviation = {}
    for field in ((0, 0), (1, 10)):
        cells = batch([draw_params(rng, b=field) for _ in range(100)])
        direct = sqc_direct(gibbs_closed(cells), CoherenceKind.RELATIVE_ENTROPY)
        deviation[field] = float(np.abs(scre_published(cells) - direct).max())
    worst_b0, worst_field = deviation[(0, 0)], deviation[(1, 10)]
    check(
        "A10 published SCRE form: exact at B=0, broken away from it",
        worst_b0 <= 1e-10 and worst_field > 0.1,
        f"max deviation {worst_b0:.2e} at B=0 (<=1e-10); "
        f"{worst_field:.3f} for B in [1,10] (>0.1)",
    )


def test_a11_bounds_and_basis_properties(bulk):
    rng = np.random.default_rng(111111)
    scn, scre, qfi = bulk["scn_closed"], bulk["scre_closed"], bulk["qfi_closed"]
    bounds_ok = (
        scn.min() >= -1e-12 and scn.max() <= 3 + 1e-12
        and scre.min() >= -1e-12 and scre.max() <= 3 + 1e-12
        and qfi.min() >= -1e-12 and qfi.max() <= 4 + 1e-12
    )

    ox = collective_observable(PauliAxis.X)
    oy = collective_observable(PauliAxis.Y)
    rho = bulk["rho"][:100]
    d_xy = np.abs(qfi_spectral(rho, ox) - qfi_spectral(rho, oy)).max()

    d_cov = 0.0
    for _ in range(50):
        rho = gibbs_closed(ThermalBatch.of(draw_params(rng)))[0]
        obs = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        d_cov = max(
            d_cov,
            abs(
                qfi_spectral(u @ rho @ u.conj().T, u @ obs @ u.conj().T)
                - qfi_spectral(rho, obs)
            ),
        )

    d_pure = 0.0
    for _ in range(100):
        rho = random_pure_density(rng, 4)
        obs = random_hermitian(rng, 4)
        mean = np.trace(rho @ obs).real
        second = np.trace(rho @ obs @ obs).real
        d_pure = max(d_pure, abs(qfi_spectral(rho, obs) - 4 * (second - mean**2)))

    check(
        "A11 bounds and generator properties",
        bounds_ok and d_xy <= 1e-10 and d_cov <= 1e-9 and d_pure <= 1e-9,
        f"SCn in [0, {scn.max():.3f}], SCRE in [0, {scre.max():.3f}], "
        f"QFI in [0, {qfi.max():.3f}]; X vs Y generator {d_xy:.2e} (<=1e-10); "
        f"unitary covariance {d_cov:.2e} (<=1e-9); "
        f"pure-state 4*variance {d_pure:.2e} (<=1e-9)",
    )


def test_a12_deterministic_parallel_sweeps(tmp_path):
    from xxzsteer.cli import main

    f1, f2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    base = [
        "sweep", "--measure", "SCn",
        "--axis", "J=-20:20:0.25", "--axis", "Jz=-20:20:0.25",
        "--fix", "T=2", "--fix", "B=1",
    ]
    assert main([*base, "--jobs", "1", "--out", str(f1)]) == 0
    assert main([*base, "--jobs", "8", "--out", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    back = read_csv(f1)
    expected_rows = 161 * 161
    round_trip_ok = back.columns == ("J", "Jz", "SCn") and back.data.shape == (
        expected_rows,
        3,
    )
    rewritten = tmp_path / "rewritten.csv"
    write_csv(back, rewritten)
    round_trip_ok = round_trip_ok and rewritten.read_bytes() == f1.read_bytes()
    check(
        "A12 parallel determinism and CSV round trip",
        identical and round_trip_ok,
        f"CLI jobs=1 vs jobs=8 byte-identical: {identical}; "
        f"parse-rewrite byte-identical: {round_trip_ok} ({expected_rows} rows)",
    )


def test_a13_scre_and_qfi_share_the_scn_features():
    """A8's grooves and A9's fall with temperature, for SCRE and QFI."""
    measures = ("SCRE", "QFI")
    line = run_sweep(
        SweepSpec(
            axes=(AxisSpec("J", -3, 3, 0.01),),
            fixed={"B": 1.0, "Jz": 0.0, "T": 0.1},
            measures=measures,
        )
    )
    j = line.column("J")
    grooves = {m: j[prominent_minima(line.column(m), prominence=1e-3)] for m in measures}
    grooves_ok = all(
        len(x) == 2 and x[0] < 0 < x[1] and all(0.9 <= abs(v) <= 1.1 for v in x)
        for x in grooves.values()
    )

    worst_rise = dict.fromkeys(measures, -math.inf)
    for jz in (2.0, 5.0, 8.0):
        for b in (0.0, 2.0, 5.0):
            table = run_sweep(
                SweepSpec(
                    axes=(AxisSpec("T", 0.5, 10, 0.5),),
                    fixed={"J": 10.0, "Jz": jz, "B": b},
                    measures=measures,
                )
            )
            for m in measures:
                worst_rise[m] = max(worst_rise[m], float(np.diff(table.column(m)).max()))
    check(
        "A13 SCRE and QFI grooves near J = +-1 and non-increasing in T",
        grooves_ok and all(r <= 1e-9 for r in worst_rise.values()),
        "; ".join(
            f"{m} grooves at J={[round(float(x), 3) for x in grooves[m]]} "
            f"(2, opposite signs, 0.9 <= |J| <= 1.1), largest increase along T "
            f"{worst_rise[m]:.2e} (slack 1e-9)"
            for m in measures
        ),
    )
