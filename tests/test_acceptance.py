"""Acceptance suite: every check pins its tolerance and prints one
pass/fail line (run with ``pytest -s`` to see the lines as they go).

Check index:

  A1  Bell-limit anchors: SCn = SCRE = 3, QFI = 4 at (J=10, Jz=2, B=0, T=0.01)
  A2  Polarized plateau: all three measures = 2 at (J=1, Jz=0, B=20, T=0.1)
  A3  High-temperature decay at (J, Jz, B) = (1, 1, 1): SCn = (1 + 1/sqrt2)/T,
      SCRE and QFI ~ 1/T^2 and <= 1e-2 at T=100; the exact free-spin zero
  A4  Closed forms track the definitional averages over 1000 random draws,
      over the whole 161x161 (J, Jz) grid at T=2, B=1 and B=0, and over
      50,000 log-uniform draws of the whole box, its faces and corners
  A5  Closed and spectral state constructions agree over the same draws
  A6  All three measures are even in J
  A7  SCn grid maxima near 3 and the low-coherence zone grows with B
  A8  SCn grooves at J = +-1 on the B=1, Jz=0, T=0.1 line
  A9  SCn never increases with temperature at strong transverse coupling
  A10 The published SCRE closed form holds exactly on (and only on) B=0
  A11 Bounds, generator equivalences, covariance, pure-state variance law
  A12 Byte-identical sweeps across --jobs values; CSV round trip
  A13 SCRE and QFI share SCn's grooves (A8), its fall with T (A9) and its
      low-coherence zone growth with B (A7), at 5/6 of each Bell value
  A14 The zero-temperature phase diagram: SCn, SCRE and QFI at T=1e-3 on
      each ground-state region and level-crossing line, on both engines;
      at finite T, the two-level crossover law and groove depths on a cut
      across each of the three line families
  A15 The high-temperature law of A3 at every coupling: T*SCn, T^2*SCRE and
      T^2*QFI within c*rho of their leads over 20,000 draws, rho = s/T in
      [1e-4, 1e-2], on both engines

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

from xxzsteer import sweep
from xxzsteer.fisher import (
    calibrated_observable,
    collective_observable,
    qfi_closed,
    qfi_spectral,
)
from xxzsteer.model import (
    COUPLING_MAX,
    SpinParams,
    ThermalBatch,
    gibbs_closed,
    gibbs_spectral,
)
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
    SweepTable,
    evaluate_point,
    run_sweep,
    write_csv,
)

from conftest import (
    draw_params,
    parse_csv,
    random_hermitian,
    random_pure_density,
    random_unitary,
    spectral_log_z,
    whole_box,
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
    cells = ThermalBatch.of(*(draw_params(rng) for _ in range(1000)))
    rho = gibbs_closed(cells)
    sqc_l1, sqc_re = sqc_direct(rho, CoherenceKind.L1, CoherenceKind.RELATIVE_ENTROPY)
    return {
        "rho": rho,
        "scn_closed": scn_closed(cells),
        "scre_closed": scre_closed(cells),
        "qfi_closed": qfi_closed(cells),
        "sqc_l1": sqc_l1,
        "sqc_re": sqc_re,
        "qfi_spectral": qfi_spectral(rho, calibrated_observable(rho)),
        "entry_diff": np.abs(rho - gibbs_spectral(cells).matrix).max(axis=(1, 2)),
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


def worst_absdiff(rows: np.ndarray, measures) -> dict[str, float]:
    """Each measure's largest closed-vs-oracle gap over the rows, evaluated
    on --engine both a block of cells at a time."""
    worst = dict.fromkeys(measures, 0.0)
    for start in range(0, rows.shape[1], sweep._BLOCK_ROWS):
        block = rows[:, start : start + sweep._BLOCK_ROWS]
        columns = sweep._evaluate(block, measures, "both")
        for m, absdiff in zip(measures, columns[2::3]):
            worst[m] = max(worst[m], float(absdiff.max()))
    return worst


def test_a4_whole_box_random_draws_track_definitions():
    """A4's bounds over 50,000 seeded draws of the whole box, its faces, its
    T floor and its near-mixed corner, where lattices miss the worst cells.

    The published forms match the definitions only at zero field, so they
    are checked on the first 20,000 draws with B set to 0.  Measured (numpy
    2.4, OpenBLAS 0.3.31): SCn and QFI 8.1e-11, SCRE 4.6e-11, and at B=0
    SCREpaper 4.6e-11 and QFIclosed 8.1e-11 (QFI's bits at B = 0), in
    about 1.4 s.  The worst cells sit below a split doublet, Jz << -T and
    |J| << T, where the closed entries are exact to a few ulps and the
    oracle's eigenvalues of entries of size |Jz| are not: at (6.77e-5,
    -621.96, 0.01314, 1.343e-3) closed SCn is 1.1e-16 from a 60-digit
    reference and the oracle's 8.1e-11.  So these gaps are the oracle's
    own error, within the bounds by x1.2 (SCn) and x2.2 (SCRE).
    """
    bounds = {"SCn": 1e-10, "SCRE": 1e-10, "QFI": 1e-8}
    zero_field_bounds = {"SCREpaper": 1e-10, "QFIclosed": 1e-8}
    rows = whole_box(606, 50_000)
    worst = worst_absdiff(rows, tuple(bounds))
    zero_field = rows[:, :20_000].copy()
    zero_field[2] = 0.0
    worst.update(worst_absdiff(zero_field, tuple(zero_field_bounds)))
    bounds.update(zero_field_bounds)
    check(
        "A4 closed forms vs definitions over 50,000 draws of the whole box",
        all(worst[m] <= bounds[m] for m in bounds),
        ", ".join(
            f"|{m}| {worst[m]:.2e} (<={bounds[m]:g}, headroom x{bounds[m] / worst[m]:.1f})"
            for m in bounds
        ),
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
        cells = ThermalBatch.of(*(draw_params(rng, b=field) for _ in range(100)))
        (direct,) = sqc_direct(gibbs_closed(cells), CoherenceKind.RELATIVE_ENTROPY)
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
    back = SweepTable(*parse_csv(f1))
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


def test_a13_scre_and_qfi_low_zones_grow_with_b():
    """A7's zone growth for SCRE and QFI, each at 5/6 of its Bell value."""
    thresholds = {"SCRE": 2.5, "QFI": 10 / 3}
    low_zone = {m: [] for m in thresholds}
    for b in (1, 2, 3, 5, 8, 10):
        table = run_sweep(
            SweepSpec(
                axes=(AxisSpec("J", -20, 20, 0.25), AxisSpec("Jz", -20, 20, 0.25)),
                fixed={"T": 2.0, "B": float(b)},
                measures=tuple(thresholds),
            )
        )
        for m, bound in thresholds.items():
            low_zone[m].append(int((table.column(m) <= bound).sum()))
    check(
        "A13 SCRE and QFI low-coherence zones grow with B",
        all(all(hi >= lo for lo, hi in zip(n, n[1:])) for n in low_zone.values()),
        "; ".join(
            f"cells with {m}<={thresholds[m]:.4g} {low_zone[m]} non-decreasing in B"
            for m in thresholds
        ),
    )


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# At T -> 0 the state is the ground state of the levels E00 = -Jz/2 - B,
# E11 = -Jz/2 + B and E+- = Jz/2 -+ J, or an equal mixture of two of them on
# a level-crossing line: (J, Jz, B) and the exact (SCn, SCRE, QFI) there.
ON_THE_LINE = (
    1 + 1 / math.sqrt(2),
    2 + 2 * binary_entropy(0.75) - 1.5 - 2 * binary_entropy((2 + math.sqrt(2)) / 4),
    1.0,
)
ZERO_TEMPERATURE_ROWS = (
    ("|J| < Jz + |B|, B != 0: |00> or |11>", (1, 0.5, 2), (2.0, 2.0, 2.0)),
    ("same, B < 0", (1, 0.5, -2), (2.0, 2.0, 2.0)),
    ("|J| > Jz + |B|: psi+", (3, 0.5, 1), (3.0, 3.0, 4.0)),
    ("same, J < 0: psi-", (-3, 0.5, 1), (3.0, 3.0, 4.0)),
    ("line |J| = Jz + |B| > 0: half polarized, half psi", (1.5, 0.5, 1), ON_THE_LINE),
    ("line B = 0, |J| < Jz: half |00>, half |11>", (0.5, 1, 0), (1.0, 1.0, 2.0)),
    ("line J = 0, Jz < -|B|: half |01>, half |10>", (0, -2, 0.5), (1.0, 1.0, 2.0)),
)
# Measured on numpy 2.4 with OpenBLAS 0.3.31: every value within 1.8e-15 of
# its exact limit, but for the oracle's SCRE (3.3e-14) and QFI (1.1e-13) on
# the |J| = Jz + |B| line.
ZERO_TEMPERATURE_BOUND = 4e-15
LINE_BOUNDS = {"SCn": 4e-15, "SCRE": 1e-13, "QFI": 3e-13}


def test_a14_zero_temperature_phase_diagram():
    measures = ("SCn", "SCRE", "QFI")
    assert abs(ON_THE_LINE[1] - 0.9208041755325536) <= 2e-16
    failed, worst, worst_line = [], 0.0, dict.fromkeys(measures, 0.0)
    for region, (J, Jz, B), exact in ZERO_TEMPERATURE_ROWS:
        rec = evaluate_point(SpinParams(J, Jz, B, 1e-3), measures, "both")
        on_line = exact is ON_THE_LINE
        for m, want in zip(measures, exact):
            off = max(abs(rec[m].oracle - want), abs(rec[m].closed - want))
            bound = LINE_BOUNDS[m] if on_line else ZERO_TEMPERATURE_BOUND
            if on_line:
                worst_line[m] = max(worst_line[m], off)
            else:
                worst = max(worst, off)
            if not off <= bound:
                failed.append(f"{m} at {(J, Jz, B)} ({region}) off by {off:.2e} > {bound:.0e}")
    check(
        "A14 zero-temperature phase diagram at T=1e-3, both engines",
        not failed,
        f"{sum(row[2] is not ON_THE_LINE for row in ZERO_TEMPERATURE_ROWS)} points "
        f"off the |J| = Jz + |B| line within "
        f"{worst:.2e} (bound {ZERO_TEMPERATURE_BOUND:.0e}); on it "
        + ", ".join(f"{m} {worst_line[m]:.2e} (bound {LINE_BOUNDS[m]:.0e})" for m in measures)
        + ("; " + "; ".join(failed) if failed else ""),
    )


def crossover_law(w: float) -> tuple[float, float, float]:
    """(SCn, SCRE, QFI) of w|00><00| + (1 - w)|psi+><psi+|, the two-level
    state near the |J| = Jz + |B| crossing."""
    r = math.hypot(w, 1 - w)
    return (
        r + abs(3 * w - 1) / 2 + 3 * (1 - w) / 2,
        2 + 2 * binary_entropy((1 + w) / 2) - binary_entropy(w) - (1 - w)
        - 2 * binary_entropy((1 + r) / 2),
        2 * (2 * w - 1) ** 2 + 2 * (1 - w),
    )


def crossover_bound(T: float, gap: float = 2.0) -> float:
    """Roundoff plus the neglected levels: those a gap above the crossing
    pair (|11> and psi- lie 2 above it on A8's cut) weigh eps = e^(-gap/T),
    and an entropy moves by about eps * log2(1/eps)."""
    eps = math.exp(-gap / T)
    return 2e-14 + 2 * eps * (gap / T) / math.log(2)


def scre_groove_weight() -> float:
    """The weight w of the two-level SCRE minimum, by ternary search."""
    lo, hi = 0.3, 0.8
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if crossover_law(a)[1] < crossover_law(b)[1]:
            hi = b
        else:
            lo = a
    return (lo + hi) / 2


def test_a14_crossover_law_on_the_a8_cut():
    """At finite T, on A8's cut (J 0.9:1.1, Jz = 0, B = 1) the state is the
    two-level mixture of |00> and psi+ with w = 1/(1 + e^(-(1 - J)/T)), so
    each measure is a function of w alone, and its groove depth does not
    depend on T: SCn's 1 + 1/sqrt(2) at w = 1/2 (J = 1), QFI's 7/8 at
    w = 5/8 (J = 1 - T ln(5/3)) and SCRE's 0.90186 at w = 0.565.  The SCRE
    and QFI grooves sit off the crossing, so depths are checked at the
    law's J, not at a grid argmin.  Measured (numpy 2.4): the closed columns
    within 9.3e-15 of the law at T = 0.01 and 5.9e-8 at T = 0.1; the depths
    on both engines within 8.9e-16 and 4.1e-8.
    """
    measures = ("SCn", "SCRE", "QFI")
    w_scre = scre_groove_weight()
    depths = {"SCn": (0.5, 1 + 1 / math.sqrt(2)), "QFI": (5 / 8, 7 / 8)}
    depths["SCRE"] = (w_scre, crossover_law(w_scre)[1])
    law_off, depth_off, ok = {}, {}, abs(depths["SCRE"][1] - 0.90186) <= 5e-6
    for T in (0.01, 0.1):
        table = run_sweep(
            SweepSpec(
                axes=(AxisSpec("J", 0.9, 1.1, 0.001),),
                fixed={"Jz": 0.0, "B": 1.0, "T": T},
                measures=measures,
            )
        )
        w = 1 / (1 + np.exp(-(1 - table.column("J")) / T))
        law = np.array([crossover_law(x) for x in w])
        got = np.column_stack([table.column(m) for m in measures])
        law_off[T] = float(np.abs(got - law).max())
        depth_off[T] = 0.0
        for m, (wm, depth) in depths.items():
            J = 1 - T * math.log(wm / (1 - wm))
            rec = evaluate_point(SpinParams(J, 0, 1, T), (m,), "both")
            off = max(abs(rec[m].closed - depth), abs(rec[m].oracle - depth))
            depth_off[T] = max(depth_off[T], off)
        ok = ok and max(law_off[T], depth_off[T]) <= crossover_bound(T)
    check(
        "A14 crossover law and groove depths on A8's cut at T=0.01 and 0.1",
        ok,
        f"SCRE groove {depths['SCRE'][1]:.5f} at w={w_scre:.3f}; "
        + "; ".join(
            f"T={T:g}: closed columns off the law by {law_off[T]:.2e}, depths on both "
            f"engines by {depth_off[T]:.2e} (bound {crossover_bound(T):.1e})"
            for T in law_off
        ),
    )


# The other two level-crossing line families, each cut across its line at a
# point where the two crossing levels lie 0.5 below the rest: the cut axis,
# the fixed couplings, the axis value x at which w = 1/(1 + e^(-2x/T)) is the
# weight of the level that x lowers, and the law of (SCn, SCRE, QFI) in w.
OTHER_CROSSINGS = {
    "B = 0, |J| < Jz: |00> and |11>": (
        "B",
        {"J": 0.5, "Jz": 1.0},
        lambda w: (1 + abs(2 * w - 1), 2 - binary_entropy(w), 2.0),
    ),
    "J = 0, Jz < -|B|: psi+ and psi-": (
        "J",
        {"Jz": -1.0, "B": 0.5},
        lambda w: (
            1 + 2 * abs(2 * w - 1),
            3 - 2 * binary_entropy(w),
            4 * max(w, 1 - w),
        ),
    ),
}


@pytest.mark.parametrize("line", OTHER_CROSSINGS)
def test_a14_crossover_law_on_the_other_crossing_lines(line):
    """The two-level law of A8's cut on the other two line families.

    The cut runs across the line through x = 0, over 2|x|/T <= 20.  The
    crossing levels are an exact two-level mixture but for the rest, which
    lie at least 0.5 higher and weigh e^(-0.5/T).  At w = 1/2, on the line,
    the depths SCn = 1, SCRE = 1 and QFI = 2 do not depend on T.  On the
    B = 0 family QFI = 2 at every w, so it has no groove there.  Measured
    (numpy 2.4): the closed columns within 9.4e-15 of the law at T = 0.01
    and 3.3e-8 at T = 0.025; the values on the line on both engines within
    4.5e-16 and 3.3e-8.
    """
    axis, fixed, law = OTHER_CROSSINGS[line]
    measures = ("SCn", "SCRE", "QFI")
    depths = dict(zip(measures, law(0.5)))
    law_off, depth_off, ok = {}, {}, depths == {"SCn": 1.0, "SCRE": 1.0, "QFI": 2.0}
    for T in (0.01, 0.025):
        table = run_sweep(
            SweepSpec(
                axes=(AxisSpec(axis, -10 * T, 10 * T, T / 50),),
                fixed={**fixed, "T": T},
                measures=measures,
            )
        )
        w = 1 / (1 + np.exp(-2 * table.column(axis) / T))
        want = np.array([law(x) for x in w])
        got = np.column_stack([table.column(m) for m in measures])
        law_off[T] = float(np.abs(got - want).max())
        rec = evaluate_point(SpinParams(**fixed, **{axis: 0.0}, T=T), measures, "both")
        depth_off[T] = max(
            abs(getattr(rec[m], engine) - depth)
            for m, depth in depths.items()
            for engine in ("oracle", "closed")
        )
        ok = ok and max(law_off[T], depth_off[T]) <= crossover_bound(T, 0.5)
    check(
        f"A14 crossover law and depths on the line {line} at T=0.01 and 0.025",
        ok,
        "; ".join(
            f"T={T:g}: closed columns off the law by {law_off[T]:.2e}, depths on both "
            f"engines by {depth_off[T]:.2e} (bound {crossover_bound(T, 0.5):.1e})"
            for T in law_off
        ),
    )


def high_temperature_draws(seed: int, draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameter rows (4, draws) and their rho = max(|J|, |Jz|, |B|)/T, with
    rho log-uniform in [1e-4, 1e-2].  In the first half |J|, |Jz|, |B| are
    log-uniform in [1e-3, COUPLING_MAX] with random signs; in the second
    they are uniform in [-1, 1] times one magnitude log-uniform in [1e-3,
    COUPLING_MAX], and its first 200 rows lie on QFI's zero line B = 0,
    Jz = |J|."""
    rng = np.random.default_rng(seed)
    half = draws // 2
    signs = rng.choice((-1.0, 1.0), (3, half))
    apart = signs * 10.0 ** rng.uniform(-3, math.log10(COUPLING_MAX), (3, half))
    scale = 10.0 ** rng.uniform(-3, math.log10(COUPLING_MAX), draws - half)
    alike = rng.uniform(-1, 1, (3, draws - half)) * scale
    alike[1, :200] = np.abs(alike[0, :200])
    alike[2, :200] = 0.0
    couplings = np.hstack([apart, alike])
    rho = 10.0 ** rng.uniform(-4, -2, draws)
    return np.vstack([couplings, np.abs(couplings).max(axis=0) / rho]), rho


def high_temperature_leads(rows: np.ndarray) -> dict[str, tuple[int, np.ndarray]]:
    """Each measure's power k of 1/T and the limit of T^k * measure as
    T -> oo at fixed couplings, from rho = (1 - H/T)/4 + O(T^-2)."""
    J, Jz, B = rows[:3]
    return {
        "SCn": (1, np.hypot(J, B) / 2 + np.abs(J) / 2 + (np.abs(Jz + B) + np.abs(Jz - B)) / 4),
        "SCRE": (2, (2 * J**2 + Jz**2 + 2 * B**2) / (8 * math.log(2))),
        "QFI": (2, ((Jz - np.abs(J)) ** 2 + B**2) / 2),
    }


def test_a15_high_temperature_law_over_the_box():
    """A3's high-temperature law at every coupling, outside the near-mixed
    corner: |T^k * m - lead| <= c * rho * max(lead, s^k / 20), with
    s = max(|J|, |Jz|, |B|), on both engines over 20,000 seeded draws with
    rho = s/T in [1e-4, 1e-2].

    Where the lead is at least s^k / 20 this is |T^k * m / lead - 1| <= c *
    rho.  Only QFI's lead nears 0, on and about its zero line B = 0,
    Jz = |J|, and there the bound is absolute, c * rho * s^2 / (20 T^2) on
    the QFI itself.  Measured (numpy 2.4), the worst deviation over
    rho * max(lead, s^k / 20) on either engine: SCn 0.50, SCRE 1.00, QFI
    0.65.  The corner rho < 1e-4, where the closed SCRE cancels to no digit
    (ROADMAP item 1), is not checked here.
    """
    c = {"SCn": 0.6, "SCRE": 1.25, "QFI": 0.8}
    rows, rho = high_temperature_draws(1515, 20_000)
    engines = ("oracle", "closed")
    values = {(m, e): np.empty(rows.shape[1]) for m in c for e in engines}
    for start in range(0, rows.shape[1], sweep._BLOCK_ROWS):
        block = slice(start, start + sweep._BLOCK_ROWS)
        columns = sweep._evaluate(rows[:, block], tuple(c), "both")
        for k, m in enumerate(c):
            for j, e in enumerate(engines):
                values[m, e][block] = columns[3 * k + j]
    s = np.abs(rows[:3]).max(axis=0)
    worst = {}
    for m, (power, lead) in high_temperature_leads(rows).items():
        scale = rho * np.maximum(lead, s**power / 20)
        for e in engines:
            dev = np.abs(rows[3] ** power * values[m, e] - lead)
            worst[m, e] = float((dev / scale).max())
    check(
        "A15 high-temperature law over 20,000 draws, rho in [1e-4, 1e-2], both engines",
        all(worst[m, e] <= c[m] for m, e in worst),
        ", ".join(f"{m} {e} {worst[m, e]:.3f} (<= {c[m]:g})" for m, e in worst),
    )


def test_a17_ordering_laws_among_the_measures():
    """SCRE <= SCn and QFI <= 2 SCn on both engines over 20,000 seeded draws
    of the whole box, its faces, its T floor and its near-mixed corner.

    SCRE <= SCn.  Both measures average Bob's basis coherences with the
    same weights, 1/2 sum_{mu,a} p_{mu,a} sum_{nu != mu} C^nu(rho_{B|mu,a}),
    so the law holds term by term if the relative-entropy coherence of a
    qubit state is at most its l1 coherence in every basis.  In the basis
    nu, let the state's Bloch vector have length R <= 1, component z along
    nu and x = sqrt(R^2 - z^2) across it.  Then C_l1 = x, and with
    h(t) = H2((1 + t)/2), the populations (1 +- z)/2 and the eigenvalues
    (1 +- R)/2 give C_re = h(|z|) - h(R).  As h'(t) = -atanh(t)/ln 2, with
    t = R u and c = |z|/R,

        C_re = R int_c^1 atanh(R u) du / ln 2 <= R int_c^1 atanh(u) du / ln 2
             = R h(c),

    since atanh rises and R <= 1, while C_l1 = R sqrt(1 - c^2).  It is left
    to show phi(c) = h(c) - sqrt(1 - c^2) <= 0 on [0, 1], the pure-state
    case.  phi(0) = phi(1) = 0 and phi'(0) = 0, and phi''(c) =
    [(1 - c^2)^(-1/2) - 1/ln 2] / (1 - c^2) changes sign once, at
    c* = sqrt(1 - (ln 2)^2).  On [0, c*] phi is concave, so it lies below
    its tangent at 0, which is 0; on [c*, 1] it is convex, so it lies below
    its chord, whose ends are at most 0.

    QFI <= 2 SCn, from the closed forms of qfi_closed and scn_closed.  With
    a, b, d >= 0 and p = b + |v|, each term of QFI = 2 (a-p)^2/(a+p) +
    2 (d-p)^2/(d+p) is at most 2 |a-p| or 2 |d-p|, as |x - p| <= x + p.
    Since |a - p| <= |a - b| + |v| and |d - p| <= |b - d| + |v|,

        QFI <= 2 (|a-b| + |b-d| + 2|v|) = 2 (SCn - r) <= 2 SCn,

    with r = sqrt((a-d)^2 + 4v^2).  Equality needs r = 0, so a = d and
    v = 0, and then a = 0 or b = 0: the even mixture of |01> and |10>
    (J -> 0, Jz << -T) or of |00> and |11> (B = 0, Jz - |J| >> T), each with
    SCn = 1 and QFI = 2.  QFI <= 2 SCn^2 is not proved, so it is not
    checked.

    Four more cells sit on those two mixtures at the T floor (J = B = 0,
    Jz = +-1 and +-1000), where both laws are equalities: SCn = SCRE = 1 and
    QFI = 2.  Measured (numpy 2.4): over the whole-box draws of seeds
    1717-1719, 1 and 2, the largest SCRE - SCn is 3.1e-15 on the closed
    engine, on the polarized plateau where both are 2, and 0 on the oracle;
    QFI - 2 SCn stays below -3.4e-9 on both, and QFI/SCn reaches
    1.99999993.  On the four equality cells the closed engine reads both
    laws' gaps as exactly 0 and the oracle reads SCRE - SCn = 2.2e-16 and
    QFI - 2 SCn = 4.4e-16.  Both laws get a rounding tolerance of 1e-14.
    """
    tolerance = 1e-14
    measures = ("SCn", "SCRE", "QFI")
    engines = ("oracle", "closed")
    equality = [[0.0] * 4, [-1.0, 1.0, -1e3, 1e3], [0.0] * 4, [1e-3] * 4]
    rows = np.hstack([whole_box(1717, 20_000), equality])
    excess = {(law, e): -math.inf for law in ("SCRE - SCn", "QFI - 2 SCn") for e in engines}
    for start in range(0, rows.shape[1], sweep._BLOCK_ROWS):
        columns = sweep._evaluate(rows[:, start : start + sweep._BLOCK_ROWS], measures, "both")
        for j, e in enumerate(engines):
            scn, scre, qfi = columns[j::3]
            for law, gap in (("SCRE - SCn", scre - scn), ("QFI - 2 SCn", qfi - 2 * scn)):
                excess[law, e] = max(excess[law, e], float(gap.max()))
    check(
        "A17 SCRE <= SCn and QFI <= 2 SCn over 20,004 cells of the whole box, both engines",
        all(worst <= tolerance for worst in excess.values()),
        ", ".join(f"max {law} {e} {worst:.2e}" for (law, e), worst in excess.items())
        + f" (<= {tolerance:g})",
    )
