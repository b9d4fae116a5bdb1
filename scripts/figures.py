#!/usr/bin/env python3
"""Regenerate the standard sweep gallery: every panel family the model is
usually shown with, as CSV data plus an SVG render.

Panels
  grids/      SCn, SCRE, QFI over (J, Jz) at T=2 for B in {1,2,3,5,8,10}
  fieldtemp/  the three measures over (B, T) at J=10 for Jz in {2,5,8}
  vs_B/       measures vs B at J=Jz=1 for T in {2,3,5,8,10}
  vs_T/       measures vs T at J=Jz=1 for B in {1,2,3,5,8}
  grooves_B/  measures vs B at J=1, Jz=0 for T in {0.1,...,1}
  grooves_J/  measures vs J at B=1, Jz=0 for T in {0.1,...,1}
  vs_Jz/      measures vs Jz at B=1, J=1 for T in {0.1,...,1}

About 2 to 2.5 s in total, evaluation and writing of all 110 files (2 vCPUs, one
used; CPython 3.11, numpy 2.4).
"""

from __future__ import annotations

import argparse
import pathlib
import time

from xxzsteer.plot import render_svg
from xxzsteer.sweep import AxisSpec, SweepSpec, run_sweep, write_csv

LINE_MEASURES = ("SCn", "SCRE", "QFI")


def emit(outdir: pathlib.Path, name: str, spec: SweepSpec) -> None:
    t0 = time.perf_counter()
    table = run_sweep(spec)
    write_csv(table, outdir / f"{name}.csv")
    render_svg(table, outdir / f"{name}.svg")
    print(f"  {name}: {table.data.shape[0]} rows in {time.perf_counter() - t0:.1f}s")


def coupling_grids(outdir: pathlib.Path) -> None:
    for measure in LINE_MEASURES:
        for b in (1, 2, 3, 5, 8, 10):
            spec = SweepSpec(
                axes=(AxisSpec("J", -20, 20, 0.25), AxisSpec("Jz", -20, 20, 0.25)),
                fixed={"T": 2.0, "B": float(b)},
                measures=(measure,),
            )
            emit(outdir, f"{measure.lower()}_grid_T2_B{b}", spec)


def field_temperature_grids(outdir: pathlib.Path) -> None:
    for measure in LINE_MEASURES:
        for jz in (2, 5, 8):
            spec = SweepSpec(
                axes=(AxisSpec("T", 0.05, 10, 0.1), AxisSpec("B", 0, 10, 0.1)),
                fixed={"J": 10.0, "Jz": float(jz)},
                measures=(measure,),
            )
            emit(outdir, f"{measure.lower()}_BT_J10_Jz{jz}", spec)


def line_family(outdir, base, axis, fixed, family_name, family_values):
    for val in family_values:
        tag = str(val).replace(".", "p")
        spec = SweepSpec(
            axes=(axis,),
            fixed={**fixed, family_name: float(val)},
            measures=LINE_MEASURES,
        )
        emit(outdir, f"{base}_{family_name}{tag}", spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--outdir",
        default="out/figures",
        help="output directory (default: out/figures)",
    )
    parser.add_argument(
        "--only",
        choices=("grids", "fieldtemp", "lines"),
        help="restrict to one panel group",
    )
    ns = parser.parse_args(argv)
    outdir = pathlib.Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if ns.only in (None, "grids"):
        print("coupling-plane grids (T=2):")
        coupling_grids(outdir)
    if ns.only in (None, "fieldtemp"):
        print("field/temperature grids (J=10):")
        field_temperature_grids(outdir)
    if ns.only in (None, "lines"):
        print("line families:")
        line_family(
            outdir, "vsB_J1Jz1", AxisSpec("B", 0, 10, 0.02),
            {"J": 1.0, "Jz": 1.0}, "T", (2, 3, 5, 8, 10),
        )
        line_family(
            outdir, "vsT_J1Jz1", AxisSpec("T", 0.05, 10, 0.02),
            {"J": 1.0, "Jz": 1.0}, "B", (1, 2, 3, 5, 8),
        )
        line_family(
            outdir, "vsB_J1Jz0", AxisSpec("B", 0, 5, 0.01),
            {"J": 1.0, "Jz": 0.0}, "T", (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
        )
        line_family(
            outdir, "vsJ_B1Jz0", AxisSpec("J", -3, 3, 0.01),
            {"B": 1.0, "Jz": 0.0}, "T", (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
        )
        line_family(
            outdir, "vsJz_B1J1", AxisSpec("Jz", -3, 3, 0.01),
            {"B": 1.0, "J": 1.0}, "T", (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
        )
    print(f"done -> {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
