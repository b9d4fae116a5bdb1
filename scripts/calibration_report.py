#!/usr/bin/env python3
"""Compare the published QFI ratio against the spectral definition for every
collective-generator candidate and print the deviation table.

On this model family no fixed candidate reproduces the ratio (it differs
from the X-state algebra away from B = 0), so the report ends with the
fallback pair actually used as canonical: the spectral definition with the
gauge-aligned collective X generator, and its closed form.
"""

from __future__ import annotations

import argparse

import numpy as np

from xxzsteer import (
    SpinParams,
    ThermalBatch,
    calibrate_observable,
    calibrated_observable,
    gibbs_closed,
    qfi_closed,
    qfi_spectral,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260810)
    ns = parser.parse_args()

    rng = np.random.default_rng(ns.seed)
    draws = [
        SpinParams(
            J=rng.uniform(-20, 20),
            Jz=rng.uniform(-20, 20),
            B=rng.uniform(0, 10),
            T=rng.uniform(0.05, 10),
        )
        for _ in range(ns.draws)
    ]

    report = calibrate_observable(draws)
    print(f"published ratio vs spectral QFI, {ns.draws} draws, "
          f"threshold {report.threshold:g}:")
    for name, dev in sorted(report.max_relative_deviation.items(), key=lambda kv: kv[1]):
        verdict = "PASS" if dev <= report.threshold else "fail"
        print(f"  {name:>24s}  max rel. deviation {dev:10.4f}  [{verdict}]")
    print(f"selected candidate: {report.selected}")

    cells = ThermalBatch(*np.array([[p.J, p.Jz, p.B, p.T] for p in draws]).T)
    rho = gibbs_closed(cells)
    spectral = qfi_spectral(rho, calibrated_observable(rho))
    worst = np.abs(qfi_closed(cells) - spectral).max()
    print(f"fallback pair (closed form vs gauge-aligned spectral): "
          f"max |difference| {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
