#!/usr/bin/env python3
"""Print the SHA-256 of each reference output, one "name digest" line each.

A change that should keep the output bytes keeps every line.  The expected
lines are in reference_digests.txt next to this script (numpy 2.4.6; see
the README); compare with

    python scripts/reference_digests.py | diff - scripts/reference_digests.txt

The script imports xxzsteer from the checkout's own src/ directory, which
it puts first on sys.path, and refuses to run if the package comes from
anywhere else.

The outputs:

  closed-grid.csv    the 161x161 (J, Jz) sweep at T=2, B=1, all measures,
  closed-grid.json   closed engine, as CSV and as JSON
  crosscheck-B0.csv  the 9x9 (J, Jz) sweep over -2:2:0.5 at T=1, B=0 and
  crosscheck-B1.csv  B=1, all measures, --engine both
  both-grid.csv      the 161x161 sweep of closed-grid.csv on --engine both
  heatmap-SCn.svg    the SCn heatmap of that grid
  gallery            scripts/figures.py, one digest over its sorted
                     "file digest" lines
  points             stdout, stderr and exit code of 120 seeded `point`
                     calls: 40 draws over the supported box on each engine,
                     every third scaled into |J|, |Jz|, |B| <= 1, every
                     fifth with a repeated --measure

Every output is made in this process through xxzsteer.cli.main, in a
temporary directory.  About 10 s (2 vCPUs, CPython 3.11, numpy 2.4).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import pathlib
import random
import sys
import tempfile

# the checkout's own package, whatever else is installed
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import figures  # noqa: E402
from xxzsteer.cli import main as xxzsteer  # noqa: E402

COUPLING_GRID = ["--axis", "J=-20:20:0.25", "--axis", "Jz=-20:20:0.25", "--fix", "T=2",
                 "--fix", "B=1"]
CROSSCHECK_GRID = ["--axis", "J=-2:2:0.5", "--axis", "Jz=-2:2:0.5", "--fix", "T=1"]
# name -> the command that writes it, less --out
FILES = {
    "closed-grid.csv": ["sweep", *COUPLING_GRID],
    "closed-grid.json": ["sweep", *COUPLING_GRID, "--format", "json"],
    "crosscheck-B0.csv": ["sweep", *CROSSCHECK_GRID, "--fix", "B=0", "--engine", "both"],
    "crosscheck-B1.csv": ["sweep", *CROSSCHECK_GRID, "--fix", "B=1", "--engine", "both"],
    "both-grid.csv": ["sweep", *COUPLING_GRID, "--engine", "both"],
    "heatmap-SCn.svg": ["plot", *COUPLING_GRID, "--measure", "SCn"],
}
POINT_DRAWS = 40
POINT_SEED = 20261019


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def point_calls():
    """The argv of each seeded `point` call, draw by draw, engine by engine."""
    rng = random.Random(POINT_SEED)
    for k in range(POINT_DRAWS):
        scale = 1e-3 if k % 3 == 0 else 1.0
        J, Jz, B = (scale * rng.uniform(-1e3, 1e3) for _ in range(3))
        T = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        fixed = [f"--fix={name}={x!r}" for name, x in zip("J Jz B T".split(), (J, Jz, B, T))]
        measures = ["--measure", "QFI", "--measure", "SCn", "--measure", "QFI"] * (k % 5 == 0)
        for engine in ("closed", "oracle", "both"):
            yield ["point", *fixed, *measures, "--engine", engine]


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one xxzsteer call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = xxzsteer(argv)
    return code, out.getvalue(), err.getvalue()


def digests(workdir: pathlib.Path) -> dict[str, str]:
    found = {}
    for name, argv in FILES.items():
        path = workdir / name
        code, _, err = run([*argv, "--out", str(path)])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err}")
        found[name] = sha256(path.read_bytes())

    gallery = workdir / "gallery"
    with contextlib.redirect_stdout(io.StringIO()):
        figures.main(["--outdir", str(gallery)])
    files = sorted(gallery.iterdir())
    lines = "".join(f"{p.name} {sha256(p.read_bytes())}\n" for p in files)
    found["gallery"] = sha256(lines.encode())

    record = hashlib.sha256()
    for argv in point_calls():
        code, out, err = run(argv)
        record.update(repr((argv, code, out, err)).encode())
    found["points"] = record.hexdigest()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    where = pathlib.Path(sys.modules["xxzsteer"].__file__).resolve().parent
    if where != SRC / "xxzsteer":
        raise SystemExit(f"imported xxzsteer from {where}, not from {SRC}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(pathlib.Path(tmp)).items():
            print(name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
