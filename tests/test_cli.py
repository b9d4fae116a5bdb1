from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xxzsteer
from xxzsteer import cli
from xxzsteer.cli import main
from xxzsteer.sweep import MEASURES, read_csv


BELL_POINT = ["--fix", "J=10", "--fix", "Jz=2", "--fix", "B=0", "--fix", "T=0.01"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_flag_exits_two_with_one_line_diagnostic(capsys):
    assert main(["sweep", "--badflag"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("xxzsteer: error:")
    assert len(err.strip().splitlines()) == 1


def test_missing_parameter_exits_two(capsys):
    assert main(["point", "--fix", "J=1"]) == 2
    assert "missing" in capsys.readouterr().err


def test_out_of_range_parameter_exits_two(capsys):
    assert main(["point", "--fix", "J=1", "--fix", "Jz=1", "--fix", "B=1",
                 "--fix", "T=1e-9"]) == 2
    assert "T=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fix, message",
    [
        ("T=1e-9", "T=1e-09 is below the supported floor 0.001"),
        ("B=inf", "B=inf is not a finite number"),
        ("Jz=-2e3", "|Jz|=2000.0 exceeds the supported bound 1000.0"),
    ],
)
def test_bad_fix_value_exits_two_on_every_command(fix, message, capsys, tmp_path):
    """point, sweep and plot reject a fixed value outside the box alike."""
    name = fix.partition("=")[0]
    fixed = [f"--fix={n}=1" for n in ("Jz", "B", "T") if n != name] + [f"--fix={fix}"]
    out = str(tmp_path / "x")
    for command in (
        ["point", "--fix=J=0", *fixed],
        ["sweep", "--axis", "J=0:1:0.5", *fixed, "--out", out],
        ["plot", "--measure", "SCn", "--axis", "J=0:1:0.5", *fixed, "--out", out],
    ):
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"xxzsteer: error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_axis_outside_the_box_exits_two_at_its_start_and_one_after_it(capsys, tmp_path):
    out = tmp_path / "x.csv"
    base = ["sweep", "--fix", "Jz=1", "--fix", "B=1", "--fix", "T=1", "--out", str(out)]
    assert main([*base, "--axis", "J=2e3:3e3:500"]) == 2
    assert capsys.readouterr().err == (
        "xxzsteer: error: |J|=2000.0 exceeds the supported bound 1000.0\n"
    )
    # grid-order error contract: a later cell fails when the sweep runs
    assert main([*base, "--axis", "J=900:1100:100"]) == 1
    assert capsys.readouterr().err == (
        "xxzsteer: |J|=1100.0 exceeds the supported bound 1000.0\n"
    )
    assert not out.exists()


def test_duplicate_fix_exits_two(capsys):
    assert main(["point", "--fix", "J=1", "--fix", "J=2", "--fix", "Jz=1",
                 "--fix", "B=1", "--fix", "T=1"]) == 2
    assert "fixed twice" in capsys.readouterr().err


def test_non_numeric_fix_value_exits_two(capsys):
    assert main(["point", "--fix", "J=abc", "--fix", "Jz=1", "--fix", "B=1",
                 "--fix", "T=1"]) == 2
    assert "not a number" in capsys.readouterr().err


def test_bad_axis_syntax_exits_two(capsys):
    assert main(["sweep", "--axis", "J=1:2", "--fix", "Jz=1", "--fix", "B=1",
                 "--fix", "T=1", "--out", "x.csv"]) == 2
    assert "START:STOP:STEP" in capsys.readouterr().err


def test_jobs_below_one_exits_two(capsys):
    for command in (["point", *BELL_POINT],
                    ["sweep", "--axis", "J=0:1:0.5", "--fix", "Jz=1", "--fix", "B=1",
                     "--fix", "T=1", "--out", "x.csv"]):
        assert main([*command, "--jobs", "0"]) == 2
        assert "jobs must be a positive integer, got 0" in capsys.readouterr().err


def test_sweep_requires_out(capsys):
    assert main(["sweep", "--axis", "J=0:1:0.5", "--fix", "Jz=1",
                 "--fix", "B=1", "--fix", "T=1"]) == 2
    assert "--out" in capsys.readouterr().err


def test_sweep_rejects_unknown_format(capsys, tmp_path):
    out = tmp_path / "grid.xml"
    assert main(["sweep", "--axis", "J=0:1:0.5", "--fix", "Jz=1", "--fix", "B=1",
                 "--fix", "T=1", "--format", "xml", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--format" in err and "'xml'" in err
    assert not out.exists()


def test_sweep_and_plot_need_an_axis(capsys, tmp_path):
    for command in ("sweep", "plot"):
        assert main([command, "--fix", "J=1", "--fix", "Jz=1", "--fix", "B=1",
                     "--fix", "T=1", "--out", str(tmp_path / "x")]) == 2
        assert "a sweep needs at least one --axis" in capsys.readouterr().err


def test_point_reports_repeated_measures_once(capsys):
    assert main(["point", "--measure", "QFI", "--measure", "SCn",
                 "--measure", "QFI", *BELL_POINT]) == 0
    repeated = capsys.readouterr().out
    assert main(["point", "--measure", "QFI", "--measure", "SCn", *BELL_POINT]) == 0
    assert capsys.readouterr().out == repeated


def test_point_reports_all_measures_by_default(capsys):
    assert main(["point", *BELL_POINT]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["engine"] == "closed"
    assert list(doc["measures"]) == list(MEASURES)
    assert abs(doc["measures"]["SCn"] - 3.0) <= 1e-3
    assert abs(doc["measures"]["QFI"] - 4.0) <= 1e-3


def test_consecutive_calls_share_no_parser_state(capsys):
    first = ["point", "--measure", "QFI", "--measure", "SCn", *BELL_POINT]
    assert main(first) == 0
    once = capsys.readouterr().out
    assert main(["point", "--fix", "J=1", "--fix", "Jz=1", "--fix", "B=1",
                 "--fix", "T=1", "--engine", "both"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"J": 1.0, "Jz": 1.0, "B": 1.0, "T": 1.0}
    assert doc["engine"] == "both"
    assert list(doc["measures"]) == list(MEASURES)
    assert main(first) == 0
    assert capsys.readouterr().out == once
    assert list(json.loads(once)["measures"]) == ["QFI", "SCn"]


def test_cli_imports_without_scipy():
    src = str(Path(xxzsteer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, xxzsteer.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_point_engine_both_carries_three_entries(capsys):
    assert main(["point", *BELL_POINT, "--engine", "both",
                 "--measure", "SCRE"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entry = doc["measures"]["SCRE"]
    assert set(entry) == {"oracle", "closed", "absdiff"}
    assert abs(entry["closed"] - 3.0) <= 1e-3
    assert entry["absdiff"] <= 1e-8


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--measure", "SCn", "--axis", "J=-1:1:0.5",
            "--axis", "Jz=-1:1:1", "--fix", "T=2", "--fix", "B=1",
            "--out", str(out)]
    assert main(argv) == 0
    table = read_csv(out)
    assert table.columns == ("J", "Jz", "SCn")
    assert table.data.shape == (15, 3)


def test_sweep_writes_json(tmp_path):
    out = tmp_path / "grid.json"
    argv = ["sweep", "--measure", "QFI", "--axis", "T=0.5:2:0.5",
            "--fix", "J=1", "--fix", "Jz=1", "--fix", "B=1",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["columns"] == ["T", "QFI"]
    assert len(doc["rows"]) == 4


def test_plot_writes_line_svg(tmp_path):
    out = tmp_path / "lines.svg"
    argv = ["plot", "--measure", "SCn", "--measure", "QFI",
            "--axis", "J=-2:2:0.25", "--fix", "Jz=0", "--fix", "B=1",
            "--fix", "T=0.5", "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count('class="series"') == 2


def test_plot_heatmap_needs_single_measure(capsys, tmp_path):
    argv = ["plot", "--axis", "J=-1:1:0.5", "--axis", "Jz=-1:1:0.5",
            "--fix", "B=1", "--fix", "T=2", "--out", str(tmp_path / "h.svg")]
    assert main(argv) == 2
    assert "one value column" in capsys.readouterr().err


def test_axis_count_past_double_range_exits_two(capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--axis", "J=0:1e300:1e-300", "--fix", "Jz=1",
            "--fix", "B=1", "--fix", "T=1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "xxzsteer: error: axis J: inf points exceeds 1000000\n"
    assert not out.exists()


def test_huge_axis_count_is_printed_short(capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--axis", "J=0:1e200:1", "--fix", "Jz=1",
            "--fix", "B=1", "--fix", "T=1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "xxzsteer: error: axis J: 1e+200 points exceeds 1000000\n"
    assert not out.exists()


def test_grid_over_the_cell_cap_exits_two_before_the_sweep(capsys, tmp_path, monkeypatch):
    def no_sweep(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--axis", "J=0:999999:1", "--axis", "Jz=0:999999:1",
            "--fix", "B=1", "--fix", "T=1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "xxzsteer: error: grid of 1000000 x 1000000 = 1000000000000 cells "
        "exceeds 1000000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, axes",
    [
        ("lines", ["--axis", "J=-1:1:0.5", "--axis", "Jz=-1:1:0.5", "--fix", "B=1"]),
        ("heatmap", ["--axis", "J=-1:1:0.5", "--fix", "Jz=0", "--fix", "B=1"]),
    ],
)
def test_plot_mode_that_does_not_fit_the_axes_exits_two_before_the_sweep(
    capsys, tmp_path, monkeypatch, mode, axes
):
    def no_sweep(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "p.svg"
    argv = ["plot", "--mode", mode, "--measure", "SCn", *axes, "--fix", "T=2",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"xxzsteer: error: --mode {mode} needs ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["lines", "heatmap"])
def test_plot_accepts_the_mode_its_axes_give(tmp_path, mode):
    out = tmp_path / "p.svg"
    axes = ["--axis", "J=-1:1:0.5", "--fix", "Jz=0"]
    if mode == "heatmap":
        axes = ["--axis", "J=-1:1:0.5", "--axis", "Jz=-1:1:0.5"]
    argv = ["plot", "--mode", mode, "--measure", "SCn", *axes, "--fix", "B=1",
            "--fix", "T=2", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8").startswith("<svg")


def test_plot_heatmap_single_measure(tmp_path):
    out = tmp_path / "heat.svg"
    argv = ["plot", "--measure", "SCn", "--axis", "J=-1:1:0.5",
            "--axis", "Jz=-1:1:0.5", "--fix", "B=1", "--fix", "T=2",
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8").count('class="cell"') == 25


def test_identical_argv_gives_identical_bytes(tmp_path):
    argv = lambda name: ["sweep", "--measure", "SCRE", "--axis", "J=-1:1:0.25",
                         "--fix", "Jz=1", "--fix", "B=2", "--fix", "T=0.7",
                         "--out", str(tmp_path / name)]
    assert main(argv("a.csv")) == 0
    assert main(argv("b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_unwritable_output_exits_one(capsys, tmp_path):
    argv = ["sweep", "--measure", "SCn", "--axis", "J=0:1:0.5",
            "--fix", "Jz=1", "--fix", "B=1", "--fix", "T=1",
            "--out", str(tmp_path / "missing" / "dir" / "f.csv")]
    assert main(argv) == 1
    assert "cannot write" in capsys.readouterr().err
