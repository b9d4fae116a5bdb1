from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xxzsteer
from xxzsteer import cli, steering
from xxzsteer.cli import main
from xxzsteer.sweep import ENGINES, MEASURES

from conftest import parse_csv


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


def test_axis_whose_last_step_rounds_past_its_stop_ends_at_the_stop(capsys, tmp_path):
    """-999.9 + 0.1 * 19999 rounds to 1000.0000000000001, outside the box."""
    out = tmp_path / "x.csv"
    argv = ["sweep", "--axis", "J=-999.9:1000:0.1", "--fix", "Jz=0", "--fix", "B=1",
            "--fix", "T=1", "--measure", "SCn", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    columns, data = parse_csv(out)
    assert columns == ("J", "SCn") and len(data) == 20000
    assert data[-1, 0] == 1000.0 and data[:, 0].max() == 1000.0


def test_earlier_cells_error_comes_before_a_later_cell_outside_the_box(capsys, tmp_path):
    """Cell J=1 overflows QFIclosed; cell J=1001, later, leaves the box."""
    out = tmp_path / "x.csv"
    argv = ["sweep", "--axis", "J=1:1500:1", "--fix", "Jz=0", "--fix", "B=1",
            "--fix", "T=0.001", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "xxzsteer: published QFI ratio overflows double precision at "
        "J=1.0, Jz=0.0, B=1.0, T=0.001\n"
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


SWEEP_FIXED = ["--fix", "Jz=1", "--fix", "B=1", "--fix", "T=1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["point", "--fix", "J1", *SWEEP_FIXED], "--fix expects NAME=VALUE, got 'J1'"),
        (["sweep", "--axis", "J", *SWEEP_FIXED, "--out", "x.csv"],
         "--axis expects NAME=START:STOP:STEP, got 'J'"),
        (["sweep", "--axis", "J=0:x:1", *SWEEP_FIXED, "--out", "x.csv"],
         "--axis J: '0:x:1' contains a non-number"),
        (["sweep", "--axis", "J=0:1:0.5", *SWEEP_FIXED],
         "the following arguments are required: --out"),
        (["plot", "--axis", "J=0:1:0.5", *SWEEP_FIXED],
         "the following arguments are required: --out"),
        (["sweep", "--axis", "T=0:1:0.5", "--fix", "J=1", "--fix", "Jz=1",
          "--fix", "B=1", "--out", "x.csv"],
         "T=0.0 is below the supported floor 0.001"),
        (["point", "--fix", "J=1"],
         "missing parameters, neither swept nor fixed: ['B', 'Jz', 'T']"),
        (["sweep", "--axis", "J=0:1:0.5", "--fix", "B=1", "--out", "x.csv"],
         "missing parameters, neither swept nor fixed: ['Jz', 'T']"),
    ],
    ids=["fix-without-equals", "axis-without-equals", "axis-non-number",
         "sweep-without-out", "plot-without-out", "T-axis-below-the-floor",
         "point-missing-parameters", "sweep-missing-parameters"],
)
def test_usage_errors_exit_two_with_their_message(argv, message, capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"xxzsteer: error: {message}\n"
    assert not list(tmp_path.iterdir())


REQUESTS = {
    "point": ["point", "--fix", "J=1", *SWEEP_FIXED],
    "sweep": ["sweep", "--axis", "J=0:1:0.5", *SWEEP_FIXED, "--out", "x"],
    "plot": ["plot", "--axis", "J=0:1:0.5", *SWEEP_FIXED, "--out", "x"],
}


@pytest.mark.parametrize("command", REQUESTS)
@pytest.mark.parametrize(
    "flag, message",
    [
        (["--measure", "Foo"],
         "unknown measure 'Foo'; choose from ('SCn', 'SCRE', 'SCREpaper', 'QFI', "
         "'QFIclosed')"),
        (["--engine", "fast"],
         "unknown engine 'fast'; choose from ('oracle', 'closed', 'both')"),
    ],
    ids=["measure", "engine"],
)
def test_unknown_measure_or_engine_exits_two_with_the_spec_message(
    command, flag, message, capsys, tmp_path, monkeypatch
):
    """SweepSpec alone checks measure and engine names, on every command."""
    monkeypatch.chdir(tmp_path)
    assert main([*REQUESTS[command], *flag]) == 2
    assert capsys.readouterr().err == f"xxzsteer: error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", REQUESTS)
def test_help_names_every_measure_and_engine(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--measure {%s}" % ",".join(MEASURES) in out
    assert "--engine {%s}" % ",".join(ENGINES) in out


def test_a_bad_fix_is_reported_before_a_bad_measure(capsys):
    """The request is checked in one pass: --fix is parsed before SweepSpec
    checks the measure names."""
    assert main(["point", "--measure", "Foo", "--fix", "X", *SWEEP_FIXED]) == 2
    assert capsys.readouterr().err == "xxzsteer: error: --fix expects NAME=VALUE, got 'X'\n"


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


# Command lines whose outcome must not depend on whether main hands them to a
# subparser directly or through the top-level parser; "OUT" is a file path.
DISPATCH_LINES = {
    "nothing": [],
    "short help": ["-h"],
    "long help": ["--help"],
    "unknown command": ["frobnicate", *BELL_POINT],
    "command help": ["point", "-h"],
    "plot help": ["plot", "--help"],
    "unknown flag after the command": ["point", *BELL_POINT, "--bogus"],
    "abbreviated flag": ["point", "--fi", "J=10", *BELL_POINT[2:]],
    "stray positional": ["point", "stray", *BELL_POINT],
    "sweep without --out": ["sweep", "--axis", "J=0:1:0.5", *BELL_POINT[2:]],
    "option before the command": ["--fix", "J=10", "point", *BELL_POINT[2:]],
    "help before the command": ["-h", "point"],
    "double dash before the command": ["--", "point", *BELL_POINT],
    "double dash after the command": ["point", "--", *BELL_POINT],
    "double dash at the end": ["point", *BELL_POINT, "--"],
    "bad --jobs": ["point", *BELL_POINT, "--jobs", "x"],
    "point": ["point", *BELL_POINT, "--measure", "QFI", "--engine", "both"],
    "point with = forms": ["point", "--fix=J=10", "--fix=Jz=2", "--fix=B=0", "--fix=T=0.01"],
    "sweep": ["sweep", "--axis", "J=0:1:0.5", *BELL_POINT[2:], "--out", "OUT"],
    "plot with a wrong mode": ["plot", "--axis", "J=0:1:0.5", *BELL_POINT[2:],
                               "--mode", "heatmap", "--out", "OUT"],
}


@pytest.mark.parametrize("argv", DISPATCH_LINES.values(), ids=DISPATCH_LINES)
def test_direct_dispatch_matches_the_top_level_parser(argv, capsys, monkeypatch, tmp_path):
    """Exit code, stdout, stderr and file of each line match a full parse."""
    outcomes = []
    for direct in (True, False):
        out = tmp_path / f"direct_{direct}"
        if not direct:
            monkeypatch.setattr(cli, "_SUBPARSERS", {})
        code = main([str(out) if arg == "OUT" else arg for arg in argv])
        written = out.read_bytes() if out.exists() else None
        outcomes.append((code, *capsys.readouterr(), written))
    assert outcomes[0] == outcomes[1]


def test_a_line_that_starts_with_a_command_skips_the_top_level_parser(capsys, monkeypatch):
    class Refusing:
        def parse_args(self, argv):
            raise AssertionError(f"top-level parser called with {argv}")

    monkeypatch.setattr(cli, "_PARSER", Refusing())
    assert main(["point", *BELL_POINT, "--measure", "SCn"]) == 0
    assert json.loads(capsys.readouterr().out)["measures"]["SCn"] > 2.9


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
    columns, data = parse_csv(out)
    assert columns == ("J", "Jz", "SCn")
    assert data.shape == (15, 3)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_sweep_to_the_null_device_exits_zero():
    argv = ["sweep", "--measure", "SCn", "--axis", "J=-1:1:0.5",
            "--fix", "Jz=1", "--fix", "T=2", "--fix", "B=1", "--out", os.devnull]
    assert main(argv) == 0


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


def test_plot_heatmap_on_both_engines_exits_two_before_the_sweep(capsys, tmp_path, monkeypatch):
    """One measure on --engine both gives three value columns, which
    plot.layout refuses for two axes before anything is evaluated."""
    def no_sweep(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    out = tmp_path / "h.svg"
    argv = ["plot", "--measure", "SCn", "--engine", "both", "--axis", "J=-1:1:0.5",
            "--axis", "Jz=-1:1:0.5", "--fix", "B=1", "--fix", "T=2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "xxzsteer: error: heatmap requires exactly one value column, got "
        "['SCn_oracle', 'SCn_closed', 'SCn_absdiff']; sweep a single measure "
        "with a single engine\n"
    )
    assert not out.exists()


def test_unknown_fix_name_exits_two(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    for argv in (
        ["point", *BELL_POINT, "--fix", "K=1"],
        ["sweep", "--axis", "J=0:1:0.5", "--fix", "Jz=1", "--fix", "B=1",
         "--fix", "T=1", "--fix", "K=1", "--out", out],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "xxzsteer: error: unknown fixed parameters: ['K']\n"
    assert not (tmp_path / "x.csv").exists()


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


def test_failed_oracle_check_exits_one_without_a_traceback(capsys, monkeypatch):
    """A check inside the oracle is a runtime failure, not a crash."""
    entropy = steering.vn_entropy
    monkeypatch.setattr(steering, "vn_entropy", lambda states: entropy(states) + 1)
    argv = ["point", "--engine", "oracle", "--measure", "SCRE",
            "--fix", "J=1", "--fix", "Jz=0", "--fix", "B=1", "--fix", "T=1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("xxzsteer: relative-entropy coherence came out negative: ")
    assert len(err.splitlines()) == 1


def test_unwritable_output_exits_one(capsys, tmp_path):
    argv = ["sweep", "--measure", "SCn", "--axis", "J=0:1:0.5",
            "--fix", "Jz=1", "--fix", "B=1", "--fix", "T=1",
            "--out", str(tmp_path / "missing" / "dir" / "f.csv")]
    assert main(argv) == 1
    assert "cannot write" in capsys.readouterr().err
