"""Command line interface: subcommands, exit codes and output files."""

import json

import pytest

from bufferlane import bundled_scenario
from bufferlane.cli import main


@pytest.fixture()
def linear_file(tmp_path):
    path = tmp_path / "linear.scn"
    path.write_text(bundled_scenario("linear"))
    return path


def test_run_writes_outputs(linear_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(linear_file), "--out", str(out)])
    assert code == 0
    for name in ("density.csv", "buffers.csv", "trajectory.csv",
                 "route.json", "manifest.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "arrival=7.61905" in stdout
    assert "trajectory error vs built-in oracle" in stdout
    route = json.loads((out / "route.json").read_text())
    assert route["path"] == ["e1", "e2", "e3"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["truncation_error"] < 1e-12
    assert manifest["demand_mode"] == "standard"


def test_run_log_stride(linear_file, tmp_path):
    out1 = tmp_path / "full"
    out2 = tmp_path / "strided"
    assert main(["run", str(linear_file), "--out", str(out1)]) == 0
    assert main(["run", str(linear_file), "--out", str(out2),
                 "--log-stride", "10"]) == 0
    full = (out1 / "density.csv").read_text().splitlines()
    strided = (out2 / "density.csv").read_text().splitlines()
    assert len(strided) < len(full)
    assert strided[0] == full[0]


def test_run_pooled_mode_prints_events(tmp_path, capsys):
    path = tmp_path / "merge.scn"
    path.write_text(bundled_scenario("merge_pooled"))
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "negativity event" in capsys.readouterr().out


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("[network]\nnode a kind\n")
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, name", [
    ("inflow=0.21", "inflow=nan", "node n1"),
    ("inflow=0.21", "inflow=0:0.21,4:-0.1", "node n1"),
    ("buffer n2 0.1", "buffer n2 nan", "node n2"),
    ("buffer n2 0.1", "buffer n2 0.4", "node n2"),
    ("edge e1 from=n1 to=n2 length=1", "edge e1 from=n1 to=n2 length=nan",
     "edge e1"),
    ("edge e1 from=n1 to=n2 length=1", "edge e1 from=n1 to=n2 length=inf",
     "edge e1"),
    ("T=8", "T=abc", "run: T=abc"),
    ("T=8", "T=nan", "run: T=nan"),
    ("T=8\n", "", "run: T=None"),
    ("h=0.1", "h=nan", "cell width h=nan"),
])
def test_bad_number_exits_with_error_line(tmp_path, capsys, old, new, name):
    path = tmp_path / "bad.scn"
    path.write_text(bundled_scenario("linear").replace(old, new))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) != 0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.scn")]) == 2


def test_horizon_exceeded_exit_3(linear_file, tmp_path, capsys):
    text = bundled_scenario("linear").replace("T=8", "T=2")
    path = tmp_path / "short.scn"
    path.write_text(text)
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "did not arrive" in capsys.readouterr().out


def test_unreachable_destination_exit_4(tmp_path, capsys):
    text = bundled_scenario("linear").replace("destination=n4",
                                              "destination=n1")
    path = tmp_path / "loop.scn"
    path.write_text(text)
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 4


def test_policy_override(tmp_path, capsys):
    path = tmp_path / "net.scn"
    path.write_text(bundled_scenario("small_network"))
    code = main(["run", str(path), "--out", str(tmp_path / "o"),
                 "--policy", "shortest", "--h", "0.05"])
    assert code == 0
    route = json.loads((tmp_path / "o" / "route.json").read_text())
    assert route["policy"] == "shortest"


def test_verify_subcommand(capsys):
    assert main(["verify"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 6
    assert all("[ok]" in ln for ln in lines)
    assert sum("linear" in ln for ln in lines) == 2
