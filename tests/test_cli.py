"""Command line interface: subcommands, exit codes and output files."""

import contextlib
import io
import json
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bufferlane import bundled_scenario
from bufferlane.cli import main
from bufferlane.run import execute
from bufferlane.scenario import (
    ScenarioDoc,
    write_buffer_csv,
    write_density_csv,
    write_route_summary,
    write_trajectory_csv,
)

LINEAR = bundled_scenario("linear").splitlines()
# (line, start, end) of every value: the right side of key=value and the
# number of a density/buffer line
VALUES = [(i, *m.span(1)) for i, line in enumerate(LINEAR)
          for pattern in (r"=(\S*)", r"^(?:density|buffer) \S+ (\S+)")
          for m in re.finditer(pattern, line)]


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


def test_manifest_records_limiter_counts(linear_file, tmp_path):
    # the linear scenario's buffer at n2 empties once in mid-step
    out = tmp_path / "out"
    assert main(["run", str(linear_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["limiter_fired"] == {"n1": 0, "n2": 1, "n3": 0, "n4": 0}


def test_run_log_stride(linear_file, tmp_path):
    # stride 7 keeps the header and, road by road, the rows of every 7th
    # instant (161 instants: the last kept one is t^154)
    out1 = tmp_path / "full"
    out2 = tmp_path / "strided"
    assert main(["run", str(linear_file), "--out", str(out1)]) == 0
    assert main(["run", str(linear_file), "--out", str(out2),
                 "--log-stride", "7"]) == 0
    full = (out1 / "density.csv").read_text().splitlines()
    strided = (out2 / "density.csv").read_text().splitlines()
    times = list(dict.fromkeys(line.split(",", 1)[0] for line in full[1:]))
    kept = set(times[::7])
    assert len(times) == 161 and len(kept) == 23
    assert strided == [full[0]] + [line for line in full[1:]
                                   if line.split(",", 1)[0] in kept]


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
    ("T=8", "T=8\ndemand_mode=bogus", "run: demand_mode=bogus"),
    ("tracker=complex", "tracker=bogus", "car: tracker=bogus"),
    ("tracker=complex", "tracker=complex\npolicy=bogus", "car: policy=bogus"),
    ("tracker=complex", "tracker=complex\nw_rho=abc", "car: w_rho=abc"),
    ("start_x=0", "start_x=abc", "car: start_x=abc"),
    ("start_x=0", "start_x=nan", "car: start_x=nan"),
    ("start_x=0", "start_x=-1", "car: start_x=-1"),
    ("start_x=0", "start_x=5", "car: start_x=5"),
    ("start_time=0", "start_time=abc", "car: start_time=abc"),
    ("start_time=0", "start_time=0.013", "car: start_time=0.013"),
    ("start_time=0", "start_time=-0.5", "car: start_time=-0.5"),
    ("start_edge=e1", "start_edge=e9", "car: start_edge=e9"),
    ("start_edge=e1\n", "", "car: start_edge=None"),
])
def test_bad_number_exits_with_error_line(tmp_path, capsys, old, new, name):
    path = tmp_path / "bad.scn"
    path.write_text(bundled_scenario("linear").replace(old, new))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) != 0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_bad_log_stride_exits_with_error_line(linear_file, tmp_path, capsys,
                                              stride):
    assert main(["run", str(linear_file), "--out", str(tmp_path / "o"),
                 "--log-stride", stride]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --log-stride {stride} must be >= 1\n"
    assert not (tmp_path / "o").exists()


def test_manifest_records_settings_as_run(linear_file, tmp_path):
    # the overrides and the cell width of the command line, not the file's
    out = tmp_path / "o"
    assert main(["run", str(linear_file), "--out", str(out),
                 "--tracker", "naive", "--h", "0.05"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    run, car = manifest["scenario"]["run"], manifest["scenario"]["car"]
    assert car["tracker"] == "naive" and run["h"] == 0.05
    assert car["policy"] == "shortest" and run["demand_mode"] == "standard"
    assert manifest["cells"] == {"e1": 20, "e2": 20, "e3": 20}


def test_car_settings_checked_without_a_car(tmp_path, capsys):
    # a run with no destination still checks the car settings it is given
    # and records their checked values, defaults included
    path = tmp_path / "merge.scn"
    path.write_text(bundled_scenario("merge_pooled"))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--wrho", "-1"]) == 1
    assert capsys.readouterr().err == (
        "error: car: w_rho=-1.0: must be a finite number in [0, inf]\n")
    assert not out.exists()
    assert main(["run", str(path), "--out", str(out), "--wr", "0.7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["car"] == {
        "w_r": 0.7, "tracker": "complex", "policy": "shortest", "w_rho": 0.5}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.integers(0, len(LINEAR) - 1),
    st.tuples(st.sampled_from(VALUES),
              st.sampled_from(["nan", "inf", "-1", "0", "abc", ""]))))
def test_mutated_scenario_never_raises(mutation):
    # one line dropped, or one value replaced: `run` ends with an exit code
    # and at most one `error:` line, never a traceback
    lines = list(LINEAR)
    if isinstance(mutation, int):
        del lines[mutation]
    else:
        (i, start, end), value = mutation
        lines[i] = lines[i][:start] + value + lines[i][end:]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.scn"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(Path(tmp) / "o")])
    assert isinstance(code, int)
    text = err.getvalue()
    assert text == "" or (text.startswith("error:") and text.count("\n") == 1
                          and text.endswith("\n"))


def test_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.scn")]) == 2


def test_horizon_exceeded_exit_3(linear_file, tmp_path, capsys):
    text = bundled_scenario("linear").replace("T=8", "T=2")
    path = tmp_path / "short.scn"
    path.write_text(text)
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "did not arrive" in capsys.readouterr().out


WAIT_CUT = """\
[network]
node n0 kind=source mu=0.25 inflow=0.21
node n1 kind=one_to_one r_max=0.3 mu=0.25
node n2 kind=sink
edge e1 from=n0 to=n1 length=1
edge e2 from=n1 to=n2 length=1
[initial]
density e1 0.3
density e2 0.5
buffer n1 0.1
[run]
T=1.5
h=0.1
[car]
start_edge=e1
start_x=0
start_time=0
destination=n2
"""


def test_route_json_strict_when_wait_cut_by_horizon(tmp_path, capsys):
    # the car reaches n1 at t = 10/7 and is still waiting there at T:
    # the unknown wait is null, never NaN, which JSON does not have
    path = tmp_path / "wait.scn"
    path.write_text(WAIT_CUT)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3

    def reject(name):
        raise ValueError(f"route.json holds {name}")

    route = json.loads((tmp_path / "o" / "route.json").read_text(),
                       parse_constant=reject)
    assert route["status"] == "horizon_exceeded"
    assert route["arrival"] is None
    assert route["waiting_times"] == [
        {"node": "n1", "arrival": pytest.approx(10.0 / 7.0), "wt": None}]
    assert route["total_waiting"] is None


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


@pytest.mark.parametrize("name, flags", [
    ("linear", ["--tracker", "naive", "--h", "0.05"]),
    ("small_network", ["--policy", "fastest", "--h", "0.05"]),
    ("rarefaction_buffer", ["--policy", "online", "--demand-mode", "pooled"]),
    ("merge_pooled", ["--h", "0.05"]),
])
def test_manifest_re_executes_run(tmp_path, name, flags):
    # the manifest's scenario is the run's only record: executing it again
    # gives the same settings and, through the same writers, the same files
    path = tmp_path / f"{name}.scn"
    path.write_text(bundled_scenario(name))
    out, again = tmp_path / "o", tmp_path / "again"
    assert main(["run", str(path), "--out", str(out), *flags]) == 0
    scenario = json.loads((out / "manifest.json").read_text())["scenario"]
    result = execute(ScenarioDoc(**scenario))
    assert asdict(result.doc) == scenario
    again.mkdir()
    write_density_csv(result.log, again / "density.csv")
    write_buffer_csv(result.log, again / "buffers.csv")
    car, car_log = result.doc.car, result.car_log
    if car_log is not None:
        write_trajectory_csv(car_log, again / "trajectory.csv")
        write_route_summary(again / "route.json", car["policy"],
                            car["start_time"], car_log)
    names = sorted(f.name for f in again.iterdir())
    assert names == sorted(f.name for f in out.iterdir()
                           if f.name != "manifest.json")
    for f in names:
        assert (again / f).read_bytes() == (out / f).read_bytes(), f


def test_verify_subcommand(capsys):
    assert main(["verify"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 6
    assert all("[ok]" in ln for ln in lines)
    assert sum("linear" in ln for ln in lines) == 2
