"""Command line interface: subcommands, exit codes and output files."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bufferlane import __version__, bundled_scenario
from bufferlane.cli import main
from bufferlane.junctions import DemandMode
from bufferlane.oracle import ORACLES
from bufferlane.routing import RoutePolicy
from bufferlane.run import execute
from bufferlane.scenario import (
    _KEYS,
    ScenarioDoc,
    write_buffer_csv,
    write_density_csv,
    write_route_summary,
    write_trajectory_csv,
)
from bufferlane.tracker import TrackerKind

# every bundled scenario but the long `block` run
SMALL = ("linear", "merge_pooled", "rarefaction_buffer", "rarefaction_single",
         "small_network")
# finite extremes among them: subnormal, tiny, huge and the largest floats
BAD_VALUES = ["nan", "inf", "-1", "0", "abc", "", "1e-320", "5e-324", "1e-9",
              "1e30", "1e308", "-1e308"]
# the names a [run] or [car] setting may take
NAMES = [k.value for enum in (DemandMode, TrackerKind, RoutePolicy)
         for k in enum] + list(ORACLES)


def value_spans(lines):
    """(line, start, end) of every value: the right side of key=value and
    the number of a density/buffer line."""
    return [(i, *m.span(1)) for i, line in enumerate(lines)
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
    assert manifest["tool_version"] == __version__


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


def assert_error_line(tmp_path, capsys, text, name, code=None):
    """`bufferlane run` on `text` fails (with `code` if given) before it
    writes anything, printing one line that starts `error: {name}`."""
    path = tmp_path / "bad.scn"
    path.write_text(text)
    got = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert got != 0 if code is None else got == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, name", [
    ("inflow=0.21", "inflow=nan", "node n1"),
    ("inflow=0.21", "inflow=0:0.21,4:-0.1", "node n1"),
    ("inflow=0.21", "inflow=0:0.1,abc",
     "node n1: expected x:value pair, got 'abc'"),
    ("inflow=0.21", "inflow=4:0.21,0:0.05",
     "node n1: inflow breakpoints must be strictly increasing"),
    ("buffer n2 0.1", "buffer n2 nan", "node n2"),
    ("buffer n2 0.1", "buffer n2 0.4", "node n2"),
    ("edge e1 from=n1 to=n2 length=1", "edge e1 from=n1 to=n2 length=nan",
     "edge e1"),
    ("edge e1 from=n1 to=n2 length=1", "edge e1 from=n1 to=n2 length=inf",
     "edge e1"),
    ("T=8", "T=abc", "run: T=abc"),
    ("T=8", "T=nan", "run: T=nan"),
    ("T=8\n", "", "run: T=None"),
    ("h=0.1", "h=nan", "run: h=nan"),
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
    ("destination=n4", "destination=zz", "car: destination=zz is not a node"),
    ("oracle=linear", "oracle=bogus", "car: oracle=bogus"),
])
def test_bad_number_exits_with_error_line(tmp_path, capsys, old, new, name):
    assert_error_line(tmp_path, capsys,
                      bundled_scenario("linear").replace(old, new), name)


@pytest.mark.parametrize("old, new, error", [
    ("T=8", "T=1e308", "T=1e+308 at tau=0.05 gives no finite step count"),
    ("start_time=0", "start_time=1e308",
     "car: start_time=1e308: start time 1e+308 is not a grid time"),
    ("to=n2 length=1", "to=n2 length=1e308",
     "edge e1: length 1e+308 at h=0.1 gives no finite cell count"),
    ("node n2 kind=one_to_one r_max=0.3 mu=0.25",
     "node n2 kind=one_to_one r_max=0.3 mu=0.25 inflow=0.3",
     "node n2: inflow on a one_to_one node; only a source reads inflow"),
    ("T=8", "T=1e300", "run too large: 30 cells over 2e+301 steps record "
     "more than 268435456 values"),
    ("h=0.1", "h=1e-9", "run too large: 3000000000 cells over 1.6e+10 steps "
     "record more than 268435456 values"),
    ("to=n2 length=1", "to=n2 length=5e-324",
     "cell width 0.0 gives no time step > 0"),
    ("inflow=0.21", "inflow=1e308",
     "node n1: inflow over T=8.0 overflows its buffer load"),
    ("node n3 kind=one_to_one r_max=0.3 mu=0.25",
     "node n3 kind=one_to_one r_max=0.3 mu=0.25 alpha=0.9,0.1",
     "node n3: alpha on a one_to_one node; only a one_to_two reads alpha"),
    ("node n3 kind=one_to_one r_max=0.3 mu=0.25",
     "node n3 kind=one_to_one r_max=0.3 mu=0.25 priority=fixed:0.2,0.8",
     "node n3: fixed priority on a one_to_one node; only a two_to_one "
     "reads fixed priority"),
    ("edge e2 from=n2 to=n3 length=1", "edge e2 from=n2 to=n3",
     "edge e2: missing 'length'"),
])
def test_extreme_value_exits_1(tmp_path, capsys, old, new, error):
    # a finite value whose step or cell count overflows or whose run
    # would not fit in memory, an inflow, split or priority no step would
    # read, or a missing edge key, is a bad value with one error line, not
    # a traceback
    text = bundled_scenario("linear")
    assert text.count(old) == 1
    assert_error_line(tmp_path, capsys, text.replace(old, new), error, code=1)


def test_huge_finite_r_max_runs_without_warning(tmp_path, capsys):
    # the limiter's room to r_max = 1e308 of a node it does not scale
    # would overflow when divided by tau
    text = bundled_scenario("small_network").replace("h=0.01", "h=0.1")
    path = tmp_path / "huge.scn"
    path.write_text(text.replace("r_max=0.5 mu=0.25 alpha=0.6,0.4",
                                 "r_max=1e308 mu=0.25 alpha=0.6,0.4"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_subnormal_horizon_runs_one_step(tmp_path, capsys):
    # T / tau rounds to less than one step: the run takes one step of T
    path = tmp_path / "tiny.scn"
    path.write_text(bundled_scenario("linear").replace("T=8", "T=1e-320"))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().out.startswith("car did not arrive")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["steps"] == 1 and manifest["tau"] == 1e-320


def test_zero_inflow_on_pass_through_accepted(tmp_path, capsys):
    # the default profile written out changes no output byte
    path = tmp_path / "zero.scn"
    path.write_text(bundled_scenario("linear").replace(
        "node n2 kind=one_to_one r_max=0.3 mu=0.25",
        "node n2 kind=one_to_one r_max=0.3 mu=0.25 inflow=0"))
    assert main(["run", str(path), "--out", str(tmp_path / "zero")]) == 0
    path.write_text(bundled_scenario("linear"))
    assert main(["run", str(path), "--out", str(tmp_path / "plain")]) == 0
    for name in ("density.csv", "buffers.csv", "trajectory.csv"):
        assert ((tmp_path / "zero" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


def test_horizon_exceeded_in_execute_exits_3(tmp_path, capsys):
    # fastest-path planning runs inside `execute`: no path to n4 ends
    # within T=2, so the run stops before writing anything
    text = bundled_scenario("linear").replace("T=8", "T=2").replace(
        "tracker=complex", "tracker=complex\npolicy=fastest")
    assert_error_line(tmp_path, capsys, text,
                      "no path to n4 completes within the horizon", code=3)


@pytest.mark.parametrize("old, new, error", [
    ("density e1 0.3", "density e1 1.3",
     "edge e1: initial density 1.3 outside [0, 1]"),
    ("density e1 0.3", "density ghost 0.3", "density for unknown edge 'ghost'"),
    ("density e1 0.3", "density e1 0.5:0.3,0:0.2",
     "edge e1: breakpoints must be strictly increasing"),
    ("buffer n2 0.1", "buffer zz 0.1", "buffer for unknown node 'zz'"),
    ("buffer n2 0.1", "buffer n2 0.4",
     "node n2: buffer load 0.4 outside [0, 0.3]"),
])
def test_bad_initial_data_exits_1(tmp_path, capsys, old, new, error):
    # initial data parses as written and is checked by `simulate`: a bad
    # value, not a parse error
    assert_error_line(tmp_path, capsys,
                      bundled_scenario("linear").replace(old, new), error,
                      code=1)


@pytest.mark.parametrize("old, new, name", [
    ("priority=demand_proportional", "priority=fixed:0.3,0.3,0.4",
     "node n5: priorities (0.3, 0.3, 0.4) must be two positive numbers"),
    ("priority=demand_proportional", "priority=fixed:1",
     "node n5: priorities (1.0,) must be two positive numbers"),
    ("alpha=0.6,0.4", "alpha=0.3,0.3,0.4", "node n2: alpha (0.3, 0.3, 0.4)"),
    ("alpha=0.6,0.4", "alpha=1", "node n2: alpha (1.0,)"),
    ("priority=demand_proportional", "priority=zipper",
     "node n5: bad priority 'zipper'"),
    # named values name each of the node's roads on that side once
    ("alpha=0.6,0.4", "alpha=e1:0.6,e3:0.4",
     "node n2: alpha must name each of e2, e3 once, or none\n"),
    ("alpha=0.6,0.4", "alpha=e2:0.6,e2:0.4",
     "node n2: alpha must name each of e2, e3 once, or none\n"),
    ("alpha=0.6,0.4", "alpha=e2:1",
     "node n2: alpha must name each of e2, e3 once, or none\n"),
    ("alpha=0.6,0.4", "alpha=e2:0.6,0.4",
     "node n2: alpha must name each of e2, e3 once, or none\n"),
    ("priority=demand_proportional", "priority=fixed:e4:0.7,e7:0.3",
     "node n5: priority must name each of e4, e5 once, or none\n"),
])
def test_bad_pair_exits_with_error_line(tmp_path, capsys, old, new, name):
    # a split or fixed right-of-way pair is two positive numbers summing to
    # 1, given in the order of the node's roads or naming each of them
    assert_error_line(tmp_path, capsys,
                      bundled_scenario("small_network").replace(old, new),
                      name, code=1)


@pytest.mark.parametrize("old, new, error", [
    ("node n4 kind=sink", "node n4 kind=sink\nnode n4 kind=sink",
     "line 8: node 'n4' given twice"),
    ("edge e3 from=n3 to=n4 length=1",
     "edge e3 from=n3 to=n4 length=1\nedge e3 from=n3 to=n4 length=1",
     "line 11: edge 'e3' given twice"),
    ("density e3 0.7", "density e3 0.7\ndensity e3 0.2",
     "line 15: density 'e3' given twice"),
    ("buffer n2 0.1", "buffer n2 0.1\nbuffer n2 0.2",
     "line 16: buffer 'n2' given twice"),
    ("T=8", "T=8\nT=4", "line 18: key 'T' given twice"),
    ("T=8", "T=8 T=4", "line 17: key 'T' given twice"),
    ("tracker=complex", "tracker=complex\ntracker=naive",
     "line 25: key 'tracker' given twice"),
    ("r_max=0.3 mu=0.25", "r_max=0.3 mu=0.1 mu=0.2",
     "line 5: key 'mu' given twice"),
    ("length=1\nedge e3", "length=1 length=2\nedge e3",
     "line 9: key 'length' given twice"),
])
def test_repeated_entry_exits_2(tmp_path, capsys, old, new, error):
    # the last entry would silently win: a repeat is a parse error
    text = bundled_scenario("linear")
    assert old in text
    assert_error_line(tmp_path, capsys, text.replace(old, new, 1), error,
                      code=2)


@pytest.mark.parametrize("old, new, error", [
    ("r_max=0.3 mu=0.25", "r_mx=0.3 mu=0.25", "line 5: unknown node key 'r_mx'"),
    ("length=1\nedge e3", "lenght=1\nedge e3",
     "line 9: unknown edge key 'lenght'"),
    ("h=0.1", "hh=0.1", "line 18: unknown run key 'hh'"),
    ("tracker=complex", "polcy=fastest", "line 24: unknown car key 'polcy'"),
    ("density e1 0.3", "speed e1 0.3", "line 12: unknown initial entry 'speed'"),
])
def test_unknown_key_exits_2(tmp_path, capsys, old, new, error):
    # a misspelt key would silently fall back to its default
    text = bundled_scenario("linear")
    assert old in text
    assert_error_line(tmp_path, capsys, text.replace(old, new, 1), error,
                      code=2)


def test_numeric_ids_run(tmp_path, capsys):
    # ids are tokens: `start_edge=1` and `destination=4` name the road and
    # the node, not numbers
    text = re.sub(r"\be1\b", "1", bundled_scenario("linear"))
    path = tmp_path / "numeric.scn"
    path.write_text(re.sub(r"\bn4\b", "4", text))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.startswith(
        "policy=shortest path=1-e2-e3 arrival=7.61905 waiting=0.857143\n")


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
        "error: car: w_rho=-1.0: must be a finite number >= 0\n")
    assert not out.exists()
    assert main(["run", str(path), "--out", str(out), "--wr", "0.7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["car"] == {
        "w_r": 0.7, "tracker": "complex", "policy": "shortest", "w_rho": 0.5}


@pytest.mark.parametrize("car, error", [
    ("start_x=abc\nstart_edge=e9\nstart_time=-3",
     "car: start_edge=e9 is not an edge"),
    ("start_edge=e1\nstart_x=abc", "car: start_x=abc: could not convert"),
    ("start_edge=e1\nstart_time=-3",
     "car: start_time=-3: start time -3.0 is not a grid time"),
    ("start_x=0.5", "car: start_edge=None is not an edge"),
])
def test_car_start_checked_without_a_car(tmp_path, capsys, car, error):
    # a start given to a run with no destination is checked as for a car
    path = tmp_path / "merge.scn"
    path.write_text(bundled_scenario("merge_pooled") + "[car]\n" + car + "\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: " + error)
    assert not out.exists()
    path.write_text(bundled_scenario("merge_pooled")
                    + "[car]\nstart_edge=e2\nstart_x=0.25\n")
    assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["car"] == {
        "start_edge": "e2", "start_x": 0.25, "start_time": 0.0,
        "tracker": "complex", "policy": "shortest", "w_rho": 0.5, "w_r": 0.5}


@st.composite
def mutated_scenario(draw):
    """A small bundled scenario with one to three lines dropped, repeated
    elsewhere, or inserted as a [run] or [car] setting, or values replaced,
    one after another."""
    # small_network at h=0.1: a tenth of its cells and of its steps, so
    # that one of its runs costs about what a run of the others does
    text = bundled_scenario(draw(st.sampled_from(SMALL)))
    lines = text.replace("h=0.01", "h=0.1").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "repeat", "insert", "replace"]))
        if kind == "drop":
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "repeat":
            line = lines[draw(st.integers(0, len(lines) - 1))]
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "insert":
            section = draw(st.sampled_from(["run", "car"]))
            key = draw(st.sampled_from(_KEYS[section]))
            value = draw(st.sampled_from(BAD_VALUES + NAMES))
            if f"[{section}]" not in lines:
                lines.append(f"[{section}]")
            lines.insert(lines.index(f"[{section}]") + 1, f"{key}={value}")
        else:
            i, start, end = draw(st.sampled_from(value_spans(lines)))
            value = draw(st.sampled_from(BAD_VALUES))
            lines[i] = lines[i][:start] + value + lines[i][end:]
    return lines


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_scenario())
def test_mutated_scenario_never_raises(lines):
    # lines dropped, repeated or inserted, or values replaced: `run` ends
    # with an exit code and at most one `error:` line, never a traceback
    # or a numpy warning
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.scn"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(path), "--out", str(Path(tmp) / "o")])
    assert isinstance(code, int)
    text = err.getvalue()
    assert text == "" or (text.startswith("error:") and text.count("\n") == 1
                          and text.endswith("\n"))


def test_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.scn")]) == 2


def test_non_utf8_file_exits_2(tmp_path, capsys):
    # the bad byte's line is counted in bytes, past a valid two-byte
    # character on line 1
    lines = bundled_scenario("linear").encode().splitlines(keepends=True)
    lines[0] = "# caf\u00e9\n".encode()
    lines.insert(2, b"# \xff\n")
    path = tmp_path / "latin.scn"
    path.write_bytes(b"".join(lines))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# one source road: the density entry is line 6
ONE_ROAD = """[network]
node a kind=source
node b kind=sink
edge e from=a to=b length=1
[initial]
{entry}
[run]
T=1
h=0.1
"""


@pytest.mark.parametrize("entry, value", [
    ("density e abc", "abc"), ("buffer a x", "x"),
    ("density e 0:0.3,abc", "0:0.3,abc")])
def test_initial_value_not_a_number_exits_2(tmp_path, capsys, entry, value):
    assert_error_line(tmp_path, capsys, ONE_ROAD.format(entry=entry),
                      f"line 6: expected a number, got {value!r}", code=2)


def test_scenario_without_edges_exits_2(tmp_path, capsys):
    assert_error_line(tmp_path, capsys,
                      "[network]\nnode a kind=source\nnode b kind=sink\n",
                      "scenario defines no edges", code=2)


@pytest.mark.parametrize("out", ["taken", "taken/o"])
def test_unwritable_out_exits_1(linear_file, tmp_path, capsys, out):
    # an existing file, or a directory under one: one error line, no
    # traceback, and the file is left as it was
    (tmp_path / "taken").write_text("x")
    assert main(["run", str(linear_file), "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (tmp_path / "taken").read_text() == "x"


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


@pytest.mark.parametrize("car, T, code, out, err", [
    # the car reaches n2 at t = T, where no node series has an entry
    ("start_x=1\nstart_time=8", 8, 3,
     "car did not arrive: horizon_exceeded\n", ""),
    ("start_x=1\nstart_time=8\npolicy=fastest", 8, 3, "",
     "error: no path to n4 completes within the horizon\n"),
    ("start_x=0\nstart_time=0\npolicy=fastest\ndestination=n1", 8, 4, "",
     "error: no path n2 -> n1\n"),
    # the horizon cuts the search on e2, but no road leads to n1 at all
    ("start_x=0\nstart_time=0\npolicy=fastest\ndestination=n1", 3, 4, "",
     "error: no path n2 -> n1\n"),
    # an online car is planned by the same static search: at T=3 it used
    # to exit 3 on e2, at T=8 to exit 4 only at the sink n4
    ("start_x=0\nstart_time=0\npolicy=online\ndestination=n1", 8, 4, "",
     "error: no path n2 -> n1\n"),
    ("start_x=0\nstart_time=0\npolicy=online\ndestination=n1", 3, 4, "",
     "error: no path n2 -> n1\n"),
], ids=["shortest-at-horizon", "fastest-at-horizon", "fastest-unreachable",
        "fastest-unreachable-short-horizon", "online-unreachable",
        "online-unreachable-short-horizon"])
def test_car_query_ends_with_its_exit_code(tmp_path, capsys, car, T, code,
                                           out, err):
    text = bundled_scenario("linear").replace("start_x=0\nstart_time=0", car)
    text = text.replace("T=8", f"T={T}")
    text = text.replace("destination=n4\n", "", car.count("destination"))
    text = text.replace("oracle=linear\n", "")
    path = tmp_path / "car.scn"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("tracker", ["naive", "complex"])
@pytest.mark.parametrize("policy", ["shortest", "aggregated", "online",
                                    "fastest"])
def test_road_entered_at_the_horizon_is_not_on_the_path(tmp_path, capsys,
                                                        tracker, policy):
    # at T=1.6 the wait at n2 ends exactly at T: the car never enters e2,
    # and its last row has it waiting on e1 at T
    text = bundled_scenario("linear").replace("T=8", "T=1.6")
    path = tmp_path / "cut.scn"
    path.write_text(text.replace("oracle=linear\n", ""))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--tracker", tracker,
                 "--policy", policy]) == 3
    if policy == "fastest":
        assert capsys.readouterr() == (
            "", "error: no path to n4 completes within the horizon\n")
        return
    assert capsys.readouterr() == ("car did not arrive: horizon_exceeded\n", "")
    assert json.loads((out / "route.json").read_text())["path"] == ["e1"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[-1] == "1.6,e1,1.0,1.0,waiting"


def test_unreachable_destination_exit_4(tmp_path, capsys):
    text = bundled_scenario("linear").replace("destination=n4",
                                              "destination=n1")
    path = tmp_path / "loop.scn"
    path.write_text(text)
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 4


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    # a scenario saved as UTF-8 with a BOM runs as the plain file does
    outs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        path = tmp_path / f"{name}.scn"
        path.write_text(bundled_scenario("linear"), encoding=encoding)
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == 0
        files = sorted((tmp_path / name).iterdir())
        outs.append((capsys.readouterr(), [f.name for f in files],
                     [f.read_bytes() for f in files]))
    assert (tmp_path / "bom.scn").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("h", ["nan", "0", "-1"])
def test_verify_bad_h_exits_with_error_line(capsys, h):
    assert main(["verify", "--h", h]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: run: h={float(h)}: must be a finite number > 0\n"


def test_verify_subcommand(capsys):
    assert main(["verify"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 6
    assert all("[ok]" in ln for ln in lines)
    assert sum("linear" in ln for ln in lines) == 2
