"""Scenario parsing, network building and result writers."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bufferlane import bundled_scenario
from bufferlane.cli import _StridedView
from bufferlane.errors import ScenarioSemanticError, ScenarioSyntaxError
from bufferlane.junctions import DemandMode
from bufferlane.network import DEMAND_PROPORTIONAL, NodeKind, RoadNetwork
from bufferlane.run import execute
from bufferlane.scenario import (
    build_initial,
    build_network,
    parse_scenario,
    write_buffer_csv,
    write_density_csv,
    write_manifest,
    write_route_summary,
    write_trajectory_csv,
)
from bufferlane.solver import simulate
from conftest import line_network

MINIMAL = """
[network]
node in kind=source mu=0.25 inflow=0.2
node mid kind=one_to_one r_max=0.3 mu=0.25
node out kind=sink
edge e1 from=in to=mid length=1
edge e2 from=mid to=out length=1.5
[initial]
density e1 0.3
density e2 0.0:0.4,0.75:0.2
buffer mid 0.1
[run]
T=6
h=0.1
[car]
start_edge=e1
destination=out
"""


def assert_rejected(doc, error, text):
    """`execute(doc)`, and `simulate` on the doc's network and initial
    data, both raise `error` with `text` before any step."""
    with pytest.raises(error, match=re.escape(text)):
        execute(doc)
    with pytest.raises(error, match=re.escape(text)):
        simulate(build_network(doc), build_initial(doc), 6.0)


class TestParsing:
    def test_minimal_document(self):
        doc = parse_scenario(MINIMAL)
        assert [nid for nid, _ in doc.nodes] == ["in", "mid", "out"]
        assert doc.densities["e2"] == [(0.0, 0.4), (0.75, 0.2)]
        assert doc.buffers == {"mid": 0.1}
        assert doc.run == {"T": "6", "h": "0.1"}
        assert doc.car["destination"] == "out"

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_scenario("# leading comment\n" +
                             MINIMAL.replace("T=6", "T=6  # horizon"))
        assert doc.run["T"] == "6"

    def test_inf_r_max(self):
        doc = parse_scenario(MINIMAL.replace("r_max=0.3", "r_max=inf"))
        net = build_network(doc)
        assert math.isinf(net.nodes["mid"].r_max)

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario("[network]\nnode a kind source\n")
        assert "line 2" in str(exc.value)

    def test_unknown_section(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[wrong]\n")

    def test_content_before_section(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("node a kind=sink\n")

    def test_empty_document(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("\n\n")

    # the parser reads initial data as written; `simulate` checks it, on
    # a parsed document and on a library caller's InitialData alike

    def test_density_for_unknown_edge(self):
        doc = parse_scenario(MINIMAL.replace("density e1", "density ghost"))
        assert_rejected(doc, ScenarioSemanticError,
                        "density for unknown edge 'ghost'")

    def test_density_out_of_range(self):
        doc = parse_scenario(MINIMAL.replace("density e1 0.3", "density e1 1.3"))
        assert_rejected(doc, ScenarioSemanticError,
                        "edge e1: initial density 1.3 outside [0, 1]")

    def test_breakpoints_must_increase(self):
        for pieces in ("0.75:0.4,0.0:0.2", "0.0:0.4,nan:0.2"):
            doc = parse_scenario(MINIMAL.replace("0.0:0.4,0.75:0.2", pieces))
            assert_rejected(doc, ScenarioSemanticError,
                            "edge e2: breakpoints must be strictly increasing")


class TestBuildNetwork:
    def test_cells_from_target_h(self):
        doc = parse_scenario(MINIMAL)
        net = build_network(doc)
        assert net.edges["e1"].cells == 10
        assert net.edges["e2"].cells == 15

    def test_network_validated_once(self, monkeypatch):
        # the network validates itself when made; building adds no check
        calls = []
        validate = RoadNetwork.validate
        monkeypatch.setattr(RoadNetwork, "validate",
                            lambda net: calls.append(net) or validate(net))
        net = build_network(parse_scenario(MINIMAL))
        assert calls == [net]

    def test_explicit_cells_win(self):
        doc = parse_scenario(MINIMAL.replace("length=1\n", "length=1 cells=4\n"))
        net = build_network(doc)
        assert net.edges["e1"].cells == 4

    def test_missing_h_rejected(self):
        doc = parse_scenario(MINIMAL.replace("h=0.1\n", ""))
        with pytest.raises(ScenarioSemanticError):
            build_network(doc)

    def test_priority_parsing(self):
        doc = parse_scenario(bundled_scenario("merge_pooled"))
        net = build_network(doc)
        assert net.nodes["n3"].priority == (0.5, 0.5)
        doc = parse_scenario(bundled_scenario("small_network"))
        net = build_network(doc)
        assert net.nodes["n5"].priority == DEMAND_PROPORTIONAL
        assert net.nodes["n2"].alpha == (0.6, 0.4)
        # named values take the declaration order of the node's roads
        doc = parse_scenario(bundled_scenario("merge_pooled").replace(
            "fixed:0.5,0.5", "fixed:e2:0.3,e1:0.7"))
        assert build_network(doc).nodes["n3"].priority == (0.7, 0.3)

    @pytest.mark.parametrize("old, new, text", [
        # each id names the rule the value breaks and the node or edge
        pytest.param(old, new, text,
                     id=f"{old}-{new}-{rule}-{text.split(':')[0]}")
        for old, new, rule, text in (
            ("inflow=0.2", "inflow=nan", "NonFiniteValue",
             "node in: inflow nan from t=0.0"),
            ("inflow=0.2", "inflow=0:0.2,2:-0.1", "NegativeInflow",
             "node in: inflow -0.1 < 0 from t=2.0"),
            ("buffer mid 0.1", "buffer mid nan", "BufferOutOfRange",
             "node mid: buffer load nan outside [0, 0.3]"),
            ("buffer mid 0.1", "buffer mid 0.5", "BufferOutOfRange",
             "node mid: buffer load 0.5 outside [0, 0.3]"),
            ("buffer mid 0.1", "buffer mid -0.1", "BufferOutOfRange",
             "node mid: buffer load -0.1 outside [0, 0.3]"),
            ("length=1\n", "length=nan\n", "NonFiniteValue",
             "edge e1: length nan at h=0.1 gives no finite cell count"),
            ("length=1\n", "length=inf\n", "NonFiniteValue",
             "edge e1: length inf at h=0.1 gives no finite cell count"),
            ("length=1\n", "length=x\n", "ScenarioSemanticError",
             "edge e1: could not convert string to float: 'x'"),
            ("mu=0.25\n", "mu=abc\n", "ScenarioSemanticError",
             "node mid: could not convert string to float: 'abc'"))])
    def test_bad_numbers_rejected(self, old, new, text):
        # rejected before any simulation step: node and edge values when
        # the network is built, initial loads when `simulate` reads them
        doc = parse_scenario(MINIMAL.replace(old, new))
        with pytest.raises(ScenarioSemanticError,
                           match=f"^{re.escape(text)}$"):
            simulate(build_network(doc), build_initial(doc), 6.0)

    def test_initial_data(self):
        doc = parse_scenario(MINIMAL)
        init = build_initial(doc)
        assert init.densities["e2"] == [(0.0, 0.4), (0.75, 0.2)]
        assert init.buffers["mid"] == 0.1


def write_outputs(result, out):
    """Every result file of `result` in the new directory `out`."""
    out.mkdir()
    write_density_csv(result.log, out / "density.csv")
    write_buffer_csv(result.log, out / "buffers.csv")
    write_trajectory_csv(result.car_log, out / "trajectory.csv")
    write_route_summary(out / "route.json", result.doc.car["policy"],
                        result.doc.car["start_time"], result.car_log)
    write_manifest(out / "manifest.json", result.doc, result.log, {})


def test_typed_settings_run_as_text(tmp_path):
    # a parsed document holds text; one holding numbers, as a library
    # caller may build it, is read by the same converters to the same files
    doc = parse_scenario(bundled_scenario("linear"))
    assert doc.run == {"T": "8", "h": "0.1"} and doc.car["start_x"] == "0"
    typed = replace(doc, run={"T": 8, "h": 0.1},
                    car={**doc.car, "start_x": 0, "start_time": 0})
    write_outputs(execute(doc), tmp_path / "text")
    write_outputs(execute(typed), tmp_path / "typed")
    names = sorted(f.name for f in (tmp_path / "text").iterdir())
    assert len(names) == 5
    for name in names:
        assert ((tmp_path / "text" / name).read_bytes()
                == (tmp_path / "typed" / name).read_bytes()), name


@pytest.mark.parametrize("section, key", [("run", "hh"), ("car", "polcy")])
def test_unknown_setting_rejected_by_execute(section, key):
    # a library document skips the parser's key check: a misspelt setting
    # would run on the default and be recorded as given
    doc = parse_scenario(bundled_scenario("linear"))
    doc = replace(doc, **{section: {**getattr(doc, section), key: "x"}})
    with pytest.raises(ScenarioSemanticError,
                       match=f"^{section}: unknown key '{key}'$"):
        execute(doc)


@pytest.fixture(scope="module")
def result():
    return execute(parse_scenario(MINIMAL))


def _all_equal(log):
    # a row, a whole road and a node series that each hold one value
    log.rho["e2"][2, :] = 0.25
    log.rho["e3"][:] = 0.5
    log.buffers["n2"][:] = 0.1
    return log


# the logs the repr test gives the writers, made from its writable log
CSV_SHAPES = {
    "full": lambda log: log,
    # roads of one cell: every row is one line
    "one-cell": lambda log: SimpleNamespace(
        network=log.network, t=log.t, buffers=log.buffers,
        rho={eid: a[:, :1] for eid, a in log.rho.items()}),
    "all-equal": _all_equal,
    # a log of the initial instant alone
    "one-instant": lambda log: SimpleNamespace(
        network=log.network, t=log.t[:1],
        rho={eid: a[:1] for eid, a in log.rho.items()},
        buffers={nid: a[:1] for nid, a in log.buffers.items()}),
    # the CLI's view at --log-stride 3: road blocks and node series are
    # views that skip rows
    "strided": lambda log: _StridedView(log, 3),
}


class TestWriters:
    def test_density_csv(self, result, tmp_path):
        path = tmp_path / "density.csv"
        write_density_csv(result.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,edge_id,cell_index,rho"
        cells = sum(e.cells for e in result.log.network.edges.values())
        assert len(lines) == 1 + (result.log.steps + 1) * cells
        t, eid, idx, rho = lines[1].split(",")
        assert eid == "e1" and idx == "0"
        assert 0.0 <= float(rho) <= 1.0

    def test_csv_values_written_as_repr(self, tmp_path):
        # the writers print each value exactly as `repr` of the float does:
        # -0.0 stays apart from 0.0, and the smallest subnormal keeps its
        # digits; the reference is the plain loop over every value, for
        # each shape of log in CSV_SHAPES
        net, init = line_network()
        run = simulate(net, init, 1.0)
        for shape, given in CSV_SHAPES.items():
            # the log is read-only: the values go into a writable copy of it
            log = SimpleNamespace(
                network=net, t=run.t,
                rho={eid: a.copy() for eid, a in run.rho.items()},
                buffers={nid: a.copy() for nid, a in run.buffers.items()})
            special = [-0.0, 0.0, 1.0, 5e-324]
            log.rho["e1"][0, :4] = special
            log.rho["e1"][1:5, 0] = special
            log.rho["e2"][3, -4:] = special[::-1]
            log.rho["e3"][-1, :] = -0.0
            log.buffers["n1"][:4] = special
            log = given(log)
            write_density_csv(log, tmp_path / f"{shape}-density.csv")
            write_buffer_csv(log, tmp_path / f"{shape}-buffers.csv")
            density = ["t,edge_id,cell_index,rho"] + [
                f"{float(log.t[n])!r},{eid},{i},{float(hist[n, i])!r}"
                for eid, hist in log.rho.items()
                for n in range(hist.shape[0]) for i in range(hist.shape[1])]
            buffers = ["t,node_id,r"] + [
                f"{float(log.t[n])!r},{nid},{float(r[n])!r}"
                for nid, r in log.buffers.items() for n in range(r.shape[0])]
            assert ((tmp_path / f"{shape}-density.csv").read_text()
                    == "\n".join(density) + "\n"), shape
            assert ((tmp_path / f"{shape}-buffers.csv").read_text()
                    == "\n".join(buffers) + "\n"), shape
            assert "0.0,e1,0,-0.0" in density, shape
            assert any(line.endswith(",5e-324") for line in density), shape

    def test_density_csv_holds_one_row(self, tmp_path):
        # beyond the log the writer holds one row's pieces and text, not a
        # road's or the file's: on 3 roads of 2,000 cells at 150 instants,
        # each row a run of plateaus 8 cells wide, its traced peak stays
        # under a tenth of one road's text (it reads about 0.4 of that)
        rows, cells, roads = 150, 2000, ("e1", "e2", "e3")
        rng = np.random.default_rng(7)
        log = SimpleNamespace(
            network=SimpleNamespace(edges=dict.fromkeys(roads)),
            t=np.arange(rows) * 0.0025,
            rho={eid: rng.random((rows, cells // 8)).repeat(8, axis=1)
                 for eid in roads})
        path = tmp_path / "density.csv"
        tracemalloc.start()
        try:
            write_density_csv(log, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        road_text = (path.stat().st_size
                     - len("t,edge_id,cell_index,rho\n")) / len(roads)
        assert peak < road_text / 10

    def test_buffer_csv(self, result, tmp_path):
        path = tmp_path / "buffers.csv"
        write_buffer_csv(result.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,node_id,r"
        assert len(lines) == 1 + (result.log.steps + 1) * 3

    def test_trajectory_csv(self, result, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result.car_log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,edge_id,x_on_edge,cumulative_distance,status"
        assert len(lines) == 1 + len(result.car_log.samples)

    def test_route_summary(self, result, tmp_path):
        path = tmp_path / "route.json"
        write_route_summary(path, "shortest", 0.0, result.car_log)
        payload = json.loads(path.read_text())
        assert payload["policy"] == "shortest"
        assert payload["path"] == ["e1", "e2"]
        assert payload["status"] == "arrived"
        assert payload["total_waiting"] >= 0.0

    def test_manifest_deterministic(self, result, tmp_path):
        doc = parse_scenario(MINIMAL)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, doc, result.log, {})
        write_manifest(p2, doc, result.log, {})
        assert p1.read_text() == p2.read_text()
        payload = json.loads(p1.read_text())
        assert payload["tau"] == result.log.tau
        assert payload["cells"] == {"e1": 10, "e2": 15}
