"""Scenario parsing, network building and result writers."""

import json
import math

import pytest

from bufferlane import bundled_scenario
from bufferlane.errors import (
    BufferOutOfRange,
    NegativeInflow,
    NonFiniteValue,
    ScenarioSemanticError,
    ScenarioSyntaxError,
)
from bufferlane.junctions import DemandMode
from bufferlane.network import DEMAND_PROPORTIONAL, NodeKind
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


class TestParsing:
    def test_minimal_document(self):
        doc = parse_scenario(MINIMAL)
        assert [nid for nid, _ in doc.nodes] == ["in", "mid", "out"]
        assert doc.densities["e2"] == [(0.0, 0.4), (0.75, 0.2)]
        assert doc.buffers == {"mid": 0.1}
        assert doc.run == {"T": 6, "h": 0.1}
        assert doc.car["destination"] == "out"

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_scenario("# leading comment\n" +
                             MINIMAL.replace("T=6", "T=6  # horizon"))
        assert doc.run["T"] == 6

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

    def test_density_for_unknown_edge(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(MINIMAL.replace("density e1", "density ghost"))

    def test_density_out_of_range(self):
        with pytest.raises(ScenarioSemanticError):
            parse_scenario(MINIMAL.replace("density e1 0.3", "density e1 1.3"))

    def test_breakpoints_must_increase(self):
        for pieces in ("0.75:0.4,0.0:0.2", "0.0:0.4,nan:0.2"):
            bad = MINIMAL.replace("0.0:0.4,0.75:0.2", pieces)
            with pytest.raises(ScenarioSemanticError):
                parse_scenario(bad)


class TestBuildNetwork:
    def test_cells_from_target_h(self):
        doc = parse_scenario(MINIMAL)
        net = build_network(doc)
        assert net.edges["e1"].cells == 10
        assert net.edges["e2"].cells == 15

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

    @pytest.mark.parametrize("old, new, error, name", [
        ("inflow=0.2", "inflow=nan", NonFiniteValue, "node in"),
        ("inflow=0.2", "inflow=0:0.2,2:-0.1", NegativeInflow, "node in"),
        ("buffer mid 0.1", "buffer mid nan", BufferOutOfRange, "node mid"),
        ("buffer mid 0.1", "buffer mid 0.5", BufferOutOfRange, "node mid"),
        ("buffer mid 0.1", "buffer mid -0.1", BufferOutOfRange, "node mid"),
        ("length=1\n", "length=nan\n", NonFiniteValue, "edge e1"),
        ("length=1\n", "length=inf\n", NonFiniteValue, "edge e1"),
        ("length=1\n", "length=x\n", ScenarioSemanticError, "edge e1"),
        ("mu=0.25\n", "mu=abc\n", ScenarioSemanticError, "node mid"),
    ])
    def test_bad_numbers_rejected(self, old, new, error, name):
        # rejected when the network is built, before any simulation step
        doc = parse_scenario(MINIMAL.replace(old, new))
        with pytest.raises(error, match=name):
            build_network(doc)

    def test_initial_data(self):
        doc = parse_scenario(MINIMAL)
        init = build_initial(doc)
        assert init.densities["e2"] == [(0.0, 0.4), (0.75, 0.2)]
        assert init.buffers["mid"] == 0.1


@pytest.fixture(scope="module")
def result():
    return execute(parse_scenario(MINIMAL))


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
        # digits; the reference is the plain loop over every value
        net, init = line_network()
        log = simulate(net, init, 1.0)
        special = [-0.0, 0.0, 1.0, 5e-324]
        log.rho["e1"][0, :4] = special
        log.rho["e2"][3, -4:] = special[::-1]
        log.rho["e3"][-1, :] = -0.0
        log.buffers["n1"][:4] = special
        write_density_csv(log, tmp_path / "density.csv")
        write_buffer_csv(log, tmp_path / "buffers.csv")
        density = ["t,edge_id,cell_index,rho"] + [
            f"{float(log.t[n])!r},{eid},{i},{float(hist[n, i])!r}"
            for eid, hist in log.rho.items()
            for n in range(hist.shape[0]) for i in range(hist.shape[1])]
        buffers = ["t,node_id,r"] + [
            f"{float(log.t[n])!r},{nid},{float(r[n])!r}"
            for nid, r in log.buffers.items() for n in range(r.shape[0])]
        assert (tmp_path / "density.csv").read_text() == "\n".join(density) + "\n"
        assert (tmp_path / "buffers.csv").read_text() == "\n".join(buffers) + "\n"
        assert "0.0,e1,0,-0.0" in density and "0.0,e1,3,5e-324" in density

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
