"""Network Godunov solver: time stepping, projections and invariants."""

import re

import numpy as np
import pytest

from bufferlane import bundled_scenario, scenario as scn
from bufferlane.errors import BufferOutOfRange, CFLViolation, DensityOutOfRange
from bufferlane.junctions import DemandMode
from bufferlane.network import Edge
from bufferlane.solver import (
    InitialData,
    cfl_timestep,
    project_cells,
    simulate,
)
from conftest import (
    buffer_bound_defect,
    line_network,
    mass_balance_defect,
    total_mass,
)


class TestProjectCells:
    def test_uniform(self):
        e = Edge(id="e", source="a", target="b", length=1.0, cells=10)
        np.testing.assert_allclose(project_cells(e, [(0.0, 0.4)]),
                                   np.full(10, 0.4))

    def test_jump_on_cell_boundary(self):
        e = Edge(id="e", source="a", target="b", length=1.0, cells=10)
        cells = project_cells(e, [(0.0, 0.4), (0.5, 0.2)])
        np.testing.assert_allclose(cells[:5], 0.4)
        np.testing.assert_allclose(cells[5:], 0.2)

    def test_jump_inside_cell_averages(self):
        # a jump mid-cell contributes the exact average to that cell
        e = Edge(id="e", source="a", target="b", length=1.0, cells=4)
        cells = project_cells(e, [(0.0, 0.4), (0.375, 0.2)])
        np.testing.assert_allclose(cells, [0.4, 0.3, 0.2, 0.2])

    def test_mass_preserved(self):
        e = Edge(id="e", source="a", target="b", length=2.0, cells=7)
        pieces = [(0.0, 0.1), (0.3, 0.8), (1.1, 0.45)]
        cells = project_cells(e, pieces)
        exact = 0.1 * 0.3 + 0.8 * 0.8 + 0.45 * 0.9
        assert cells.sum() * e.h == pytest.approx(exact, abs=1e-14)


class TestCflTimestep:
    def test_half_min_h(self):
        net, _ = line_network(h=0.1)
        assert cfl_timestep(net) == pytest.approx(0.05)

    def test_shrinks_to_divide_horizon(self):
        net, _ = line_network(h=0.1)
        tau = cfl_timestep(net, T=8.0)
        assert tau <= 0.05 + 1e-15
        assert 8.0 / tau == pytest.approx(round(8.0 / tau))

    def test_mixed_cell_widths(self):
        net, _ = line_network(h=0.1)
        # refine one edge: the smallest h rules
        edges = dict(net.edges)
        edges["e2"] = Edge(id="e2", source="n1", target="n2", length=1.0,
                           cells=20)
        net.edges = edges
        assert cfl_timestep(net) == pytest.approx(0.025)


class TestSimulate:
    def test_constant_state_is_stationary(self):
        # balanced junction fluxes leave a uniform profile unchanged
        net, init = line_network(densities=(0.3, 0.3, 0.3))
        log = simulate(net, init, 2.0)
        for eid in net.edges:
            np.testing.assert_allclose(log.rho[eid][-1], 0.3, atol=1e-13)
        for nid in net.nodes:
            if net.nodes[nid].kind.value not in ("source", "sink"):
                assert abs(log.buffers[nid][-1]) < 1e-13

    def test_zero_data_stays_zero(self):
        net, _ = line_network(densities=(0.0, 0.0), inflow=0.0)
        log = simulate(net, InitialData(), 1.0)
        for eid in net.edges:
            assert log.rho[eid].max() == 0.0

    def test_first_step_buffer_rates(self):
        # three roads at 0.3/0.5/0.7 with r=0.1 on the first interior node:
        # it drains at 0.04 while the second interior buffer grows
        net, init = line_network()
        init.buffers["n1"] = 0.1
        log = simulate(net, init, 0.5)
        tau = log.tau
        assert log.buffers["n1"][1] == pytest.approx(0.1 - tau * 0.04)
        assert log.buffers["n2"][1] > log.buffers["n2"][0]
        for eid in net.edges:
            np.testing.assert_allclose(log.rho[eid][1], log.rho[eid][0],
                                       atol=1e-13)

    def test_linear_buffer_empties_then_shock(self, linear_log):
        log = linear_log
        r2 = log.buffers["n1"]
        hit = np.nonzero(r2 <= 1e-12)[0]
        assert hit.size > 0 and hit[0] * log.tau == pytest.approx(2.5)
        # once empty, the reduced inflow sends a forward shock down road 2
        # (0.3 against 0.5); by T = 8 it has left the road
        assert log.rho["e2"][60][0] == pytest.approx(0.3, abs=0.05)
        assert log.rho["e2"][60][-1] == pytest.approx(0.5, abs=0.05)
        assert abs(log.rho["e2"][-1] - 0.3).max() < 0.05
        # the second buffer grows but stays below capacity
        assert 0.0 < log.buffers["n2"][-1] < 0.3

    def test_riemann_rarefaction_conserves_mass(self):
        # inflow sustains the upstream state, so the fan keeps the profile
        # non-increasing while it spreads
        net, init = line_network(densities=(0.3,), inflow=0.24, h=0.05)
        init.densities["e1"] = [(0.0, 0.4), (0.5, 0.2)]
        log = simulate(net, init, 1.0)
        assert mass_balance_defect(log) < 1e-12
        assert np.all(np.diff(log.rho["e1"][-1]) <= 1e-12)

    def test_buffer_crossing_is_conservative(self):
        # drain a loaded buffer whose emptying instant falls mid-step
        net, init = line_network(densities=(0.1, 0.3), inflow=0.05, h=0.1)
        init.buffers["n1"] = 0.0503
        log = simulate(net, init, 4.0)
        assert mass_balance_defect(log) < 1e-12
        assert buffer_bound_defect(log) < 1e-12

    def test_pooled_mode_records_events(self):
        from bufferlane import bundled_scenario, scenario as scn
        doc = scn.parse_scenario(bundled_scenario("merge_pooled"))
        net = scn.build_network(doc)
        log = simulate(net, scn.build_initial(doc), 1.0,
                       mode=DemandMode.POOLED)
        assert len(log.events) > 0
        assert log.buffers["n3"][-1] < 0.0

    def test_determinism(self):
        net, init = line_network()
        init.buffers["n1"] = 0.1
        a = simulate(net, init, 3.0)
        b = simulate(net, init, 3.0)
        for eid in net.edges:
            assert np.array_equal(a.rho[eid], b.rho[eid])
        for nid in net.nodes:
            assert np.array_equal(a.buffers[nid], b.buffers[nid])

    def test_log_layout(self):
        net, init = line_network()
        log = simulate(net, init, 1.0)
        assert log.steps == int(round(1.0 / log.tau))
        assert log.t.shape == (log.steps + 1,)
        for eid, e in net.edges.items():
            assert log.rho[eid].shape == (log.steps + 1, e.cells)
            assert log.q_in[eid].shape == (log.steps,)

    def test_total_mass_tracks_boundary_fluxes(self, linear_log):
        log = linear_log
        assert mass_balance_defect(log) < 1e-12
        assert total_mass(log, 0) == pytest.approx(0.3 + 0.5 + 0.7 + 0.1)


class TestStepErrors:
    def test_cfl_violation_names_edge(self):
        # tau = 2h on a queue in front of a jam: the 0.95 cell overfills
        net, init = line_network()
        init.densities["e2"] = [(0.0, 0.5), (0.5, 0.95), (0.6, 1.0)]
        simulate(net, init, 1.0, tau=0.05)
        with pytest.raises(CFLViolation, match=r"edge e2: density left "
                           r"\[0,1\] at t=0 \(range \[4.200e-01, 1.045e\+00\]\)"):
            simulate(net, init, 1.0, tau=0.2)

    def test_buffer_out_of_range_names_node(self):
        # an over-full and a NaN pass-through load, a negative source load,
        # and a negative load at a pooled merge, which may go negative only
        # once the run is under way
        doc = scn.parse_scenario(bundled_scenario("merge_pooled"))
        merge = scn.build_network(doc), scn.build_initial(doc)
        line = line_network()
        for (net, init), node, load, bound, mode in (
                (line, "n2", 0.5, 0.3, DemandMode.STANDARD),
                (line, "n1", float("nan"), 0.3, DemandMode.STANDARD),
                (line, "n0", -0.5, float("inf"), DemandMode.STANDARD),
                (merge, "n3", -0.01, 1.0, DemandMode.POOLED)):
            buffers = dict(init.buffers, **{node: load})
            with pytest.raises(BufferOutOfRange, match=re.escape(
                    f"node {node}: buffer load {load} outside [0, {bound}]")):
                simulate(net, InitialData(init.densities, buffers), 1.0,
                         mode=mode)


class TestInitialState:
    def test_density_out_of_range_raises(self):
        for rho in (1.5, -0.01, float("nan"), float("inf")):
            net, init = line_network()
            init.densities["e2"] = [(0.0, rho)]
            with pytest.raises(DensityOutOfRange,
                               match=re.escape(f"edge e2: initial density {rho}")):
                simulate(net, init, 1.0)

    def test_density_roundoff_is_clamped(self):
        net, init = line_network()
        init.densities["e2"] = [(0.0, 1.0 + 1e-14)]
        log = simulate(net, init, 1.0)
        assert np.all(log.rho["e2"][0] == 1.0)
