"""Network Godunov solver: time stepping, projections and invariants."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from bufferlane import bundled_scenario, scenario as scn
from bufferlane.errors import BufferOutOfRange, CFLViolation, DensityOutOfRange
from bufferlane.junctions import DemandMode, JunctionTable
from bufferlane.network import Edge
from bufferlane.solver import (
    InitialData,
    _chunk_rows,
    advance_step,
    cfl_timestep,
    project_cells,
    simulate,
)
from conftest import (
    buffer_bound_defect,
    every_row_network,
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
        assert cfl_timestep(net, T=1.0) == pytest.approx(0.05)

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
        assert cfl_timestep(net, T=1.0) == pytest.approx(0.025)


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


def stepped(net, init, steps, tau, mode):
    """`steps` plain `advance_step` calls from the initial state, recorded
    step by step: the states, loads, flow vectors, events and the number
    of steps the limiter rescaled each node at 0 and at r_max."""
    table = JunctionTable.for_network(net)
    lam = np.repeat([tau / e.h for e in table.edges], table.widths)
    rho = np.concatenate([project_cells(e, init.densities[e.id])
                          for e in table.edges])
    r = np.array([init.buffers.get(v, 0.0) for v in net.nodes])
    inflows = table.inflow_table(tau, steps)
    states, loads, flows, events = [rho], [r], [], []
    fired = 0
    for n in range(steps):
        rho, r, f, hit, step_events = advance_step(
            table, lam, rho, r, inflows[n], tau, mode, n * tau)
        states.append(rho.copy())  # the next call overwrites rho
        loads.append(r)
        flows.append(f)
        events.extend(step_events)
        fired = fired + hit
    return table, np.array(states), np.array(loads), np.array(flows), \
        events, fired


class TestRecording:
    @pytest.mark.parametrize("mode", list(DemandMode))
    def test_simulate_equals_stepping(self, mode):
        # runs that end before a flush of the recent-steps chunk, on one
        # and just after one must record every step as it was made
        net, init = every_row_network()
        tau = 0.05
        K = _chunk_rows(sum(e.cells for e in net.edges.values()))
        assert K > 2
        for steps in (1, K - 1, K, K + 1, 2 * K + 1):
            log = simulate(net, init, steps * tau, mode)
            table, states, loads, flows, events, fired = stepped(
                net, init, steps, log.tau, mode)
            assert log.steps == steps
            for k, eid in enumerate(net.edges):
                cells = slice(table.first[k], table.last[k] + 1)
                assert np.array_equal(log.rho[eid], states[:, cells])
            E, N = len(net.edges), len(net.nodes)
            for j, series in enumerate((log.q_in, log.q_out)):
                for k, eid in enumerate(net.edges):
                    assert np.array_equal(series[eid], flows[:, j * E + k])
            for k, v in enumerate(net.nodes):
                assert np.array_equal(log.buffers[v], loads[:, k])
                assert np.array_equal(log.node_inflow[v], flows[:, 2 * E + k])
                assert np.array_equal(log.node_outflow[v],
                                      flows[:, 2 * E + N + k])
            assert log.events == events
            assert log.limiter_fired == dict(zip(net.nodes,
                                                 fired.sum(0).tolist()))
        if mode is DemandMode.POOLED:
            assert events  # the last run reaches the pooled merge's events

    def test_peak_memory_bounded_by_cell_vectors(self):
        # beyond the log, simulate holds a few work vectors, the chunk of
        # recent steps and the step's temporaries (about 11 vectors); a
        # copy of one road's 65-step history would add 32.5 more
        net, init = line_network(densities=(0.3, 0.6), h=1 / 16384)
        cells = sum(e.cells for e in net.edges.values())
        tau = cfl_timestep(net, T=1.0)
        tracemalloc.start()
        try:
            log = simulate(net, init, 64 * tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for table in (log.rho, log.buffers, log.q_in,
                                          log.q_out, log.node_inflow,
                                          log.node_outflow)
                   for a in table.values()) + log.t.nbytes
        assert peak - held < 24 * cells * 8


class TestLimiterCounts:
    def test_free_flow_never_fires(self):
        net, init = line_network(densities=(0.3, 0.3, 0.3))
        log = simulate(net, init, 4.0)
        assert log.limiter_fired == {"n0": 0, "n1": 0, "n2": 0, "n3": 0}

    def test_fires_only_at_the_filling_node(self):
        # the dense last road throttles n2, whose buffer fills to r_max
        net, init = line_network(densities=(0.3, 0.3, 0.95))
        log = simulate(net, init, 4.0)
        assert log.buffers["n2"].max() == pytest.approx(0.3, abs=1e-12)
        assert max(log.buffers[v].max() for v in ("n0", "n1", "n3")) < 0.3
        assert log.limiter_fired["n2"] > 0
        assert {v: k for v, k in log.limiter_fired.items() if v != "n2"} == {
            "n0": 0, "n1": 0, "n3": 0}


class TestStepErrors:
    def test_cfl_violation_names_edge(self):
        # tau = 2h on a queue in front of a jam: the 0.95 cell overfills
        net, init = line_network()
        init.densities["e2"] = [(0.0, 0.5), (0.5, 0.95), (0.6, 1.0)]
        stepped(net, init, 20, 0.05, DemandMode.STANDARD)
        with pytest.raises(CFLViolation, match=r"edge e2: density left "
                           r"\[0,1\] at t=0 \(range \[4.200e-01, 1.045e\+00\]\)"):
            stepped(net, init, 5, 0.2, DemandMode.STANDARD)

    @pytest.mark.parametrize("edge, lo", [("e1", "4.200e-01"),
                                          ("e3", "5.000e-01")])
    def test_cfl_violation_names_end_roads(self, edge, lo):
        # the same queue on the first and on the last road of the flat
        # vector: the per-road segments must not shift the edge or range
        net, init = line_network()
        init.densities[edge] = [(0.0, 0.5), (0.5, 0.95), (0.6, 1.0)]
        stepped(net, init, 20, 0.05, DemandMode.STANDARD)
        with pytest.raises(CFLViolation, match=re.escape(
                f"edge {edge}: density left [0,1] at t=0 "
                f"(range [{lo}, 1.045e+00])")):
            stepped(net, init, 5, 0.2, DemandMode.STANDARD)

    @staticmethod
    def overshoot(eps, lam=1.0001):
        """One `advance_step` on an empty line with `eps` in one inner cell
        of e1.  lam > 1 on every cell is past the CFL bound on purpose: the
        cell sends eps (1 - eps) and falls to eps (1 - lam) + lam eps^2."""
        net, init = line_network(densities=(0.0, 0.0, 0.0), inflow=0.0)
        table = JunctionTable.for_network(net)
        rho = np.zeros(sum(table.widths))
        rho[3] = eps
        tau = lam * net.edges["e1"].h
        r = np.zeros(len(net.nodes))
        nu, *_ = advance_step(table, np.full(rho.size, lam), rho, r,
                              table.inflow_table(tau, 1)[0], tau,
                              DemandMode.STANDARD, 0.0)
        return nu

    def test_round_off_clipped_to_zero(self):
        # raw -9.9e-11 is within the clip tolerance 1e-10: exactly 0.0
        nu = self.overshoot(1e-6)
        assert nu[3] == 0.0
        assert nu.min() == 0.0 and nu.max() <= 1.0

    def test_overshoot_beyond_round_off_raises(self):
        # raw -9.0e-10 is past the clip tolerance: a CFL violation on e1
        with pytest.raises(CFLViolation, match=r"edge e1: density left "
                           r"\[0,1\] at t=0 \(range \[-9\.000e-10, "):
            self.overshoot(1e-5)

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

    def test_nonfinite_piece_raises_without_warning(self):
        # inf on half of e2 meets the zero overlap of the cells of the
        # other half: no inf * 0 is computed, so no RuntimeWarning
        net, init = line_network()
        init.densities["e2"] = [(0.0, 0.5), (0.5, float("inf"))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DensityOutOfRange,
                               match="edge e2: initial density inf"):
                simulate(net, init, 1.0)

    def test_density_roundoff_is_clamped(self):
        net, init = line_network()
        init.densities["e2"] = [(0.0, 1.0 + 1e-14)]
        log = simulate(net, init, 1.0)
        assert np.all(log.rho["e2"][0] == 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_buffer_roundoff_is_clamped(self):
        # a load of -5e-13 with no flow through the node must not reach
        # the limiter, which would divide by the zero outflow
        net, init = line_network(densities=(0.0, 0.0, 0.0), inflow=0.0)
        init.buffers["n1"] = -5e-13
        log = simulate(net, init, 1.0)
        assert log.buffers["n1"][0] == 0.0
        for table in (log.rho, log.buffers, log.q_in, log.q_out,
                      log.node_inflow, log.node_outflow):
            assert all(np.isfinite(a).all() for a in table.values())
