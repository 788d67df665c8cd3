"""Randomized invariants: conservation, bounds, determinism, FIFO order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bufferlane.errors import HorizonExceeded, ZeroSpeedAtBoundary
from bufferlane.fluxes import demand, supply
from bufferlane.junctions import DemandMode
from bufferlane.network import DEMAND_PROPORTIONAL, JunctionSpec, NodeKind
from bufferlane.solver import simulate
from conftest import (
    buffer_bound_defect,
    mass_balance_defect,
    node_fluxes,
    random_scenario,
    total_edge_time,
)


class TestModeEquivalence:
    def test_empty_buffer_merge_demands_agree(self):
        # with demand-proportional priorities the two demand constructions
        # coincide whenever both upstream demands are positive
        rng = np.random.default_rng(7)
        spec = JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3,
                            mu=0.2, priority="demand_proportional")
        for _ in range(2000):
            rho1, rho2 = rng.uniform(0.05, 0.95, size=2)
            rho3 = rng.uniform(0.0, 1.0)
            assert demand(rho1) > 0.0 and demand(rho2) > 0.0
            spec.mu = float(rng.uniform(0.02, 0.5))
            q_std = node_fluxes(spec, (rho1, rho2), (rho3,), 0.0,
                                DemandMode.STANDARD)
            q_her = node_fluxes(spec, (rho1, rho2), (rho3,), 0.0,
                                DemandMode.POOLED)
            assert abs(q_std[2] - q_her[2]) < 1e-14


# (roads in, roads out) per node kind
DEGREES = {NodeKind.SOURCE: (0, 1), NodeKind.SINK: (1, 0),
           NodeKind.ONE_TO_ONE: (1, 1), NodeKind.ONE_TO_TWO: (1, 2),
           NodeKind.TWO_TO_ONE: (2, 1)}
DENSITIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
SHARES = st.floats(0.01, 0.99)


@st.composite
def junctions(draw):
    """A node of any kind, with its road densities, load and demand mode."""
    kind = draw(st.sampled_from(list(DEGREES)))
    n_in, n_out = DEGREES[kind]
    mu = draw(st.floats(0.01, max(n_in, n_out) * 0.25))
    spec = JunctionSpec(id="j", kind=kind, mu=mu)
    if kind is NodeKind.SOURCE:
        spec.inflow = ((0.0, draw(st.floats(0.0, 1.0))),)
    if kind not in (NodeKind.SOURCE, NodeKind.SINK):
        spec.r_max = draw(st.floats(0.01, 1.0))
    if kind is NodeKind.ONE_TO_TWO:
        a = draw(SHARES)
        spec.alpha = (a, 1.0 - a)
    if kind is NodeKind.TWO_TO_ONE:
        c = draw(SHARES)
        spec.priority = draw(st.sampled_from([DEMAND_PROPORTIONAL,
                                              (c, 1.0 - c)]))
    cap = spec.r_max if math.isfinite(spec.r_max) else 1.0
    r = 0.0 if kind is NodeKind.SINK else draw(st.one_of(
        st.sampled_from([0.0, cap]), st.floats(0.0, cap)))
    return (spec, draw(st.lists(DENSITIES, min_size=n_in, max_size=n_in)),
            draw(st.lists(DENSITIES, min_size=n_out, max_size=n_out)), r,
            draw(st.sampled_from(list(DemandMode))))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(junctions())
def test_junction_fluxes_within_demand_supply_and_mu(case):
    spec, rho_in, rho_out, r, mode = case
    q = node_fluxes(spec, rho_in, rho_out, r, mode)
    out_of_roads, into_roads = q[:len(rho_in)], q[len(rho_in):]
    assert min(q) >= 0.0
    assert all(x <= demand(rho) for x, rho in zip(out_of_roads, rho_in))
    assert all(x <= supply(rho) for x, rho in zip(into_roads, rho_out))
    if spec.kind is not NodeKind.SINK:  # buffer outflow, then intake
        assert sum(into_roads) <= spec.mu + 1e-15
    if spec.kind not in (NodeKind.SOURCE, NodeKind.SINK):
        assert sum(out_of_roads) <= spec.mu + 1e-15


class TestConservation:
    @pytest.mark.parametrize("seed", [11, 23, 35, 47, 59])
    def test_mass_balance_and_buffer_bounds(self, seed):
        rng = np.random.default_rng(seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 6.0)
        assert mass_balance_defect(log) < 1e-12
        assert buffer_bound_defect(log) <= 1e-12

    @pytest.mark.parametrize("seed", [*range(12), 101])
    def test_mass_balance_pooled(self, seed):
        # only merges may go negative under the pooled demand; every other
        # node keeps the buffer-emptying limiter
        rng = np.random.default_rng(seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 8.0, mode=DemandMode.POOLED)
        assert mass_balance_defect(log) < 1e-12
        assert all(net.nodes[ev.node].kind is NodeKind.TWO_TO_ONE
                   for ev in log.events)


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        net1, init1 = random_scenario(rng1)
        net2, init2 = random_scenario(rng2)
        log1 = simulate(net1, init1, 4.0)
        log2 = simulate(net2, init2, 4.0)
        for eid in log1.rho:
            assert np.array_equal(log1.rho[eid], log2.rho[eid])
        for nid in log1.buffers:
            assert np.array_equal(log1.buffers[nid], log2.buffers[nid])


class TestFifo:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_departure_order_is_preserved(self, seed):
        rng = np.random.default_rng(seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 8.0)
        interior = {n.id for n in net.interior_nodes()}
        checked = 0
        for eid, edge in net.edges.items():
            if edge.target not in interior:
                continue
            for _ in range(5):
                n1 = int(rng.integers(0, log.steps // 3))
                n2 = n1 + int(rng.integers(1, log.steps // 3))
                try:
                    ttt1 = total_edge_time(log, eid, n1)
                    ttt2 = total_edge_time(log, eid, n2)
                except (HorizonExceeded, ZeroSpeedAtBoundary):
                    continue
                t1 = n1 * log.tau
                t2 = n2 * log.tau
                assert t1 + ttt1 <= t2 + ttt2 + 1e-9
                checked += 1
        assert checked > 0
