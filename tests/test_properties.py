"""Randomized invariants: conservation, bounds, determinism, FIFO order."""

import numpy as np
import pytest

from bufferlane.errors import HorizonExceeded, ZeroSpeedAtBoundary
from bufferlane.fluxes import demand
from bufferlane.junctions import DemandMode
from bufferlane.network import JunctionSpec, NodeKind
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
