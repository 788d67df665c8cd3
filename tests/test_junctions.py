"""Junction coupling: boundary fluxes, priorities and buffer updates."""

import math

import numpy as np
import pytest

from bufferlane import junctions
from bufferlane.junctions import DemandMode, JunctionTable
from bufferlane.network import JunctionSpec, NodeKind
from conftest import node_buffer_step as buffer_step
from conftest import (every_row_network, node_fluxes, node_flows,
                      one_node_table)


def split_spec(alpha=(0.5, 0.5), mu=0.25, r_max=0.3):
    return JunctionSpec(id="j", kind=NodeKind.ONE_TO_TWO, r_max=r_max,
                        mu=mu, alpha=alpha)


def merge_spec(priority="demand_proportional", mu=0.25, r_max=0.3):
    return JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=r_max,
                        mu=mu, priority=priority)


def pass_spec(mu=0.25, r_max=0.3):
    return JunctionSpec(id="j", kind=NodeKind.ONE_TO_ONE, r_max=r_max, mu=mu)


# the kernels, each evaluated through a one-node junction table

def one_to_two_fluxes(rho1_end, rho2_start, rho3_start, r, spec):
    return node_fluxes(spec, (rho1_end,), (rho2_start, rho3_start), r)


def two_to_one_fluxes(rho1_end, rho2_end, rho3_start, r, spec,
                      mode=DemandMode.STANDARD):
    return node_fluxes(spec, (rho1_end, rho2_end), (rho3_start,), r, mode)


def one_to_one_fluxes(rho1_end, rho2_start, r, spec):
    return node_fluxes(spec, (rho1_end,), (rho2_start,), r)


def source_fluxes(f_in, rho_first, r, mu):
    spec = JunctionSpec(id="s", kind=NodeKind.SOURCE, mu=mu,
                        inflow=((0.0, f_in),))
    (q,) = node_fluxes(spec, (), (rho_first,), r)
    return q, f_in - q


def sink_flux(rho_last):
    return node_fluxes(JunctionSpec(id="t", kind=NodeKind.SINK),
                       (rho_last,), (), 0.0)[0]


class TestInflowTable:
    TAU = 0.05

    def check(self, table, specs, steps=120):
        got = table.inflow_table(self.TAU, steps)
        assert got.shape == (steps, len(specs))
        for col, spec in zip(got.T, specs):
            want = np.array([spec.inflow_at(n * self.TAU)
                             for n in range(steps)])
            assert col.tobytes() == want.tobytes()

    def test_breakpoints_on_and_near_grid_times(self):
        # on a grid time (20 tau), within 1e-15 after and before one
        # (inflow_at's tolerance), 2e-15 after one, between grid times,
        # and an out-of-order breakpoint inflow_at never reaches
        assert 20 * self.TAU == 1.0 and 50 * self.TAU == 2.5
        profile = ((0.0, 0.1), (1.0, 0.3), (2.5 + 9e-16, 0.0),
                   (3.0 - 9e-16, 0.2), (3.5 + 2e-15, 0.05), (4.01, 0.15),
                   (4.0, 0.25))
        spec = JunctionSpec(id="s", kind=NodeKind.SOURCE, inflow=profile)
        self.check(one_node_table(spec, 0, 1), [spec])

    def test_first_breakpoint_after_start(self):
        spec = JunctionSpec(id="s", kind=NodeKind.SOURCE,
                            inflow=((1.0, 0.2), (2.0, 0.1)))
        self.check(one_node_table(spec, 0, 1), [spec])

    def test_one_column_per_source_in_node_order(self):
        net, _ = every_row_network()
        self.check(JunctionTable.for_network(net), net.sources(), steps=80)


class TestDynamicPriorities:
    # a full merge buffer takes in min(s3, mu) and shares it out by the
    # right-of-way pair, here below both demands
    def test_proportional(self):
        spec = merge_spec(mu=0.25, r_max=0.3)
        q1, q2, _ = two_to_one_fluxes(0.4, 0.1, 0.9, spec.r_max, spec)
        # demands 0.24 and 0.09
        assert q1 / (q1 + q2) == pytest.approx(8.0 / 11.0)
        assert q2 / (q1 + q2) == pytest.approx(3.0 / 11.0)

    def test_zero_demands_default(self):
        # both demands vanish: the (0.5, 0.5) pair keeps 0/0 out of the
        # fluxes (a RuntimeWarning fails the test)
        spec = merge_spec(mu=0.25, r_max=0.3)
        assert two_to_one_fluxes(0.0, 0.0, 0.3, spec.r_max, spec) == (
            0.0, 0.0, 0.25)


class TestOneToTwo:
    def test_empty_buffer_free_downstream(self):
        spec = split_spec(alpha=(0.6, 0.4))
        q1, q2, q3 = one_to_two_fluxes(0.3, 0.3, 0.3, 0.0, spec)
        # demand 0.21 passes straight through, split 60/40
        assert q1 == pytest.approx(0.21)
        assert q2 == pytest.approx(0.126)
        assert q3 == pytest.approx(0.084)

    def test_loaded_buffer_pushes_at_mu(self):
        spec = split_spec(alpha=(0.5, 0.5))
        q1, q2, q3 = one_to_two_fluxes(0.1, 0.3, 0.3, 0.1, spec)
        assert q2 == pytest.approx(0.125)
        assert q3 == pytest.approx(0.125)
        # buffer not full: road 1 may send its whole demand up to mu
        assert q1 == pytest.approx(0.09)

    def test_full_buffer_throttles_inflow(self):
        spec = split_spec(alpha=(0.5, 0.5))
        q1, q2, q3 = one_to_two_fluxes(0.5, 0.9, 0.3, spec.r_max, spec)
        # intake limited to what the outgoing roads accept
        assert q2 == pytest.approx(0.09)
        assert q3 == pytest.approx(0.125)
        assert q1 == pytest.approx(0.09 + 0.125)

    def test_zero_state(self):
        spec = split_spec()
        assert one_to_two_fluxes(0.0, 0.0, 0.0, 0.0, spec) == (0.0, 0.0, 0.0)


class TestTwoToOne:
    # reference case: mu=0.2, fixed priorities 1/2, densities (0.4, 0.1, 0.5),
    # empty buffer; the two demand conventions disagree here
    def test_pooled_demand_overdraws(self):
        spec = merge_spec(priority=(0.5, 0.5), mu=0.2, r_max=1.0)
        q1, q2, q3 = two_to_one_fluxes(0.4, 0.1, 0.5, 0.0, spec,
                                       mode=DemandMode.POOLED)
        assert q1 == pytest.approx(0.1)
        assert q2 == pytest.approx(0.09)
        assert q3 == pytest.approx(0.2)
        assert (q1 + q2) - q3 == pytest.approx(-0.01)

    def test_standard_demand_balances(self):
        spec = merge_spec(priority=(0.5, 0.5), mu=0.2, r_max=1.0)
        q1, q2, q3 = two_to_one_fluxes(0.4, 0.1, 0.5, 0.0, spec,
                                       mode=DemandMode.STANDARD)
        assert q3 == pytest.approx(0.19)
        assert (q1 + q2) - q3 == pytest.approx(0.0)

    def test_full_buffer_throttles_intake(self):
        spec = merge_spec(mu=0.25, r_max=0.3)
        q1, q2, q3 = two_to_one_fluxes(0.3, 0.3, 0.3, spec.r_max, spec)
        # intake limited by downstream supply, split demand-proportionally
        assert q1 == pytest.approx(0.125)
        assert q2 == pytest.approx(0.125)
        assert q3 == pytest.approx(0.25)

    def test_loaded_buffer_sends_mu(self):
        spec = merge_spec(mu=0.25, r_max=0.3)
        _, _, q3 = two_to_one_fluxes(0.1, 0.1, 0.3, 0.1, spec)
        assert q3 == pytest.approx(0.25)

    def test_mode_equivalence_demand_proportional(self):
        # with demand-proportional priorities the two conventions agree
        spec = merge_spec(mu=0.22, r_max=0.4)
        for rho in ((0.2, 0.7, 0.3), (0.45, 0.5, 0.8), (0.05, 0.1, 0.1)):
            qh = two_to_one_fluxes(*rho, 0.0, spec, mode=DemandMode.POOLED)
            qs = two_to_one_fluxes(*rho, 0.0, spec, mode=DemandMode.STANDARD)
            assert qh[2] == pytest.approx(qs[2], abs=1e-14)


class TestOneToOne:
    def test_drain_case(self):
        # loaded buffer between a light and a half-full road
        spec = pass_spec()
        q1, q2 = one_to_one_fluxes(0.3, 0.5, 0.1, spec)
        assert q1 == pytest.approx(0.21)
        assert q2 == pytest.approx(0.25)

    def test_empty_buffer_pass_through(self):
        spec = pass_spec()
        q1, q2 = one_to_one_fluxes(0.3, 0.3, 0.0, spec)
        assert q1 == q2 == pytest.approx(0.21)

    def test_full_buffer(self):
        spec = pass_spec()
        q1, q2 = one_to_one_fluxes(0.3, 0.9, spec.r_max, spec)
        assert q2 == pytest.approx(0.09)
        assert q1 == pytest.approx(0.09)


class TestSourceSink:
    def test_source_accepts_up_to_mu(self):
        q, rate = source_fluxes(0.5, 0.3, 0.0, 0.25)
        assert q == pytest.approx(0.25)
        assert rate == pytest.approx(0.25)

    def test_source_low_inflow_passes(self):
        q, rate = source_fluxes(0.1, 0.3, 0.0, 0.25)
        assert q == pytest.approx(0.1)
        assert rate == pytest.approx(0.0)

    def test_sink_absorbs_flux(self):
        assert sink_flux(0.7) == pytest.approx(0.21)
        assert sink_flux(1.0) == 0.0


class TestBufferStep:
    def test_euler_update(self):
        r, ev = buffer_step(0.1, 0.21, 0.25, 0.05, r_max=0.3)
        assert r == pytest.approx(0.098)
        assert ev is None

    def test_balance(self):
        r, _ = buffer_step(0.0, 0.2, 0.2, 0.05, r_max=0.3)
        assert r == 0.0

    def test_pooled_negativity_reported(self):
        r, ev = buffer_step(0.0, 0.19, 0.2, 0.05, r_max=1.0,
                            mode=DemandMode.POOLED, node="v", time=0.0)
        assert r == pytest.approx(-0.0005)
        assert ev is not None and ev.node == "v"
        assert ev.load == pytest.approx(-0.0005)

    def test_standard_underflow_limited_to_zero(self):
        # the Euler load -0.0005 is limited before it is checked: the
        # outflow is scaled to stop the buffer at exactly 0.0
        table = one_node_table(merge_spec(r_max=1.0), 2, 1)
        flows = node_flows(table, 0.19, 0.2)
        r, hit, events = junctions.buffer_step(table, np.zeros(1), flows,
                                               0.05)
        assert r[0] == 0.0 and events == []
        assert hit.tolist() == [[True], [False]]
        assert flows[-1] == pytest.approx(0.19)

    def test_pooled_underflow_limited_off_merges(self):
        # pooled loads may go negative only at merges
        table = one_node_table(pass_spec(r_max=1.0), 1, 1)
        r, hit, events = junctions.buffer_step(
            table, np.zeros(1), node_flows(table, 0.19, 0.2), 0.05,
            DemandMode.POOLED)
        assert r[0] == 0.0 and events == []
        assert hit.tolist() == [[True], [False]]

    def test_branches_without_a_hit(self):
        # in range: the Euler loads as computed, flows untouched
        table = one_node_table(merge_spec(r_max=0.3), 2, 1)
        for r, f_in, f_out in ((0.1, 0.2, 0.25), (0.0, 0.2, 0.2),
                               (0.3, 0.0, 0.1), (0.1, 0.21, 0.13)):
            flows = node_flows(table, f_in, f_out)
            before = flows.copy()
            new_r, hit, events = junctions.buffer_step(
                table, np.array([r]), flows, 0.05)
            assert new_r.tobytes() == np.array(
                [r + 0.05 * (f_in - f_out)]).tobytes()
            assert not hit.any() and events == []
            assert flows.tobytes() == before.tobytes()
        # a pooled merge below 0: round-off is clamped to exactly 0.0, a
        # real negative load is kept and reported
        for load, kept in ((-5e-13, 0.0), (-5e-4, -5e-4)):
            new_r, hit, events = junctions.buffer_step(
                table, np.zeros(1), node_flows(table, 0.0, -load), 1.0,
                DemandMode.POOLED, time=2.0)
            assert new_r[0] == kept and not hit.any()
            assert events == ([] if kept == 0.0 else
                              [junctions.NegativityEvent("j", 2.0, kept)])

    def test_unbounded_capacity(self):
        r, _ = buffer_step(1.0, 0.25, 0.0, 0.05, r_max=math.inf)
        assert r == pytest.approx(1.0125)
