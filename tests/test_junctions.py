"""Junction coupling: boundary fluxes, priorities and buffer updates."""

import math

import numpy as np
import pytest

from bufferlane import junctions
from bufferlane.errors import InvariantViolation
from bufferlane.junctions import DemandMode, JunctionTable
from bufferlane.network import JunctionSpec, NodeKind
from conftest import node_buffer_step as buffer_step
from conftest import (every_row_network, node_fluxes, node_flows,
                      one_node_table)
import reference


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
        got = table.inflows
        assert got.shape == (steps, len(specs))
        for col, spec in zip(got.T, specs):
            want = np.array([reference.inflow_at(spec.inflow, n * self.TAU)
                             for n in range(steps)])
            assert col.tobytes() == want.tobytes()

    def test_breakpoints_on_and_near_grid_times(self):
        # on a grid time (20 tau), within 1e-15 after and before one
        # (the lookup's tolerance), 2e-15 after one and between grid times
        assert 20 * self.TAU == 1.0 and 50 * self.TAU == 2.5
        profile = ((0.0, 0.1), (1.0, 0.3), (2.5 + 9e-16, 0.0),
                   (3.0 - 9e-16, 0.2), (3.5 + 2e-15, 0.05), (4.01, 0.15))
        spec = JunctionSpec(id="s", kind=NodeKind.SOURCE, inflow=profile)
        self.check(one_node_table(spec, 0, 1, self.TAU, 120), [spec])

    def test_first_breakpoint_after_start(self):
        spec = JunctionSpec(id="s", kind=NodeKind.SOURCE,
                            inflow=((1.0, 0.2), (2.0, 0.1)))
        self.check(one_node_table(spec, 0, 1, self.TAU, 120), [spec])

    def test_one_column_per_source_in_node_order(self):
        net, _ = every_row_network()
        self.check(JunctionTable.for_network(net, self.TAU, 80,
                                             DemandMode.STANDARD),
                   net.sources(), steps=80)


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
                            mode=DemandMode.POOLED, node="v")
        assert r == pytest.approx(-0.0005)
        assert ev is not None and ev.node == "v"
        assert ev.load == pytest.approx(-0.0005)

    def test_standard_underflow_limited_to_zero(self):
        # the Euler load -0.0005 is limited before it is checked: the
        # outflow is scaled to stop the buffer at exactly 0.0
        table = one_node_table(merge_spec(r_max=1.0), 2, 1, tau=0.05)
        flows = node_flows(table, 0.19, 0.2)
        r = np.zeros(1)
        hit = junctions.buffer_step(table, r)
        assert r[0] == 0.0
        assert hit.tolist() == [[True], [False]]
        assert flows[-1] == pytest.approx(0.19)

    def test_pooled_underflow_limited_off_merges(self):
        # pooled loads may go negative only at merges
        table = one_node_table(pass_spec(r_max=1.0), 1, 1, tau=0.05,
                               mode=DemandMode.POOLED)
        r = np.zeros(1)
        node_flows(table, 0.19, 0.2)
        hit = junctions.buffer_step(table, r)
        assert r[0] == 0.0
        assert hit.tolist() == [[True], [False]]

    def test_branches_without_a_hit(self):
        # in range: the Euler loads as computed, flows untouched
        table = one_node_table(merge_spec(r_max=0.3), 2, 1, tau=0.05)
        for r, f_in, f_out in ((0.1, 0.2, 0.25), (0.0, 0.2, 0.2),
                               (0.3, 0.0, 0.1), (0.1, 0.21, 0.13)):
            flows = node_flows(table, f_in, f_out)
            before = flows.copy()
            new_r = np.array([r])
            hit = junctions.buffer_step(table, new_r)
            assert new_r.tobytes() == np.array(
                [r + 0.05 * (f_in - f_out)]).tobytes()
            assert not hit.any()
            assert flows.tobytes() == before.tobytes()
        # a pooled merge below 0: round-off is clamped to exactly 0.0, a
        # real negative load is kept, and found as an event of its step
        table = one_node_table(merge_spec(r_max=0.3), 2, 1, tau=1.0, steps=3,
                               mode=DemandMode.POOLED)
        for load, kept in ((-5e-13, 0.0), (-5e-4, -5e-4)):
            new_r = np.zeros(1)
            node_flows(table, 0.0, -load)
            hit = junctions.buffer_step(table, new_r)
            assert new_r[0] == kept and not hit.any()
            loads = np.array([[0.0], [0.0], [0.0], new_r])  # step 2's
            assert junctions.negativity_events(table.ids, loads, 1.0) == (
                [] if kept == 0.0 else
                [junctions.NegativityEvent("j", 2.0, kept)])

    def test_negativity_events_by_step_then_node(self):
        # row n + 1 holds step n's loads; round-off below 0 is no event
        loads = np.array([[-1.0, 0.0, -1.0],
                          [0.0, -2e-12, -1e-12],
                          [-3e-4, 0.1, -2e-4],
                          [0.0, -1e-3, 0.0]])
        assert junctions.negativity_events(["a", "b", "c"], loads, 0.5) == [
            junctions.NegativityEvent("b", 0.0, -2e-12),
            junctions.NegativityEvent("a", 0.5, -3e-4),
            junctions.NegativityEvent("c", 0.5, -2e-4),
            junctions.NegativityEvent("b", 1.0, -1e-3)]

    @pytest.mark.parametrize("r, inflow, outflow, r_max, message", [
        (0.0, 3.645e10, 1.215e10, 1.0,
         "node nX: buffer 1.0000019073486328 > r_max 1.0"),
        (1.0, 1.215e10, 3.645e10, 5.0,
         "node nX: buffer -1.9073486328125e-06 < 0"),
    ])
    def test_load_off_its_bound_after_the_limiter_is_fatal(
            self, r, inflow, outflow, r_max, message):
        # flows of 1e10 leave the limited load about 2e-6 past its bound,
        # beyond the 1e-12 of round-off the clamp absorbs
        with pytest.raises(InvariantViolation) as info:
            buffer_step(r, inflow, outflow, 1.0, r_max=r_max, node="nX")
        assert str(info.value) == message

    def test_unbounded_capacity(self):
        r, _ = buffer_step(1.0, 0.25, 0.0, 0.05, r_max=math.inf)
        assert r == pytest.approx(1.0125)
