"""Randomized invariants: conservation, bounds, determinism, declaration
order, mirror symmetry, x2 scaling, FIFO order, fastest routes."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bufferlane import bundled_scenario, run, scenario as scn
from bufferlane.errors import HorizonExceeded, ZeroSpeedAtBoundary
from bufferlane.junctions import DemandMode
from bufferlane.network import (DEMAND_PROPORTIONAL, JunctionSpec, NodeKind,
                                RoadNetwork)
from bufferlane.routing import RoutePolicy, fixed_path_chooser
from bufferlane.run import plan_route
from bufferlane.solver import InitialData, simulate
from bufferlane.tracker import (CarStatus, TrackerKind, complex_step,
                                naive_step, track_car)
from conftest import (
    TABLES,
    buffer_bound_defect,
    car_step_cases,
    interior_nodes,
    mass_balance_defect,
    node_fluxes,
    random_scenario,
    total_edge_time,
)
from reference import demand, supply


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


def table_bytes(log):
    """Every table of `log` as {table: {id: bytes}}."""
    return {name: {key: a.tobytes() for key, a in getattr(log, name).items()}
            for name in TABLES}


def float_bits(value):
    """`value` with every float written as its hex form, so that `==`
    compares bits (NaN and the sign of 0 included)."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return [float_bits(v) for v in value]
    return value


def keeps_order(ids, paired):
    """Whether the edge ids `ids` keep every list of ids in `paired` in
    its order."""
    return all(sorted(group, key=ids.index) == group for group in paired)


def shuffled(text, rng):
    """`text` with its node lines in a random order and its edge lines
    too."""
    lines = text.splitlines()
    out = list(lines)
    for kind in ("node", "edge"):
        at = [i for i, line in enumerate(lines) if line.startswith(kind + " ")]
        for i, j in zip(at, rng.sample(at, len(at))):
            out[i] = lines[j]
    return "\n".join(out) + "\n"


def named(text):
    """`text` with each split's `alpha` and each merge's fixed `priority`
    naming the roads its values pair with in declaration order."""
    doc = scn.parse_scenario(text)
    lines = text.splitlines()
    for nid, attrs in doc.nodes:
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(f"node {nid} "))
        for key, head, end in (("alpha", "", "from"),
                               ("priority", "fixed:", "to")):
            if key in attrs and attrs[key].startswith(head):
                roads = [e for e, a in doc.edges if a[end] == nid]
                values = attrs[key][len(head):].split(",")
                pairs = ",".join(map(":".join, zip(roads, values)))
                lines[i] = lines[i].replace(f"{key}={attrs[key]}",
                                            f"{key}={head}{pairs}")
    return "\n".join(lines) + "\n"


class TestDeclarationOrder:
    # the bundled scenarios small enough for a few runs each at h = 0.1
    SCENARIOS = ("linear", "merge_pooled", "rarefaction_buffer",
                 "rarefaction_single", "small_network")

    @staticmethod
    def outputs(text):
        doc = scn.parse_scenario(text)
        result = run.execute(replace(doc, run={**doc.run, "h": "0.1"}))
        car = result.car_log
        return table_bytes(result.log), result.log.limiter_fired, (
            car and float_bits([car.samples, car.path, car.arrival_time]))

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_shuffled_lines_give_the_same_run(self, name):
        # with every coefficient naming its roads, any order of the node
        # lines and of the edge lines runs the bundled file bit for bit: up
        # to 8 distinct orders (rarefaction_single has only one other, its
        # two node lines swapped)
        text = bundled_scenario(name)
        given = named(text)
        assert (given != text) == (name in ("merge_pooled", "small_network"))
        rng = random.Random(name)
        orders = {shuffled(given, rng) for _ in range(40)} - {given}
        assert orders
        want = self.outputs(text)
        for again in sorted(orders)[:8]:
            assert self.outputs(again) == want

    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_random_network_gives_the_same_run(self, seed):
        # the node and edge lists given to RoadNetwork in 3 other orders,
        # each split's out-edges and each fixed merge's in-edges in theirs
        net, init = random_scenario(np.random.default_rng(seed))
        mode = list(DemandMode)[seed % 2]
        paired = [net.out_edges[v] for v, node in net.nodes.items()
                  if node.kind is NodeKind.ONE_TO_TWO]
        paired += [net.in_edges[v] for v, node in net.nodes.items()
                   if node.priority != DEMAND_PROPORTIONAL]
        log = simulate(net, init, 4.0, mode)
        want = table_bytes(log), log.limiter_fired
        rng = random.Random(seed)
        for _ in range(3):
            nodes = rng.sample(list(net.nodes.values()), len(net.nodes))
            edges = list(net.edges.values())
            while True:
                edges = rng.sample(edges, len(edges))
                if keeps_order([e.id for e in edges], paired):
                    break
            log = simulate(RoadNetwork(nodes, edges), init, 4.0, mode)
            assert (table_bytes(log), log.limiter_fired) == want


class TestMirrorSymmetry:
    def test_block_halves_are_bitwise_twins(self):
        # n0 splits 0.5/0.5 into two copies of one gadget, e<k>a through
        # a<k> and e<k>b through b<k>, which meet again at m1 and m2
        doc = scn.parse_scenario(bundled_scenario("block"))
        doc = replace(doc, run={**doc.run, "h": "0.05"})
        log = simulate(scn.build_network(doc), scn.build_initial(doc),
                       float(doc.run["T"]))
        tables = table_bytes(log)
        pairs = 0
        for name, table in tables.items():
            ids = [key for key in table if key[0] == "a" or
                   key[0] == "e" and key.endswith("a")]
            for key in ids:
                twin = key[:-1] + "b" if key[0] == "e" else "b" + key[1:]
                assert table[key] == table[twin], (name, key)
            pairs += len(ids)
        # 15 roads in rho, q_in and q_out; 10 nodes in the three node tables
        assert pairs == 3 * 15 + 3 * 10


def doubled(doc):
    """`doc` with every length and time doubled: road lengths, h, T,
    r_max, initial loads, density and inflow breakpoints, start_x and
    start_time.  Densities, rates and the values of the inflows stay."""
    def twice(text):
        return repr(2.0 * float(text))

    nodes = []
    for nid, attrs in doc.nodes:
        attrs = dict(attrs)
        if "r_max" in attrs:
            attrs["r_max"] = twice(attrs["r_max"])
        if "inflow" in attrs:
            attrs["inflow"] = ",".join(f"{2.0 * t!r}:{v!r}" for t, v in
                                       scn._parse_profile(attrs["inflow"]))
        nodes.append((nid, attrs))
    return replace(
        doc, nodes=nodes,
        edges=[(eid, {**attrs, "length": twice(attrs["length"])})
               for eid, attrs in doc.edges],
        densities={e: [(2.0 * x, v) for x, v in profile]
                   for e, profile in doc.densities.items()},
        buffers={v: 2.0 * r for v, r in doc.buffers.items()},
        run={**doc.run, "T": twice(doc.run["T"]), "h": twice(doc.run["h"])},
        car={key: twice(value) if key in ("start_x", "start_time") else value
             for key, value in doc.car.items()})


class TestScaling:
    @pytest.mark.parametrize("name", TestDeclarationOrder.SCENARIOS)
    def test_doubled_lengths_and_times(self, name):
        # LWR with unit maximal speed and density has no length scale: with
        # every length and time doubled, tau doubles and tau / h stays, so
        # each density and flux keeps its bits and each load, time and
        # position doubles exactly (x2 is exact in binary floating point)
        doc = scn.parse_scenario(bundled_scenario(name))
        doc = replace(doc, run={**doc.run, "h": "0.1"})
        cars = [{**doc.car, "policy": policy.value, "tracker": kind.value}
                for policy in RoutePolicy for kind in TrackerKind]
        for car in cars if doc.car else [doc.car]:
            one = run.execute(replace(doc, car=car))
            two = run.execute(doubled(replace(doc, car=car)))
            want = table_bytes(one.log)
            want["buffers"] = {v: (2.0 * r).tobytes()
                               for v, r in one.log.buffers.items()}
            assert table_bytes(two.log) == want
            if not car:
                continue
            a, b = one.car_log, two.car_log
            assert b.path == a.path
            assert float_bits([b.arrival_time, two.predicted_arrival,
                               b.waiting_times, b.travel_times]) == float_bits([
                2.0 * a.arrival_time,
                None if one.predicted_arrival is None
                else 2.0 * one.predicted_arrival,
                [(v, 2.0 * t, 2.0 * w) for v, t, w in a.waiting_times],
                [(e, 2.0 * t, 2.0 * w) for e, t, w in a.travel_times]])
            # except where the complex tracker crosses a fan: its path
            # there takes sqrt(tau) (the fan path of `complex_step`),
            # and sqrt(2 tau) is not sqrt(2) sqrt(tau) to the last bit
            ulps = 4 if car["tracker"] == "complex" else 0
            assert len(b.samples) == len(a.samples)
            for (t, e, x, _, s), (t2, e2, x2, _, s2) in zip(a.samples,
                                                            b.samples):
                assert (2.0 * t, e, s) == (t2, e2, s2)
                assert abs(x2 - 2.0 * x) <= ulps * math.ulp(x2)


    @pytest.mark.parametrize("seed", range(36))
    def test_doubled_random_network(self, seed):
        # the same relation on random networks in both demand modes: every
        # length, r_max, load and breakpoint doubled, and T with them (the
        # modes give different runs on 6 of these seeds, negative pooled
        # loads on 3)
        net, init = random_scenario(np.random.default_rng(seed))
        nodes = [replace(v, r_max=2.0 * v.r_max,
                         inflow=tuple((2.0 * t, q) for t, q in v.inflow))
                 for v in net.nodes.values()]
        edges = [replace(e, length=2.0 * e.length) for e in net.edges.values()]
        twice = InitialData({e: [(2.0 * x, rho) for x, rho in profile]
                             for e, profile in init.densities.items()},
                            {v: 2.0 * r for v, r in init.buffers.items()})
        for mode in DemandMode:
            one = simulate(net, init, 4.0, mode)
            two = simulate(RoadNetwork(nodes, edges).validate(), twice, 8.0,
                           mode)
            want = table_bytes(one)
            want["buffers"] = {v: (2.0 * r).tobytes()
                               for v, r in one.buffers.items()}
            assert (table_bytes(two), two.limiter_fired) == (
                want, one.limiter_fired)


class TestFifo:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_departure_order_is_preserved(self, seed):
        rng = np.random.default_rng(seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 8.0)
        interior = {n.id for n in interior_nodes(net)}
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


def simple_paths(network, edge_id, destination):
    """Every simple edge sequence from road `edge_id` to `destination`
    (the random networks are acyclic)."""
    node = network.edges[edge_id].target
    if node == destination:
        yield [edge_id]
    for nxt in network.out_edges[node]:
        for rest in simple_paths(network, nxt, destination):
            yield [edge_id, *rest]


class TestFastestIsFastest:
    @pytest.mark.parametrize("kind", list(TrackerKind))
    def test_prediction_is_the_best_tracked_arrival(self, kind):
        # fastest_path's prediction equals, bit for bit, the earliest
        # arrival of a car tracked along each simple path; None when no
        # path arrives within the horizon.  T = 20 lets both branches of
        # a diamond or bypass arrive in most cases (at T = 6 none did)
        choices = 0  # cases where two or more paths arrive
        for seed in range(50):
            net, init = random_scenario(np.random.default_rng(seed))
            log = simulate(net, init, 20.0)  # long enough for both
            sources = [n for n in net.nodes if not net.in_edges[n]]
            sinks = [n for n in net.nodes if not net.out_edges[n]]
            for start in (e for n in sources for e in net.out_edges[n]):
                for sink in sinks:
                    paths = list(simple_paths(net, start, sink))
                    for n in (0, log.steps // 6, log.steps // 3) if paths else ():
                        t = n * log.tau
                        try:
                            _, predicted = plan_route(log, "fastest", start,
                                                      0.0, t, sink, kind)
                        except HorizonExceeded:
                            predicted = None
                        arrivals = []
                        for path in paths:
                            car = track_car(log, start, 0.0, t, sink, kind,
                                            fixed_path_chooser(net, path))
                            if car.status is CarStatus.ARRIVED:
                                arrivals.append(car.arrival_time)
                        choices += len(arrivals) > 1
                        assert predicted == min(arrivals, default=None), (
                            seed, start, sink, n)
        assert choices > 0


def exact_density(x, t, cells, h):
    """The exact density at (x, t <= h/2) of piecewise-constant cell data
    (one row of `cells` per case): the waves of neighbouring interfaces
    have not met, so the Riemann problem at the interface nearest x
    decides, a shock at speed 1 - rho_l - rho_r or a fan between
    1 - 2 rho_l and 1 - 2 rho_r with rho = (1 - xi) / 2 inside it."""
    j = np.rint(x / h).astype(int)
    rows = np.arange(len(x))
    rho_l, rho_r = cells[rows, j - 1], cells[rows, j]
    xi = (x - j * h) / np.maximum(t, 1e-300)
    shock = np.where(xi < 1.0 - rho_l - rho_r, rho_l, rho_r)
    fan = np.minimum(np.maximum((1.0 - xi) / 2.0, rho_r), rho_l)
    return np.where(rho_l < rho_r, shock, fan)


class TestComplexStepOracle:
    H, CELLS, CASES, SUBSTEPS = 0.1, 6, 3000, 4000

    def cases(self):
        return car_step_cases(np.random.default_rng(20), self.CASES,
                              self.CELLS, self.H)

    def reference(self, x, cells, tau):
        """dx/dt = 1 - rho(x, t) through the exact density, by the
        midpoint rule over SUBSTEPS substeps of each case's step."""
        dt = tau / self.SUBSTEPS
        for k in range(self.SUBSTEPS):
            t = k * dt
            v = 1.0 - exact_density(x, t, cells, self.H)
            x = x + dt * (1.0 - exact_density(x + 0.5 * dt * v, t + 0.5 * dt,
                                              cells, self.H))
        return x

    def test_within_one_substep_of_the_exact_path(self):
        x, cells, tau = self.cases()
        want = self.reference(x, cells, tau)
        substep = tau / self.SUBSTEPS
        got, naive = (np.array([step(a, c.tolist(), 0, self.CELLS, self.H, b)
                                for a, c, b in zip(x, cells, tau)])
                      for step in (complex_step, naive_step))
        miss = np.abs(got - want) / substep
        assert miss.max() <= 1.0, int(np.argmax(miss))
        # the bound tells the steps apart: an Euler step misses it often
        assert np.mean(np.abs(naive - want) > substep) > 0.1
