"""Route selection policies and their weight constructions."""

from dataclasses import replace

import numpy as np
import pytest

from bufferlane import bundled_scenario, scenario as scn
from bufferlane.errors import HorizonExceeded, UnreachableDestination
from bufferlane.junctions import DemandMode
from bufferlane.routing import (
    RoutePolicy,
    _scales,
    aggregated_weights,
    dijkstra,
    fastest_path,
    fixed_path_chooser,
    online_chooser,
    online_weights,
    shortest_path,
)
from bufferlane.run import plan_route
from bufferlane.solver import simulate
from bufferlane.tracker import TrackerKind, track_car, traverse_edge


@pytest.fixture(scope="module")
def small_log():
    """The two-route network simulated once at a coarse grid."""
    doc = scn.parse_scenario(bundled_scenario("small_network"))
    net = scn.build_network(replace(doc, run={**doc.run, "h": 0.05}))
    return simulate(net, scn.build_initial(doc), 15.0,
                    mode=DemandMode.STANDARD)


class TestDijkstra:
    def test_shortest_route(self, small_log):
        net = small_log.network
        path, dist = shortest_path(net, "n2", "n6")
        assert path == ["e2", "e4", "e7"]
        assert dist == pytest.approx(3.0)

    def test_tie_breaks_lexicographically(self, small_log):
        # both routes have equal weight; the e2 branch wins by edge ids
        net = small_log.network
        weights = {eid: 1.0 for eid in net.edges}
        path, dist = dijkstra(net, weights, "n2", "n6")
        assert path == ["e2", "e4", "e7"]
        assert dist == pytest.approx(3.0)

    def test_source_equals_destination(self, small_log):
        assert dijkstra(small_log.network, {}, "n2", "n2") == ([], 0.0)

    def test_unreachable(self, small_log):
        with pytest.raises(UnreachableDestination):
            shortest_path(small_log.network, "n6", "n1")


class TestWeights:
    def test_aggregated_scale_linear_in_w(self, small_log):
        w1 = aggregated_weights(small_log, 1.0, 0.0)
        w2 = aggregated_weights(small_log, 2.0, 0.0)
        for eid in w1:
            assert w2[eid] == pytest.approx(2.0 * w1[eid])

    def test_aggregated_nonnegative_and_bounded(self, small_log):
        w = aggregated_weights(small_log, 0.5, 0.5)
        for eid, val in w.items():
            assert 0.0 <= val

    def test_density_term_tracks_mean_density(self, small_log):
        # with w_r = 0, the weight is mean density x relative length
        w = aggregated_weights(small_log, 1.0, 0.0)
        log = small_log
        e = log.network.edges["e7"]
        mean_rho = log.rho["e7"].mean()
        expect = mean_rho * e.length / 1.0 * (log.steps + 1) * log.tau / log.T
        assert w["e7"] == pytest.approx(expect, rel=1e-12)

    def test_online_snapshot_uses_single_step(self, small_log):
        w0 = online_weights(small_log, 0, 0.5, 0.5)
        wl = online_weights(small_log, small_log.steps, 0.5, 0.5)
        assert w0 != wl
        # the full buffer at n4 dominates the weight of its outgoing edges
        assert w0["e5"] > w0["e4"]

    def test_buffer_term_charged_on_leaving_edge(self, small_log):
        w = online_weights(small_log, 0, 0.0, 1.0)
        # r(n4) = 0.5 normalized by the interior r_max = 0.5
        assert w["e5"] == pytest.approx(1.0)
        assert w["e6"] == pytest.approx(1.0)
        assert w["e4"] == pytest.approx(0.0)


def direct_online_weights(log, step, w_rho, w_r):
    """The snapshot weights summed straight from the log: the reference."""
    max_len, r_max = _scales(log.network)
    weights = {}
    for eid, e in log.network.edges.items():
        lam_rho = e.h / max_len * float(log.rho[eid][step].sum())
        lam_r = log.buffers[e.source][step] / r_max
        weights[eid] = w_rho * lam_rho + w_r * lam_r
    return weights


@pytest.mark.parametrize("w_rho, w_r", [(0.5, 0.5), (0.3, 1.7)])
def test_online_weights_equal_direct_sums(small_log, w_rho, w_r):
    # bit for bit at every step
    def bits(weights):
        return {eid: float(w).hex() for eid, w in weights.items()}

    for n in range(small_log.steps + 1):
        assert bits(online_weights(small_log, n, w_rho, w_r)) == bits(
            direct_online_weights(small_log, n, w_rho, w_r))


# a split into two identical branches that merge again
TWIN_BRANCHES = """\
[network]
node s kind=source mu=0.25 inflow=0.21
node d kind=one_to_two r_max=0.3 mu=0.25 alpha=0.5,0.5
node a kind=one_to_one r_max=0.3 mu=0.2
node b kind=one_to_one r_max=0.3 mu=0.2
node m kind=two_to_one r_max=0.3 mu=0.25 priority=demand_proportional
node t kind=sink
edge e1 from=s to=d length=1
edge e2 from=d to=a length=1
edge e3 from=d to=b length=1
edge e4 from=a to=m length=1
edge e5 from=b to=m length=1
edge e6 from=m to=t length=1
[initial]
density e1 0.3
density e2 0.3
density e3 0.3
density e4 0.2
density e5 0.2
density e6 0.3
buffer a 0.1
buffer b 0.1
[run]
T=10
h=0.1
"""


class TestFastestPath:
    def test_prefers_undelayed_route_at_departure_zero(self, small_log):
        tracker_event = (0, 0.0)
        path, arrival = fastest_path(small_log, "n2", tracker_event, "n6",
                                     TrackerKind.COMPLEX)
        assert path == ["e2", "e4", "e7"]
        # predicted arrival matches the tracked car on the same route
        car = track_car(small_log, "e1", 1.0, 0.0, "n6",
                        choose_next=fixed_path_chooser(
                            small_log.network, ["e1"] + path))
        assert arrival <= car.arrival_time + 1e-9

    def test_plan_route_policies(self, small_log):
        route, _ = plan_route(small_log, RoutePolicy.SHORTEST, "e1", 0.0,
                              0.0, "n6", TrackerKind.COMPLEX)
        assert route == ["e1", "e2", "e4", "e7"]
        route, arrival = plan_route(small_log, RoutePolicy.FASTEST, "e1",
                                    0.0, 0.0, "n6", TrackerKind.COMPLEX)
        assert route[0] == "e1" and route[-1] == "e7"
        assert arrival is not None
        route, _ = plan_route(small_log, RoutePolicy.ONLINE, "e1", 0.0,
                              0.0, "n6", TrackerKind.COMPLEX)
        assert route is None  # decided junction by junction

    @pytest.mark.parametrize("T, reaches_n4", [(3.0, False), (8.0, True)])
    def test_unreachable_destination_at_any_horizon(self, T, reaches_n4):
        # no road leads back to the source n1; at T = 3 the horizon also
        # cuts the search on e2, which must not make that HorizonExceeded
        doc = scn.parse_scenario(bundled_scenario("linear"))
        log = simulate(scn.build_network(doc), scn.build_initial(doc), T)
        event = traverse_edge(log, log.network.edges["e1"], 0, 0.0,
                              TrackerKind.COMPLEX)
        with pytest.raises(UnreachableDestination,
                           match="^no path n2 -> n1$"):
            fastest_path(log, "n2", event, "n1")
        if reaches_n4:
            assert fastest_path(log, "n2", event, "n4")[0] == ["e2", "e3"]
        else:
            with pytest.raises(HorizonExceeded, match="^no path to n4 "):
                fastest_path(log, "n2", event, "n4")

    @pytest.mark.parametrize("kind", list(TrackerKind))
    def test_tie_breaks_lexicographically(self, kind):
        # d splits 0.5/0.5 into two bitwise twin branches, e2 e4 through a
        # and e3 e5 through b, which merge again at m: both reach m at the
        # same instant, and the branch with the smaller edge ids wins
        doc = scn.parse_scenario(TWIN_BRANCHES)
        log = simulate(scn.build_network(doc), scn.build_initial(doc), 10.0)
        for one, twin in (("e2", "e3"), ("e4", "e5")):
            assert log.rho[one].tobytes() == log.rho[twin].tobytes()
        assert log.buffers["a"].tobytes() == log.buffers["b"].tobytes()
        branches = [track_car(log, "e1", 0.0, 0.0, "m", kind,
                              fixed_path_chooser(log.network, path))
                    for path in (["e1", "e2", "e4"], ["e1", "e3", "e5"])]
        assert branches[0].arrival_time == branches[1].arrival_time
        assert branches[0].total_waiting > 0.0  # the wait at a is charged
        route, arrival = plan_route(log, RoutePolicy.FASTEST, "e1", 0.0, 0.0,
                                    "t", kind)
        assert route == ["e1", "e2", "e4", "e6"]
        car = track_car(log, "e1", 0.0, 0.0, "t", kind,
                        fixed_path_chooser(log.network, route))
        assert arrival == car.arrival_time


class TestChoosers:
    def test_fixed_path_chooser(self, small_log):
        choose = fixed_path_chooser(small_log.network, ["e1", "e3", "e5", "e7"])
        assert choose("n2", 0, 0.0) == "e3"
        with pytest.raises(UnreachableDestination):
            choose("n3", 0, 0.0)

    def test_online_chooser_returns_outgoing_edge(self, small_log):
        choose = online_chooser(small_log, "n6", 0.5, 0.5)
        eid = choose("n2", 10, 0.0)
        assert small_log.network.edges[eid].source == "n2"

    def test_online_car_reaches_destination(self, small_log):
        car = track_car(small_log, "e1", 0.5, 0.0, "n6",
                        choose_next=online_chooser(small_log, "n6", 0.5, 0.5))
        assert car.status.value == "arrived"
        assert car.path[-1] == "e7"
