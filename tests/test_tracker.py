"""Car trajectory integration: wave geometry, steps, waits and tracking."""

import gc
import json
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bufferlane import bundled_scenario, scenario as scn, tracker
from bufferlane.errors import (
    HorizonExceeded,
    UnreachableDestination,
    ZeroSpeedAtBoundary,
)
from bufferlane.junctions import DemandMode
from bufferlane.routing import aggregated_weights, fixed_path_chooser
from bufferlane.run import plan_route
from bufferlane.solver import simulate
from bufferlane.tracker import (
    CarStatus,
    TrackerKind,
    complex_step,
    end_of_road_time,
    naive_step,
    node_waiting,
    track_car,
)
from conftest import line_network
from reference import fan_coefficient, rarefaction_exit, shock_intersection


class TestShockIntersection:
    def test_reference_values(self):
        # car at 0.95 behind a 0.2|0.6 shock sitting at x = 1
        tau_bar, x_bar = shock_intersection(0.95, 1.0, 0.2, 0.6)
        assert tau_bar == pytest.approx(1.0 / 12.0)
        assert x_bar == pytest.approx(0.95 + 0.8 / 12.0)

    def test_stationary_shock(self):
        # symmetric states: the shock does not move, the car just drives
        tau_bar, x_bar = shock_intersection(0.9, 1.0, 0.4, 0.6)
        assert tau_bar == pytest.approx(0.1 / 0.6)
        assert x_bar == pytest.approx(1.0)

    def test_rejects_non_shock(self):
        with pytest.raises(ValueError, match=r"^0\.6 >= 0\.2$"):
            shock_intersection(0.9, 1.0, 0.6, 0.2)


class TestRarefactionExit:
    def test_reference_values(self):
        # fan 0.8|0.4 at x = 1, car enters the left edge after tau_bar
        tau_bar = (1.0 - 0.9) / (0.2 + 0.6)
        x_bar = 0.9 + 0.2 * tau_bar
        out = rarefaction_exit(fan_coefficient(tau_bar, x_bar, 1.0), 1.0, 0.4)
        assert out is not None
        tau2, x2 = out
        assert tau_bar == pytest.approx(0.125)
        assert x_bar == pytest.approx(0.925)
        assert tau2 == pytest.approx(0.5)
        assert x2 == pytest.approx(1.1)

    def test_vacuum_front_never_exits(self):
        coeff = fan_coefficient(0.1, 0.95, 1.0)
        assert rarefaction_exit(coeff, 1.0, 0.0) is None

    def test_rejects_nonpositive_entry_time(self):
        with pytest.raises(ValueError,
                           match=r"^tau_bar 0\.0 must be positive$"):
            fan_coefficient(0.0, 0.9, 1.0)


def on_row(step, x, cells, h, tau, as_cells=list):
    """`step` on a road whose cells at this step are `cells`, read from
    the middle row of a flat history whose other rows hold 0.9."""
    C = len(cells)
    flat = as_cells([0.9] * C + list(cells) + [0.9] * C)
    return step(x, flat, C, C, h, tau)


class TestSteps:
    def test_naive_step_uses_cell_speed(self):
        cells = [0.3, 0.5, 0.7]
        assert on_row(naive_step, 0.05, cells, 0.1, 0.05) == pytest.approx(
            0.085)
        assert on_row(naive_step, 0.15, cells, 0.1, 0.05) == pytest.approx(
            0.175)
        # at the road end the car reads the last cell
        assert on_row(naive_step, 0.3, cells, 0.1, 0.05) == pytest.approx(
            0.315)

    def test_complex_step_constant_state(self):
        x = on_row(complex_step, 0.31, [0.3] * 10, 0.1, 0.05)
        assert x == pytest.approx(0.31 + 0.05 * 0.7)

    def test_complex_step_crosses_shock(self):
        # car in the half-cell behind a 0.2|0.6 interface at x = 0.1
        tau = 0.05
        x0 = 0.08
        tau_bar, x_bar = shock_intersection(x0, 0.1, 0.2, 0.6)
        assert tau_bar < tau
        expect = x_bar + 0.4 * (tau - tau_bar)
        assert on_row(complex_step, x0, [0.2, 0.6, 0.6], 0.1,
                      tau) == pytest.approx(expect)

    def test_complex_step_agrees_with_naive_for_uniform(self):
        for x in (0.01, 0.12, 0.26, 0.44):
            assert on_row(complex_step, x, [0.45] * 5, 0.1,
                          0.05) == pytest.approx(
                on_row(naive_step, x, [0.45] * 5, 0.1, 0.05))

    # a density tiny but not zero rounds a closing speed to 0: the wave
    # never reaches the car, or the car never leaves the fan, in the step
    @pytest.mark.parametrize("x, cells, expect", [
        (0.12, [0.3, 1e-20, 0.0, 0.0], 0.16999999999999998),  # fan front
        (0.12, [0.3, 0.0, 1e-17, 0.2], 0.16999999999999998),  # shock
        (0.195, [0.6, 0.6, 1e-20, 1e-20], 0.22550510257216821),  # fan exit
        (0.199, [0.6, 0.6, 1e-20, 1e-20], 0.23904554884989668),
    ])
    @pytest.mark.parametrize("as_cells", [list, np.array])
    def test_complex_step_zero_closing_speed(self, x, cells, expect,
                                             as_cells):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert on_row(complex_step, x, cells, 0.1, 0.05,
                          as_cells) == expect

    def test_end_of_road_time(self):
        assert end_of_road_time(0.9, 0.5, 1.0) == pytest.approx(0.2)
        assert end_of_road_time(1.0, 0.3, 1.0) == 0.0
        with pytest.raises(ZeroSpeedAtBoundary):
            end_of_road_time(0.9, 1.0, 1.0)


def undrained_log():
    # a full buffer at n1 that does not drain before T
    net, init = line_network(densities=(0.3, 0.5))
    init.buffers["n1"] = 0.25
    return simulate(net, init, 0.2)


class TestNodeWaiting:
    def test_empty_buffer_no_wait(self):
        # stationary line: every buffer stays empty, the car passes through
        net, init = line_network(densities=(0.3, 0.3))
        log = simulate(net, init, 1.0)
        wt, m, frac = node_waiting(log, "n1", 0, 0.02)
        assert wt == 0.0 and m == 0 and frac == 0.02

    def test_loaded_buffer_drains_fifo(self, linear_log):
        # arrival at t = 10/7 with r ~ 0.077 draining at 0.25 out
        log = linear_log
        n_hat = int(10.0 / 7.0 / log.tau)
        tau_hat = 10.0 / 7.0 - n_hat * log.tau
        wt, m, frac = node_waiting(log, "n1", n_hat, tau_hat)
        assert wt == pytest.approx(6.0 / 35.0, abs=1e-9)
        assert m * log.tau + frac == pytest.approx(10.0 / 7.0 + 6.0 / 35.0)

    def test_horizon_exceeded(self):
        with pytest.raises(HorizonExceeded):
            node_waiting(undrained_log(), "n1", 0, 0.0)


class TestTracking:
    def test_linear_network_trajectory(self, linear_log):
        for kind in (TrackerKind.NAIVE, TrackerKind.COMPLEX):
            car = track_car(linear_log, "e1", 0.0, 0.0, "n3", kind=kind)
            assert car.status is CarStatus.ARRIVED
            assert car.arrival_time == pytest.approx(160.0 / 21.0, abs=1e-9)
            assert car.path == ["e1", "e2", "e3"]
            waits = dict((v, w) for v, _, w in car.waiting_times)
            assert waits["n1"] == pytest.approx(6.0 / 35.0, abs=1e-9)
            assert waits["n2"] == pytest.approx(24.0 / 35.0, abs=1e-9)

    def test_travel_times_compose(self, linear_log):
        car = track_car(linear_log, "e1", 0.0, 0.0, "n3")
        total = sum(tt for _, _, tt in car.travel_times) + car.total_waiting
        assert total == pytest.approx(car.arrival_time)

    def test_horizon_exceeded_status(self, linear_log):
        net, init = line_network()
        init.buffers["n1"] = 0.1
        log = simulate(net, init, 1.0)
        car = track_car(log, "e1", 0.0, 0.0, "n3")
        assert car.status is CarStatus.HORIZON_EXCEEDED
        assert math.isnan(car.arrival_time)

    def test_node_reached_at_the_horizon(self):
        # the car starts at the end of e1 at t = T: it reaches n1 at step
        # M, past the last of the M entries of the node's flux series
        log = simulate(*line_network(), 2.0)
        with pytest.raises(HorizonExceeded,
                           match="car reaches node n1 at the time horizon"):
            node_waiting(log, "n1", log.steps, 0.0)
        car = track_car(log, "e1", 1.0, 2.0, "n3")
        assert car.status is CarStatus.HORIZON_EXCEEDED
        assert math.isnan(car.arrival_time)
        [(node, t_arr, wt)] = car.waiting_times
        assert (node, t_arr) == ("n1", 2.0) and math.isnan(wt)

    def test_destination_behind_sink(self, linear_log):
        with pytest.raises(UnreachableDestination):
            track_car(linear_log, "e2", 0.0, 0.0, "n1")

    def test_start_time_must_be_on_grid(self, linear_log):
        with pytest.raises(ValueError):
            track_car(linear_log, "e1", 0.0, 0.013, "n3")

    @pytest.mark.parametrize("start_time", [math.inf, math.nan])
    def test_nonfinite_start_time_rejected(self, linear_log, start_time):
        with pytest.raises(ValueError, match="is not a grid time"):
            track_car(linear_log, "e1", 0.0, start_time, "n3")

    @pytest.mark.parametrize("start_x", [-1.0, 5.0, math.nan, math.inf])
    def test_start_x_outside_road_rejected(self, linear_log, start_x):
        with pytest.raises(ValueError, match=r"start_x .* outside \[0, 1.0\]"):
            track_car(linear_log, "e1", start_x, 0.0, "n3")

    @pytest.mark.parametrize("start_x", [-1.0, 5.0, math.nan, math.inf])
    @pytest.mark.parametrize("policy", ["shortest", "fastest", "aggregated",
                                        "online"])
    def test_plan_route_rejects_start_x_outside_road(self, linear_log, policy,
                                                     start_x):
        # the fastest branch drives the start road itself: a car off the
        # road used to get a prediction (5.70 for start_x=5)
        with pytest.raises(ValueError, match=r"start_x .* outside \[0, 1.0\]"):
            plan_route(linear_log, policy, "e1", start_x, 0.0, "n3", "naive")

    def test_dispersing_junction_needs_a_chooser(self):
        with pytest.raises(ValueError, match="node n2 has 2 exits"):
            track_car(small_network_log(), "e1", 0.5, 0.0, "n6")

    def test_chooser_edge_must_leave_the_node(self):
        # e1 enters n2: following it would drive e1 again until the horizon
        with pytest.raises(ValueError, match="node n2: choose_next gave "
                           "edge e1, which does not leave it"):
            track_car(small_network_log(), "e1", 0.5, 0.0, "n6",
                      choose_next=lambda node, n_hat, tau_hat: "e1")

    def test_samples_monotone(self, linear_log):
        car = track_car(linear_log, "e1", 0.0, 0.0, "n3")
        ts = [s[0] for s in car.samples]
        dist = [s[3] for s in car.samples]
        assert all(b >= a - 1e-12 for a, b in zip(ts, ts[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(dist, dist[1:]))

    def test_grid_samples_align(self, linear_log):
        car = track_car(linear_log, "e1", 0.0, 0.0, "n3")
        for t in car.grid_t:
            assert t / linear_log.tau == pytest.approx(round(t / linear_log.tau))


def car_record(car):
    """Every field of a CarLog as text; NaN times compare equal."""
    return json.dumps([car.samples, car.grid_t, car.grid_pos,
                       car.travel_times, car.waiting_times, car.path,
                       car.arrival_time, car.status.value])


@pytest.fixture()
def driven_steps(monkeypatch):
    """Counts the car steps actually driven (not replayed from the memo)."""
    count = [0]
    for name in ("naive_step", "complex_step"):
        step = getattr(tracker, name)

        def counted(*args, step=step):
            count[0] += 1
            return step(*args)
        monkeypatch.setattr(tracker, name, counted)
    return count


def horizon_on_road_log():
    # the log of test_horizon_exceeded_status: T ends while the car is on e1
    net, init = line_network()
    init.buffers["n1"] = 0.1
    return simulate(net, init, 1.0)


def horizon_in_wait_log():
    # T ends while the car waits in the buffer of n1
    net, init = line_network(densities=(0.3, 0.5))
    init.buffers["n1"] = 0.1
    return simulate(net, init, 1.5)


def linear_8_log():
    # a fresh log like the linear_log fixture, whose memo other tests fill
    net, init = line_network()
    init.buffers["n1"] = 0.1
    return simulate(net, init, 8.0)


class TestLegMemo:
    @pytest.mark.parametrize("kind", list(TrackerKind))
    @pytest.mark.parametrize("make_log, destination, status", [
        (linear_8_log, "n3", CarStatus.ARRIVED),
        (horizon_on_road_log, "n3", CarStatus.HORIZON_EXCEEDED),
        (horizon_in_wait_log, "n2", CarStatus.HORIZON_EXCEEDED),
    ])
    def test_replay_equals_driving(self, driven_steps, make_log, destination,
                                   status, kind):
        log = make_log()
        first = track_car(log, "e1", 0.0, 0.0, destination, kind)
        driven = driven_steps[0]
        again = track_car(log, "e1", 0.0, 0.0, destination, kind)
        assert driven > 0 and driven_steps[0] == driven  # all replayed
        fresh = track_car(make_log(), "e1", 0.0, 0.0, destination, kind)
        assert first.status is status
        assert car_record(first) == car_record(again) == car_record(fresh)

    def test_wait_cut_by_horizon(self):
        # the car waits at the node from its arrival until T, sampled at
        # every grid time of the wait
        log = horizon_in_wait_log()
        car = track_car(log, "e1", 0.0, 0.0, "n2")
        assert car.path == ["e1"]
        assert car.status is CarStatus.HORIZON_EXCEEDED
        _, t_arr, wt = car.waiting_times[-1]
        assert math.isnan(wt)
        arrival = car.samples.index((t_arr, "e1", 1.0, 1.0, "driving"))
        waits = car.samples[arrival + 1:]
        n_hat = car.grid_t.index(waits[0][0]) - 1
        assert [s[0] for s in waits] == [k * log.tau for k in range(
            n_hat + 1, log.steps + 1)] == car.grid_t[n_hat + 1:]
        assert {s[1:] for s in waits} == {("e1", 1.0, 1.0, "waiting")}

    def test_replayed_error_is_fresh_and_equal(self):
        log = horizon_on_road_log()
        edge = log.network.edges["e1"]
        caught = []
        for _ in range(2):
            with pytest.raises(HorizonExceeded) as info:
                tracker.traverse_edge(log, edge, 0, 0.0, TrackerKind.COMPLEX)
            caught.append(info.value)
        assert caught[0] is not caught[1]
        assert str(caught[0]) == str(caught[1]) == (
            "car still on edge e1 at the time horizon")

    def test_trackers_do_not_share_legs(self):
        # the naive car is tracked first on the same log; the complex car
        # must still be driven, not served the naive legs
        log = linear_8_log()
        naive = track_car(log, "e1", 0.0, 0.0, "n3", TrackerKind.NAIVE)
        complex_ = track_car(log, "e1", 0.0, 0.0, "n3", TrackerKind.COMPLEX)
        fresh = track_car(linear_8_log(), "e1", 0.0, 0.0, "n3",
                          TrackerKind.COMPLEX)
        assert car_record(naive) != car_record(fresh)
        assert car_record(complex_) == car_record(fresh)

    def test_bound_clears_memo(self, driven_steps):
        # two short roads of two cells hold few density values, so many
        # departures overflow the memo and it is emptied on the way
        def make_log():
            net, init = line_network(densities=(0.3, 0.5), h=0.5)
            return simulate(net, init, 20.0)

        log = make_log()
        values = sum(a.size for a in log.rho.values())
        departures = range(log.steps // 2)
        cars = [track_car(log, "e1", 0.0, n * log.tau, "n2")
                for n in departures]
        assert driven_steps[0] > values  # more steps than the bound
        driven = driven_steps[0]
        first = track_car(log, "e1", 0.0, 0.0, "n2")
        assert driven_steps[0] > driven  # the first legs were dropped
        fresh = make_log()
        assert car_record(first) == car_record(cars[0])
        assert [car_record(c) for c in cars] == [
            car_record(track_car(fresh, "e1", 0.0, n * log.tau, "n2"))
            for n in departures]


def small_network_log():
    # two routes through dispersing junctions, with a full buffer at n4
    doc = scn.parse_scenario(bundled_scenario("small_network"))
    net = scn.build_network(replace(doc, run={**doc.run, "h": 0.1}))
    return simulate(net, scn.build_initial(doc), 15.0)


def routed_cars(log):
    """A fastest route and a car on each of two routes, both trackers."""
    out = []
    for kind in TrackerKind:
        route, arrival = plan_route(log, "fastest", "e1", 0.5, 0.0, "n6", kind)
        out.append((route, arrival))
        for path in (route, ["e1", "e3", "e5", "e7"]):
            out.append(car_record(track_car(
                log, "e1", 0.5, 0.0, "n6", kind,
                fixed_path_chooser(log.network, path))))
    return out


class TestQueryMemo:
    def test_second_query_equals_fresh_log(self):
        log = small_network_log()
        first = routed_cars(log)
        assert routed_cars(log) == first == routed_cars(small_network_log())

    def test_aggregated_weights_after_queries(self):
        log = small_network_log()
        routed_cars(log)
        weights = aggregated_weights(log, 0.5, 0.5)
        assert weights == aggregated_weights(small_network_log(), 0.5, 0.5)
        assert aggregated_weights(log, 0.5, 0.5) == weights

    def test_wait_replayed_from_memo(self, monkeypatch):
        # a wait is computed once per log: a repeated query, or a fastest
        # plan probing two roads out of one node, recomputes nothing
        computed = []
        wait = tracker._wait

        def counted(log, *key):
            computed.append(key)
            return wait(log, *key)

        monkeypatch.setattr(tracker, "_wait", counted)
        first = linear_8_log()
        n_hat = int(10.0 / 7.0 / first.tau)
        tau_hat = 10.0 / 7.0 - n_hat * first.tau
        waits = [node_waiting(log, "n1", n_hat, tau_hat)
                 for log in (first, first, linear_8_log())]
        assert waits[0][0] > 0.0 and waits[0] == waits[1] == waits[2]
        assert computed == [("n1", n_hat, tau_hat)] * 2  # once per log
        computed.clear()
        log = small_network_log()
        plan = plan_route(log, "fastest", "e1", 0.5, 0.0, "n6",
                          TrackerKind.COMPLEX)
        assert computed and len(set(computed)) == len(computed)
        planned = len(computed)
        assert plan_route(log, "fastest", "e1", 0.5, 0.0, "n6",
                          TrackerKind.COMPLEX) == plan
        assert len(computed) == planned

    def test_wait_cut_by_horizon_replayed(self, monkeypatch):
        # a wait cut by the horizon is computed once per log too: the
        # second query on a log replays its stored error
        computed = []
        wait = tracker._wait

        def counted(log, *key):
            computed.append(key)
            return wait(log, *key)

        monkeypatch.setattr(tracker, "_wait", counted)
        caught = []
        log = undrained_log()
        for log in (log, log, undrained_log()):
            with pytest.raises(HorizonExceeded) as info:
                node_waiting(log, "n1", 0, 0.0)
            caught.append(info.value)
        assert computed == [("n1", 0, 0.0)] * 2  # once per log
        assert caught[0] is not caught[1]
        assert len({str(e) for e in caught}) == 1

    def test_stored_wait_error_keeps_no_log_alive(self):
        log = undrained_log()
        with pytest.raises(HorizonExceeded):
            node_waiting(log, "n1", 0, 0.0)
        ref = weakref.ref(log)
        del log
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("make_log, destination", [
        (linear_8_log, "n3"), (horizon_on_road_log, "n3"),
        (horizon_in_wait_log, "n2")])
    @pytest.mark.parametrize("kind", list(TrackerKind))
    def test_samples_are_new_lists_on_each_read(self, driven_steps, make_log,
                                                destination, kind):
        # a car that waits and arrives, one cut on the road and one cut
        # while it waits: a list read from the car is the reader's own
        log = make_log()
        car = track_car(log, "e1", 0.0, 0.0, destination, kind)
        record = car_record(car)
        driven = driven_steps[0]
        for name in ("samples", "grid_t", "grid_pos"):
            read = getattr(car, name)
            assert read and getattr(car, name) is not read
            read.reverse()
            read.append(read[0])
            assert car_record(car) == record
        again = track_car(log, "e1", 0.0, 0.0, destination, kind)
        assert driven_steps[0] == driven  # replayed from the memo
        assert car_record(again) == record

    @pytest.mark.parametrize("make_log, destination", [
        (linear_8_log, "n3"), (horizon_in_wait_log, "n2")])
    @pytest.mark.parametrize("kind", list(TrackerKind))
    def test_car_log_holds_python_floats(self, make_log, destination, kind):
        log = make_log()
        for _ in range(2):  # driven, then replayed
            car = track_car(log, "e1", 0.0, 0.0, destination, kind)
            numbers = [v for t, _, x, d, _ in car.samples for v in (t, x, d)]
            numbers += car.grid_t + car.grid_pos + [car.arrival_time]
            numbers += [v for _, t, w in car.waiting_times for v in (t, w)]
            numbers += [v for _, t, tt in car.travel_times for v in (t, tt)]
            assert car.waiting_times
            assert {type(v) for v in numbers} == {float}
