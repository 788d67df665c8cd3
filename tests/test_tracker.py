"""Car trajectory integration: wave geometry, steps, waits and tracking."""

import json
import math

import numpy as np
import pytest

from bufferlane import tracker
from bufferlane.errors import (
    HorizonExceeded,
    NotARarefaction,
    NotAShock,
    UnreachableDestination,
    ZeroSpeedAtBoundary,
)
from bufferlane.junctions import DemandMode
from bufferlane.run import plan_route
from bufferlane.solver import simulate
from bufferlane.tracker import (
    CarStatus,
    TrackerKind,
    complex_step,
    end_of_road_time,
    fan_coefficient,
    naive_step,
    node_waiting,
    rarefaction_exit,
    shock_intersection,
    track_car,
)
from conftest import line_network


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
        with pytest.raises(NotAShock):
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
        with pytest.raises(NotARarefaction):
            fan_coefficient(0.0, 0.9, 1.0)


class TestSteps:
    def test_naive_step_uses_cell_speed(self):
        cells = np.array([0.3, 0.5, 0.7])
        assert naive_step(0.05, cells, 0.1, 0.05) == pytest.approx(0.085)
        assert naive_step(0.15, cells, 0.1, 0.05) == pytest.approx(0.175)

    def test_complex_step_constant_state(self):
        cells = np.full(10, 0.3)
        x = complex_step(0.31, cells, 0.1, 0.05)
        assert x == pytest.approx(0.31 + 0.05 * 0.7)

    def test_complex_step_crosses_shock(self):
        # car in the half-cell behind a 0.2|0.6 interface at x = 0.1
        cells = np.array([0.2, 0.6, 0.6])
        tau = 0.05
        x0 = 0.08
        tau_bar, x_bar = shock_intersection(x0, 0.1, 0.2, 0.6)
        assert tau_bar < tau
        expect = x_bar + 0.4 * (tau - tau_bar)
        assert complex_step(x0, cells, 0.1, tau) == pytest.approx(expect)

    def test_complex_step_agrees_with_naive_for_uniform(self):
        cells = np.full(5, 0.45)
        for x in (0.01, 0.12, 0.26, 0.44):
            assert complex_step(x, cells, 0.1, 0.05) == pytest.approx(
                naive_step(x, cells, 0.1, 0.05))

    def test_end_of_road_time(self):
        assert end_of_road_time(0.9, 0.5, 1.0) == pytest.approx(0.2)
        assert end_of_road_time(1.0, 0.3, 1.0) == 0.0
        with pytest.raises(ZeroSpeedAtBoundary):
            end_of_road_time(0.9, 1.0, 1.0)


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
        net, init = line_network(densities=(0.3, 0.5))
        init.buffers["n1"] = 0.25
        log = simulate(net, init, 0.2)
        with pytest.raises(HorizonExceeded):
            node_waiting(log, "n1", 0, 0.0)


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
