"""Car trajectory integration: wave geometry, steps, waits and tracking."""

import math

import numpy as np
import pytest

from bufferlane.errors import (
    HorizonExceeded,
    NotARarefaction,
    NotAShock,
    UnreachableDestination,
    ZeroSpeedAtBoundary,
)
from bufferlane.junctions import DemandMode
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

    def test_tau_bound_enforced(self, linear_log):
        net, init = line_network()
        log = simulate(net, init, 1.0, tau=0.08)
        with pytest.raises(ValueError):
            track_car(log, "e1", 0.0, 0.0, "n3")
