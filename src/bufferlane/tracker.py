"""Single-car trajectory integration through the discrete density field.

Two trackers are provided: a plain Euler step at the speed of the
containing cell (naive) and a piecewise-exact step that resolves the one
wave that can reach the car within a time step (complex).  Both consume an
immutable SimLog; the car never feeds back into the field.

A road leg depends only on its entry event, so `traverse_edge` drives
each (edge, step, position, tracker) leg once per log and replays it
afterwards: route planning and tracking against one simulation share
their legs.  The memo lives as long as the log and holds at most one
stored value (a position, or a leg) per density value of the log.  A
SimLog must therefore not be mutated once a car has been tracked or a
route planned on it.
"""

import math
import weakref
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

from .errors import (
    HorizonExceeded,
    NotARarefaction,
    NotAShock,
    UnreachableDestination,
    ZeroSpeedAtBoundary,
)
from .fluxes import flux, flux_derivative, velocity

_ARRIVAL_TOL = 1e-14
_WAIT_TOL = 1e-15


class TrackerKind(Enum):
    NAIVE = "naive"
    COMPLEX = "complex"


class CarStatus(Enum):
    DRIVING = "driving"
    WAITING = "waiting"
    ARRIVED = "arrived"
    HORIZON_EXCEEDED = "horizon_exceeded"


@dataclass
class CarLog:
    """Trajectory samples plus per-edge travel and per-node waiting times."""

    samples: list = field(default_factory=list)  # (t, edge, x, distance, status)
    grid_t: list = field(default_factory=list)
    grid_pos: list = field(default_factory=list)  # cumulative distance at t^n
    travel_times: list = field(default_factory=list)  # (edge, t_start, tt)
    waiting_times: list = field(default_factory=list)  # (node, t_arrival, wt)
    path: list = field(default_factory=list)
    arrival_time: float = math.nan
    status: CarStatus = CarStatus.DRIVING

    @property
    def total_waiting(self):
        return sum(w for _, _, w in self.waiting_times)

    def sample(self, t, edge_id, x, dist, status="driving", grid=True):
        """Record a position with its status string (a `CarStatus` value);
        grid samples (at some t^n) also feed grid_t and grid_pos."""
        self.samples.append((t, edge_id, x, dist, status))
        if grid:
            self.grid_t.append(t)
            self.grid_pos.append(dist)

    def grid_samples(self, ts, edge_id, xs, dists, status):
        """Record one grid sample per time in `ts`; `xs` is an iterable of
        positions on the road, `dists` a list of cumulative distances."""
        self.samples.extend(zip(ts, repeat(edge_id), xs, dists,
                                repeat(status)))
        self.grid_t.extend(ts)
        self.grid_pos.extend(dists)


def naive_step(x, cells, h, tau):
    """Euler step at the speed of the Godunov cell containing x."""
    i = min(int(x / h), len(cells) - 1)
    return x + tau * velocity(cells[i])


def shock_intersection(x, x_i, rho_minus, rho_plus):
    """Hit point (tau_bar, x_bar) of the car with a shock starting at x_i."""
    if rho_minus >= rho_plus:
        raise NotAShock(f"{rho_minus} >= {rho_plus}")
    lam = (flux(rho_plus) - flux(rho_minus)) / (rho_plus - rho_minus)
    tau_bar = (x_i - x) / (velocity(rho_minus) - lam)
    return tau_bar, x + velocity(rho_minus) * tau_bar


def fan_coefficient(tau_bar, x_bar, x_i):
    """Coefficient c of the in-fan path x(t) = x_i + t - c sqrt(t), wave
    origin at (0, x_i), that the car enters at (tau_bar, x_bar)."""
    if tau_bar <= 0.0:
        raise NotARarefaction(f"tau_bar {tau_bar} must be positive")
    return (tau_bar + x_i - x_bar) / math.sqrt(tau_bar)


def rarefaction_exit(coeff, x_i, rho_plus):
    """Exit point (tau2, x2) of the in-fan path with coefficient `coeff`.

    Returns None when rho_plus = 0: the downstream front then moves at the
    free-flow speed and the car can never overtake it.
    """
    if rho_plus == 0.0:
        return None
    tau2 = (coeff / (1.0 - flux_derivative(rho_plus))) ** 2
    return tau2, x_i + flux_derivative(rho_plus) * tau2


def complex_step(x, cells, h, tau):
    """Piecewise-exact step through at most one wave.

    The car at x lies in a shifted cell; only the wave starting at the
    grid point ahead of it (behind the half-cell split) can reach the car
    within tau <= h/2, the step every `simulate` log has, so the step
    resolves that single Riemann fan or shock.
    """
    n_cells = len(cells)
    i = int(math.floor(x / h + 0.5))
    if x < i * h:  # first half: wave origin x_i between cells i-1 and i
        origin = i * h
        rm = cells[i - 1]
        rp = cells[i] if i < n_cells else rm
    else:  # second half: wave origin x_{i+1}
        origin = (i + 1) * h
        rm = cells[i] if i < n_cells else cells[-1]
        rp = cells[i + 1] if i + 1 < n_cells else rm
    if rm == rp:
        return x + tau * velocity(rm)
    if rm < rp:  # shock
        tau_bar, x_bar = shock_intersection(x, origin, rm, rp)
    else:  # rarefaction: left front moves at f'(rm)
        tau_bar = (origin - x) / (velocity(rm) - flux_derivative(rm))
    if tau_bar >= tau:  # the wave does not reach the car within the step
        return x + tau * velocity(rm)
    if rm < rp:
        return x_bar + velocity(rp) * (tau - tau_bar)
    coeff = fan_coefficient(tau_bar, x + velocity(rm) * tau_bar, origin)
    exit_point = rarefaction_exit(coeff, origin, rp)
    if exit_point is None or exit_point[0] >= tau:
        return origin + tau - math.sqrt(tau) * coeff
    tau2, x2 = exit_point
    return x2 + velocity(rp) * (tau - tau2)


def end_of_road_time(x, rho_last, b):
    """Fraction of a step to reach the road end at the last-cell speed."""
    v = velocity(rho_last)
    if v <= 0.0:
        raise ZeroSpeedAtBoundary(f"v({rho_last}) = 0 at x={x}")
    return max((b - x) / v, 0.0)


def node_waiting(log, node, n_hat, tau_hat):
    """FIFO waiting at a node for an arrival at t^n_hat + tau_hat.

    Returns (wt, m, frac): the car enters the next road during step m, at
    time t^m + frac.  The buffer load at arrival is linearly interpolated;
    the load ahead of the car is then drained by the recorded per-step
    node outflows.
    """
    tau = log.tau
    f_in = log.node_inflow[node][n_hat]
    f_out = log.node_outflow[node][n_hat]
    need = log.buffers[node][n_hat] + tau_hat * (f_in - f_out)  # load ahead
    if need <= _WAIT_TOL:
        return 0.0, n_hat, tau_hat
    n = n_hat
    offset = tau_hat
    while True:
        fo = log.node_outflow[node][n]
        avail = (tau - offset) * fo
        if need < avail - _WAIT_TOL:
            frac = offset + need / fo
            wt = (n - n_hat) * tau + frac - tau_hat
            return wt, n, frac
        need -= avail
        n += 1
        if need <= _WAIT_TOL:
            return (n - n_hat) * tau - tau_hat, n, 0.0
        if n >= log.steps:
            raise HorizonExceeded(
                f"buffer at node {node} does not drain before T")
        offset = 0.0


def start_step(tau, start_time):
    """Step n of a departure at t^n = start_time (grid step tau)."""
    n = int(round(start_time / tau)) if math.isfinite(start_time) else -1
    if n < 0 or abs(n * tau - start_time) > 1e-9:
        raise ValueError(f"start time {start_time} is not a grid time t^n >= 0")
    return n


def start_position(edge, start_x):
    """`start_x` as a float, checked to lie in [0, length] of `edge`."""
    x = float(start_x)
    if not 0.0 <= x <= edge.length:  # NaN fails too
        raise ValueError(f"start_x {start_x} outside [0, {edge.length}] "
                         f"of edge {edge.id}")
    return x


def enter_edge(log, edge_id, m, frac):
    """Position at t^{m+1} of a car entering road `edge_id` at t^m + frac."""
    if m >= log.steps:
        raise HorizonExceeded(f"car enters edge {edge_id} at the time horizon")
    return (log.tau - frac) * velocity(log.rho[edge_id][m][0])


# SimLog -> _Legs; an entry dies with its log
_LEGS = weakref.WeakKeyDictionary()


class _Legs(dict):
    """Legs driven on one log: (edge id, n, x, kind) -> (n_hat, tau_hat,
    positions at t^{n+1}, t^{n+2}, ..., error class and message or None).

    `stored` counts each leg's positions plus one for the leg itself; it
    never exceeds `budget`, the number of density values the log holds."""

    def __init__(self, log):
        super().__init__()
        self.budget = sum(a.size for a in log.rho.values())
        self.stored = 0


def _drive(log, edge, n, x, kind):
    """Drive one leg step by step; returns its memo entry."""
    step = naive_step if kind is TrackerKind.NAIVE else complex_step
    tau = log.tau
    rho_hist = log.rho[edge.id]
    b = edge.length
    xs = array("d")
    try:
        while x < b - _ARRIVAL_TOL:
            if n >= log.steps:
                raise HorizonExceeded(
                    f"car still on edge {edge.id} at the time horizon")
            cells = rho_hist[n]
            x_new = step(x, cells, edge.h, tau)
            if x_new >= b - _ARRIVAL_TOL:
                return n, min(end_of_road_time(x, cells[-1], b), tau), xs, None
            n += 1
            x = x_new
            xs.append(x)
        return n, 0.0, xs, None
    except (HorizonExceeded, ZeroSpeedAtBoundary) as exc:
        return None, None, xs, (type(exc), str(exc))


def traverse_edge(log, edge, n, x, kind, car=None, cum=0.0):
    """Drive from x on `edge` at t^n until the road end is crossed.

    Returns the arrival event (n_hat, tau_hat), the end being reached at
    t^n_hat + tau_hat.  Given a car log, records a sample at every grid time
    on the road, at distance cum + x.  A leg already driven on this log is
    replayed from its stored positions, with the same samples and errors.
    """
    kind = TrackerKind(kind)
    legs = _LEGS.get(log)
    if legs is None:
        legs = _LEGS[log] = _Legs(log)
    key = (edge.id, n, x, kind)
    leg = legs.get(key)
    if leg is None:
        leg = _drive(log, edge, n, x, kind)
        size = len(leg[2]) + 1
        if legs.stored + size > legs.budget:
            legs.clear()
            legs.stored = 0
        legs[key] = leg
        legs.stored += size
    n_hat, tau_hat, xs, error = leg
    if car is not None:
        car.grid_samples([k * log.tau for k in range(n + 1, n + 1 + len(xs))],
                         edge.id, xs, [cum + p for p in xs], "driving")
    if error is not None:
        cls, message = error
        raise cls(message)
    return n_hat, tau_hat


def track_car(log, start_edge, start_x, start_time, destination,
              kind=TrackerKind.COMPLEX, choose_next=None):
    """Run a car from (edge, x, t) until `destination` or the horizon.

    `choose_next(node_id, n_hat, tau_hat) -> edge_id` resolves the exit
    at dispersing junctions; junctions with a single outgoing road never
    consult it.  `start_x` must lie in [0, length] of the start road.
    """
    net = log.network
    tau = log.tau
    car = CarLog()
    n = start_step(tau, start_time)
    edge = net.edges[start_edge]
    x = start_position(edge, start_x)
    cum = 0.0
    t_dep = n * tau
    car.path.append(edge.id)
    try:
        while True:
            car.sample(n * tau, edge.id, x, cum + x)
            n_hat, tau_hat = traverse_edge(log, edge, n, x, kind, car, cum)
            t_arr = n_hat * tau + tau_hat
            car.travel_times.append((edge.id, t_dep, t_arr - t_dep))
            cum += edge.length
            car.sample(t_arr, edge.id, edge.length, cum, grid=False)
            node = edge.target
            if node == destination:
                car.arrival_time = t_arr
                car.status = CarStatus.ARRIVED
                return car
            outs = net.out_edges[node]
            if not outs:
                raise UnreachableDestination(
                    f"car reached sink {node}, destination {destination}")
            if len(outs) == 1:
                next_id = outs[0]
            else:
                next_id = choose_next(node, n_hat, tau_hat)
            try:
                wt, m, frac = node_waiting(log, node, n_hat, tau_hat)
            except HorizonExceeded:  # the car waits at the node until T
                wt, m = math.nan, log.steps
            car.waiting_times.append((node, t_arr, wt))
            # car sits at the node on every grid time spent waiting
            car.grid_samples([k * tau for k in range(n_hat + 1, m + 1)],
                             edge.id, repeat(edge.length), [cum] * (m - n_hat),
                             "waiting")
            if math.isnan(wt):
                car.status = CarStatus.HORIZON_EXCEEDED
                return car
            edge = net.edges[next_id]
            car.path.append(next_id)
            x = enter_edge(log, next_id, m, frac)
            t_dep = m * tau + frac
            n = m + 1
    except HorizonExceeded:
        car.status = CarStatus.HORIZON_EXCEEDED
        return car
