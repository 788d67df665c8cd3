"""Single-car trajectory integration through the discrete density field.

Two trackers are provided: a plain Euler step at the speed of the
containing cell (naive) and a piecewise-exact step that resolves the one
wave that can reach the car within a time step (complex).  Both consume an
immutable SimLog; the car never feeds back into the field.

A road leg depends only on its entry event, so `traverse_edge` drives
each (edge, step, position, tracker) leg once per log and replays it
afterwards; `node_waiting` does the same for waits.  Queries on one
simulation share them, and read the log as Python floats.  The memo
lives as long as the log and holds at most one stored value (a position,
a leg or a wait) per density value of the log.  A SimLog's arrays are read-only, so a stored
result never goes stale.  A car's `CarLog` keeps one record per leg or
wait, a replayed leg's positions shared with the memo, and builds its
samples only when they are read.
"""

import math
import weakref
from array import array
from enum import Enum
from itertools import repeat

from .errors import HorizonExceeded, UnreachableDestination, ZeroSpeedAtBoundary
from .fluxes import flux, flux_derivative, velocity

_ARRIVAL_TOL = 1e-14
_WAIT_TOL = 1e-15


class TrackerKind(Enum):
    NAIVE = "naive"
    COMPLEX = "complex"


class CarStatus(Enum):
    DRIVING = "driving"
    ARRIVED = "arrived"
    HORIZON_EXCEEDED = "horizon_exceeded"


class CarLog:
    """A car's trajectory plus per-edge travel and per-node waiting times.

    The trajectory is kept as one record per leg, as driven or replayed:
    `(first, count, edge, xs, cum, status)` stands for `count` samples at
    the grid times t^first, t^{first+1}, ...; a driving record's `xs` holds
    the positions on the road (a leg's are the memo's stored array, shared,
    never copied) and a waiting record's `xs` is the road end the car
    stands at.  A sample's distance along the path is `cum + x`.  A record
    with `count` None is the single sample at a road end reached between
    grid times, at time `first`.  `samples`, `grid_t` and `grid_pos` are
    built from the records on each read, as new lists.
    """

    def __init__(self, tau):
        self.tau = tau
        self.legs = []
        self.travel_times = []  # (edge, t_start, tt)
        self.waiting_times = []  # (node, t_arrival, wt)
        self.path = []
        self.arrival_time = math.nan
        self.status = CarStatus.DRIVING

    @property
    def total_waiting(self):
        return sum(w for _, _, w in self.waiting_times)

    def record(self, first, count, edge_id, xs, cum, status="driving"):
        """Append one record; `status` is "driving" or "waiting"."""
        self.legs.append((first, count, edge_id, xs, cum, status))

    def _pieces(self):
        """Per record: (times, on the grid, edge, positions, distances,
        status), each a new list."""
        tau = self.tau
        for first, count, edge_id, xs, cum, status in self.legs:
            if count is None:
                yield [first], False, edge_id, [xs], [cum + xs], status
                continue
            if status == "waiting":
                xs = [xs] * count
            yield ([k * tau for k in range(first, first + count)], True,
                   edge_id, xs, [cum + p for p in xs], status)

    @property
    def samples(self):
        """Every (t, edge, x, distance, status) in time order."""
        out = []
        for ts, _, edge_id, xs, dists, status in self._pieces():
            out.extend(zip(ts, repeat(edge_id), xs, dists, repeat(status)))
        return out

    @property
    def grid_t(self):
        """The grid times t^n of the samples taken on the grid."""
        return [t for ts, grid, *_ in self._pieces() if grid for t in ts]

    @property
    def grid_pos(self):
        """The distance along the path at each time of `grid_t`."""
        return [d for _, grid, _, _, dists, _ in self._pieces() if grid
                for d in dists]


def naive_step(x, cells, h, tau):
    """Euler step at the speed of the Godunov cell containing x."""
    i = min(int(x / h), len(cells) - 1)
    return x + tau * velocity(cells[i])


def shock_intersection(x, x_i, rho_minus, rho_plus):
    """Hit point (tau_bar, x_bar) of the car with a shock starting at x_i,
    or None when the car's speed and the shock's round to the same value
    (rho_plus tiny): the car then never reaches the shock."""
    if rho_minus >= rho_plus:
        raise ValueError(f"{rho_minus} >= {rho_plus}")
    lam = (flux(rho_plus) - flux(rho_minus)) / (rho_plus - rho_minus)
    closing = velocity(rho_minus) - lam
    if closing == 0.0:
        return None
    tau_bar = (x_i - x) / closing
    return tau_bar, x + velocity(rho_minus) * tau_bar


def fan_coefficient(tau_bar, x_bar, x_i):
    """Coefficient c of the in-fan path x(t) = x_i + t - c sqrt(t), wave
    origin at (0, x_i), that the car enters at (tau_bar, x_bar)."""
    if tau_bar <= 0.0:
        raise ValueError(f"tau_bar {tau_bar} must be positive")
    return (tau_bar + x_i - x_bar) / math.sqrt(tau_bar)


def rarefaction_exit(coeff, x_i, rho_plus):
    """Exit point (tau2, x2) of the in-fan path with coefficient `coeff`.

    Returns None when 1 - f'(rho_plus) = 2 rho_plus rounds to 0: the
    downstream front then moves at the free-flow speed and the car can
    never overtake it.
    """
    gap = 1.0 - flux_derivative(rho_plus)
    if gap == 0.0:
        return None
    tau2 = (coeff / gap) ** 2
    return tau2, x_i + flux_derivative(rho_plus) * tau2


def complex_step(x, cells, h, tau):
    """Piecewise-exact step through at most one wave.

    The car at x lies in a shifted cell; only the wave starting at the
    grid point ahead of it (behind the half-cell split) can reach the car
    within tau <= h/2, the step every `simulate` log has, so the step
    resolves that single Riemann fan or shock.  A wave whose closing speed
    on the car rounds to 0 never reaches it within the step.
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
        hit = shock_intersection(x, origin, rm, rp)
        tau_bar, x_bar = (math.inf, None) if hit is None else hit
    else:  # rarefaction: left front moves at f'(rm)
        closing = velocity(rm) - flux_derivative(rm)
        tau_bar = (origin - x) / closing if closing != 0.0 else math.inf
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
    node outflows.  A wait already computed on this log is replayed.
    """
    memo = _memo(log)
    key = (node, n_hat, tau_hat)
    wait = memo.get(key)
    if wait is None:
        try:
            wait = _wait(log, node, n_hat, tau_hat), None
        except HorizonExceeded as exc:  # stored without its traceback
            wait = None, (type(exc), str(exc))
        memo.put(key, wait, 1)
    result, error = wait
    if error is not None:
        raise error[0](error[1])
    return result


def _wait(log, node, n_hat, tau_hat):
    if n_hat >= log.steps:
        raise HorizonExceeded(f"car reaches node {node} at the time horizon")
    tau = log.tau
    out = log.node_outflow[node]
    f_in = log.node_inflow[node].item(n_hat)
    need = log.buffers[node].item(n_hat) + tau_hat * (f_in - out.item(n_hat))
    if need <= _WAIT_TOL:  # no load ahead of the car
        return 0.0, n_hat, tau_hat
    n = n_hat
    offset = tau_hat
    while True:
        fo = out.item(n)
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
    n = round(start_time / tau) if math.isfinite(start_time / tau) else -1
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
    return (log.tau - frac) * velocity(log.rho[edge_id].item(m, 0))


# SimLog -> _Memo; an entry dies with its log
_MEMO = weakref.WeakKeyDictionary()


class _Memo(dict):
    """Legs driven on one log: (edge id, n, x, kind) -> (n_hat, tau_hat,
    positions at t^{n+1}, t^{n+2}, ..., error class and message or None);
    waits: (node, n_hat, tau_hat) -> ((wt, m, frac) or None, error or None).
    `stored` counts a leg's positions plus one, and one per wait; it never
    exceeds `budget`, the number of density values the log holds."""

    def __init__(self, log):
        super().__init__()
        self.budget = sum(a.size for a in log.rho.values())
        self.stored = 0

    def put(self, key, value, size):
        """Store `value`, first emptying the memo if it would pass budget."""
        if self.stored + size > self.budget:
            self.clear()
            self.stored = 0
        self[key] = value
        self.stored += size


def _memo(log):
    memo = _MEMO.get(log)
    if memo is None:
        memo = _MEMO[log] = _Memo(log)
    return memo


def _drive(log, edge, n, x, kind):
    """Drive one leg on float views of its cells; returns its memo entry."""
    step = naive_step if kind is TrackerKind.NAIVE else complex_step
    tau, h, steps, C = log.tau, edge.h, log.steps, edge.cells
    flat = memoryview(log.rho[edge.id]).cast("B").cast("d")
    b = edge.length
    end = b - _ARRIVAL_TOL
    xs = array("d")
    try:
        while x < end:
            if n >= steps:
                raise HorizonExceeded(
                    f"car still on edge {edge.id} at the time horizon")
            cells = flat[n * C:(n + 1) * C]
            x_new = step(x, cells, h, tau)
            if x_new >= end:
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
    t^n_hat + tau_hat.  Given a car log, records the leg: a sample at every
    grid time on the road, at distance cum + x.  A leg already driven on
    this log is replayed from its stored positions, with the same samples
    and errors.
    """
    kind = TrackerKind(kind)
    memo = _memo(log)
    key = (edge.id, n, x, kind)
    leg = memo.get(key)
    if leg is None:
        leg = _drive(log, edge, n, x, kind)
        memo.put(key, leg, len(leg[2]) + 1)
    n_hat, tau_hat, xs, error = leg
    if car is not None:
        car.record(n + 1, len(xs), edge.id, xs, cum)
    if error is not None:
        cls, message = error
        raise cls(message)
    return n_hat, tau_hat


def track_car(log, start_edge, start_x, start_time, destination,
              kind=TrackerKind.COMPLEX, choose_next=None):
    """Run a car from (edge, x, t) until `destination` or the horizon.

    `choose_next(node_id, n_hat, tau_hat) -> edge_id` resolves the exit
    at dispersing junctions, and an edge that does not leave the node
    raises ValueError; junctions with a single outgoing road never
    consult it.  `start_x` must lie in [0, length] of the start road.
    """
    net = log.network
    tau = log.tau
    car = CarLog(tau)
    n = start_step(tau, start_time)
    edge = net.edges[start_edge]
    x = start_position(edge, start_x)
    cum = 0.0
    t_dep = n * tau
    car.path.append(edge.id)
    try:
        while True:
            car.record(n, 1, edge.id, (x,), cum)
            n_hat, tau_hat = traverse_edge(log, edge, n, x, kind, car, cum)
            t_arr = n_hat * tau + tau_hat
            car.travel_times.append((edge.id, t_dep, t_arr - t_dep))
            car.record(t_arr, None, edge.id, edge.length, cum)
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
            elif choose_next is None:
                raise ValueError(f"node {node} has {len(outs)} exits and "
                                 "no choose_next was given")
            else:
                next_id = choose_next(node, n_hat, tau_hat)
                if next_id not in outs:
                    raise ValueError(f"node {node}: choose_next gave edge "
                                     f"{next_id}, which does not leave it")
            try:
                wt, m, frac = node_waiting(log, node, n_hat, tau_hat)
            except HorizonExceeded:  # the car waits at the node until T
                wt, m = math.nan, log.steps
            car.waiting_times.append((node, t_arr, wt))
            # car sits at the node on every grid time spent waiting
            car.record(n_hat + 1, m - n_hat, edge.id, edge.length, cum,
                       "waiting")
            if math.isnan(wt):
                car.status = CarStatus.HORIZON_EXCEEDED
                return car
            x = enter_edge(log, next_id, m, frac)
            cum += edge.length
            edge = net.edges[next_id]
            car.path.append(next_id)
            t_dep = m * tau + frac
            n = m + 1
    except HorizonExceeded:
        car.status = CarStatus.HORIZON_EXCEEDED
        return car
