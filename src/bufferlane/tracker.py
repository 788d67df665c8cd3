"""Single-car trajectory integration through the discrete density field.

Two trackers are provided: a plain Euler step at the speed of the
containing cell (naive) and a piecewise-exact step that resolves the one
wave that can reach the car within a time step (complex).  Both consume an
immutable SimLog; the car never feeds back into the field.

A road leg depends only on its entry event, so `traverse_edge` drives
each (edge, step, position, tracker) leg once per log and replays it
afterwards; `node_waiting` does the same for waits.  Queries on one
simulation share them through the log's memo, an attribute of the log
that dies with it and holds at most one stored value (a position, a leg
or a wait) per density value of the log.  The memo also keeps one flat
float view of each road's history, and a step reads cell i at step n as
`flat[n * cells + i]`, a Python float; a step makes no slice and calls
no flux-law function.  A SimLog's arrays are read-only, so a stored
result never goes stale.  A car's `CarLog` keeps one record per leg or
wait, a replayed leg's positions shared with the memo, and builds its
samples only when they are read.
"""

import math
from array import array
from enum import Enum
from itertools import repeat

from .errors import HorizonExceeded, UnreachableDestination, ZeroSpeedAtBoundary
from .fluxes import velocity

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


def naive_step(x, flat, base, C, h, tau):
    """Euler step at the speed v = 1 - rho of the Godunov cell containing
    x, cell i of the road's C cells at this step read as `flat[base + i]`."""
    i = int(x / h)
    return x + tau * (1.0 - flat[base + (i if i < C else C - 1)])


def complex_step(x, flat, base, C, h, tau):
    """Piecewise-exact step through at most one wave, cell i of the road's
    C cells at this step read as `flat[base + i]`.

    The car at x lies in a shifted cell; only the wave starting at the
    grid point ahead of it (behind the half-cell split) can reach the car
    within tau <= h/2, the step every `simulate` log has, so the step
    resolves that single Riemann fan or shock.  A wave whose closing speed
    on the car rounds to 0 never reaches it within the step.  The shock's
    hit point, the fan's path and its exit are written out inline with the
    flux law's f, v and f': `tests/reference.py` holds the same step
    through named wave formulas, and a test holds the two equal bit for
    bit.
    """
    i = int(x / h + 0.5)  # floor: x >= 0
    if x < i * h:  # first half: wave origin x_i between cells i-1 and i
        origin = i * h
        rm = flat[base + i - 1]
        rp = flat[base + i] if i < C else rm
    else:  # second half: wave origin x_{i+1}
        origin = (i + 1) * h
        rm = flat[base + i] if i < C else flat[base + C - 1]
        rp = flat[base + i + 1] if i + 1 < C else rm
    vm = 1.0 - rm
    if rm == rp:
        return x + tau * vm
    if rm < rp:  # shock at speed (f(rp) - f(rm)) / (rp - rm)
        closing = vm - (rp * (1.0 - rp) - rm * (1.0 - rm)) / (rp - rm)
    else:  # rarefaction: left front moves at f'(rm)
        closing = vm - (1.0 - 2.0 * rm)
    if closing == 0.0:
        return x + tau * vm
    tau_bar = (origin - x) / closing
    if tau_bar >= tau:  # the wave does not reach the car within the step
        return x + tau * vm
    if rm < rp:  # hits the shock at x + v(rm) tau_bar, then drives at v(rp)
        return x + vm * tau_bar + (1.0 - rp) * (tau - tau_bar)
    # in the fan the car's path is x(t) = origin + t - coeff sqrt(t); it
    # leaves at tau2 through the front moving at f'(rp), then drives at v(rp)
    coeff = (tau_bar + origin - (x + vm * tau_bar)) / math.sqrt(tau_bar)
    gap = 1.0 - (1.0 - 2.0 * rp)  # 0: the fan's right front moves at 1
    tau2 = (coeff / gap) ** 2 if gap != 0.0 else tau
    if tau2 >= tau:  # the car is still in the fan at the step's end
        return origin + tau - math.sqrt(tau) * coeff
    return origin + (1.0 - 2.0 * rp) * tau2 + (1.0 - rp) * (tau - tau2)


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


class _Memo(dict):
    """Legs driven on one log: (edge id, n, x, complex tracker?) -> (n_hat,
    tau_hat, positions at t^{n+1}, t^{n+2}, ..., error class and message
    or None); waits: (node, n_hat, tau_hat) -> ((wt, m, frac) or None,
    error or None).
    `stored` counts a leg's positions plus one, and one per wait; it never
    exceeds `budget`, the number of density values the log holds.  `flat`
    maps each edge id to a flat float view of its (M+1, cells) history."""

    def __init__(self, log):
        super().__init__()
        self.budget = sum(a.size for a in log.rho.values())
        self.stored = 0
        self.flat = {eid: memoryview(a).cast("B").cast("d")
                     for eid, a in log.rho.items()}

    def put(self, key, value, size):
        """Store `value`, first emptying the memo if it would pass budget."""
        if self.stored + size > self.budget:
            self.clear()
            self.stored = 0
        self[key] = value
        self.stored += size


def _memo(log):
    """The log's memo, made by its first query; it dies with the log."""
    memo = log._memo
    if memo is None:
        memo = log._memo = _Memo(log)
    return memo


def _drive(log, edge, n, x, kind, flat):
    """Drive one leg on `flat`, the flat view of its road's history;
    returns its memo entry."""
    step = naive_step if kind is TrackerKind.NAIVE else complex_step
    tau, h, steps, C = log.tau, edge.h, log.steps, edge.cells
    b = edge.length
    end = b - _ARRIVAL_TOL
    xs = array("d")
    append = xs.append
    base = n * C
    try:
        while x < end:
            if n >= steps:
                raise HorizonExceeded(
                    f"car still on edge {edge.id} at the time horizon")
            x_new = step(x, flat, base, C, h, tau)
            if x_new >= end:
                last = flat[base + C - 1]
                return n, min(end_of_road_time(x, last, b), tau), xs, None
            n += 1
            base += C
            x = x_new
            append(x)
        return n, 0.0, xs, None
    except (HorizonExceeded, ZeroSpeedAtBoundary) as exc:
        return None, None, xs, (type(exc), str(exc))


def traverse_edge(log, edge, n, x, kind, car=None, cum=0.0):
    """Drive from x on `edge` at t^n until the road end is crossed.

    Returns the arrival event (n_hat, tau_hat), the end being reached at
    t^n_hat + tau_hat.  Given a car log, records the leg: a sample at every
    grid time on the road, at distance cum + x.  A leg already driven on
    this log is replayed from its stored positions, with the same samples
    and errors.  `kind` is a `TrackerKind`.
    """
    memo = _memo(log)
    key = (edge.id, n, x, kind is TrackerKind.COMPLEX)  # an enum hashes slowly
    leg = memo.get(key)
    if leg is None:
        leg = _drive(log, edge, n, x, kind, memo.flat[edge.id])
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
    kind = TrackerKind(kind)
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
