"""Network Godunov solver: cell updates, junction fluxes, Euler buffers."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import junctions
from .errors import InvariantViolation, ScenarioSemanticError
from .fluxes import godunov_flux
from .junctions import DemandMode
from .network import RoadNetwork

_CLIP_TOL = 1e-10
_ENTRY_TOL = 1e-12  # initial data off [0, 1] or [0, r_max] by more is rejected
# the 8-byte values a run may allocate for its log (2 GiB; see `simulate`)
MAX_VALUES = 2**28


@dataclass
class InitialData:
    """Piecewise-constant initial densities and initial buffer loads.

    `densities[edge] = [(x_0, rho_0), (x_1, rho_1), ...]` means density
    rho_k on [x_k, x_{k+1}) with breakpoints relative to the edge start.
    Missing edges/nodes default to zero.  Nothing is checked here:
    `simulate` rejects unknown ids and loads, `project_cells` profiles.
    """

    densities: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)


def project_cells(edges, densities):
    """Exact cell averages of each road's piecewise-constant profile
    `densities[edge.id]` (zero where missing), as one flat cell vector in
    the order of `edges`, every road in one pass.

    Breakpoints that are not finite or not strictly increasing raise
    ScenarioSemanticError naming the edge, and so does a piece value off
    [0, 1] beyond round-off, or not finite: the first such road, and its
    breakpoints before its values."""
    profiles = [densities.get(e.id, [(0.0, 0.0)]) for e in edges]
    P = max(map(len, profiles))
    starts, ends, values = [], [], []
    for edge, pieces in zip(edges, profiles):
        xs = [x for x, _ in pieces]
        if not (all(map(math.isfinite, xs))
                and all(a < b for a, b in zip(xs, xs[1:]))):
            raise ScenarioSemanticError(
                f"edge {edge.id}: breakpoints must be strictly increasing")
        for _, v in pieces:
            if not -_ENTRY_TOL <= v <= 1.0 + _ENTRY_TOL:
                raise ScenarioSemanticError(
                    f"edge {edge.id}: initial density {float(v)} outside "
                    "[0, 1]")
        # a road with fewer pieces pads with value 0: each adds exactly 0.0
        pad = [0.0] * (P - len(pieces))
        starts += xs + pad
        ends += xs[1:] + [edge.length] + pad
        values += [v for _, v in pieces] + pad
    widths = [e.cells for e in edges]
    h = np.repeat([e.h for e in edges], widths)
    road = np.repeat(np.arange(len(edges)), widths)
    i = np.arange(len(h)) - np.repeat(np.cumsum(widths) - widths, widths)
    lo, hi = i * h, (i + 1) * h
    pieces = np.array((starts, ends, values), dtype=float).reshape(3, -1, P)
    acc = np.zeros(len(h))
    for p in range(P):
        # piece p of each cell's road: its start, end and value
        x, end, v = pieces[:, road, p]
        acc += v * np.maximum(np.minimum(hi, end) - np.maximum(lo, x), 0.0)
    return acc / h


def cfl_timestep(network: RoadNetwork, T):
    """Half the smallest cell width, shrunk so the horizon divides evenly
    into n >= 1 steps; a half width that underflows to 0, or T / tau
    outside (0, inf), raises ScenarioSemanticError."""
    h = min(e.h for e in network.edges.values())
    tau = 0.5 * h
    if not tau > 0.0:
        raise ScenarioSemanticError(f"cell width {h} gives no time step > 0")
    if not 0.0 < T / tau < np.inf:
        raise ScenarioSemanticError(
            f"T={T} at tau={tau} gives no finite step count")
    return T / max(1, int(np.ceil(T / tau - 1e-9)))


class SimLog:
    """Full time series of a run: densities, buffers and boundary fluxes.

    Flux entries at index n are the constants used on [t^n, t^{n+1}), so
    flux arrays have M entries while state arrays have M+1.  Each table is
    a dict of views into the arrays `simulate` filled: `rho[eid]` is a
    C-contiguous (M+1, cells) block of one edge-major buffer, so no reader
    copies a road's history, and every node or edge series a column of a
    time-major array.  Every array is read-only: a log never changes once
    made.  The events and history sums derive from them.
    """

    def __init__(self, network, tau, T, mode, blocks, loads, series, fired):
        """`blocks` holds each road's (M+1, cells) history in edge order,
        `loads` the (M+1, nodes) buffer loads, `series` the (M, 2 edges + 2
        nodes) flow vectors of the steps (q_in, q_out, node_inflow and
        node_outflow; see `JunctionTable`), and `fired` the run's (2,
        nodes) limiter counts (`JunctionTable.fired`), summed per node
        into `limiter_fired`.  The step count M is read from `loads`."""
        self.network = network
        self.tau = tau
        self.T = T
        self.mode = mode
        self.steps = M = loads.shape[0] - 1
        # a float range scaled in place: an integer range times tau would
        # also hold the range and numpy's 64 KB cast buffer at once
        self.t = np.arange(M + 1, dtype=float)
        self.t *= tau
        for a in (self.t, loads, series, *blocks):
            a.flags.writeable = False
        self.rho = dict(zip(network.edges, blocks))
        self.buffers = dict(zip(network.nodes, loads.T))
        E, N = len(network.edges), len(network.nodes)
        q_in, q_out, f_in, f_out = np.split(series.T, [E, 2 * E, 2 * E + N])
        self.q_in, self.q_out = (dict(zip(network.edges, q))
                                 for q in (q_in, q_out))
        self.node_inflow, self.node_outflow = (dict(zip(network.nodes, f))
                                               for f in (f_in, f_out))
        self.events = junctions.negativity_events(list(network.nodes), loads,
                                                  tau)
        self.limiter_fired = dict(zip(network.nodes, fired.sum(0).tolist()))
        # the car tracker's stored legs and waits (`tracker._Memo`), made by
        # the first query on this log; they die with it
        self._memo = None

    @cached_property
    def totals(self):
        """Each road's density sum and each node's buffer-load sum over the
        whole history, as floats by edge and node id; readers share them."""
        return ({e: float(a.sum()) for e, a in self.rho.items()},
                {v: float(a.sum()) for v, a in self.buffers.items()})

    @cached_property
    def step_totals(self):
        """Each road's density sum at every step, as one numpy array of M+1
        values by edge id, read with `.item(n)`; readers share them."""
        return {e: a.sum(1) for e, a in self.rho.items()}


def _chunk_rows(cells):
    """Steps of cell states `simulate` holds before copying them to the
    history: at most 64, and at most 2^17 values (1 MB) in all."""
    return max(1, min(64, 2**17 // cells))


def advance_step(table, rho, r, n):
    """Step n of the table's run on the flat state `rho` and the loads
    `r`, both advanced in place (`table.lam` = tau / h per cell); returns
    the flow vector used (see `JunctionTable`) and the limiter's mask, the
    table's `flows` and `hit`, overwritten by the next call.

    The loads come from one `junctions.buffer_step` call, which limits
    the node fluxes before the cells read q_in and q_out.  A step that
    raises leaves the state as it made it, and the run aborts.
    """
    ds, flows = table.fluxes(rho, r, n)
    hit = junctions.buffer_step(table, r)
    right, left = table.right, table.left
    # demand and supply are spent: their rows take each cell's right and
    # left flux, the interior interfaces' min(d, s) and the roads' q_out
    # and q_in
    table.left_in[...] = godunov_flux(table.right_in, table.left_in)
    ds.put(table.ends_at, table.q)
    np.subtract(right, left, out=right)
    right *= table.lam
    rho -= right
    lo, hi = np.minimum.reduce(rho), np.maximum.reduce(rho)
    if lo < -_CLIP_TOL or hi > 1.0 + _CLIP_TOL:
        lo, hi = (f.reduceat(rho, table.first) for f in (np.minimum, np.maximum))
        k = np.argmax((lo < -_CLIP_TOL) | (hi > 1.0 + _CLIP_TOL))
        raise InvariantViolation(
            f"edge {table.edges[k].id}: density left [0,1] at "
            f"t={n * table.tau:.6g} (range [{lo[k]:.3e}, {hi[k]:.3e}])")
    if lo < 0.0 or hi > 1.0:
        np.clip(rho, 0.0, 1.0, out=rho)
    return flows, hit


def simulate(network, initial, T, mode=DemandMode.STANDARD) -> SimLog:
    """Run the coupled scheme over [0, T] and record every step.

    The step is always `cfl_timestep(network, T)`, so tau <= h/2 on every
    road, the bound the complex tracker assumes.  The state is one flat
    density vector and one load per node; a JunctionTable built for the
    run gives all boundary fluxes of a step in one array pass.  The
    network checked itself when made.  Each input this run cannot take
    raises ScenarioSemanticError: a run whose arrays (the log's and the
    sources' inflows) would take more than MAX_VALUES 8-byte values,
    before any allocation, and, checked here once, an id not in the
    network (the first in sorted order), a load off [0, r_max] beyond
    round-off or not finite (naming the node) and a source inflow that
    could overflow the load; `project_cells` checks each profile, and
    round-off is clipped.  Each later state is checked by the step that
    makes it in place (`advance_step`, `buffer_step`), and row n of every
    history is written once, when the loop reaches t^n; the limiter's
    hits are counted, not recorded (`JunctionTable.fired`).
    """
    for given, known, what in (
            (initial.densities, network.edges, "density for unknown edge"),
            (initial.buffers, network.nodes, "buffer for unknown node")):
        unknown = sorted(given.keys() - known.keys())
        if unknown:
            raise ScenarioSemanticError(f"{what} {unknown[0]!r}")
    tau = cfl_timestep(network, T)
    M = int(round(T / tau))
    cells = sum(e.cells for e in network.edges.values())
    sources = sum(not ins for ins in network.in_edges.values())
    E, N = len(network.edges), len(network.nodes)
    # the densities, time and loads of M + 1 states, then the sources'
    # inflows and the flow vector of M steps
    if (cells + 1 + N) * (M + 1) + M * (sources + 2 * E + 2 * N) > MAX_VALUES:
        raise ScenarioSemanticError(
            f"run too large: {cells} cells over {M:.6g} steps "
            f"record more than {MAX_VALUES} values")
    table = junctions.JunctionTable.for_network(network, tau, M, mode)
    rho = project_cells(table.edges, initial.densities)
    r = np.array([float(initial.buffers.get(v, 0.0)) for v in network.nodes])
    np.clip(rho, 0.0, 1.0, out=rho)
    bad = ~(np.isfinite(r) & (r >= -_ENTRY_TOL) & (r <= table.r_max + _ENTRY_TOL))
    if bad.any():
        k = np.argmax(bad)
        raise ScenarioSemanticError(
            f"node {table.ids[k]}: buffer load "
            f"{float(r[k])} outside [0, {table.r_max[k]}]")
    np.clip(r, 0.0, table.r_max, out=r)
    # a source's load grows by at most tau times its inflow a step, and
    # readers sum its history: twice that sum must still be finite
    with np.errstate(over="ignore"):
        top = 2.0 * (M + 1) * (r[table.sources] + tau * table.inflows.sum(0))
    if not np.isfinite(top).all():
        k = table.sources[np.argmin(np.isfinite(top))]
        raise ScenarioSemanticError(f"node {table.ids[k]}: inflow over "
                                    f"T={T} overflows its buffer load")
    history = np.zeros((M + 1) * cells)
    # road k's (M+1, cells) block of the edge-major history, and its cells
    roads = [(history[(M + 1) * a:(M + 1) * (b + 1)].reshape(M + 1, -1),
              slice(a, b + 1)) for a, b in zip(table.first, table.last)]
    loads = np.zeros((M + 1, len(r)))
    series = np.zeros((M, len(table.flows)))
    # the last K states, time-major, copied to the roads' blocks when full
    # and at the end
    K = _chunk_rows(cells)
    states = np.empty((K, cells))
    for n in range(M + 1):
        if n:
            series[n - 1] = advance_step(table, rho, r, n - 1)[0]
        loads[n] = r
        j = n % K
        states[j] = rho
        if j == K - 1 or n == M:
            for block, part in roads:
                block[n - j:n + 1] = states[:j + 1, part]
    return SimLog(network, tau, T, mode, [block for block, _ in roads],
                  loads, series, table.fired)
