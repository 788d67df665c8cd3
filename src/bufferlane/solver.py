"""Network Godunov solver: cell updates, junction fluxes, Euler buffers."""

from dataclasses import dataclass, field

import numpy as np

from . import junctions
from .errors import BufferOutOfRange, CFLViolation, DensityOutOfRange
from .fluxes import godunov_flux
from .junctions import DemandMode
from .network import RoadNetwork

_CLIP_TOL = 1e-10
_ENTRY_TOL = 1e-12  # initial data off [0, 1] or [0, r_max] by more is rejected


@dataclass
class InitialData:
    """Piecewise-constant initial densities and initial buffer loads.

    `densities[edge] = [(x_0, rho_0), (x_1, rho_1), ...]` means density
    rho_k on [x_k, x_{k+1}) with breakpoints relative to the edge start.
    Missing edges/nodes default to zero.
    """

    densities: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)


def project_cells(edge, pieces):
    """Exact cell averages of a piecewise-constant profile.

    A non-finite piece value raises DensityOutOfRange naming the edge
    before it meets the zero overlap of the cells outside its piece."""
    for _, v in pieces:
        if not np.isfinite(v):
            raise DensityOutOfRange(
                f"edge {edge.id}: initial density {v} outside [0, 1]")
    lo = np.arange(edge.cells) * edge.h
    hi = np.arange(1, edge.cells + 1) * edge.h
    ends = [x for x, _ in pieces[1:]] + [edge.length]
    acc = np.zeros(edge.cells)
    for (x, v), end in zip(pieces, ends):
        acc += v * np.maximum(np.minimum(hi, end) - np.maximum(lo, x), 0.0)
    return acc / edge.h


def cfl_timestep(network: RoadNetwork, T):
    """Half the smallest cell width, shrunk so the horizon divides evenly."""
    tau = 0.5 * min(e.h for e in network.edges.values())
    return T / int(np.ceil(T / tau - 1e-9))


class SimLog:
    """Full time series of a run: densities, buffers and boundary fluxes.

    Flux entries at index n are the constants used on [t^n, t^{n+1}), so
    flux arrays have M entries while state arrays have M+1.  Each table is
    a dict of views into one edge-major buffer: `rho[eid]` is a C-contiguous
    (M+1, cells) block and every node or edge series a contiguous row.
    `simulate` fills the blocks from a small time-major chunk of recent
    steps, one block copy per road whenever the chunk is full.  A
    time-major (M+1) x C history would make each road's history strided,
    and readers that need it contiguous (hashing, binary dumps) would copy
    the largest road's history, raising peak RSS by that copy.
    """

    def __init__(self, network, tau, T, mode, history, loads, series,
                 events, fired):
        """`history` holds road after road each (M+1, cells) block, `loads`
        the (nodes, M+1) buffer loads, `series` the (2 edges + 2 nodes,
        M) rows of q_in, q_out, node_inflow and node_outflow, and `fired`
        per node the number of steps whose fluxes the limiter rescaled."""
        self.network = network
        self.tau = tau
        self.T = T
        self.mode = mode
        self.steps = M = int(round(T / tau))
        self.t = np.arange(M + 1) * tau
        ends = (M + 1) * np.cumsum([e.cells for e in network.edges.values()])
        self.rho = {e.id: block.reshape(M + 1, e.cells) for e, block in
                    zip(network.edges.values(), np.split(history, ends[:-1]))}
        self.buffers = dict(zip(network.nodes, loads))
        E, N = len(network.edges), len(network.nodes)
        q_in, q_out, f_in, f_out = np.split(series, [E, 2 * E, 2 * E + N])
        self.q_in, self.q_out = (dict(zip(network.edges, q))
                                 for q in (q_in, q_out))
        self.node_inflow, self.node_outflow = (dict(zip(network.nodes, f))
                                               for f in (f_in, f_out))
        self.events = events
        self.limiter_fired = dict(zip(network.nodes, fired.sum(0).tolist()))


def _chunk_rows(cells):
    """Steps `simulate` holds before copying them to the history: at
    most 64, and at most 2^17 values (1 MB) in all."""
    return max(1, min(64, 2**17 // cells))


def advance_step(table, lam, rho, r, inflow, tau, mode, t):
    """One explicit step on the flat state (`lam` = tau / h per cell) with
    the sources' `inflow`; returns the new state, the flow vector used
    (see `JunctionTable`), the limiter's mask and the step's events.

    The new loads come from one `junctions.buffer_step` call, which limits
    the node fluxes in `flows` before the cells read q_in and q_out.  The
    new state is `table.state`, overwritten by the next call; it may be
    passed back as `rho`.
    """
    ds, flows = table.fluxes(rho, r, inflow, mode)
    new_r, hit, events = junctions.buffer_step(table, r, flows, tau, mode, t)
    F = godunov_flux(ds[0, :-1], ds[1, 1:])
    # demand and supply are spent: their rows take each cell's right and
    # left flux, the interior interfaces' F and the roads' q_out and q_in
    right, left = ds
    right[:-1] = F
    left[1:] = F
    q_in, q_out = flows[:table.edge_flows].reshape(2, -1)
    right[table.last] = q_out
    left[table.first] = q_in
    nu = table.state
    np.subtract(right, left, out=right)
    right *= lam
    np.subtract(rho, right, out=nu)
    lo, hi = nu.min(), nu.max()
    if lo < -_CLIP_TOL or hi > 1.0 + _CLIP_TOL:
        lo, hi = (f.reduceat(nu, table.first) for f in (np.minimum, np.maximum))
        k = np.argmax((lo < -_CLIP_TOL) | (hi > 1.0 + _CLIP_TOL))
        raise CFLViolation(
            f"edge {table.edges[k].id}: density left [0,1] at t={t:.6g} "
            f"(range [{lo[k]:.3e}, {hi[k]:.3e}])")
    if lo < 0.0 or hi > 1.0:
        np.clip(nu, 0.0, 1.0, out=nu)
    return nu, new_r, flows, hit, events


def simulate(network, initial, T, mode=DemandMode.STANDARD) -> SimLog:
    """Run the coupled scheme over [0, T] and record every step.

    The step is always `cfl_timestep(network, T)`, so every log has
    tau <= h/2 on every road: the bound the complex tracker assumes.
    The state is one flat density vector, road after road, and one load
    per node; a JunctionTable gives all boundary fluxes of a step in one
    array pass, from inflows sampled for every step up front.  The initial
    state is checked here, once: a density off [0, 1] or a load off
    [0, r_max] beyond round-off, or not finite, raises
    DensityOutOfRange naming the edge or BufferOutOfRange naming the node;
    round-off is clipped.  Each later state is checked by the step that
    makes it (`advance_step`, `junctions.buffer_step`), so the flux law
    and the junction table read every value unchecked.
    """
    tau = cfl_timestep(network, T)
    M = int(round(T / tau))
    table = junctions.JunctionTable.for_network(network)
    lam = np.repeat([tau / e.h for e in table.edges], table.widths)
    rho = np.concatenate([project_cells(e, initial.densities.get(
        e.id, [(0.0, 0.0)])) for e in table.edges])
    r = np.array([float(initial.buffers.get(v, 0.0)) for v in network.nodes])
    bad = ~((rho >= -_ENTRY_TOL) & (rho <= 1.0 + _ENTRY_TOL))
    if bad.any():
        i = np.argmax(bad)
        raise DensityOutOfRange(
            f"edge {table.edges[np.searchsorted(table.last, i)].id}: initial "
            f"density {float(rho[i])} outside [0, 1]")
    np.clip(rho, 0.0, 1.0, out=rho)
    bad = ~(np.isfinite(r) & (r >= -_ENTRY_TOL) & (r <= table.r_max + _ENTRY_TOL))
    if bad.any():
        k = np.argmax(bad)
        raise BufferOutOfRange(f"node {table.ids[k]}: buffer load "
                               f"{float(r[k])} outside [0, {table.r_max[k]}]")
    np.clip(r, 0.0, table.r_max, out=r)
    inflows = table.inflow_table(tau, M)
    history = np.zeros((M + 1) * len(rho))
    # road k's (M+1, cells) block of the edge-major history, and its cells
    roads = [(history[(M + 1) * a:(M + 1) * (b + 1)].reshape(M + 1, -1),
              slice(a, b + 1)) for a, b in zip(table.first, table.last)]
    # the states of the last K steps, time-major, copied to every road's
    # block at once when full and at the end
    K = _chunk_rows(len(rho))
    chunk = np.empty((K, len(rho)))
    loads = np.zeros((len(r), M + 1))
    series = np.zeros((2 * len(table.edges) + 2 * len(r), M))
    fired = np.zeros((2, len(r)), dtype=np.intp)
    for block, cells in roads:
        block[0] = rho[cells]
    loads[:, 0], events = r, []
    for n in range(M):
        rho, r, series[:, n], hit, step_events = advance_step(
            table, lam, rho, r, inflows[n], tau, mode, n * tau)
        fired += hit
        j = n % K
        chunk[j], loads[:, n + 1] = rho, r
        events.extend(step_events)
        if j == K - 1 or n == M - 1:
            for block, cells in roads:
                block[n + 1 - j:n + 2] = chunk[:j + 1, cells]
    return SimLog(network, tau, T, mode, history, loads, series, events,
                  fired)
