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
    """Exact cell averages of a piecewise-constant profile."""
    lo = np.arange(edge.cells) * edge.h
    hi = np.arange(1, edge.cells + 1) * edge.h
    ends = [x for x, _ in pieces[1:]] + [edge.length]
    acc = np.zeros(edge.cells)
    for (x, v), end in zip(pieces, ends):
        acc += v * np.maximum(np.minimum(hi, end) - np.maximum(lo, x), 0.0)
    return acc / edge.h


def cfl_timestep(network: RoadNetwork, T=None):
    """Half the smallest cell width, shrunk so the horizon divides evenly."""
    tau = 0.5 * min(e.h for e in network.edges.values())
    if T is None:
        return tau
    return T / int(np.ceil(T / tau - 1e-9))


class SimLog:
    """Full time series of a run: densities, buffers and boundary fluxes.

    Flux entries at index n are the constants used on [t^n, t^{n+1}), so
    flux arrays have M entries while state arrays have M+1.  Each table is
    a dict of views into one edge-major buffer: `rho[eid]` is a C-contiguous
    (M+1, cells) block and every node or edge series a contiguous row.  A
    time-major (M+1) x C array would make each road's history strided, and
    readers that need it contiguous (hashing, binary dumps) would copy the
    largest road's history, raising peak RSS by that copy.
    """

    def __init__(self, network, tau, T, mode, history, loads, series, events):
        """`history` holds road after road each (M+1, cells) block, `loads`
        the (nodes, M+1) buffer loads and `series` the (2 edges + 2 nodes,
        M) rows of q_in, q_out, node_inflow and node_outflow."""
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


def advance_step(table, lam, rho, r, t, tau, mode=DemandMode.STANDARD):
    """One explicit step on the flat state (`lam` = tau / h per cell);
    returns the new state and the fluxes (q_in, q_out, f_in, f_out) used."""
    q_in, q_out, f_in, f_out = table.fluxes(rho, r, t, mode)
    junctions.limit_buffer_crossings(table, r, q_in, q_out, f_in, f_out,
                                     tau, mode)
    F = godunov_flux(rho[:-1], rho[1:])
    right = np.concatenate((F, [0.0]))
    right[table.last] = q_out
    left = np.concatenate(([0.0], F))
    left[table.first] = q_in
    nu = rho - lam * (right - left)
    if nu.min() < -_CLIP_TOL or nu.max() > 1.0 + _CLIP_TOL:
        lo, hi = (f.reduceat(nu, table.first) for f in (np.minimum, np.maximum))
        k = np.argmax((lo < -_CLIP_TOL) | (hi > 1.0 + _CLIP_TOL))
        raise CFLViolation(
            f"edge {table.edges[k].id}: density left [0,1] at t={t:.6g} "
            f"(range [{lo[k]:.3e}, {hi[k]:.3e}])")
    np.clip(nu, 0.0, 1.0, out=nu)
    new_r, events = junctions.buffer_step(table, r, f_in, f_out, tau, mode, t)
    return nu, new_r, (q_in, q_out, f_in, f_out), events


def simulate(network, initial, T, mode=DemandMode.STANDARD, tau=None) -> SimLog:
    """Run the coupled scheme over [0, T] and record every step.

    The state is one flat density vector, road after road, and one load
    per node; a JunctionTable gives all boundary fluxes of a step in array
    passes.  The initial state is checked here, once: a density off [0, 1]
    or a load off [0, r_max] beyond round-off, or not finite, raises
    DensityOutOfRange naming the edge or BufferOutOfRange naming the node;
    round-off densities are clipped.  Each later state is checked by the
    step that makes it (`advance_step`, `junctions.buffer_step`), so the
    flux law and the junction kernels read every value unchecked.
    """
    if tau is None:
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
    # edge-major history: road k's block starts at (M+1) first[k], and its
    # step-n values sit n * cells further on
    history = np.zeros((M + 1) * len(rho))
    pos = np.arange(len(rho)) + np.repeat(M * table.first, table.widths)
    stride = np.repeat(table.widths, table.widths)
    loads = np.zeros((len(r), M + 1))
    series = np.zeros((2 * len(table.edges) + 2 * len(r), M))
    history[pos], loads[:, 0], events = rho, r, []
    for n in range(M):
        rho, r, flows, step_events = advance_step(table, lam, rho, r,
                                                  n * tau, tau, mode)
        pos += stride
        history[pos], loads[:, n + 1] = rho, r
        series[:, n] = np.concatenate(flows)
        events.extend(step_events)
    return SimLog(network, tau, T, mode, history, loads, series, events)
