"""Junction coupling: boundary fluxes from demand/supply and buffer state.

All nodes of a network form one table, evaluated once per time step with
one array pass per row kind: source, sink, dispersing (one_to_two, and
one_to_one as a split with alpha = (1, 0)) and merging (two_to_one).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fluxes
from .errors import BufferOverflow, BufferUnderflow
from .network import DEMAND_PROPORTIONAL, NodeKind

# emptiness / fullness decided up to round-off
_TOL = 1e-12


class DemandMode(Enum):
    STANDARD = "standard"
    POOLED = "pooled"


@dataclass(frozen=True)
class NegativityEvent:
    """A buffer driven below zero (possible only in Pooled demand mode)."""

    node: str
    time: float
    load: float


class JunctionTable:
    """Index arrays of a network's nodes, grouped into rows by kind.

    Edges are numbered in declaration order, their cells laid out road
    after road in one flat vector: road k owns cells `first[k]` to
    `last[k]`.  `ins[k]` / `outs[k]` list the edge numbers at node k in the
    order that pairs them with alpha and priority.  Edge number `len(edges)`
    is a phantom road: the second exit of a one_to_one row, whose split
    fraction 0 keeps it empty.
    """

    def __init__(self, nodes, ins, outs, edges):
        self.ids = [n.id for n in nodes]
        self.edges = edges
        n_edges = len(edges)
        self.widths = np.array([e.cells for e in edges], dtype=np.intp)
        self.last = np.cumsum(self.widths) - 1
        self.first = self.last + 1 - self.widths
        self.r_max = np.array([n.r_max for n in nodes], dtype=float)
        self.mu = np.array([n.mu for n in nodes], dtype=float)
        self.edge_source = np.zeros(n_edges, dtype=np.intp)
        self.edge_target = np.zeros(n_edges, dtype=np.intp)
        for k in range(len(nodes)):
            self.edge_source[outs[k]] = k
            self.edge_target[ins[k]] = k

        def rows(*kinds):  # node numbers, then in / out edges as (2, rows)
            ks = [k for k, n in enumerate(nodes) if n.kind in kinds]
            return (np.array(ks, dtype=np.intp),
                    *(np.array([(lists[k] + [n_edges] * 2)[:2] for k in ks],
                               dtype=np.intp).reshape(-1, 2).T
                      for lists in (ins, outs)))

        self.source = rows(NodeKind.SOURCE)
        self.sink = rows(NodeKind.SINK)
        self.split = rows(NodeKind.ONE_TO_ONE, NodeKind.ONE_TO_TWO)
        self.merge = rows(NodeKind.TWO_TO_ONE)
        self.inflows = [nodes[k] for k in self.source[0]]
        self.alpha = np.array([nodes[k].alpha if nodes[k].kind is
                               NodeKind.ONE_TO_TWO else (1.0, 0.0)
                               for k in self.split[0]]).reshape(-1, 2).T
        merging = [nodes[k] for k in self.merge[0]]
        self.dynamic = np.array([n.priority == DEMAND_PROPORTIONAL
                                 for n in merging], dtype=bool)
        self.priority = np.array([(0.5, 0.5) if d else n.priority for n, d
                                  in zip(merging, self.dynamic)]).reshape(-1, 2).T
        # nodes whose load is held at >= 0, per demand mode: pooled loads
        # may go negative at merges, the known defect of that demand
        self.floored = {mode: np.ones(len(nodes), dtype=bool)
                        for mode in DemandMode}
        self.floored[DemandMode.POOLED][self.merge[0]] = False

    @classmethod
    def for_network(cls, network):
        index = {eid: k for k, eid in enumerate(network.edges)}
        return cls(list(network.nodes.values()),
                   [[index[e] for e in network.in_edges[v]] for v in network.nodes],
                   [[index[e] for e in network.out_edges[v]] for v in network.nodes],
                   list(network.edges.values()))

    def fluxes(self, rho, r, t, mode=DemandMode.STANDARD):
        """Boundary fluxes of every road and node at one instant.

        `rho` is the flat cell vector and `r` the buffer loads.  Returns the
        per-edge (q_in, q_out) and the per-node (f_in, f_out): the buffer's
        inflow and outflow.
        """
        rho_end = rho[self.last]
        d = fluxes.demand(rho_end)
        s = np.concatenate((fluxes.supply(rho[self.first]), [fluxes.F_MAX]))
        q_in, q_out = np.empty(len(self.edges) + 1), np.empty(len(self.edges))
        f_in, f_out = np.empty(len(self.ids)), np.empty(len(self.ids))

        # sources: the inflow enters the buffer, which feeds the first road
        # at up to mu (all of it while the queue is empty)
        v, _, (e, _) = self.source
        f_in[v] = [node.inflow_at(t) for node in self.inflows]
        d_b = np.where(r[v] > _TOL, self.mu[v], np.minimum(f_in[v], self.mu[v]))
        q_in[e] = f_out[v] = np.minimum(d_b, s[e])

        # sinks absorb the road's flux: waves never reflect there
        v, (e, _), _ = self.sink
        q_out[e] = f_in[v] = f_out[v] = fluxes.flux(rho_end[e])

        v, (e, _), (e2, e3) = self.split
        q_out[e], q_in[e2], q_in[e3] = one_to_two_fluxes(
            d[e], s[e2], s[e3], r[v], self.alpha, self.mu[v], self.r_max[v])
        f_in[v] = q_out[e]
        f_out[v] = q_in[e2] + q_in[e3]

        v, (e1, e2), (e, _) = self.merge
        q_out[e1], q_out[e2], q_in[e] = two_to_one_fluxes(
            d[e1], d[e2], s[e], r[v], self.priority, self.dynamic,
            self.mu[v], self.r_max[v], mode)
        f_in[v] = q_out[e1] + q_out[e2]
        f_out[v] = q_in[e]
        return q_in[:-1], q_out, f_in, f_out


def dynamic_priorities(d1, d2):
    """Demand-proportional right-of-way pair; (0.5, 0.5) when both vanish."""
    total = np.add(d1, d2)
    return tuple(np.divide(d, total, out=np.full_like(total, 0.5),
                           where=total > 0.0) for d in (d1, d2))


def one_to_two_fluxes(d1, s2, s3, r, alpha, mu, r_max):
    """Dispersing rows: returns (q1_out, q2_in, q3_in)."""
    a2, a3 = alpha
    d_b = np.where(r > _TOL, mu, np.minimum(d1, mu))
    s_b = np.where(r < r_max - _TOL, mu,
                   np.minimum(s2, a2 * mu) + np.minimum(s3, a3 * mu))
    return (np.minimum(s_b, d1), np.minimum(a2 * d_b, s2),
            np.minimum(a3 * d_b, s3))


def two_to_one_fluxes(d1, d2, s3, r, priority, dynamic, mu, r_max,
                      mode=DemandMode.STANDARD):
    """Merging rows: returns (q1_out, q2_out, q3_in)."""
    c1, c2 = np.where(dynamic, dynamic_priorities(d1, d2), priority)
    s_b = np.where(r < r_max - _TOL, mu, np.minimum(s3, mu))
    if mode is DemandMode.STANDARD:
        d_empty = np.minimum(d1, c1 * mu) + np.minimum(d2, c2 * mu)
    else:
        d_empty = np.minimum(d1 + d2, mu)
    d_b = np.where(r > _TOL, mu, d_empty)
    return (np.minimum(c1 * s_b, d1), np.minimum(c2 * s_b, d2),
            np.minimum(d_b, s3))


def limit_buffer_crossings(table, r, q_in, q_out, f_in, f_out, tau, mode):
    """Rescale node fluxes in place so no buffer crosses 0 or r_max.

    The coupling branches on the buffer state at t^n, so a buffer that
    empties (or fills) in mid-step would overshoot the bound by up to one
    step's flow before the fluxes switch.  Scaling the node's outgoing
    (resp. incoming) fluxes to stop exactly at the bound keeps the loads
    admissible and the scheme conservative.  In Pooled mode negative loads
    at merges are left in place: the known defect of that demand choice
    must stay observable.  Every other node keeps the limiter in both modes.
    """
    ahead = r + tau * (f_in - f_out)
    empties = (ahead < 0.0) & table.floored[mode]
    fills = ~empties & (ahead > table.r_max)
    for hit, room, scaled, other, q, node in (
            (empties, r, f_out, f_in, q_in, table.edge_source),
            (fills, table.r_max - r, f_in, f_out, q_out, table.edge_target)):
        if hit.any():
            scale = np.ones_like(r)
            scale[hit] = (room[hit] / tau + other[hit]) / scaled[hit]
            scaled *= scale
            q *= scale[node]


def buffer_step(table, r, inflow, outflow, tau, mode=DemandMode.STANDARD,
                time=0.0):
    """Explicit Euler update of every buffer; returns (new loads, events).

    Every load after the initial one (which `simulate` checks) is checked
    here, and only here.  The fluxes are assumed admissible for the load
    (crossings of 0 / r_max already limited), so violations beyond
    round-off signal a coupling bug and raise.  Only merges in Pooled mode
    report negative loads as events instead of raising, so the known
    defect of that demand choice is observable.
    """
    new_r = r + tau * (inflow - outflow)
    over = new_r > table.r_max + _TOL
    under = new_r < -_TOL
    fatal = over | (under & table.floored[mode])
    if fatal.any():
        k = int(np.argmax(fatal))
        node, load = table.ids[k], float(new_r[k])
        if over[k]:
            raise BufferOverflow(
                f"node {node}: buffer {load} > r_max {table.r_max[k]}")
        raise BufferUnderflow(f"node {node}: buffer {load} < 0")
    events = [NegativityEvent(node=table.ids[k], time=time,
                              load=float(new_r[k]))
              for k in np.flatnonzero(under)]
    clamped = np.minimum(np.maximum(new_r, 0.0), table.r_max)
    return np.where(under, new_r, clamped), events
