"""Junction coupling: boundary fluxes from demand/supply and buffer state.

All nodes form one table of 2-in/2-out rows, evaluated in one array pass
per step.  A merge (two_to_one) is a row as written; a split (one_to_two)
is a merge whose second incoming slot is a phantom with priority 0;
one_to_one is a split with alpha = (1, 0) whose second exit is a phantom;
a source is a one_to_one fed by its inflow.  A phantom reads demand or
supply 0.0 with priority or split 0, so each term it adds is exactly 0
(`1.0 * x` and `x + 0.0` are exact for x >= 0): every row gives its
kind's fluxes bit for bit.  A sink absorbs min(demand, supply) = f of its
road's last cell.
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
    """A network's nodes as rows over one work vector, built for one run:
    it owns the step `tau`, the per-cell `lam` = tau / h, the (steps,
    sources) `inflows` at t = n tau (`JunctionSpec.inflow_at` bit for bit)
    and the demand mode, as the flag `pooled` and the bound `lower` each
    load is held above.  A step reads only the state and its index n.

    Road k owns cells `first[k]` to `last[k]` of the flat cell vector;
    `ins[k]` / `outs[k]` list the edges at node k in the order that pairs
    them with priority and alpha.  The work vector holds every cell's
    demand and supply, the phantoms' 0.0, the sources' inflows, then per
    row the outflows of both incoming and the inflows of both outgoing
    slots and the buffer's inflow and outflow (a sink's row goes unread),
    then the sinks' fluxes.  One gather feeds the rows; one scatter reads
    the flow vector: q_in and q_out per edge (the first `edge_flows`
    entries), then f_in and f_out (buffer in/out) per node.  `state` is
    the row `solver.advance_step` writes each new cell state to.
    """

    def __init__(self, nodes, ins, outs, edges, tau, steps, mode):
        self.ids = [n.id for n in nodes]
        self.edges = edges
        self.tau = tau
        E, N = len(edges), len(nodes)
        self.widths = np.array([e.cells for e in edges], dtype=np.intp)
        self.lam = np.repeat([tau / e.h for e in edges], self.widths)
        self.last = np.cumsum(self.widths) - 1
        self.first = self.last + 1 - self.widths
        cells = int(self.widths.sum())
        self.state = np.empty(cells)  # the new cell state of a step
        self.r_max = np.array([n.r_max for n in nodes], dtype=float)
        self.mu = np.array([n.mu for n in nodes], dtype=float)
        self.edge_flows = 2 * E
        sources = [n for n in nodes if n.kind is NodeKind.SOURCE]
        t = np.arange(steps)[:, None] * tau
        self.inflows = np.empty((steps, len(sources)))
        for j, node in enumerate(sources):
            times, values = np.array(node.inflow, dtype=float).T
            # inflow_at keeps the last of the leading breakpoints reached
            reached = np.cumprod(t >= times - 1e-15, axis=1).sum(1)
            self.inflows[:, j] = values[np.maximum(reached - 1, 0)]
        sinks = [k for k, n in enumerate(nodes) if n.kind is NodeKind.SINK]
        zero, fed = 2 * cells, 2 * cells + 1
        base = fed + len(sources)
        self.work = np.zeros(base + 6 * N + len(sinks))
        self.fed = self.work[fed:base]
        self.slots = self.work[base:base + 4 * N].reshape(2, 2, N)
        self.node_flows = self.work[base + 4 * N:base + 6 * N].reshape(2, N)
        self.sink_flows = self.work[base + 6 * N:]
        gather = np.full((2, 2, N), zero)
        scatter = np.full((2, E), zero)
        nodal = base + 4 * N + np.arange(2 * N).reshape(2, N)
        for k in range(N):
            for j, e in enumerate(ins[k]):
                gather[0, j, k], scatter[1, e] = self.last[e], base + j * N + k
            for j, e in enumerate(outs[k]):
                gather[1, j, k] = cells + self.first[e]
                scatter[0, e] = base + (2 + j) * N + k
            if nodes[k].kind is NodeKind.SOURCE:
                gather[0, 0, k] = nodal[0, k] = fed
                fed += 1
        # each edge's q_in (q_out) is scaled as its source (target) node's
        # outflow (inflow): its index in the limiter's flat (2, nodes) scale
        self.edge_nodes = ((scatter - base) % N + [[0], [N]]).ravel()
        for j, k in enumerate(sinks):
            nodal[:, k] = scatter[1, ins[k][0]] = base + 6 * N + j
        ends = self.last[[ins[k][0] for k in sinks]]
        self.gather = np.concatenate((gather.ravel(), ends, cells + ends))
        self.scatter = np.concatenate((scatter.ravel(), nodal.ravel()))
        merge = np.array([n.kind is NodeKind.TWO_TO_ONE for n in nodes])
        self.dynamic = merge & [n.priority == DEMAND_PROPORTIONAL for n in nodes]
        self.priority = np.array([(0.5, 0.5) if dyn else n.priority if m else
                                  (1.0, 0.0) for n, m, dyn in zip(
                                      nodes, merge, self.dynamic)]).T
        self.alpha = np.array([n.alpha if n.kind is NodeKind.ONE_TO_TWO else
                               (1.0, 0.0) for n in nodes]).T
        self.alpha_mu = self.alpha * self.mu
        self.full = self.r_max - _TOL
        # the bound each load is held above: pooled loads may go negative
        # at merges, the known defect of that demand
        self.pooled = mode is DemandMode.POOLED
        self.lower = np.where(merge & self.pooled, -np.inf, 0.0)

    @classmethod
    def for_network(cls, network, tau, steps, mode):
        index = {eid: k for k, eid in enumerate(network.edges)}
        return cls(list(network.nodes.values()),
                   [[index[e] for e in network.in_edges[v]] for v in network.nodes],
                   [[index[e] for e in network.out_edges[v]] for v in network.nodes],
                   list(network.edges.values()), tau, steps, mode)

    def fluxes(self, rho, r, n):
        """Boundary fluxes of every road and node at step n.

        `rho` is the flat cell vector and `r` the buffer loads at t = n tau;
        the sources feed `inflows[n]`.  Returns the (2, cells) demand and
        supply, a view of the work vector valid until the next call, and
        the flow vector.
        """
        w, N, mu = self.work, len(self.ids), self.mu
        ds = fluxes.demand_supply(rho, w[:2 * len(rho)].reshape(2, -1))
        self.fed[:] = self.inflows[n]
        g = w.take(self.gather)
        (d, s), ends = g[:4 * N].reshape(2, 2, N), g[4 * N:].reshape(2, -1)
        total = d[0] + d[1]
        # demand-proportional right of way; (0.5, 0.5) when both demands vanish
        c = np.divide(d, total, out=self.priority.copy(),
                      where=self.dynamic & (total > 0.0))
        m = np.minimum(s, self.alpha_mu)
        s_b = np.where(r < self.full, mu, m[0] + m[1])
        m = np.minimum(d, c * mu)
        d_b = np.where(r > _TOL, mu, np.minimum(total, mu) if self.pooled
                       else m[0] + m[1])
        np.minimum(c * s_b, d, out=self.slots[0])
        np.minimum(self.alpha * d_b, s, out=self.slots[1])
        np.add(self.slots[:, 0], self.slots[:, 1], out=self.node_flows)
        np.minimum(ends[0], ends[1], out=self.sink_flows)
        return ds, w.take(self.scatter)


def buffer_step(table, r, flows, n):
    """The buffer loads after step n, r + tau (f_in - f_out) with the
    table's tau, limited, checked and clamped; returns (new loads, hit,
    events), each event at t = n tau.

    The coupling branches on the buffer state at t^n, so a buffer that
    empties (or fills) in mid-step would overshoot the bound by up to one
    step's flow before the fluxes switch.  Scaling the node's outgoing
    (resp. incoming) fluxes in `flows`, in place, to stop exactly at the
    bound keeps the loads admissible and the scheme conservative; `hit` is
    the (2, nodes) mask of the nodes so rescaled at 0 and at r_max.  In
    Pooled mode merges are not limited at 0: their negative loads, the
    known defect of that demand choice, are kept and reported as events.

    Every load after the initial one (which `simulate` checks) is checked
    here, and only here.  After the limiter only a coupling bug can put a
    load off [0, r_max] beyond round-off; that raises BufferOverflow or
    BufferUnderflow.  With no node hit and no load below 0, every load
    lies in [0, r_max] already and is returned unchecked.
    """
    f = flows[table.edge_flows:].reshape(2, -1)  # f_in, f_out
    tau, lower = table.tau, table.lower
    new_r = r + tau * (f[0] - f[1])
    hit = np.empty(f.shape, dtype=bool)
    np.less(new_r, lower, out=hit[0])
    np.greater(new_r, table.r_max, out=hit[1])
    if hit.any():
        # the room to each bound, r above 0 and r_max - r below r_max,
        # scales f_out (and the q_in it feeds), resp. f_in (and the q_out)
        scale = np.empty_like(f)
        scale[0] = r
        np.subtract(table.r_max, r, out=scale[1])
        scale /= tau
        scale += f
        np.divide(scale, f[::-1], out=scale, where=hit)
        scale[~hit] = 1.0
        f[::-1] *= scale
        flows[:table.edge_flows] *= scale.take(table.edge_nodes)
        # a scale of 1 is exact: every other node's load keeps its bits
        new_r = r + tau * (f[0] - f[1])
    elif new_r.min() >= 0.0:
        return new_r, hit, []
    over = new_r > table.r_max + _TOL
    under = new_r < -_TOL
    fatal = over | (new_r < lower - _TOL)
    if fatal.any():
        k = int(np.argmax(fatal))
        node, load = table.ids[k], float(new_r[k])
        if over[k]:
            raise BufferOverflow(
                f"node {node}: buffer {load} > r_max {table.r_max[k]}")
        raise BufferUnderflow(f"node {node}: buffer {load} < 0")
    events = [NegativityEvent(table.ids[k], n * tau, float(new_r[k]))
              for k in under.nonzero()[0]]
    clamped = np.minimum(np.maximum(new_r, 0.0), table.r_max)
    return np.where(under, new_r, clamped), hit, events
