"""Junction coupling: boundary fluxes from demand/supply and buffer state.

All nodes form one table of 2-in/2-out rows, evaluated in one array pass
per step; a row's role comes from its roads.  A merge (two roads in) is
a row as written; a split (two out) is a merge whose second incoming
slot is a phantom with priority 0; one road in and one out is a split
with alpha = (1, 0) whose second exit is a phantom.  A source (no road
in) is such a row whose incoming demand is its inflow, but its buffer
(r_max = inf) takes the whole inflow: f_in is the raw inflow, not capped
by mu.  It releases as a one_to_one does: min(supply, mu) while it holds
a load, min(supply, inflow, mu) when empty.  A sink (no road out) is
such a row whose exit is its road's last cell, with caps F_MAX and a
buffer never free: it passes f there, min(demand, supply), as f_in =
f_out.  A phantom reads demand or supply 0.0 with priority or split 0,
so each term it adds is exactly 0 (`1.0 * x` and `x + 0.0` are exact for
x >= 0): every row gives its kind's fluxes bit for bit.  A source's
inflow is sampled at t = n tau from the last breakpoint reached up to
1e-15.  The scalar step in `tests/reference.py` gives every row, the
inflow sampling and the limiter node by node, and a test holds
`solver.advance_step` to it bit for bit.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fluxes
from .errors import InvariantViolation
from .network import DEMAND_PROPORTIONAL

# emptiness / fullness decided up to round-off (a numpy scalar: quicker in ufuncs)
_TOL = np.float64(1e-12)


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
    sources) `inflows` at t = n tau (`inflow_at` of `tests/reference.py`
    bit for bit) and the demand mode, as the flag `pooled` and the bound
    each load is held above.  A step reads only the state and its index
    n.

    Road k owns cells `first[k]` to `last[k]` of the flat cell vector;
    `ins[k]` / `outs[k]` list the edges at node k in the order that pairs
    them with priority and alpha, and fix row k's role: `sources` lists
    the rows with no road in.  The work vector holds every cell's
    demand and supply, the phantoms' 0.0, the sources' inflows, per slot
    j every row's outflow of incoming and inflow of outgoing road j (a
    sink's exit slot goes unread), and the buffers' inflows and outflows.
    One gather feeds the rows; one scatter fills `flows`: q_in and q_out
    per edge (the first `edge_flows` entries), then f_in and f_out per
    node.  A step writes the caller's next densities and advances its
    loads in place; every other array it writes is the table's, rewritten
    by the next step: among them `ds`, the `flows` and the limiter mask
    `hit`, each owned by the table alone, so `fluxes` and `buffer_step`
    return nothing.  Only `fired`, the (2, nodes) sum of the `hit` masks,
    adds up over the run.
    The table also owns every view of those arrays that `fluxes`,
    `buffer_step` and `solver.advance_step` read, each made once here: a
    step makes no view but its row of `inflows` and the two rows that
    `fluxes.demand_supply` fills, and allocates no array.
    """

    def __init__(self, nodes, ins, outs, edges, tau, steps, mode):
        self.ids = [n.id for n in nodes]
        self.edges = edges
        self.tau = np.float64(tau)
        E, N = len(edges), len(nodes)
        self.widths = np.array([e.cells for e in edges], dtype=np.intp)
        self.lam = np.repeat([tau / e.h for e in edges], self.widths)
        self.last = np.cumsum(self.widths) - 1
        self.first = self.last + 1 - self.widths
        cells = int(self.widths.sum())
        self.r_max = np.array([n.r_max for n in nodes], dtype=float)
        sink = np.array([not o for o in outs])
        self.mu = np.where(sink, fluxes.F_MAX, [n.mu for n in nodes])
        self.edge_flows = 2 * E
        self.sources = [k for k in range(N) if not ins[k]]
        t = np.arange(steps) * tau
        self.inflows = np.empty((steps, len(self.sources)))
        for j, k in enumerate(self.sources):
            times, values = np.array(nodes[k].inflow, dtype=float).T
            # the last breakpoint reached up to 1e-15 (times increase)
            reached = np.searchsorted(times - 1e-15, t, side="right")
            self.inflows[:, j] = values[np.maximum(reached - 1, 0)]
        zero, fed = 2 * cells, 2 * cells + 1
        base = fed + len(self.sources)
        self.work = np.zeros(base + 6 * N)
        self.fed = self.work[fed:base]
        # slot j of a row: outflow of incoming and inflow of outgoing road j
        self.slots = self.work[base:base + 4 * N].reshape(2, 2, N)
        self.node_flows = self.work[base + 4 * N:].reshape(2, N)
        self.gather = gather = np.full((2, 2, N), zero)
        scatter = np.full((2, E), zero)
        nodal = base + 4 * N + np.arange(2 * N).reshape(2, N)
        for k in range(N):
            for j, e in enumerate(ins[k]):
                gather[j, 0, k], scatter[1, e] = self.last[e], base + 2 * j * N + k
            for j, e in enumerate(outs[k]):
                gather[j, 1, k] = cells + self.first[e]
                scatter[0, e] = base + (2 * j + 1) * N + k
            if not outs[k]:  # a sink's exit is its road's last cell
                gather[0, 1, k] = cells + self.last[ins[k][0]]
        # a source's demand is its inflow, which is also its f_in
        gather[0, 0, self.sources] = nodal[0, self.sources] = range(fed, base)
        self.scatter = np.concatenate((scatter.ravel(), nodal.ravel()))
        # each flow's entry in the limiter's (2, nodes) scale of f_out and
        # f_in: q_in (q_out) goes with its source's f_out (target's f_in)
        q_nodes = ((scatter - base) % N + [[0], [N]]).ravel()
        self.flow_nodes = np.concatenate((q_nodes, N + np.arange(N), range(N)))
        merge = np.array([len(i) == 2 for i in ins])
        dynamic = merge & [n.priority == DEMAND_PROPORTIONAL for n in nodes]
        self.priority = np.array([(0.5, 0.5) if dyn else n.priority if m else
                                  (1.0, 0.0) for n, m, dyn in zip(
                                      nodes, merge, dynamic)]).T
        alpha = [n.alpha if len(o) == 2 else (1.0, 0.0)
                 for n, o in zip(nodes, outs)]
        # rows 1e-12, the loads at t^n and r_max - 1e-12 (a sink's +-inf:
        # its buffer is never free): one compare of two views gives `free`
        # (not empty: 1e-12 < r; not full: r < r_max - 1e-12)
        marks = np.stack((np.where(sink, np.inf, _TOL), np.zeros(N),
                          np.where(sink, -np.inf, self.r_max - _TOL)))
        self.r_now, self.free_sides = marks[1], (marks[:2], marks[1:])
        # the bound each load is held above: pooled loads may go negative
        # at merges, the known defect of that demand; beyond round-off past
        # floor or ceiling a load is fatal.  The rows floor, lower, new
        # load, r_max and ceiling: one compare of two views gives the
        # limiter's `hit` (new < lower, r_max < new), one the `fatal` mask
        # (new < floor, ceiling < new)
        self.pooled = mode is DemandMode.POOLED
        lower = np.where(merge & self.pooled, -np.inf, 0.0)
        levels = np.stack((lower - _TOL, lower, np.zeros(N), self.r_max,
                           self.r_max + _TOL))
        self.new_r = levels[2]
        self.hit_sides = levels[2:4], levels[1:3]
        self.fatal_sides = levels[2::2], levels[:3:2]
        self.ds = self.work[:2 * cells].reshape(2, cells)
        self.ds_spare = np.empty_like(self.ds)
        # q_in enters left of a road's first cell, q_out right of its last
        self.ends_at = np.concatenate((cells + self.first, self.last))
        self.block = np.empty((2, 2, N))  # slot j: d, s
        # slot j's priority c (made per step) and split alpha; times mu, caps
        self.coef = np.stack((self.priority, np.transpose(alpha)), axis=1)
        self.mu4 = np.tile(self.mu, (2, 2, 1))
        self.dyn_floor = np.where(dynamic, 0.0, np.inf)  # c by demand above
        self.caps, self.capped = np.empty((2, 2, 2, N))
        self.b, self.room, self.scale = np.empty((3, 2, N))  # b: d_b, s_b
        self.total, self.dr = np.empty((2, N))
        self.free, self.hit, self.fatal = np.empty((3, 2, N), dtype=bool)
        self.fired = np.zeros((2, N), dtype=np.intp)
        self.by_demand, self.under = np.empty((2, N), dtype=bool)
        self.flows = np.empty(len(self.scatter))
        self.q, self.flow_scale = self.flows[:2 * E], np.empty(2 * E + 2 * N)
        # every view a step reads, made once
        self.d, self.c = self.block[:, 0], self.coef[:, 0]  # slot j's d, c
        self.d0, self.d1 = self.d
        self.capped0, self.capped1 = self.capped
        self.d_b, self.b_rev, self.mu2 = self.b[0], self.b[::-1], self.mu4[0]
        self.slots0, self.slots1 = self.slots
        self.f = self.flows[self.edge_flows:].reshape(2, N)  # f_in, f_out
        self.f_in, self.f_out = self.f
        self.f_rev = self.f[::-1]
        # the room to 0 is (0 - r) / -tau, r / tau bit for bit
        self.bounds = np.stack((np.zeros(N), self.r_max))
        self.room_tau = np.array([[-self.tau], [self.tau]])
        # ds's rows take each cell's right and left flux in `advance_step`
        self.right, self.left = self.ds
        self.right_in, self.left_in = self.right[:-1], self.left[1:]

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
        the sources feed `inflows[n]`.  Writes the (2, cells) demand and
        supply `ds` and the flow vector `flows`, both arrays of the table
        that the next call overwrites, and returns nothing.
        """
        fluxes.demand_supply(rho, self.ds, self.ds_spare)
        self.fed[...] = self.inflows[n]
        # every index is in range: 'wrap' skips the buffered copy of 'raise'
        self.work.take(self.gather, out=self.block, mode="wrap")
        np.add(self.d0, self.d1, out=self.total)
        # demand-proportional right of way; (0.5, 0.5) when both demands vanish
        self.c[...] = self.priority
        np.greater(self.total, self.dyn_floor, out=self.by_demand)
        np.divide(self.d, self.total, out=self.c, where=self.by_demand)
        # intake d_b and release s_b: mu unless the buffer is empty (full),
        # else min(d, c mu) (min(s, alpha mu)) summed over the slots
        np.multiply(self.coef, self.mu4, out=self.caps)
        np.minimum(self.block, self.caps, out=self.capped)
        np.add(self.capped0, self.capped1, out=self.b)
        if self.pooled:
            np.minimum(self.total, self.mu, out=self.d_b)
        self.r_now[...] = r
        np.less(*self.free_sides, out=self.free)
        np.copyto(self.b, self.mu2, where=self.free)
        # c s_b and alpha d_b, capped by d and s
        np.multiply(self.coef, self.b_rev, out=self.slots)
        np.minimum(self.slots, self.block, out=self.slots)
        np.add(self.slots0, self.slots1, out=self.node_flows)
        self.work.take(self.scatter, out=self.flows, mode="wrap")


def buffer_step(table, r):
    """One step of the buffer loads `r`, in place: r + tau (f_in - f_out)
    with the table's tau and the f_in and f_out of its `flows`, limited,
    checked and clamped.  It returns nothing: its outputs are `r` and
    the table's `flows` and `hit`.

    The coupling branches on the buffer state at t^n, so a buffer that
    empties (or fills) in mid-step would overshoot the bound by up to one
    step's flow before the fluxes switch.  Scaling the node's outgoing
    (resp. incoming) fluxes in `table.flows`, in place, to stop exactly at
    the bound keeps the loads admissible and the scheme conservative;
    `hit` is the (2, nodes) mask of the nodes so rescaled at 0 and at
    r_max, added to `table.fired` when any is set.  In Pooled mode merges
    are not limited at 0: their negative loads, the known defect of that
    demand choice, are kept as they are, and `negativity_events` finds
    them in the recorded loads.  Every array it reads or writes, and
    every view of one, is the table's.

    Every load after the initial one (which `simulate` checks) is checked
    here, and only here.  After the limiter only a coupling bug can put a
    load off [0, r_max] beyond round-off; that raises InvariantViolation
    and leaves `r` as it was.  With no node hit and no load below 0,
    every load lies in [0, r_max] already and goes unchecked.
    """
    f_in, f_out, tau, dr, hit = (table.f_in, table.f_out, table.tau,
                                 table.dr, table.hit)
    r_max, new_r, room = table.r_max, table.new_r, table.room
    np.add(r, np.multiply(np.subtract(f_in, f_out, out=dr), tau, out=dr),
           out=new_r)
    np.less(*table.hit_sides, out=hit)
    if np.count_nonzero(hit):
        table.fired += hit
        # the room to each bound, r above 0 and r_max - r below r_max,
        # scales f_out (and the q_in it feeds), resp. f_in (and the q_out);
        # only a hit node's room is read: another's (r_max = 1e308, say)
        # could overflow when divided by tau
        np.subtract(table.bounds, r, out=room)
        np.divide(room, table.room_tau, out=room, where=hit)
        room += table.f
        scale = table.scale
        scale.fill(1.0)
        np.divide(room, table.f_rev, out=scale, where=hit)
        table.flows *= scale.take(table.flow_nodes, out=table.flow_scale,
                                  mode="wrap")
        # a scale of 1 is exact: every other node's load keeps its bits
        np.add(r, np.multiply(np.subtract(f_in, f_out, out=dr), tau, out=dr),
               out=new_r)
    elif not table.pooled or np.minimum.reduce(new_r) >= 0.0:  # in [0, r_max]
        r[...] = new_r
        return
    fatal = table.fatal
    np.less(*table.fatal_sides, out=fatal)
    if np.count_nonzero(fatal):
        k = int(np.argmax(fatal[0] | fatal[1]))
        node, load = table.ids[k], float(new_r[k])
        if fatal[1, k]:
            raise InvariantViolation(
                f"node {node}: buffer {load} > r_max {r_max[k]}")
        raise InvariantViolation(f"node {node}: buffer {load} < 0")
    np.maximum(new_r, 0.0, out=r)
    np.minimum(r, r_max, out=r)
    if table.pooled:  # past the check, every other load is above -TOL
        np.copyto(r, new_r, where=np.less(new_r, -_TOL, out=table.under))


def negativity_events(ids, loads, tau):
    """The events of a run's (steps + 1, nodes) recorded `loads`: a load
    below -TOL at row n + 1 is step n's, at t = n tau, listed by step,
    then by node.  Only a pooled merge keeps such a load (`buffer_step`),
    so a run with none makes no (steps, nodes) mask."""
    if loads.min() >= -_TOL:
        return []
    steps, nodes = np.nonzero(loads[1:] < -_TOL)
    return [NegativityEvent(ids[k], float(n * tau), float(loads[n + 1, k]))
            for n, k in zip(steps.tolist(), nodes.tolist())]
