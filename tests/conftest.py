"""Shared helpers: programmatic network builders, a seeded random scenario
generator, and mass-balance utilities used by several test modules."""

import math

import numpy as np
import pytest

from bufferlane.junctions import (DemandMode, JunctionTable, buffer_step,
                                  negativity_events)
from bufferlane.network import (
    DEMAND_PROPORTIONAL,
    Edge,
    JunctionSpec,
    NodeKind,
    RoadNetwork,
    cells_for_target_h,
)
from bufferlane.solver import InitialData, simulate
from bufferlane.tracker import TrackerKind, node_waiting, traverse_edge


# the tables a SimLog keeps per road or per node id
TABLES = ("rho", "buffers", "q_in", "q_out", "node_inflow", "node_outflow")


def make_edge(eid, src, dst, length=1.0, h=0.1):
    return Edge(id=eid, source=src, target=dst, length=length,
                cells=cells_for_target_h(length, h))


def line_network(densities=(0.3, 0.5, 0.7), inflow=0.21, mu=0.25,
                 r_max=0.3, h=0.1):
    """Chain of unit roads with pass-through junctions, one source, one sink."""
    k = len(densities)
    nodes = [JunctionSpec(id="n0", kind=NodeKind.SOURCE, mu=mu,
                          inflow=((0.0, inflow),))]
    edges = []
    for i in range(k):
        if i < k - 1:
            nodes.append(JunctionSpec(id=f"n{i+1}", kind=NodeKind.ONE_TO_ONE,
                                      r_max=r_max, mu=mu))
        edges.append(make_edge(f"e{i+1}", f"n{i}", f"n{i+1}", 1.0, h))
    nodes.append(JunctionSpec(id=f"n{k}", kind=NodeKind.SINK))
    net = RoadNetwork(nodes, edges).validate()
    init = InitialData(densities={f"e{i+1}": [(0.0, rho)]
                                  for i, rho in enumerate(densities)})
    return net, init


def every_row_network():
    """One network with every junction row kind at once.

    A pass-through p1 feeds a split d1 whose two exits merge again at m1
    under a fixed priority; m1 feeds a split x1 with a side exit to the
    sink t2 (its road's last cell starts above 0.5, so the sink's flux
    differs from the road's demand), and its main exit merges at m2 with a
    side source s2 under demand-proportional priority.  s2's inflow has
    three pieces with breakpoints on grid times (tau = 0.05 over T = 4).
    The load of p1 starts near 0 and that of x1 near r_max, so the
    limiter rescales both ways; m1 starts empty, so the two demand modes
    differ there.
    """
    def node(nid, kind, **kw):
        return JunctionSpec(id=nid, kind=kind, **kw)

    nodes = [node("s1", NodeKind.SOURCE, mu=0.25, inflow=((0.0, 0.22),)),
             node("p1", NodeKind.ONE_TO_ONE, r_max=0.3, mu=0.25),
             node("d1", NodeKind.ONE_TO_TWO, r_max=0.3, mu=0.3,
                  alpha=(0.6, 0.4)),
             node("m1", NodeKind.TWO_TO_ONE, r_max=0.25, mu=0.2,
                  priority=(0.7, 0.3)),
             node("x1", NodeKind.ONE_TO_TWO, r_max=0.35, mu=0.24,
                  alpha=(0.75, 0.25)),
             node("s2", NodeKind.SOURCE, mu=0.2,
                  inflow=((0.0, 0.05), (1.0, 0.3), (2.5, 0.1))),
             node("m2", NodeKind.TWO_TO_ONE, r_max=0.3, mu=0.3,
                  priority=DEMAND_PROPORTIONAL),
             node("t1", NodeKind.SINK), node("t2", NodeKind.SINK)]
    roads = [("e1", "s1", "p1"), ("e2", "p1", "d1"), ("e3", "d1", "m1"),
             ("e4", "d1", "m1"), ("e5", "m1", "x1"), ("e6", "x1", "m2"),
             ("e7", "x1", "t2"), ("e8", "s2", "m2"), ("e9", "m2", "t1")]
    net = RoadNetwork(nodes, [make_edge(eid, a, b) for eid, a, b in roads]
                      ).validate()
    densities = {f"e{k}": [(0.0, rho)] for k, rho in
                 enumerate((0.4, 0.25, 0.1, 0.15, 0.45, 0.8, 0.3, 0.1, 0.35), 1)}
    densities["e7"] = [(0.0, 0.3), (0.5, 0.8)]
    init = InitialData(densities=densities,
                       buffers={"p1": 0.002, "d1": 0.1, "m1": 0.0,
                                "x1": 0.3455, "m2": 0.0})
    return net, init


def one_node_table(spec, n_in, n_out, tau=1.0, steps=1,
                   mode=DemandMode.STANDARD):
    """JunctionTable of the single node `spec`, whose roads 0..n_in-1 enter
    and n_in..n_in+n_out-1 leave it, one cell each, for a run of `steps`
    steps of `tau` in demand `mode`."""
    n = n_in + n_out
    edges = [Edge(id=f"e{k}", source="", target="", length=1.0, cells=1)
             for k in range(n)]
    return JunctionTable([spec], [list(range(n_in))], [list(range(n_in, n))],
                         edges, tau, steps, mode)


def node_fluxes(spec, rho_in, rho_out, r, mode=DemandMode.STANDARD):
    """Boundary fluxes of one junction through a one-node table: the
    outflows of its incoming roads, then the inflows of its outgoing roads."""
    table = one_node_table(spec, len(rho_in), len(rho_out), mode=mode)
    table.fluxes(np.array([*rho_in, *rho_out], dtype=float),
                 np.array([float(r)]), 0)
    q_in, q_out = table.flows[:table.edge_flows].reshape(2, -1)
    return (tuple(float(q) for q in q_out[:len(rho_in)])
            + tuple(float(q) for q in q_in[len(rho_in):]))


def node_flows(table, inflow, outflow):
    """The flow vector of a one-node table, the `flows` that `buffer_step`
    reads, set to zero road fluxes and the node's buffer `inflow` and
    `outflow`; returns it."""
    table.flows.fill(0.0)
    table.flows[table.edge_flows:] = inflow, outflow
    return table.flows


def node_buffer_step(r, inflow, outflow, tau, r_max=math.inf,
                     mode=DemandMode.STANDARD, node=""):
    """One buffer step through a one-node table; returns the new load and
    the negativity event a log recording it finds, or None.  The node is a
    merge (2 roads in, 1 out): pooled loads may go negative only there."""
    table = one_node_table(JunctionSpec(id=node, kind=NodeKind.TWO_TO_ONE,
                                        r_max=r_max), 2, 1, tau, 1, mode)
    new_r = np.array([float(r)])
    node_flows(table, inflow, outflow)
    buffer_step(table, new_r)
    events = negativity_events(table.ids, np.array([[float(r)], new_r]), tau)
    return float(new_r[0]), (events[0] if events else None)


def interior_nodes(net):
    """The nodes with a road in and a road out, in declaration order."""
    return [n for n in net.nodes.values()
            if net.in_edges[n.id] and net.out_edges[n.id]]


def total_mass(log, n):
    """Total car mass (roads + buffers) at time step n."""
    net = log.network
    m = sum(net.edges[eid].h * log.rho[eid][n].sum() for eid in net.edges)
    return m + sum(log.buffers[nid][n] for nid in net.nodes)


def mass_balance_defect(log):
    """Worst per-step violation of mass change = tau (source in - sink out)."""
    net = log.network
    worst = 0.0
    prev = total_mass(log, 0)
    for n in range(log.steps):
        src = sum(log.node_inflow[nid][n] for nid, nd in net.nodes.items()
                  if nd.kind is NodeKind.SOURCE)
        snk = sum(log.node_outflow[nid][n] for nid, nd in net.nodes.items()
                  if nd.kind is NodeKind.SINK)
        cur = total_mass(log, n + 1)
        worst = max(worst, abs(cur - prev - log.tau * (src - snk)))
        prev = cur
    return worst


def buffer_bound_defect(log):
    """Worst violation of 0 <= r <= r_max over all nodes and steps."""
    worst = 0.0
    for nid, node in log.network.nodes.items():
        series = log.buffers[nid]
        worst = max(worst, -series.min())
        if math.isfinite(node.r_max):
            worst = max(worst, series.max() - node.r_max)
    return worst


def _random_params(rng, kind, n_in, n_out):
    mu_cap = max(n_in, n_out) * 0.25
    spec = {
        "mu": float(rng.uniform(0.05, mu_cap)),
        "r_max": float(rng.uniform(0.08, 0.5)),
    }
    if kind is NodeKind.ONE_TO_TWO:
        a = float(rng.uniform(0.25, 0.75))
        spec["alpha"] = (a, 1.0 - a)
    if kind is NodeKind.TWO_TO_ONE:
        if rng.random() < 0.5:
            spec["priority"] = DEMAND_PROPORTIONAL
        else:
            c = float(rng.uniform(0.25, 0.75))
            spec["priority"] = (c, 1.0 - c)
    return spec


def random_scenario(rng, h=0.15):
    """A small random road network with random data, ready to simulate.

    Topology is drawn from a handful of templates (chain, fork, merge,
    diamond, fork+merge with a side exit); lengths, rates, priorities,
    initial densities and buffer loads are randomized.
    """
    template = rng.choice(["line", "fork", "merge", "diamond", "bypass"])
    if template == "line":
        k = int(rng.integers(1, 4))
        topo_nodes = [("s1", NodeKind.SOURCE)]
        topo_nodes += [(f"j{i}", NodeKind.ONE_TO_ONE) for i in range(1, k + 1)]
        topo_nodes += [("t1", NodeKind.SINK)]
        names = [nid for nid, _ in topo_nodes]
        topo_edges = [(f"e{i}", names[i], names[i + 1]) for i in range(k + 1)]
    elif template == "fork":
        topo_nodes = [("s1", NodeKind.SOURCE), ("j1", NodeKind.ONE_TO_TWO),
                      ("t1", NodeKind.SINK), ("t2", NodeKind.SINK)]
        topo_edges = [("e0", "s1", "j1"), ("e1", "j1", "t1"),
                      ("e2", "j1", "t2")]
    elif template == "merge":
        topo_nodes = [("s1", NodeKind.SOURCE), ("s2", NodeKind.SOURCE),
                      ("j1", NodeKind.TWO_TO_ONE), ("t1", NodeKind.SINK)]
        topo_edges = [("e0", "s1", "j1"), ("e1", "s2", "j1"),
                      ("e2", "j1", "t1")]
    elif template == "diamond":
        topo_nodes = [("s1", NodeKind.SOURCE), ("j1", NodeKind.ONE_TO_TWO),
                      ("j2", NodeKind.ONE_TO_ONE), ("j3", NodeKind.TWO_TO_ONE),
                      ("t1", NodeKind.SINK)]
        topo_edges = [("e0", "s1", "j1"), ("e1", "j1", "j2"),
                      ("e2", "j1", "j3"), ("e3", "j2", "j3"),
                      ("e4", "j3", "t1")]
    else:  # bypass: fork whose branches remerge, plus a side exit
        topo_nodes = [("s1", NodeKind.SOURCE), ("j1", NodeKind.ONE_TO_TWO),
                      ("j2", NodeKind.ONE_TO_TWO), ("j3", NodeKind.TWO_TO_ONE),
                      ("t1", NodeKind.SINK), ("t2", NodeKind.SINK)]
        topo_edges = [("e0", "s1", "j1"), ("e1", "j1", "j2"),
                      ("e2", "j1", "j3"), ("e3", "j2", "j3"),
                      ("e4", "j2", "t2"), ("e5", "j3", "t1")]
    in_deg = {nid: 0 for nid, _ in topo_nodes}
    out_deg = {nid: 0 for nid, _ in topo_nodes}
    for _, a, b in topo_edges:
        out_deg[a] += 1
        in_deg[b] += 1
    nodes = []
    for nid, kind in topo_nodes:
        if kind is NodeKind.SOURCE:
            profile = [(0.0, float(rng.uniform(0.0, 0.3)))]
            if rng.random() < 0.4:
                profile.append((1.0, float(rng.uniform(0.0, 0.3))))
            nodes.append(JunctionSpec(id=nid, kind=kind,
                                      mu=float(rng.uniform(0.05, 0.25)),
                                      inflow=tuple(profile)))
        elif kind is NodeKind.SINK:
            nodes.append(JunctionSpec(id=nid, kind=kind))
        else:
            nodes.append(JunctionSpec(id=nid, kind=kind,
                                      **_random_params(rng, kind,
                                                       in_deg[nid],
                                                       out_deg[nid])))
    edges = [make_edge(eid, a, b, float(rng.uniform(0.6, 2.0)), h)
             for eid, a, b in topo_edges]
    net = RoadNetwork(nodes, edges).validate()
    densities = {}
    for e in edges:
        if rng.random() < 0.3:
            x = float(rng.uniform(0.2, 0.8)) * e.length
            densities[e.id] = [(0.0, float(rng.uniform(0.0, 0.95))),
                               (x, float(rng.uniform(0.0, 0.95)))]
        else:
            densities[e.id] = [(0.0, float(rng.uniform(0.0, 0.95)))]
    buffers = {}
    for node in interior_nodes(net):
        if rng.random() < 0.5:
            buffers[node.id] = float(rng.uniform(0.0, node.r_max))
    return net, InitialData(densities=densities, buffers=buffers)


def car_step_cases(rng, cases, cells, h):
    """Seeded car steps: positions x, one row of `cells` cell values and
    a step tau per case.  Each x lies in [h/2, (cells - 1) h], so every
    point the car reaches within tau <= h/2 has an interior interface
    nearest; 40 % of the cell values are drawn from the edge cases."""
    shape = (cases, cells)
    rho = np.where(rng.random(shape) < 0.4,
                   rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 1.0], shape),
                   rng.random(shape))
    tau = rng.uniform(0.1 * h, 0.5 * h, cases)
    x = rng.uniform(0.5 * h, (cells - 1) * h, cases)
    return x, rho, tau


def total_edge_time(log, eid, n_start):
    """Departure-to-exit time over one edge: transit plus buffer waiting.

    Drives the complex tracker from the edge beginning at t^n_start and
    returns the time until the car enters the next road (edge travel time
    plus the FIFO wait at the downstream node).
    """
    edge = log.network.edges[eid]
    n_hat, tau_hat = traverse_edge(log, edge, n_start, 0.0,
                                   TrackerKind.COMPLEX)
    wt, m, frac = node_waiting(log, edge.target, n_hat, tau_hat)
    return (m * log.tau + frac) - n_start * log.tau


@pytest.fixture(scope="session")
def linear_log():
    net, init = line_network()
    init.buffers["n1"] = 0.1
    return simulate(net, init, 8.0, mode=DemandMode.STANDARD)
