"""Route selection: static shortest path, time-dependent fastest path,
aggregated weights, and online snapshot weights.

Ties are always broken towards the lexicographically smallest edge-id
sequence so that every policy is deterministic.
"""

import heapq
import math
from enum import Enum

from .errors import HorizonExceeded, UnreachableDestination
from .tracker import TrackerKind, enter_edge, node_waiting, traverse_edge


class RoutePolicy(Enum):
    SHORTEST = "shortest"
    FASTEST = "fastest"
    AGGREGATED = "aggregated"
    ONLINE = "online"


def dijkstra(network, weights, source, destination):
    """Min-weight path by edge weights; returns (edge ids, total weight)."""
    best = {}
    heap = [(0.0, (), source)]
    while heap:
        dist, path, u = heapq.heappop(heap)
        if u in best:
            continue
        best[u] = (dist, path)
        if u == destination:
            return list(path), dist
        for eid in network.out_edges[u]:
            w = network.edges[eid].target
            if w in best:
                continue
            heapq.heappush(heap, (dist + weights[eid], path + (eid,), w))
    raise UnreachableDestination(f"no path {source} -> {destination}")


def shortest_path(network, source, destination):
    """Minimum total road length path."""
    lengths = {eid: e.length for eid, e in network.edges.items()}
    return dijkstra(network, lengths, source, destination)


def _scales(network):
    """Weight normalizers: the longest road and the largest finite interior
    buffer capacity."""
    caps = [n.r_max for n in network.interior_nodes() if math.isfinite(n.r_max)]
    return (max(e.length for e in network.edges.values()),
            max(caps) if caps else math.inf)


def aggregated_weights(log, w_rho, w_r):
    """Static edge weights from time-aggregated densities and buffer loads."""
    net = log.network
    max_len, r_max = _scales(net)
    T = log.T
    tau = log.tau
    weights = {}
    for eid, e in net.edges.items():
        mass = float(log.rho[eid].sum())
        lam_rho = tau * e.h / (T * max_len) * mass
        lam_r = tau / (T * r_max) * float(log.buffers[e.source].sum())
        weights[eid] = w_rho * lam_rho + w_r * lam_r
    return weights


def online_weights(log, step, w_rho, w_r):
    """Snapshot edge weights from the state at one time step."""
    net = log.network
    max_len, r_max = _scales(net)
    weights = {}
    for eid, e in net.edges.items():
        lam_rho = e.h / max_len * float(log.rho[eid][step].sum())
        lam_r = log.buffers[e.source][step] / r_max
        weights[eid] = w_rho * lam_rho + w_r * lam_r
    return weights


def online_reroute(log, node, step, destination, w_rho, w_r):
    """Next edge out of `node` per a fresh Dijkstra run on snapshot weights."""
    path, _ = dijkstra(log.network, online_weights(log, step, w_rho, w_r),
                       node, destination)
    return path[0]


def fastest_path(log, start_node, arrival_event, destination,
                 kind=TrackerKind.COMPLEX):
    """Earliest-arrival path by a time-dependent Dijkstra search.

    `arrival_event` is the (n_hat, tau_hat) instant at which the car
    reaches `start_node` (before any waiting there).  Waiting at a node is
    charged when leaving it; nothing is charged at the destination.
    Returns (edge ids, arrival time).
    """
    tau = log.tau
    n0, f0 = arrival_event
    best = {}
    horizon_hit = False
    heap = [(n0 * tau + f0, (), start_node, (n0, f0))]
    while heap:
        t_u, path, u, event = heapq.heappop(heap)
        if u in best:
            continue
        best[u] = (t_u, path)
        if u == destination:
            return list(path), t_u
        outs = log.network.out_edges[u]
        if not outs:
            continue
        try:
            _, m, frac = node_waiting(log, u, *event)
        except HorizonExceeded:
            horizon_hit = True
            continue
        for eid in outs:
            edge = log.network.edges[eid]
            if edge.target in best:
                continue
            try:  # a virtual car over the road, same integration as a car
                x = enter_edge(log, eid, m, frac)
                n_hat, tau_hat = traverse_edge(log, edge, m + 1, x, kind)
            except HorizonExceeded:
                horizon_hit = True
                continue
            heapq.heappush(heap, (n_hat * tau + tau_hat, path + (eid,),
                                  edge.target, (n_hat, tau_hat)))
    if horizon_hit:
        raise HorizonExceeded(
            f"no path to {destination} completes within the horizon")
    raise UnreachableDestination(f"no path {start_node} -> {destination}")


def fixed_path_chooser(network, path):
    """Chooser that follows a predetermined simple edge sequence."""
    by_node = {network.edges[eid].source: eid for eid in path}

    def choose(node, n_hat, tau_hat):
        if node not in by_node:
            raise UnreachableDestination(f"path has no edge leaving {node}")
        return by_node[node]

    return choose


def online_chooser(log, destination, w_rho, w_r):
    """Chooser that reruns a snapshot Dijkstra at every dispersing node."""

    def choose(node, n_hat, tau_hat):
        return online_reroute(log, node, n_hat, destination, w_rho, w_r)

    return choose
