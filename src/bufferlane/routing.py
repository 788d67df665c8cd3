"""Route selection: static shortest path, time-dependent fastest path,
aggregated weights, and online snapshot weights.

Every policy runs one label-setting search, `_search`, which breaks ties
towards the smallest edge-id sequence, so every policy is deterministic.
"""

import functools
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


def _search(network, source, destination, label, relax):
    """Dijkstra's label-setting search.  A label is a tuple that starts
    with its cost; `relax(u, label, eid)` gives the label at the end of
    road `eid` out of `u`, or None when the road cannot be used.  Returns
    (edge ids, label), or None when `destination` is not reached."""
    settled = set()
    heap = [(label[0], (), source, label)]
    while heap:
        _, path, u, label = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == destination:
            return list(path), label
        for eid in network.out_edges[u]:
            w = network.edges[eid].target
            if w in settled:
                continue
            reached = relax(u, label, eid)
            if reached is not None:
                heapq.heappush(heap, (reached[0], path + (eid,), w, reached))
    return None


def dijkstra(network, weights, source, destination):
    """Min-weight path by edge weights; returns (edge ids, total weight)."""
    found = _search(network, source, destination, (0.0,),
                    lambda u, label, eid: (label[0] + weights[eid],))
    if found is None:
        raise UnreachableDestination(f"no path {source} -> {destination}")
    path, (dist,) = found
    return path, dist


def shortest_path(network, source, destination):
    """Minimum total road length path."""
    lengths = {eid: e.length for eid, e in network.edges.items()}
    return dijkstra(network, lengths, source, destination)


@functools.lru_cache(maxsize=1)  # a network is fixed once made
def _scales(network):
    """Weight normalizers: the longest road and the largest finite buffer
    capacity (a source's or sink's is unbounded)."""
    caps = [n.r_max for n in network.nodes.values() if math.isfinite(n.r_max)]
    return (max(e.length for e in network.edges.values()),
            max(caps) if caps else math.inf)


def aggregated_weights(log, w_rho, w_r):
    """Static edge weights from time-aggregated densities and buffer loads."""
    net = log.network
    max_len, r_max = _scales(net)
    T, tau = log.T, log.tau
    mass, load = log.totals
    weights = {}
    for eid, e in net.edges.items():
        lam_rho = tau * e.h / (T * max_len) * mass[eid]
        lam_r = tau / (T * r_max) * load[e.source]
        weights[eid] = w_rho * lam_rho + w_r * lam_r
    return weights


def online_weights(log, step, w_rho, w_r):
    """Snapshot edge weights from the state at one time step."""
    net = log.network
    max_len, r_max = _scales(net)
    mass = log.step_totals
    weights = {}
    for eid, e in net.edges.items():
        lam_rho = e.h / max_len * mass[eid].item(step)
        lam_r = log.buffers[e.source].item(step) / r_max
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
    kind = TrackerKind(kind)
    tau = log.tau
    net = log.network

    def relax(u, label, eid):
        try:  # wait at u, then a virtual car over the road, as a car does
            _, m, frac = node_waiting(log, u, *label[1:])
            x = enter_edge(log, eid, m, frac)
            n_hat, tau_hat = traverse_edge(log, net.edges[eid], m + 1, x, kind)
        except HorizonExceeded:
            return None
        return n_hat * tau + tau_hat, n_hat, tau_hat

    n0, f0 = arrival_event
    found = _search(net, start_node, destination, (n0 * tau + f0, n0, f0),
                    relax)
    if found is None:  # no road leads there, or the horizon cut every path
        shortest_path(net, start_node, destination)
        raise HorizonExceeded(
            f"no path to {destination} completes within the horizon")
    path, (arrival, _, _) = found
    return path, arrival


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
