"""Road graph model: edges, junction specs, validation and grids."""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import fluxes
from .errors import ScenarioSemanticError

_SUM_TOL = 1e-12


class NodeKind(Enum):
    SOURCE = "source"
    SINK = "sink"
    ONE_TO_ONE = "one_to_one"
    ONE_TO_TWO = "one_to_two"
    TWO_TO_ONE = "two_to_one"


# (in-degree, out-degree) required per node kind
_DEGREES = {
    NodeKind.SOURCE: (0, 1),
    NodeKind.SINK: (1, 0),
    NodeKind.ONE_TO_ONE: (1, 1),
    NodeKind.ONE_TO_TWO: (1, 2),
    NodeKind.TWO_TO_ONE: (2, 1),
}

DEMAND_PROPORTIONAL = "demand_proportional"


@dataclass(frozen=True)
class Edge:
    """A road: interval [0, length] split into `cells` uniform cells."""

    id: str
    source: str
    target: str
    length: float
    cells: int

    @property
    def h(self) -> float:
        return self.length / self.cells


@dataclass
class JunctionSpec:
    """Node parameters: buffer capacity/rate plus kind-specific data.

    `alpha` orders the split fractions by the declaration order of the
    outgoing edges; fixed `priority` pairs follow the declaration order of
    the incoming edges.  `inflow` is a piecewise-constant profile given as
    (time, value) breakpoints.  Only a one_to_two node may have `alpha`, a
    two_to_one node a fixed `priority` and a source a nonzero `inflow`;
    a sink keeps the default `mu`, which no step reads.
    """

    id: str
    kind: NodeKind
    r_max: float = float("inf")
    mu: float = 0.25
    alpha: Optional[tuple] = None
    priority: object = DEMAND_PROPORTIONAL
    inflow: tuple = ((0.0, 0.0),)


# each setting only some kinds read (its name, whether a node gives it,
# those kinds), and per kind the ones it does not read, in that order
_SETTINGS = (
    ("inflow", lambda n: any(v for _, v in n.inflow), [NodeKind.SOURCE]),
    ("alpha", lambda n: n.alpha is not None, [NodeKind.ONE_TO_TWO]),
    ("fixed priority", lambda n: n.priority != DEMAND_PROPORTIONAL,
     [NodeKind.TWO_TO_ONE]),
    ("mu", lambda n: n.mu != JunctionSpec.mu,
     [k for k in NodeKind if k is not NodeKind.SINK]),
)
_UNREAD = {kind: [(name, given, " or ".join(k.value for k in readers))
                  for name, given, readers in _SETTINGS if kind not in readers]
           for kind in NodeKind}


def _check_pair(node, name, pair):
    """A split or fixed right-of-way pair is exactly two positive numbers
    that sum to 1 within round-off."""
    if not (pair is not None and len(pair) == 2 and pair[0] > 0
            and pair[1] > 0 and abs(pair[0] + pair[1] - 1.0) <= _SUM_TOL):
        raise ScenarioSemanticError(f"node {node.id}: {name} {pair} must be "
                                    f"two positive numbers that sum to 1")


class RoadNetwork:
    """Directed road graph with per-node incidence lists, validated when made.

    `in_edges[v]` / `out_edges[v]` keep the scenario declaration order,
    which fixes the pairing of alpha and priority coefficients.
    """

    def __init__(self, nodes, edges):
        self.nodes = {n.id: n for n in nodes}
        self.edges = {e.id: e for e in edges}
        self.in_edges = {nid: [] for nid in self.nodes}
        self.out_edges = {nid: [] for nid in self.nodes}
        for e in edges:
            if e.source not in self.nodes or e.target not in self.nodes:
                raise ScenarioSemanticError(
                    f"edge {e.id} references unknown node")
            self.out_edges[e.source].append(e.id)
            self.in_edges[e.target].append(e.id)
        self.validate()

    def sources(self):
        return [n for n in self.nodes.values() if n.kind is NodeKind.SOURCE]

    def sinks(self):
        return [n for n in self.nodes.values() if n.kind is NodeKind.SINK]

    def interior_nodes(self):
        return [n for n in self.nodes.values()
                if n.kind not in (NodeKind.SOURCE, NodeKind.SINK)]

    def validate(self) -> "RoadNetwork":
        for e in self.edges.values():
            if not 0.0 < e.length < math.inf:
                raise ScenarioSemanticError(f"edge {e.id}: length {e.length}")
            if e.cells < 2:
                raise ScenarioSemanticError(f"edge {e.id}: needs >= 2 cells")
        for node in self.nodes.values():
            din = len(self.in_edges[node.id])
            dout = len(self.out_edges[node.id])
            want = _DEGREES[node.kind]
            if (din, dout) != want:
                raise ScenarioSemanticError(
                    f"node {node.id} ({node.kind.value}): degree "
                    f"({din},{dout}), expected {want}")
            if node.kind is NodeKind.ONE_TO_TWO:
                _check_pair(node, "alpha", node.alpha)
            if node.kind is NodeKind.TWO_TO_ONE and node.priority != DEMAND_PROPORTIONAL:
                _check_pair(node, "priorities", node.priority)
            self._check_inflow(node)
            for name, given, readers in _UNREAD[node.kind]:
                if given(node):  # no step would read it
                    raise ScenarioSemanticError(
                        f"node {node.id}: {name} on a {node.kind.value} node; "
                        f"only a {readers} reads {name}")
            if 0 in want and math.isfinite(node.r_max):  # source or sink
                raise ScenarioSemanticError(
                    f"node {node.id}: source/sink buffers are unbounded")
            mu_cap = max(max(din, dout), 1) * fluxes.F_MAX
            if not 0.0 < node.mu <= mu_cap:
                raise ScenarioSemanticError(
                    f"node {node.id}: mu {node.mu} outside (0, {mu_cap}]")
            if not (node.r_max > 0.0):
                raise ScenarioSemanticError(
                    f"node {node.id}: r_max must be > 0")
        self._check_connected()
        return self

    @staticmethod
    def _check_inflow(node):
        """Every node's profile: increasing, finite times and finite values
        >= 0."""
        times = [t_k for t_k, _ in node.inflow]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioSemanticError(
                f"node {node.id}: inflow breakpoints must be strictly increasing")
        for t_k, v_k in node.inflow:
            if not (math.isfinite(t_k) and math.isfinite(v_k)):
                raise ScenarioSemanticError(
                    f"node {node.id}: inflow {v_k} from t={t_k}")
            if v_k < 0.0:
                raise ScenarioSemanticError(
                    f"node {node.id}: inflow {v_k} < 0 from t={t_k}")

    def _check_connected(self):
        if not self.edges:
            raise ScenarioSemanticError("network has no edges")
        # weak connectivity
        adj = {nid: set() for nid in self.nodes}
        for e in self.edges.values():
            adj[e.source].add(e.target)
            adj[e.target].add(e.source)
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        if seen != set(self.nodes):
            raise ScenarioSemanticError(
                f"unreachable nodes: {sorted(set(self.nodes) - seen)}")


def cells_for_target_h(length: float, target_h: float, edge_id=None) -> int:
    """Cell count so edges of different length share a grid scale; a
    count that is not finite raises ScenarioSemanticError naming the edge."""
    if not math.isfinite(length / target_h):
        raise ScenarioSemanticError(f"edge {edge_id}: length {length} at h="
                                    f"{target_h} gives no finite cell count")
    return max(2, round(length / target_h))
