"""Road graph model: edges, junction specs, validation and grids."""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import fluxes
from .errors import (
    DegreeMismatch,
    DisconnectedGraph,
    NegativeInflow,
    NonFiniteValue,
    NonPositiveLength,
    RateSumViolation,
)

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
    (time, value) breakpoints, only meaningful for sources.
    """

    id: str
    kind: NodeKind
    r_max: float = float("inf")
    mu: float = 0.25
    alpha: Optional[tuple] = None
    priority: object = DEMAND_PROPORTIONAL
    inflow: tuple = ((0.0, 0.0),)

    def inflow_at(self, t: float) -> float:
        """The inflow at time t.  `simulate` samples every step at once
        through `JunctionTable.inflow_table`; this scalar form is kept as
        the reference that table is tested against."""
        value = self.inflow[0][1]
        for t_k, v_k in self.inflow:
            if t >= t_k - 1e-15:
                value = v_k
            else:
                break
        return value


class RoadNetwork:
    """Validated directed road graph with per-node incidence lists.

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
                raise DegreeMismatch(f"edge {e.id} references unknown node")
            self.out_edges[e.source].append(e.id)
            self.in_edges[e.target].append(e.id)

    def sources(self):
        return [n for n in self.nodes.values() if n.kind is NodeKind.SOURCE]

    def sinks(self):
        return [n for n in self.nodes.values() if n.kind is NodeKind.SINK]

    def interior_nodes(self):
        return [n for n in self.nodes.values()
                if n.kind not in (NodeKind.SOURCE, NodeKind.SINK)]

    def validate(self) -> "RoadNetwork":
        for e in self.edges.values():
            if not math.isfinite(e.length):
                raise NonFiniteValue(f"edge {e.id}: length {e.length}")
            if e.length <= 0.0:
                raise NonPositiveLength(f"edge {e.id}: length {e.length}")
            if e.cells < 2:
                raise NonPositiveLength(f"edge {e.id}: needs >= 2 cells")
        for node in self.nodes.values():
            din = len(self.in_edges[node.id])
            dout = len(self.out_edges[node.id])
            want = _DEGREES[node.kind]
            if (din, dout) != want:
                raise DegreeMismatch(
                    f"node {node.id} ({node.kind.value}): degree "
                    f"({din},{dout}), expected {want}")
            if node.kind is NodeKind.ONE_TO_TWO:
                if node.alpha is None or len(node.alpha) != 2:
                    raise RateSumViolation(f"node {node.id}: missing alpha pair")
                a1, a2 = node.alpha
                if not (a1 > 0 and a2 > 0
                        and abs(a1 + a2 - 1.0) <= _SUM_TOL):
                    raise RateSumViolation(
                        f"node {node.id}: alpha {node.alpha} must be positive "
                        f"and sum to 1")
            if node.kind is NodeKind.TWO_TO_ONE and node.priority != DEMAND_PROPORTIONAL:
                c1, c2 = node.priority
                if not (c1 > 0 and c2 > 0
                        and abs(c1 + c2 - 1.0) <= _SUM_TOL):
                    raise RateSumViolation(
                        f"node {node.id}: priorities {node.priority} must be "
                        f"positive and sum to 1")
            if node.kind is NodeKind.SOURCE:
                self._check_inflow(node)
            if (node.kind in (NodeKind.SOURCE, NodeKind.SINK)
                    and math.isfinite(node.r_max)):
                raise RateSumViolation(
                    f"node {node.id}: source/sink buffers are unbounded")
            mu_cap = max(max(din, dout), 1) * fluxes.F_MAX
            if not 0.0 < node.mu <= mu_cap:
                raise RateSumViolation(
                    f"node {node.id}: mu {node.mu} outside (0, {mu_cap}]")
            if not (node.r_max > 0.0):
                raise RateSumViolation(f"node {node.id}: r_max must be > 0")
        self._check_connected()
        return self

    @staticmethod
    def _check_inflow(node):
        for t_k, v_k in node.inflow:
            if not (math.isfinite(t_k) and math.isfinite(v_k)):
                raise NonFiniteValue(
                    f"node {node.id}: inflow {v_k} from t={t_k}")
            if v_k < 0.0:
                raise NegativeInflow(
                    f"node {node.id}: inflow {v_k} < 0 from t={t_k}")

    def _check_connected(self):
        if not self.edges:
            raise DisconnectedGraph("network has no edges")
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
            raise DisconnectedGraph(
                f"unreachable nodes: {sorted(set(self.nodes) - seen)}")


def cells_for_target_h(length: float, target_h: float) -> int:
    """Cell count so edges of different length share a grid scale."""
    return max(2, round(length / target_h))
