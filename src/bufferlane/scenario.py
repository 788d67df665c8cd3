"""Scenario document parsing, network building and result writing.

The format is line-oriented and sectioned; see docs/scenario-format.md for
the grammar.  Example:

    [network]
    node in kind=source mu=0.25 inflow=0.21
    node j2 kind=one_to_one r_max=0.3 mu=0.25
    edge e1 from=in to=j2 length=1
    [initial]
    density e1 0.3
    buffer j2 0.1
    [run]
    T=8
    h=0.1
    [car]
    start_edge=e1
    destination=out
"""

import json
import math
from dataclasses import asdict, dataclass, field
from operator import add

import numpy as np

from .errors import (
    BufferOutOfRange,
    NonFiniteValue,
    ScenarioSemanticError,
    ScenarioSyntaxError,
)
from .network import DEMAND_PROPORTIONAL, Edge, JunctionSpec, NodeKind, RoadNetwork, cells_for_target_h
from .solver import InitialData

_SECTIONS = ("network", "initial", "run", "car")


@dataclass
class ScenarioDoc:
    """Parsed scenario: network, initial data, run and car settings."""

    nodes: list = field(default_factory=list)   # (id, {key: value}) in order
    edges: list = field(default_factory=list)   # (id, {key: value}) in order
    densities: dict = field(default_factory=dict)  # edge -> [(x, rho), ...]
    buffers: dict = field(default_factory=dict)    # node -> r0
    run: dict = field(default_factory=dict)
    car: dict = field(default_factory=dict)


def _parse_value(text):
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_pairs(text, line):
    """Comma-separated `a:b` pairs -> list of float tuples."""
    out = []
    for part in text.split(","):
        if ":" not in part:
            raise ScenarioSyntaxError(f"expected x:value pair, got {part!r}", line)
        a, b = part.split(":", 1)
        out.append((float(a), float(b)))
    return out


def _parse_attrs(tokens, line):
    attrs = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioSyntaxError(f"expected key=value, got {tok!r}", line)
        key, value = tok.split("=", 1)
        attrs[key] = value
    return attrs


def parse_scenario(text) -> ScenarioDoc:
    doc = ScenarioDoc()
    section = None
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioSyntaxError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ScenarioSyntaxError("content before first section", lineno)
        tokens = line.split()
        if section == "network":
            if tokens[0] == "node" and len(tokens) >= 2:
                doc.nodes.append((tokens[1], _parse_attrs(tokens[2:], lineno)))
            elif tokens[0] == "edge" and len(tokens) >= 2:
                doc.edges.append((tokens[1], _parse_attrs(tokens[2:], lineno)))
            else:
                raise ScenarioSyntaxError(f"expected node/edge, got {tokens[0]!r}",
                                          lineno)
        elif section == "initial":
            if len(tokens) != 3:
                raise ScenarioSyntaxError("expected `density|buffer <id> <value>`",
                                          lineno)
            kind, ident, value = tokens
            if kind not in ("density", "buffer"):
                raise ScenarioSyntaxError(f"unknown initial entry {kind!r}", lineno)
            try:
                if kind == "buffer":
                    doc.buffers[ident] = float(value)
                elif ":" in value:
                    doc.densities[ident] = _parse_pairs(value, lineno)
                else:
                    doc.densities[ident] = [(0.0, float(value))]
            except ValueError:
                raise ScenarioSyntaxError(f"expected a number, got {value!r}",
                                          lineno) from None
        else:
            attrs = _parse_attrs(tokens, lineno)
            target = doc.run if section == "run" else doc.car
            for k, v in attrs.items():
                target[k] = _parse_value(v)
    if not seen_any:
        raise ScenarioSyntaxError("empty scenario document", 1)
    if not doc.edges:
        raise ScenarioSemanticError("scenario defines no edges")
    _check_semantics(doc)
    return doc


def _check_semantics(doc):
    edge_ids = {eid for eid, _ in doc.edges}
    node_ids = {nid for nid, _ in doc.nodes}
    for eid, pieces in doc.densities.items():
        if eid not in edge_ids:
            raise ScenarioSemanticError(f"density for unknown edge {eid!r}")
        xs = [x for x, _ in pieces]
        if (not all(map(math.isfinite, xs)) or xs != sorted(xs)
                or len(set(xs)) != len(xs)):
            raise ScenarioSemanticError(
                f"edge {eid}: breakpoints must be strictly increasing")
        for _, rho in pieces:
            if not 0.0 <= rho <= 1.0:
                raise ScenarioSemanticError(f"edge {eid}: density {rho} not in [0,1]")
    for nid in doc.buffers:
        if nid not in node_ids:
            raise ScenarioSemanticError(f"buffer for unknown node {nid!r}")


def _node_from_attrs(nid, attrs):
    kind = NodeKind(attrs.get("kind", "one_to_one"))
    r_max = float(_parse_value(attrs["r_max"])) if "r_max" in attrs else math.inf
    mu = float(attrs.get("mu", 0.25))
    alpha = None
    if "alpha" in attrs:
        parts = [float(p) for p in attrs["alpha"].split(",")]
        alpha = tuple(parts)
    priority = DEMAND_PROPORTIONAL
    if "priority" in attrs:
        p = attrs["priority"]
        if p != DEMAND_PROPORTIONAL:
            if not p.startswith("fixed:"):
                raise ScenarioSemanticError(f"node {nid}: bad priority {p!r}")
            priority = tuple(float(c) for c in p[len("fixed:"):].split(","))
    inflow = ((0.0, 0.0),)
    if "inflow" in attrs:
        v = attrs["inflow"]
        if ":" in v:
            inflow = tuple(_parse_pairs(v, None))
        else:
            inflow = ((0.0, float(v)),)
    return JunctionSpec(id=nid, kind=kind, r_max=r_max, mu=mu, alpha=alpha,
                        priority=priority, inflow=inflow)


def build_network(doc) -> RoadNetwork:
    """Materialize and validate the road graph from a parsed document.

    The [run] cell width `h` sets cell counts for edges that do not carry
    an explicit `cells` attribute.  The initial buffer loads are checked
    against the nodes here too, so bad numbers never reach the solver.
    """
    h = doc.run.get("h")
    if h is not None and not (isinstance(h, (int, float))
                              and 0.0 < h < math.inf):
        raise ScenarioSemanticError(
            f"cell width h={h} must be a finite number > 0")
    nodes = []
    for nid, attrs in doc.nodes:
        try:
            nodes.append(_node_from_attrs(nid, attrs))
        except ValueError as exc:
            raise ScenarioSemanticError(f"node {nid}: {exc}")
    edges = []
    for eid, attrs in doc.edges:
        try:
            length = float(attrs["length"])
            src, dst = attrs["from"], attrs["to"]
            cells = int(attrs["cells"]) if "cells" in attrs else None
        except KeyError as exc:
            raise ScenarioSemanticError(f"edge {eid}: missing {exc}")
        except ValueError as exc:
            raise ScenarioSemanticError(f"edge {eid}: {exc}")
        if not math.isfinite(length):
            raise NonFiniteValue(f"edge {eid}: length {length}")
        if cells is None and h:
            cells = cells_for_target_h(length, float(h))
        elif cells is None:
            raise ScenarioSemanticError(
                f"edge {eid}: no cell count and no target h")
        edges.append(Edge(id=eid, source=src, target=dst, length=length,
                          cells=cells))
    network = RoadNetwork(nodes, edges).validate()
    for nid, r0 in doc.buffers.items():
        r_max = network.nodes[nid].r_max
        if not (math.isfinite(r0) and 0.0 <= r0 <= r_max):
            raise BufferOutOfRange(
                f"node {nid}: initial buffer {r0} outside [0, {r_max}]")
    return network


def build_initial(doc) -> InitialData:
    return InitialData(densities={k: list(v) for k, v in doc.densities.items()},
                       buffers=dict(doc.buffers))


# ---------------------------------------------------------------------------
# result serialization

def _reprs(values):
    """`repr` of each float of the 1-D float64 array `values`, computed once
    per distinct bit pattern: keying on bits keeps -0.0 and 0.0 apart."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return map(texts.__getitem__, inverse.tolist())


def write_density_csv(log, path):
    """One `t,edge_id,cell_index,rho` line per recorded cell and instant,
    road by road; each time row of a road is formatted and written as one
    string, so memory beyond the log stays one row's text."""
    times = list(map(repr, log.t.tolist()))
    with open(path, "w") as fh:
        fh.write("t,edge_id,cell_index,rho\n")
        for eid in log.network.edges:
            hist = log.rho[eid]
            cells = [f",{eid},{i}," for i in range(hist.shape[1])]
            for t, row in zip(times, hist):
                fh.write(t + ("\n" + t).join(map(add, cells, _reprs(row)))
                         + "\n")


def write_buffer_csv(log, path):
    """One `t,node_id,r` line per node and recorded instant, node by node;
    each node's series is formatted and written as one string."""
    times = list(map(repr, log.t.tolist()))
    with open(path, "w") as fh:
        fh.write("t,node_id,r\n")
        for nid in log.network.nodes:
            heads = [f"{t},{nid}," for t in times]
            fh.write("\n".join(map(add, heads, _reprs(log.buffers[nid])))
                     + "\n")


def write_trajectory_csv(car_log, path):
    with open(path, "w") as fh:
        fh.write("t,edge_id,x_on_edge,cumulative_distance,status\n")
        for t, eid, x, dist, status in car_log.samples:
            fh.write(f"{float(t)!r},{eid},{float(x)!r},{float(dist)!r},{status}\n")


def _finite_or_null(x):
    """x, or None (JSON null) for the NaN of an unknown time."""
    return None if math.isnan(x) else x


def write_route_summary(path, policy, departure, car_log):
    """route.json: strict JSON, with null for the arrival and waits that the
    horizon cut short."""
    payload = {
        "policy": policy,
        "path": list(car_log.path),
        "departure": departure,
        "arrival": _finite_or_null(car_log.arrival_time),
        "status": car_log.status.value,
        "travel_times": [
            {"edge": e, "start": s, "tt": tt} for e, s, tt in car_log.travel_times],
        "waiting_times": [
            {"node": v, "arrival": a, "wt": _finite_or_null(w)}
            for v, a, w in car_log.waiting_times],
        "total_waiting": _finite_or_null(car_log.total_waiting),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_manifest(path, doc, log, extra):
    payload = {
        "scenario": asdict(doc),
        "tau": log.tau,
        "T": log.T,
        "steps": log.steps,
        "demand_mode": log.mode.value,
        "cells": {eid: e.cells for eid, e in log.network.edges.items()},
        "negativity_events": [
            {"node": ev.node, "time": ev.time, "load": ev.load}
            for ev in log.events],
        "limiter_fired": log.limiter_fired,
        "tool_version": "0.1.0",
    }
    payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
