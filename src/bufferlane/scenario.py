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

import numpy as np

from . import __version__
from .errors import ScenarioSemanticError, ScenarioSyntaxError
from .network import DEMAND_PROPORTIONAL, Edge, JunctionSpec, NodeKind, RoadNetwork, cells_for_target_h
from .solver import InitialData

_SECTIONS = ("network", "initial", "run", "car")
# the keys a node or edge line, [run] and [car] may give
_KEYS = {
    "node": ("kind", "r_max", "mu", "alpha", "priority", "inflow"),
    "edge": ("from", "to", "length", "cells"),
    "run": ("T", "h", "demand_mode"),
    "car": ("start_edge", "start_x", "start_time", "destination", "tracker",
            "policy", "w_rho", "w_r", "oracle"),
}


@dataclass
class ScenarioDoc:
    """Parsed scenario: network, initial data, run and car settings."""

    nodes: list = field(default_factory=list)   # (id, {key: text}) in order
    edges: list = field(default_factory=list)   # (id, {key: text}) in order
    densities: dict = field(default_factory=dict)  # edge -> [(x, rho), ...]
    buffers: dict = field(default_factory=dict)    # node -> r0
    run: dict = field(default_factory=dict)     # key -> text (or a number)
    car: dict = field(default_factory=dict)     # key -> text (or a number)


def _parse_profile(text):
    """A constant `v` -> [(0.0, v)]; comma-separated `x:v` pairs -> a list
    of float tuples; anything else raises ValueError."""
    if ":" not in text:
        return [(0.0, float(text))]
    out = []
    for part in text.split(","):
        if ":" not in part:
            raise ValueError(f"expected x:value pair, got {part!r}")
        a, b = part.split(":", 1)
        out.append((float(a), float(b)))
    return out


def _put(table, key, value, what, line):
    """`table[key] = value`; a key given before is a syntax error."""
    if key in table:
        raise ScenarioSyntaxError(f"{what} {key!r} given twice", line)
    table[key] = value


def _parse_attrs(tokens, line, what, attrs=None):
    """`key=value` tokens of a `what` line (node, edge, run or car) into
    `attrs` (a new dict if None), each value kept as the text written."""
    attrs = {} if attrs is None else attrs
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioSyntaxError(f"expected key=value, got {tok!r}", line)
        key, value = tok.split("=", 1)
        if key not in _KEYS[what]:
            raise ScenarioSyntaxError(f"unknown {what} key {key!r}", line)
        _put(attrs, key, value, "key", line)
    return attrs


def parse_scenario(text) -> ScenarioDoc:
    """Parse a scenario document; see docs/scenario-format.md.

    Node, edge, [run] and [car] values stay the text written: each is
    converted where it is read.  A key not in `_KEYS`, or a node or edge
    id, a density or buffer entry, or a key of one line, of [run] or of
    [car] given twice is a ScenarioSyntaxError naming the line.  One
    leading byte-order mark (U+FEFF) is skipped."""
    text = text.removeprefix("\ufeff")
    doc = ScenarioDoc()
    declared = {"node": {}, "edge": {}}
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
            if tokens[0] not in declared or len(tokens) < 2:
                raise ScenarioSyntaxError(f"expected node/edge, got {tokens[0]!r}",
                                          lineno)
            _put(declared[tokens[0]], tokens[1],
                 _parse_attrs(tokens[2:], lineno, tokens[0]), tokens[0],
                 lineno)
        elif section == "initial":
            if len(tokens) != 3:
                raise ScenarioSyntaxError("expected `density|buffer <id> <value>`",
                                          lineno)
            kind, ident, value = tokens
            if kind not in ("density", "buffer"):
                raise ScenarioSyntaxError(f"unknown initial entry {kind!r}", lineno)
            try:
                entry = (float(value) if kind == "buffer"
                         else _parse_profile(value))
            except ValueError:
                raise ScenarioSyntaxError(f"expected a number, got {value!r}",
                                          lineno) from None
            _put(doc.buffers if kind == "buffer" else doc.densities, ident,
                 entry, kind, lineno)
        else:
            _parse_attrs(tokens, lineno, section, getattr(doc, section))
    if not seen_any:
        raise ScenarioSyntaxError("empty scenario document", 1)
    doc.nodes, doc.edges = (list(declared[k].items()) for k in declared)
    if not doc.edges:
        raise ScenarioSemanticError("scenario defines no edges")
    return doc


def _by_road(doc, nid, key, text):
    """The values of `alpha` (a fixed `priority`) in the declaration order
    of the node's roads out (in), which `edge:value` entries may name."""
    names, _, values = zip(*(p.rpartition(":") for p in text.split(",")))
    if not any(names):
        return values
    end = "from" if key == "alpha" else "to"
    roads = [e for e, a in doc.edges if a.get(end) == nid]
    if not all(names) or sorted(names) != sorted(roads):
        raise ScenarioSemanticError(f"node {nid}: {key} must name each of "
                                    f"{', '.join(roads)} once, or none")
    return [values[names.index(e)] for e in roads]


def _node_from_attrs(doc, nid, attrs):
    kind = NodeKind(attrs.get("kind", "one_to_one"))
    r_max = float(attrs.get("r_max", math.inf))
    mu = float(attrs.get("mu", 0.25))
    alpha = (tuple(map(float, _by_road(doc, nid, "alpha", attrs["alpha"])))
             if "alpha" in attrs else None)
    priority = DEMAND_PROPORTIONAL
    if "priority" in attrs:
        p = attrs["priority"]
        if p != DEMAND_PROPORTIONAL:
            if not p.startswith("fixed:"):
                raise ScenarioSemanticError(f"node {nid}: bad priority {p!r}")
            priority = tuple(map(float, _by_road(doc, nid, "priority",
                                                 p[len("fixed:"):])))
    inflow = tuple(_parse_profile(attrs.get("inflow", "0")))
    return JunctionSpec(id=nid, kind=kind, r_max=r_max, mu=mu, alpha=alpha,
                        priority=priority, inflow=inflow)


def _setting(section, cfg, key, default, convert):
    """`convert(cfg[key])` (or of the default), where the value is the text
    written or a number alike; a value `convert` rejects raises
    ScenarioSemanticError naming the section and the setting."""
    value = cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioSemanticError(f"{section}: {key}={value}: {exc}") from None


def _positive(value):
    """Converter to a finite float > 0 (`T` and `h`)."""
    x = math.nan if value is None else float(value)
    if not 0.0 < x < math.inf:
        raise ValueError("must be a finite number > 0")
    return x


def build_network(doc) -> RoadNetwork:
    """The road graph of a parsed document (it validates itself).

    The [run] cell width `h`, read by `_setting` as a finite number > 0,
    sets cell counts for edges that do not carry an explicit `cells`
    attribute.  The initial data is not read here: `simulate` checks it.
    """
    h = _setting("run", doc.run, "h", None, _positive) if "h" in doc.run else None
    nodes = []
    for nid, attrs in doc.nodes:
        try:
            nodes.append(_node_from_attrs(doc, nid, attrs))
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
        if cells is None and h:
            cells = cells_for_target_h(length, h, eid)
        elif cells is None:
            raise ScenarioSemanticError(
                f"edge {eid}: no cell count and no target h")
        edges.append(Edge(id=eid, source=src, target=dst, length=length,
                          cells=cells))
    return RoadNetwork(nodes, edges)


def build_initial(doc) -> InitialData:
    return InitialData(densities={k: list(v) for k, v in doc.densities.items()},
                       buffers=dict(doc.buffers))


# ---------------------------------------------------------------------------
# result serialization

def _reprs(values):
    """The list of `repr` of each float of the 1-D float64 array `values`:
    each distinct bit pattern is formatted once, so -0.0 and 0.0 stay
    apart, and the texts are taken back in order by the `np.unique` inverse."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), object)
    return texts[inverse].tolist()


def write_density_csv(log, path):
    """One `t,edge_id,cell_index,rho` line per recorded cell and instant,
    road by road.  Each time row of a road is written as one join of three
    pieces per line (the time, the road's prebuilt `,edge_id,cell_index,`
    and the value's text; each time but the first is led by the newline
    that ends the line before) and the row's last newline, so no piece is
    concatenated per value, and memory beyond the log stays one row's
    pieces and text."""
    times = list(map(repr, log.t.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,edge_id,cell_index,rho\n")
        for eid in log.network.edges:
            hist = log.rho[eid]
            cells = hist.shape[1]
            pieces = [""] * (3 * cells) + ["\n"]
            pieces[1::3] = [f",{eid},{i}," for i in range(cells)]
            for t, row in zip(times, hist):
                pieces[0] = t
                pieces[3:-1:3] = ["\n" + t] * (cells - 1)
                pieces[2::3] = _reprs(row)
                fh.write("".join(pieces))


def write_buffer_csv(log, path):
    """One `t,node_id,r` line per node and recorded instant, node by node;
    each node's series is one join of pieces laid out as a row of
    `write_density_csv`: the times, the node id and the loads' texts."""
    times = list(map(repr, log.t.tolist()))
    pieces = [""] * (3 * len(times)) + ["\n"]
    pieces[0] = times[0]
    pieces[3:-1:3] = ["\n" + t for t in times[1:]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,node_id,r\n")
        for nid in log.network.nodes:
            pieces[1::3] = [f",{nid},"] * len(times)
            pieces[2::3] = _reprs(log.buffers[nid])
            fh.write("".join(pieces))


def write_trajectory_csv(car_log, path):
    with open(path, "w", encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
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
        "tool_version": __version__,
    }
    payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
