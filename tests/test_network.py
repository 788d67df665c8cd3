"""Road graph model: validation rules, grids and inflow profiles."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from bufferlane.errors import ScenarioSemanticError
from bufferlane.junctions import DemandMode, buffer_step
from bufferlane.network import (
    _DEGREES,
    _SETTINGS,
    Edge,
    JunctionSpec,
    NodeKind,
    RoadNetwork,
    cells_for_target_h,
)
from conftest import interior_nodes, line_network, make_edge, one_node_table


def rejected(message):
    """Expects the ScenarioSemanticError with exactly this message."""
    return pytest.raises(ScenarioSemanticError,
                         match=f"^{re.escape(message)}$")


def test_line_network_validates():
    net, _ = line_network()
    assert len(net.edges) == 3
    assert [n.id for n in net.sources()] == ["n0"]
    assert [n.id for n in net.sinks()] == ["n3"]
    assert {n.id for n in interior_nodes(net)} == {"n1", "n2"}


def test_edge_grid():
    e = Edge(id="e", source="a", target="b", length=1.0, cells=10)
    assert e.h == pytest.approx(0.1)


def test_cells_for_target_h():
    assert cells_for_target_h(1.0, 0.1) == 10
    assert cells_for_target_h(2.0, 0.1) == 20
    assert cells_for_target_h(0.1, 0.1) == 2  # lower bound of two cells
    assert cells_for_target_h(1.0, 0.4) == 2


def test_incidence_order_preserved():
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE, inflow=((0.0, 0.1),)),
             JunctionSpec(id="j", kind=NodeKind.ONE_TO_TWO, r_max=0.3,
                          alpha=(0.6, 0.4)),
             JunctionSpec(id="t1", kind=NodeKind.SINK),
             JunctionSpec(id="t2", kind=NodeKind.SINK)]
    edges = [make_edge("e0", "s", "j"), make_edge("eB", "j", "t1"),
             make_edge("eA", "j", "t2")]
    net = RoadNetwork(nodes, edges).validate()
    # declaration order, not lexicographic order, pairs edges with alpha
    assert net.out_edges["j"] == ["eB", "eA"]


def test_degree_mismatch():
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE),
             JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3),
             JunctionSpec(id="t", kind=NodeKind.SINK)]
    edges = [make_edge("e0", "s", "j"), make_edge("e1", "j", "t")]
    with rejected("node j (two_to_one): degree (1,1), expected (2, 1)"):
        RoadNetwork(nodes, edges).validate()


def test_unknown_node_reference():
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE)]
    with rejected("edge e0 references unknown node"):
        RoadNetwork(nodes, [make_edge("e0", "s", "ghost")])


def test_alpha_must_sum_to_one():
    for alpha in ((0.6, 0.5), (math.nan, math.nan), (1.0,), (0.3, 0.3, 0.4),
                  None):
        nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE),
                 JunctionSpec(id="j", kind=NodeKind.ONE_TO_TWO, r_max=0.3,
                              alpha=alpha),
                 JunctionSpec(id="t1", kind=NodeKind.SINK),
                 JunctionSpec(id="t2", kind=NodeKind.SINK)]
        edges = [make_edge("e0", "s", "j"), make_edge("e1", "j", "t1"),
                 make_edge("e2", "j", "t2")]
        with rejected(f"node j: alpha {alpha} must be two positive "
                      "numbers that sum to 1"):
            RoadNetwork(nodes, edges).validate()


def test_fixed_priority_must_sum_to_one():
    # one rule for every pair: exactly two positive numbers summing to 1
    for priority in ((0.7, 0.4), (0.3, 0.3, 0.4), (1.0,)):
        nodes = [JunctionSpec(id="s1", kind=NodeKind.SOURCE),
                 JunctionSpec(id="s2", kind=NodeKind.SOURCE),
                 JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3,
                              priority=priority),
                 JunctionSpec(id="t", kind=NodeKind.SINK)]
        edges = [make_edge("e0", "s1", "j"), make_edge("e1", "s2", "j"),
                 make_edge("e2", "j", "t")]
        with rejected(f"node j: priorities {priority} must be two positive "
                      "numbers that sum to 1"):
            RoadNetwork(nodes, edges).validate()


def test_mu_bound_scales_with_degree():
    # a merge may process up to 2 f(sigma) = 0.5; a pass-through only 0.25
    nodes = [JunctionSpec(id="s1", kind=NodeKind.SOURCE),
             JunctionSpec(id="s2", kind=NodeKind.SOURCE),
             JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3,
                          mu=0.4),
             JunctionSpec(id="t", kind=NodeKind.SINK)]
    edges = [make_edge("e0", "s1", "j"), make_edge("e1", "s2", "j"),
             make_edge("e2", "j", "t")]
    RoadNetwork(nodes, edges).validate()
    nodes[2] = JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3,
                            mu=0.51)
    with rejected("node j: mu 0.51 outside (0, 0.5]"):
        RoadNetwork(nodes, edges).validate()


def test_source_buffer_unbounded():
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE, r_max=0.3),
             JunctionSpec(id="t", kind=NodeKind.SINK)]
    with rejected("node s: source/sink buffers are unbounded"):
        RoadNetwork(nodes, [make_edge("e0", "s", "t")]).validate()


def test_nonpositive_length():
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE),
             JunctionSpec(id="t", kind=NodeKind.SINK)]
    edges = [Edge(id="e0", source="s", target="t", length=-1.0, cells=10)]
    with rejected("edge e0: length -1.0"):
        RoadNetwork(nodes, edges).validate()


@pytest.mark.parametrize("length", [math.nan, math.inf])
def test_nonfinite_length(length):
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE),
             JunctionSpec(id="t", kind=NodeKind.SINK)]
    edges = [Edge(id="e0", source="s", target="t", length=length, cells=10)]
    with rejected(f"edge e0: length {length}"):
        RoadNetwork(nodes, edges).validate()


def _source_network(inflow):
    nodes = [JunctionSpec(id="s", kind=NodeKind.SOURCE, inflow=inflow),
             JunctionSpec(id="t", kind=NodeKind.SINK)]
    return RoadNetwork(nodes, [make_edge("e0", "s", "t")])


def test_negative_inflow_rejected():
    # the whole profile is checked, not only the value in force at t = 0
    with rejected("node s: inflow -0.1 < 0 from t=3.0"):
        _source_network(((0.0, 0.1), (3.0, -0.1)))


@pytest.mark.parametrize("inflow", [((0.0, math.nan),), ((math.inf, 0.1),)])
def test_nonfinite_inflow_rejected(inflow):
    (t, v), = inflow
    with rejected(f"node s: inflow {v} from t={t}"):
        _source_network(inflow).validate()


@pytest.mark.parametrize("inflow", [((4.0, 0.21), (0.0, 0.05)),
                                    ((0.0, 0.21), (0.0, 0.05))])
def test_inflow_times_must_increase(inflow):
    # a reversed profile would feed 0.21 first and 0.05 from t=4
    with pytest.raises(ScenarioSemanticError, match="node s: inflow "
                       "breakpoints must be strictly increasing"):
        _source_network(inflow).validate()


def test_inflow_checked_on_every_node():
    # no step reads a pass-through node's inflow, but its numbers are
    # checked like a source's
    net, _ = line_network()
    net.nodes["n1"].inflow = ((0.0, -0.1),)
    with rejected("node n1: inflow -0.1 < 0 from t=0.0"):
        net.validate()


@pytest.mark.parametrize("inflow, error", [
    (((0.0, 0.0),), None), (((0.0, 0.0), (2.0, 0.0)), None),
    (((0.0, 0.3),), "node n1: inflow on a one_to_one node"),
    (((0.0, 0.0), (2.0, 0.1)), "node n1: inflow on a one_to_one node")])
def test_inflow_only_on_sources(inflow, error):
    # no step reads a pass-through node's inflow: a zero one is accepted,
    # any other rejected rather than dropped
    net, _ = line_network()
    nodes = [replace(n, inflow=inflow) if n.id == "n1" else n
             for n in net.nodes.values()]
    if error is None:
        RoadNetwork(nodes, list(net.edges.values()))
        return
    with pytest.raises(ScenarioSemanticError, match=error):
        RoadNetwork(nodes, list(net.edges.values()))


def test_sink_mu_rejected():
    # no step reads a sink's mu: the default is accepted, any other
    # rejected rather than dropped
    net, _ = line_network()
    nodes = list(net.nodes.values())
    RoadNetwork([replace(n, mu=0.25) for n in nodes], list(net.edges.values()))
    with rejected("node n3: mu on a sink node; only a source or one_to_one "
                  "or one_to_two or two_to_one reads mu"):
        RoadNetwork([replace(n, mu=0.01) for n in nodes],
                    list(net.edges.values()))


# per setting, the field that gives it and two values, each valid where read
TWO_VALUES = {"inflow": ("inflow", ((0.0, 0.1),), ((0.0, 0.3),)),
              "alpha": ("alpha", (0.3, 0.7), (0.8, 0.2)),
              "fixed priority": ("priority", (0.3, 0.7), (0.8, 0.2)),
              "mu": ("mu", 0.1, 0.2)}


def star(spec, n_in, n_out):
    """The network of node j, `spec`, fed by a source on each road in and
    drained by a sink on each road out."""
    nodes = ([spec] + [JunctionSpec(id=f"s{k}", kind=NodeKind.SOURCE)
                       for k in range(n_in)]
             + [JunctionSpec(id=f"t{k}", kind=NodeKind.SINK)
                for k in range(n_out)])
    edges = ([make_edge(f"a{k}", f"s{k}", "j") for k in range(n_in)]
             + [make_edge(f"b{k}", "j", f"t{k}") for k in range(n_out)])
    return RoadNetwork(nodes, edges)


def stepped(spec, n_in, n_out, mode):
    """The bytes of the flows and new load of one step of `spec`'s one-node
    table from each state of a grid: every road at rho in {0.2, 0.5, 0.8},
    the load at 0, r_max / 2 and r_max (1 if unbounded)."""
    cap = spec.r_max if math.isfinite(spec.r_max) else 1.0
    out = []
    for rho, r in itertools.product((0.2, 0.5, 0.8), (0.0, cap / 2, cap)):
        table = one_node_table(spec, n_in, n_out, tau=0.1, mode=mode)
        load = np.array([r])
        assert table.fluxes(np.full(n_in + n_out, rho), load, 0) is None
        buffer_step(table, load)
        out.append(table.flows.tobytes() + load.tobytes())
    return out


@pytest.mark.parametrize("kind", list(_DEGREES), ids=lambda k: k.value)
@pytest.mark.parametrize("name", [name for name, *_ in _SETTINGS])
def test_validation_rejects_what_no_step_reads(name, kind):
    # a setting is rejected on a node shape exactly when the junction
    # table's row for that shape gives the same bits for any two values
    n_in, n_out = _DEGREES[kind]
    base = JunctionSpec(id="j", kind=kind,
                        r_max=math.inf if 0 in (n_in, n_out) else 0.3,
                        alpha=(0.5, 0.5) if n_out == 2 else None)
    field, *values = TWO_VALUES[name]
    specs = [replace(base, **{field: v}) for v in values]
    verdicts = set()
    for spec in specs:
        try:
            star(spec, n_in, n_out)
            verdicts.add(True)
        except ScenarioSemanticError as exc:
            assert str(exc).startswith(f"node j: {name} on a {kind.value} ")
            verdicts.add(False)
    (accepted,) = verdicts
    for mode in DemandMode:
        first, second = (stepped(spec, n_in, n_out, mode) for spec in specs)
        assert (first != second) == accepted


_S = JunctionSpec(id="s", kind=NodeKind.SOURCE)
_T = JunctionSpec(id="t", kind=NodeKind.SINK)
_T2 = JunctionSpec(id="t2", kind=NodeKind.SINK)
_FORK = [make_edge("e0", "s", "j"), make_edge("e1", "j", "t"),
         make_edge("e2", "j", "t2")]


@pytest.mark.parametrize("nodes, edges, error", [
    ([_S, JunctionSpec(id="j", kind=NodeKind.ONE_TO_ONE, r_max=0.3), _T, _T2],
     _FORK, "node j (one_to_one): degree (1,2), expected (1, 1)"),
    ([JunctionSpec(id="s", kind=NodeKind.SOURCE, mu=0.0), _T],
     [make_edge("e0", "s", "t")], "node s: mu 0.0 outside (0, 0.25]"),
    ([_S, _T], [Edge(id="e0", source="s", target="t", length=1.0, cells=1)],
     "edge e0: needs >= 2 cells"),
    ([JunctionSpec(id="s", kind=NodeKind.SOURCE, inflow=((0.0, -0.1),)), _T],
     [make_edge("e0", "s", "t")], "node s: inflow -0.1 < 0 from t=0.0"),
    ([_S, _T], [Edge(id="e0", source="s", target="t", length=-1.0, cells=10)],
     "edge e0: length -1.0"),
    ([_S, JunctionSpec(id="j", kind=NodeKind.ONE_TO_TWO, r_max=0.3), _T, _T2],
     _FORK, "node j: alpha None must be two positive numbers that sum to 1"),
], ids=["one_to_one-two-exits", "mu-0", "one-cell", "negative-inflow",
        "negative-length", "split-without-alpha"])
def test_network_validated_when_made(nodes, edges, error):
    # the constructor runs `validate`: no caller can simulate on a network
    # that breaks one of its rules
    with rejected(error):
        RoadNetwork(nodes, edges)


def test_disconnected_graph():
    nodes = [JunctionSpec(id="s1", kind=NodeKind.SOURCE),
             JunctionSpec(id="t1", kind=NodeKind.SINK),
             JunctionSpec(id="s2", kind=NodeKind.SOURCE),
             JunctionSpec(id="t2", kind=NodeKind.SINK)]
    edges = [make_edge("e0", "s1", "t1"), make_edge("e1", "s2", "t2")]
    with rejected("unreachable nodes: ['s2', 't2']"):
        RoadNetwork(nodes, edges).validate()


def test_empty_network():
    with rejected("network has no edges"):
        RoadNetwork([], []).validate()


def test_inflow_profile_lookup():
    # a run samples the profile at t = n tau into its junction table
    spec = JunctionSpec(id="s", kind=NodeKind.SOURCE,
                        inflow=((0.0, 0.1), (2.0, 0.2), (5.0, 0.0)))
    tau = 0.001
    inflow = one_node_table(spec, 0, 1, tau, 100001).inflows[:, 0]
    assert [n * tau for n in (1999, 2000, 4000, 100000)] == [
        1.999, 2.0, 4.0, 100.0]
    assert inflow[0] == 0.1
    assert inflow[1999] == 0.1
    assert inflow[2000] == 0.2
    assert inflow[4000] == 0.2
    assert inflow[100000] == 0.0


def test_default_r_max_unbounded():
    spec = JunctionSpec(id="j", kind=NodeKind.ONE_TO_ONE)
    assert math.isinf(spec.r_max)
