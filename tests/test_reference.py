"""`solver.advance_step` against the scalar reference step, by `float.hex`,
on random networks in both demand modes, and `solver.project_cells`
against the reference cell averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bufferlane.junctions import DemandMode, JunctionTable
from bufferlane.solver import (advance_step, cfl_timestep, project_cells,
                               simulate)
from conftest import random_scenario
import reference

T = 2.0  # spans the sources' breakpoint at t = 1
DENSITIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def loads(r_max):
    """A load in [0, r_max] ([0, 1] if unbounded): at, within 1e-12 of or
    within a step's flow (where the limiter fires) of either bound, or
    anywhere."""
    top = r_max if math.isfinite(r_max) else 1.0
    near = st.one_of(st.floats(0.0, 1e-12), st.floats(0.0, 0.02))
    return st.one_of(st.sampled_from([0.0, top]), near,
                     near.map(lambda x: top - x), st.floats(0.0, top))


@st.composite
def cases(draw):
    """A network, a mode, a step n and the state at t^n: the one its run
    reaches, or an arbitrary one."""
    net, init = random_scenario(np.random.default_rng(
        draw(st.integers(0, 2**32 - 1))))
    mode = draw(st.sampled_from(list(DemandMode)))
    tau = cfl_timestep(net, T)
    steps = round(T / tau)
    n = draw(st.integers(0, steps - 1))
    if draw(st.booleans()):
        log = simulate(net, init, T, mode)
        rho = {e: a[n].tolist() for e, a in log.rho.items()}
        r = {v: a.item(n) for v, a in log.buffers.items()}
    else:
        rho = {e: draw(st.lists(DENSITIES, min_size=edge.cells,
                                max_size=edge.cells))
               for e, edge in net.edges.items()}
        r = {v: draw(loads(node.r_max)) for v, node in net.nodes.items()}
    return net, mode, tau, steps, n, rho, r


def hexes(values):
    return [float(x).hex() for x in values]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_advance_step_equals_the_reference_step(case):
    net, mode, tau, steps, n, rho, r = case
    table = JunctionTable.for_network(net, tau, steps, mode)
    state = np.array([x for cells in rho.values() for x in cells])
    load = np.array(list(r.values()))
    flows, _ = advance_step(table, state, load, n)
    want = reference.step(net, tau, mode is DemandMode.POOLED, rho, r, n)
    assert hexes(flows) == hexes(want[0])
    assert hexes(load) == hexes(want[1])
    assert hexes(state) == hexes(want[2])


@pytest.mark.parametrize("seed", range(20))
def test_project_cells_equals_the_reference(seed):
    # one pass over every road, roads of one and of two pieces mixed, and
    # a road with no profile reads 0
    net, init = random_scenario(np.random.default_rng(seed))
    edges = list(net.edges.values())
    densities = dict(init.densities)
    densities.pop(edges[seed % len(edges)].id)
    want = [x for e in edges for x in reference.cell_averages(
        e, densities.get(e.id, [(0.0, 0.0)]))]
    assert hexes(project_cells(edges, densities)) == hexes(want)
