"""`solver.advance_step` against the scalar reference step, by `float.hex`,
on random networks in both demand modes, `solver.project_cells` against
the reference cell averages, the tracker's car steps and road legs
against the reference steps, by `float.hex` too, and the complex
tracker's arrivals against the count arrivals, to first order in h."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bufferlane import bundled_scenario, scenario as scn, tracker
from bufferlane.errors import HorizonExceeded, ZeroSpeedAtBoundary
from bufferlane.junctions import DemandMode, JunctionTable
from bufferlane.solver import (advance_step, cfl_timestep, project_cells,
                               simulate)
from bufferlane.routing import fixed_path_chooser, shortest_path
from bufferlane.tracker import (CarLog, CarStatus, TrackerKind, track_car,
                                traverse_edge)
from conftest import car_step_cases, line_network, random_scenario
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


STEPS = {"naive": (tracker.naive_step, reference.naive_step),
         "complex": (tracker.complex_step, reference.complex_step)}
# cell values that tie neighbours, and tiny ones that round a closing
# speed (1e-17 behind a vacuum, 1e-20) or the fan's gap 2 rho (0, 1e-20)
# to 0
SPECIAL = [0.0, 1e-20, 1e-17, 0.1, 0.3, 0.5, 0.7, 1.0]


def edge_step_cases(rng, cases, cells, h):
    """Seeded car steps on roads of `cells` cells, 70 % of the cell values
    drawn from SPECIAL.  The cars stand anywhere on the road: in its first
    or last cell, at a cell's end or middle (either half-cell's edge, the
    road's ends included) or one float off it, or at random; tau is h/2
    or random below it."""
    shape = (cases, cells)
    rho = np.where(rng.random(shape) < 0.7, rng.choice(SPECIAL, shape),
                   rng.random(shape))
    tau = np.where(rng.random(cases) < 0.3, 0.5 * h,
                   rng.uniform(0.1 * h, 0.5 * h, cases))
    top = cells * h
    grid = rng.integers(0, 2 * cells + 1, cases) * (0.5 * h)
    x = np.select(
        [rng.random(cases) < p for p in (0.2, 0.25, 0.33, 0.5)],
        [rng.uniform(0.0, h, cases),  # first cell
         rng.uniform((cells - 1) * h, top, cases),  # last cell
         grid, np.nextafter(grid, rng.choice([0.0, top], cases))],
        rng.uniform(0.0, top, cases))
    return np.minimum(x, top), rho, tau


def step_mismatches(name, x, rho, tau, h):
    """Cases where the package's step (on one flat history, row k at
    offset k * cells) and the reference step (on row k as a list) differ
    in any bit: (x, row, tau, got, want)."""
    step, ref = STEPS[name]
    C = rho.shape[1]
    flat, rows = rho.ravel().tolist(), rho.tolist()
    bad = []
    for k, (a, t) in enumerate(zip(x.tolist(), tau.tolist())):
        got, want = step(a, flat, k * C, C, h, t), ref(a, rows[k], h, t)
        if got.hex() != want.hex():
            bad.append((a, rows[k], t, got, want))
    return bad


@pytest.mark.parametrize("name", sorted(STEPS))
def test_car_steps_equal_the_reference(name):
    # 40,000 cases of TestComplexStepOracle's generator, then 24,000 edge
    # cases on roads of 1, 2 and 6 cells at three cell sizes
    rng = np.random.default_rng(28)
    x, rho, tau = car_step_cases(rng, 40_000, 6, 0.1)
    assert step_mismatches(name, x, rho, tau, 0.1) == []
    for cells in (1, 2, 6):
        for h in (0.1, 0.15, 0.0625):
            x, rho, tau = edge_step_cases(rng, 8_000 // 3, cells, h)
            assert step_mismatches(name, x, rho, tau, h) == []


def test_traverse_edge_equals_the_reference_leg():
    # every road of 16 random networks, from its start and from a random
    # point, at four departures up to 5 steps before T, for both trackers:
    # the arrival event, or the error, and every position of the leg
    outcomes = []
    for seed in range(16):
        rng = np.random.default_rng(seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 6.0)
        for edge in net.edges.values():
            for n in (0, log.steps // 6, log.steps // 3, log.steps - 5):
                for x in (0.0, float(rng.uniform(0.0, edge.length))):
                    for kind in TrackerKind:
                        car = CarLog(log.tau)
                        try:
                            got = traverse_edge(log, edge, n, x, kind, car)
                        except (HorizonExceeded, ZeroSpeedAtBoundary) as exc:
                            got = type(exc)
                        want, xs = reference.drive_leg(
                            log, edge, n, x, STEPS[kind.value][1])
                        assert got == want, (seed, edge.id, n, x, kind)
                        if isinstance(got, tuple):
                            assert hexes(got) == hexes(want)
                        assert hexes(car.legs[-1][3]) == hexes(xs)
                        outcomes.append(got if isinstance(got, type)
                                        else "arrived")
    assert outcomes.count("arrived") > 600
    assert outcomes.count(HorizonExceeded) > 300



def bundled_run(name, h):
    """A bundled scenario's log at cell width h, its car's start road and
    its destination."""
    doc = scn.parse_scenario(bundled_scenario(name))
    doc = replace(doc, run={**doc.run, "h": str(h)})
    log = simulate(scn.build_network(doc), scn.build_initial(doc),
                   float(doc.run["T"]))
    return log, doc.car["start_edge"], doc.car["destination"]


def count_gaps(h):
    """|complex - count| arrival at cell width h of cars leaving at t = 0
    from the start and from 0.37 of the first road, on the shortest path,
    in the bundled scenarios with a car and 12 random networks (T = 25, to
    the sink t1).  A car the horizon stops is left out."""
    runs = [bundled_run(name, h) for name in (
        "linear", "rarefaction_single", "rarefaction_buffer",
        "small_network", "block")]
    for seed in range(12):
        net, init = random_scenario(np.random.default_rng(seed), h=h)
        runs.append((simulate(net, init, 25.0), "e0", "t1"))
    gaps = []
    for log, start, goal in runs:
        net = log.network
        path = [start] + shortest_path(net, net.edges[start].target, goal)[0]
        for x in (0.0, 0.37 * net.edges[start].length):
            car = track_car(log, start, x, 0.0, goal,
                            choose_next=fixed_path_chooser(net, path))
            if car.status is CarStatus.ARRIVED:
                gaps.append(abs(car.arrival_time - reference.count_arrival(
                    log, path, x, 0.0)))
    return gaps


class TestCountArrival:
    # the count rule needs traffic ahead of the car (on an empty road it
    # gives the entry time, so a leg takes at least its length), and a
    # start inside a cell counts the part of the cell ahead of the car.
    # Tracker and counts differ at first order in h, so this catches an
    # error of order 1, such as a wait that skips the load queued ahead,
    # not a step that loses its order (one without its fan branch passes)

    def test_linear_is_exact(self):
        for h in (0.1, 0.05):
            net, init = line_network(h=h)
            init.buffers["n1"] = 0.1
            log = simulate(net, init, 8.0)
            assert reference.count_arrival(log, ["e1", "e2", "e3"], 0.0,
                                           0.0) == pytest.approx(160 / 21,
                                                                 abs=1e-12)

    def test_complex_tracker_agrees_to_first_order(self):
        # measured: largest gap 0.45 at h = 0.1 and 0.25 at h = 0.05, so
        # C = 5 holds both with 10 % to spare; 32 cars arrive at each
        coarse, fine = count_gaps(0.1), count_gaps(0.05)
        assert len(coarse) == len(fine) >= 30
        assert max(coarse) <= 5 * 0.1 and max(fine) <= 5 * 0.05
        assert max(coarse) >= 1.6 * max(fine)

    def test_later_departures_arrive_no_earlier(self):
        log, _, _ = bundled_run("small_network", 0.1)
        for path in (["e1", "e2", "e4", "e7"], ["e1", "e3", "e5", "e7"]):
            arrivals = [reference.count_arrival(log, path, 0.0, n * log.tau)
                        for n in range(0, 100, 3)]
            assert arrivals == sorted(arrivals)
