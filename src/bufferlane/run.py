"""Glue that executes a parsed scenario end to end."""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from . import oracle, routing, scenario as scn
from .errors import ScenarioSemanticError
from .junctions import DemandMode
from .routing import RoutePolicy
from .scenario import _KEYS, _positive, _setting
from .solver import SimLog, cfl_timestep, simulate
from .tracker import (CarLog, TrackerKind, start_position, start_step,
                      track_car, traverse_edge)


@dataclass
class RunResult:
    log: SimLog
    doc: object  # the scenario as run, see `execute`
    predicted_arrival: Optional[float] = None
    car_log: Optional[CarLog] = None


def plan_route(log, policy, start_edge, start_x, start_time, destination,
               kind, w_rho=0.5, w_r=0.5):
    """Resolve the edge sequence for a policy, plus the predicted arrival
    for fastest; online returns (None, None): the car decides junction by
    junction, once a static search has found a road to `destination`.
    `start_x` must lie in [0, length] of the start road."""
    policy = RoutePolicy(policy)
    kind = TrackerKind(kind)
    net = log.network
    start_x = start_position(net.edges[start_edge], start_x)
    s = net.edges[start_edge].target
    if policy is RoutePolicy.ONLINE:  # raises when no road leads there
        routing.shortest_path(net, s, destination)
        return None, None
    arrival = None
    if policy is RoutePolicy.SHORTEST:
        path, _ = routing.shortest_path(net, s, destination)
    elif policy is RoutePolicy.AGGREGATED:
        weights = routing.aggregated_weights(log, w_rho, w_r)
        path, _ = routing.dijkstra(net, weights, s, destination)
    else:
        event = traverse_edge(log, net.edges[start_edge],
                              start_step(log.tau, start_time), start_x, kind)
        path, arrival = routing.fastest_path(log, s, event, destination, kind)
    return [start_edge] + path, arrival


def _number(value):
    """Converter of a weight (`w_rho`, `w_r`) to a finite float >= 0."""
    x = float(value)
    if not 0.0 <= x < math.inf:
        raise ValueError("must be a finite number >= 0")
    return x


def _grid_time(tau, value):
    """Converter of `start_time` to a float `start_step` accepts for tau."""
    start_step(tau, float(value))
    return float(value)


def _oracle(name):
    """Converter of the `oracle` setting to a name in `oracle.ORACLES`."""
    if name not in oracle.ORACLES:
        raise ValueError(f"must be one of {', '.join(oracle.ORACLES)}")
    return name


def execute(doc) -> RunResult:
    """Simulate (and optionally track a routed car for) one scenario.

    Every [run] and [car] setting is checked before the simulation starts,
    and a key not in the parser's `_KEYS` is rejected; the car's start is
    read only with a destination or one of `start_edge`, `start_x` and
    `start_time`, its tracker, policy and weights always.  The result's
    `doc` is `doc` with the checked value of every setting read (defaults
    included), so that `execute(result.doc)` runs it again.
    """
    for section in ("run", "car"):
        unknown = sorted(getattr(doc, section).keys() - _KEYS[section])
        if unknown:
            raise ScenarioSemanticError(f"{section}: unknown key {unknown[0]!r}")
    T = _setting("run", doc.run, "T", None, _positive)
    mode = _setting("run", doc.run, "demand_mode", "standard", DemandMode)
    run_cfg = dict(doc.run, T=T, demand_mode=mode.value)
    if "h" in doc.run:
        run_cfg["h"] = _setting("run", doc.run, "h", None, _positive)
    network = scn.build_network(doc)
    initial = scn.build_initial(doc)
    car_cfg = dict(doc.car)
    kind = _setting("car", car_cfg, "tracker", "complex", TrackerKind)
    policy = _setting("car", car_cfg, "policy", "shortest", RoutePolicy)
    w_rho = _setting("car", car_cfg, "w_rho", 0.5, _number)
    w_r = _setting("car", car_cfg, "w_r", 0.5, _number)
    car_cfg.update(tracker=kind.value, policy=policy.value, w_rho=w_rho,
                   w_r=w_r)
    if "oracle" in car_cfg:
        car_cfg["oracle"] = _setting("car", car_cfg, "oracle", None, _oracle)
    has_car = "destination" in doc.car
    if has_car or doc.car.keys() & {"start_edge", "start_x", "start_time"}:
        start_edge = car_cfg.get("start_edge")
        if start_edge not in network.edges:
            raise ScenarioSemanticError(
                f"car: start_edge={start_edge} is not an edge")
        destination = car_cfg.get("destination")
        if has_car and destination not in network.nodes:
            raise ScenarioSemanticError(
                f"car: destination={destination} is not a node")
        start_x = _setting("car", car_cfg, "start_x", 0.0,
                           partial(start_position, network.edges[start_edge]))
        start_time = _setting("car", car_cfg, "start_time", 0.0,
                              partial(_grid_time, cfl_timestep(network, T)))
        car_cfg.update(start_x=start_x, start_time=start_time)
    log = simulate(network, initial, T, mode=mode)
    if not has_car:
        return RunResult(log, replace(doc, run=run_cfg, car=car_cfg))
    route, predicted = plan_route(log, policy, start_edge, start_x, start_time,
                                  destination, kind, w_rho, w_r)
    if route is not None:
        chooser = routing.fixed_path_chooser(network, route)
    else:
        chooser = routing.online_chooser(log, destination, w_rho, w_r)
    car_log = track_car(log, start_edge, start_x, start_time, destination,
                        kind=kind, choose_next=chooser)
    return RunResult(log, replace(doc, run=run_cfg, car=car_cfg), predicted,
                     car_log)
