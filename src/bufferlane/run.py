"""Glue that executes a parsed scenario end to end."""

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import routing, scenario as scn
from .errors import ScenarioSemanticError
from .junctions import DemandMode
from .routing import RoutePolicy
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
    junction.  `start_x` must lie in [0, length] of the start road."""
    policy = RoutePolicy(policy)
    net = log.network
    start_x = start_position(net.edges[start_edge], start_x)
    if policy is RoutePolicy.ONLINE:
        return None, None
    s = net.edges[start_edge].target
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


def _setting(section, cfg, key, default, convert):
    """`convert(cfg[key])` (or of the default); a value it rejects raises
    ScenarioSemanticError naming the section and the setting."""
    value = cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioSemanticError(f"{section}: {key}={value}: {exc}") from None


def _number(hi=math.inf, tau=None):
    """Converter to a finite float in [0, hi], on the time grid if tau."""
    def convert(value):
        x = float(value)
        if not (0.0 <= x <= hi and math.isfinite(x)):
            raise ValueError(f"must be a finite number in [0, {hi}]")
        if tau is not None:
            start_step(tau, x)
        return x
    return convert


def execute(doc) -> RunResult:
    """Simulate (and optionally track a routed car for) one scenario.

    Every [run] and [car] setting is checked before the simulation starts;
    without a destination the car's start is not read, but its tracker,
    policy and weights are.  The result's `doc` is the scenario as run:
    `doc` with the checked value of every [run] and [car] setting read
    (defaults included), so that `execute(result.doc)` runs it again.
    """
    T = doc.run.get("T")
    if not (isinstance(T, (int, float)) and 0.0 < T < math.inf):
        raise ScenarioSemanticError(f"run: T={T} must be a finite number > 0")
    T = float(T)
    mode = _setting("run", doc.run, "demand_mode", "standard", DemandMode)
    network = scn.build_network(doc)
    initial = scn.build_initial(doc)
    run_cfg = dict(doc.run, T=T, demand_mode=mode.value)
    car_cfg = dict(doc.car)
    kind = _setting("car", car_cfg, "tracker", "complex", TrackerKind)
    policy = _setting("car", car_cfg, "policy", "shortest", RoutePolicy)
    w_rho = _setting("car", car_cfg, "w_rho", 0.5, _number())
    w_r = _setting("car", car_cfg, "w_r", 0.5, _number())
    car_cfg.update(tracker=kind.value, policy=policy.value, w_rho=w_rho,
                   w_r=w_r)
    if "destination" not in doc.car:
        return RunResult(simulate(network, initial, T, mode=mode),
                         replace(doc, run=run_cfg, car=car_cfg))
    start_edge = car_cfg.get("start_edge")
    if start_edge not in network.edges:
        raise ScenarioSemanticError(f"car: start_edge={start_edge} is not an edge")
    start_x = _setting("car", car_cfg, "start_x", 0.0,
                       _number(network.edges[start_edge].length))
    start_time = _setting("car", car_cfg, "start_time", 0.0,
                          _number(tau=cfl_timestep(network, T)))
    destination = car_cfg["destination"]
    car_cfg.update(start_x=start_x, start_time=start_time)
    log = simulate(network, initial, T, mode=mode)
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
