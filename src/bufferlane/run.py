"""Glue that executes a parsed scenario end to end."""

import math
from dataclasses import dataclass
from typing import Optional

from . import routing, scenario as scn
from .errors import ScenarioSemanticError
from .junctions import DemandMode
from .routing import RoutePolicy
from .solver import SimLog, simulate
from .tracker import CarLog, Tracker, TrackerKind, track_car


@dataclass
class RunResult:
    network: object
    log: SimLog
    policy: Optional[RoutePolicy] = None
    route: Optional[list] = None
    predicted_arrival: Optional[float] = None
    car_log: Optional[CarLog] = None


def plan_route(log, policy, start_edge, start_x, start_time, destination,
               kind, w_rho=0.5, w_r=0.5):
    """Resolve the edge sequence for a policy; online returns None (the car
    decides junction by junction)."""
    net = log.network
    s = net.edges[start_edge].target
    if policy is RoutePolicy.SHORTEST:
        path, _ = routing.shortest_path(net, s, destination)
        return [start_edge] + path, None
    if policy is RoutePolicy.AGGREGATED:
        weights = routing.aggregated_weights(log, w_rho, w_r)
        path, _ = routing.dijkstra(net, weights, s, destination)
        return [start_edge] + path, None
    if policy is RoutePolicy.FASTEST:
        tracker = Tracker(log, kind)
        n0 = round(start_time / log.tau)
        event = tracker._traverse_edge(net.edges[start_edge], n0, start_x,
                                       CarLog(), 0.0)
        path, arrival = routing.fastest_path(log, s, event, destination, kind)
        return [start_edge] + path, arrival
    return None, None  # online


def execute(doc, target_h=None, overrides=None) -> RunResult:
    """Simulate (and optionally track a routed car for) one scenario."""
    overrides = dict(overrides or {})
    run_cfg = dict(doc.run)
    car_cfg = dict(doc.car)
    for key in ("T", "demand_mode"):
        if key in overrides and overrides[key] is not None:
            run_cfg[key] = overrides[key]
    for key in ("tracker", "policy", "w_rho", "w_r"):
        if key in overrides and overrides[key] is not None:
            car_cfg[key] = overrides[key]
    T = run_cfg.get("T")
    if not (isinstance(T, (int, float)) and 0.0 < T < math.inf):
        raise ScenarioSemanticError(f"run: T={T} must be a finite number > 0")
    network = scn.build_network(doc, target_h=target_h)
    initial = scn.build_initial(doc)
    mode = DemandMode(run_cfg.get("demand_mode", "standard"))
    log = simulate(network, initial, float(T), mode=mode)
    result = RunResult(network=network, log=log)
    if "destination" not in car_cfg:
        return result
    kind = TrackerKind(car_cfg.get("tracker", "complex"))
    policy = RoutePolicy(car_cfg.get("policy", "shortest"))
    start_edge = car_cfg["start_edge"]
    start_x = float(car_cfg.get("start_x", 0.0))
    start_time = float(car_cfg.get("start_time", 0.0))
    destination = car_cfg["destination"]
    w_rho = float(car_cfg.get("w_rho", 0.5))
    w_r = float(car_cfg.get("w_r", 0.5))
    route, predicted = plan_route(log, policy, start_edge, start_x, start_time,
                                  destination, kind, w_rho, w_r)
    if route is not None:
        chooser = routing.fixed_path_chooser(network, route)
    else:
        chooser = routing.online_chooser(log, destination, w_rho, w_r)
    car_log = track_car(log, start_edge, start_x, start_time, destination,
                        kind=kind, choose_next=chooser)
    result.policy = policy
    result.route = car_log.path
    result.predicted_arrival = predicted
    result.car_log = car_log
    return result
