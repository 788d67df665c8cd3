"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL`` line summarizing what was
verified, then asserts.  Tolerances are pinned in the assertions.
"""

from dataclasses import replace

import numpy as np
import pytest

from bufferlane import bundled_scenario, oracle, scenario as scn
from bufferlane.errors import HorizonExceeded, ZeroSpeedAtBoundary
from bufferlane.junctions import DemandMode
from bufferlane.network import JunctionSpec, NodeKind
from bufferlane.routing import RoutePolicy, fixed_path_chooser, online_chooser
from bufferlane.run import execute, plan_route
from bufferlane.solver import simulate
from bufferlane.tracker import TrackerKind, track_car
from conftest import (
    buffer_bound_defect,
    interior_nodes,
    line_network,
    mass_balance_defect,
    node_fluxes,
    random_scenario,
    total_edge_time,
)
from reference import fan_coefficient, rarefaction_exit, shock_intersection


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_merge_example():
    """Reference merge state: both demand modes, exact flux values."""
    spec = JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3, mu=0.2,
                        priority=(0.5, 0.5))
    q1h, q2h, q3h = node_fluxes(spec, (0.4, 0.1), (0.5,), 0.0,
                                DemandMode.POOLED)
    rate_h = q1h + q2h - q3h
    q1s, q2s, q3s = node_fluxes(spec, (0.4, 0.1), (0.5,), 0.0,
                                DemandMode.STANDARD)
    rate_s = q1s + q2s - q3s
    # expected values written as the defining double arithmetic: 0.09 and
    # -0.01 are not exactly representable, their rounded forms are
    q2_exact = 0.1 * 0.9
    rate_exact = 0.1 + 0.1 * 0.9 - 0.2
    ok = ((q1h, q2h, q3h) == (0.1, q2_exact, 0.2) and rate_h == rate_exact
          and q3s == 0.19 and rate_s == 0.0)
    _report(1, ok, f"pooled q=({q1h},{q2h},{q3h}) rate={rate_h}; "
                   f"standard q3={q3s} rate={rate_s}")
    assert (q1h, q2h, q3h) == (0.1, q2_exact, 0.2)
    assert rate_h == rate_exact
    assert rate_h == pytest.approx(-0.01, abs=1e-16)
    assert (q1s, q2s) == (0.1, q2_exact)
    assert q3s == 0.19
    assert rate_s == 0.0


def test_criterion_2_demand_mode_equivalence():
    """10^4 random merges with positive demands and dynamic priorities."""
    rng = np.random.default_rng(42)
    spec = JunctionSpec(id="j", kind=NodeKind.TWO_TO_ONE, r_max=0.3,
                        mu=0.25, priority="demand_proportional")
    worst = 0.0
    for _ in range(10_000):
        rho1, rho2 = rng.uniform(0.02, 0.98, size=2)
        rho3 = rng.uniform(0.0, 1.0)
        spec.mu = float(rng.uniform(0.01, 0.5))
        q_std = node_fluxes(spec, (rho1, rho2), (rho3,), 0.0,
                            DemandMode.STANDARD)
        q_her = node_fluxes(spec, (rho1, rho2), (rho3,), 0.0,
                            DemandMode.POOLED)
        worst = max(worst, abs(q_std[2] - q_her[2]))
    ok = worst < 1e-14
    _report(2, ok, f"max |q3_std - q3_pooled| = {worst:.2e} over 10^4 states")
    assert worst < 1e-14


def test_criterion_3_linear_network_exact():
    """Three-road line with buffers: both trackers hit the exact path."""
    net, init = line_network()
    init.buffers["n1"] = 0.1
    log = simulate(net, init, 8.0)
    eps = {}
    waits = {}
    for kind in (TrackerKind.NAIVE, TrackerKind.COMPLEX):
        car = track_car(log, "e1", 0.0, 0.0, "n3", kind=kind)
        eps[kind.value] = oracle.truncation_error(
            car.grid_t, car.grid_pos, oracle.linear_network_exact,
            oracle.LINEAR_T_END)
        waits[kind.value] = dict((v, w) for v, _, w in car.waiting_times)
    ok = all(e <= 1e-12 for e in eps.values()) and all(
        abs(w["n1"] - 6.0 / 35.0) < 1e-9 and abs(w["n2"] - 24.0 / 35.0) < 1e-9
        for w in waits.values())
    _report(3, ok, f"eps naive={eps['naive']:.2e} "
                   f"complex={eps['complex']:.2e}; waits "
                   f"{waits['complex']['n1']:.6f}/{waits['complex']['n2']:.6f}")
    for kind in ("naive", "complex"):
        assert eps[kind] <= 1e-12
        assert waits[kind]["n1"] == pytest.approx(6.0 / 35.0, abs=1e-9)
        assert waits[kind]["n2"] == pytest.approx(24.0 / 35.0, abs=1e-9)


TABLE = {
    ("rarefaction_single", "naive"): (3.59e-02, 1.74e-02, 7.04e-03, 2.51e-03),
    ("rarefaction_single", "complex"): (4.14e-02, 1.83e-02, 7.29e-03, 2.58e-03),
    ("rarefaction_buffer", "naive"): (3.67e-02, 1.74e-02, 7.05e-03, 2.51e-03),
    ("rarefaction_buffer", "complex"): (4.17e-02, 1.84e-02, 7.30e-03, 2.58e-03),
}


def test_criterion_4_error_ladder():
    """Truncation error decreases along h = 0.1 * 2^-n, n in {0,2,4,6}."""
    failures = []
    measured = {}
    for (name, tr), expect in TABLE.items():
        doc = scn.parse_scenario(bundled_scenario(name))
        errs = []
        for n in (0, 2, 4, 6):
            res = execute(replace(doc, run={**doc.run, "h": 0.1 * 2.0 ** -n},
                                  car={**doc.car, "tracker": tr}))
            errs.append(oracle.truncation_error(
                res.car_log.grid_t, res.car_log.grid_pos,
                oracle.rarefaction_exact, oracle.RAREFACTION_T_END))
        measured[(name, tr)] = errs
        for e, ref in zip(errs, expect):
            if abs(e - ref) > 0.30 * ref:
                failures.append(f"{name}/{tr}: {e:.3e} vs {ref:.3e}")
        if not all(a > b for a, b in zip(errs, errs[1:])):
            failures.append(f"{name}/{tr}: ladder not strictly decreasing")
    _report(4, not failures,
            "; ".join(f"{k[0][:4]}/{k[1][:4]} " +
                      " ".join(f"{e:.2e}" for e in v)
                      for k, v in measured.items()))
    assert not failures, failures


def test_criterion_5_two_route_network():
    """Two-route network: policy decisions and the congested-route wait."""
    doc = scn.parse_scenario(bundled_scenario("small_network"))
    net = scn.build_network(replace(doc, run={**doc.run, "h": 0.01}))
    log = simulate(net, scn.build_initial(doc), 15.0)
    p1 = ["e1", "e2", "e4", "e7"]
    p2 = ["e1", "e3", "e5", "e7"]
    fast0, _ = plan_route(log, RoutePolicy.FASTEST, "e1", 0.5, 0.0, "n6",
                          TrackerKind.COMPLEX)
    fast5, _ = plan_route(log, RoutePolicy.FASTEST, "e1", 0.5, 5.0, "n6",
                          TrackerKind.COMPLEX)
    agg, _ = plan_route(log, RoutePolicy.AGGREGATED, "e1", 0.5, 0.0, "n6",
                        TrackerKind.COMPLEX)
    on0 = track_car(log, "e1", 0.5, 0.0, "n6",
                    choose_next=online_chooser(log, "n6", 0.5, 0.5))
    on5 = track_car(log, "e1", 0.5, 5.0, "n6",
                    choose_next=online_chooser(log, "n6", 0.5, 0.5))
    forced = track_car(log, "e1", 0.5, 0.0, "n6",
                       choose_next=fixed_path_chooser(net, p2))
    wait4 = dict((v, w) for v, _, w in forced.waiting_times).get("n4", 0.0)
    ok = (fast0 == p1 and fast5 == p2 and agg == p2
          and on0.path == p1 and on5.path == p2
          and abs(forced.total_waiting - 0.78) < 0.05 and wait4 > 0.0)
    _report(5, ok, f"fastest t0={'P1' if fast0 == p1 else fast0} "
                   f"t5={'P2' if fast5 == p2 else fast5} "
                   f"aggregated={'P2' if agg == p2 else agg} "
                   f"online t0/t5 match={on0.path == p1}/{on5.path == p2} "
                   f"wait={forced.total_waiting:.4f}")
    assert fast0 == p1
    assert fast5 == p2
    assert agg == p2
    assert on0.path == p1
    assert on5.path == p2
    assert wait4 > 0.0
    assert forced.total_waiting == pytest.approx(0.78, abs=0.05)


def test_criterion_6_block_network():
    """Sixteen-junction block network: route lengths, arrivals and waits."""
    doc = scn.parse_scenario(bundled_scenario("block"))
    net = scn.build_network(replace(doc, run={**doc.run, "h": 0.01}))
    log = simulate(net, scn.build_initial(doc), 40.0)

    def run_fixed(route):
        return track_car(log, "e0", 0.0, 0.0, "m1",
                         choose_next=fixed_path_chooser(net, route))

    short, _ = plan_route(log, RoutePolicy.SHORTEST, "e0", 0.0, 0.0, "m1",
                          TrackerKind.COMPLEX)
    fast, _ = plan_route(log, RoutePolicy.FASTEST, "e0", 0.0, 0.0, "m1",
                         TrackerKind.COMPLEX)
    agg, _ = plan_route(log, RoutePolicy.AGGREGATED, "e0", 0.0, 0.0, "m1",
                        TrackerKind.COMPLEX)
    car_s = run_fixed(short)
    car_f = run_fixed(fast)
    car_on = track_car(log, "e0", 0.0, 0.0, "m1",
                       choose_next=online_chooser(log, "m1", 0.5, 0.5))
    len_s = sum(net.edges[e].length for e in short)
    len_f = sum(net.edges[e].length for e in fast)
    checks = [
        ("shortest length 13", len_s == pytest.approx(13.0)),
        ("fastest length 15", len_f == pytest.approx(15.0)),
        ("shortest arrival 32.92+-0.2",
         abs(car_s.arrival_time - 32.92) <= 0.2),
        ("fastest arrival 28.19+-0.2",
         abs(car_f.arrival_time - 28.19) <= 0.2),
        ("shortest wait 2.5+-0.3", abs(car_s.total_waiting - 2.5) <= 0.3),
        ("fastest wait 1.1+-0.3", abs(car_f.total_waiting - 1.1) <= 0.3),
        ("aggregated returns shortest path", agg == short),
        ("online returns shortest path", car_on.path == short),
    ]
    failed = [name for name, ok in checks if not ok]
    _report(6, not failed,
            f"L={len_s:g}/{len_f:g} arr={car_s.arrival_time:.4f}/"
            f"{car_f.arrival_time:.4f} wt={car_s.total_waiting:.4f}/"
            f"{car_f.total_waiting:.4f}"
            + (f"; failed: {', '.join(failed)}" if failed else ""))
    assert not failed, f"sub-checks failed: {failed}"


def test_criterion_7_conservation_suite():
    """Per-step mass balance and buffer bounds on 50 random networks."""
    worst_balance = 0.0
    worst_bound = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 4.0)
        worst_balance = max(worst_balance, mass_balance_defect(log))
        worst_bound = max(worst_bound, buffer_bound_defect(log))
    ok = worst_balance < 1e-12 and worst_bound <= 1e-12
    _report(7, ok, f"worst balance defect {worst_balance:.2e}, "
                   f"worst bound defect {worst_bound:.2e}")
    assert worst_balance < 1e-12
    assert worst_bound <= 1e-12


def test_criterion_8_fifo_property():
    """Later departures never exit an edge earlier, over random networks."""
    worst = -np.inf
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        net, init = random_scenario(rng)
        log = simulate(net, init, 8.0)
        interior = {n.id for n in interior_nodes(net)}
        for eid, edge in net.edges.items():
            if edge.target not in interior:
                continue
            for _ in range(10):
                n1 = int(rng.integers(0, log.steps // 3))
                n2 = n1 + int(rng.integers(1, log.steps // 3))
                try:
                    ttt1 = total_edge_time(log, eid, n1)
                    ttt2 = total_edge_time(log, eid, n2)
                except (HorizonExceeded, ZeroSpeedAtBoundary):
                    continue
                worst = max(worst, (n1 * log.tau + ttt1) -
                            (n2 * log.tau + ttt2))
                checked += 1
    ok = checked > 100 and worst <= 1e-9
    _report(8, ok, f"{checked} departure pairs, worst inversion {worst:.2e}")
    assert checked > 100
    assert worst <= 1e-9


def test_criterion_9_wave_geometry_oracle():
    """Wave-crossing formulas vs brute-force integration of the car ODE."""
    rng = np.random.default_rng(9)
    m = 100
    dt = 1e-6

    # cars catching up with a slower shock front
    rho_plus = rng.uniform(0.3, 0.95, size=m)
    rho_minus = rng.uniform(0.0, rho_plus - 0.1)
    gap = rng.uniform(0.01, 0.2, size=m)
    x_i = rng.uniform(0.5, 1.5, size=m)
    x0 = x_i - gap
    ref_t = np.empty(m)
    ref_x = np.empty(m)
    for k in range(m):
        ref_t[k], ref_x[k] = shock_intersection(
            x0[k], x_i[k], rho_minus[k], rho_plus[k])
    lam = 1.0 - rho_minus - rho_plus          # shock speed
    step = dt * (1.0 - rho_minus)             # car advance per dt behind the front
    # every car moves on after its hit; only the first hit is recorded.
    # The steps advance 4096 at a time: add.accumulate down the time axis
    # adds dt and step one after another, as a loop of += would
    t = np.zeros(m)
    x = x0.copy()
    num_t = np.full(m, np.nan)
    num_x = np.full(m, np.nan)
    pending = np.ones(m, dtype=bool)
    dts, steps = np.full((4096, m), dt), np.broadcast_to(step, (4096, m))
    while pending.any():
        ts = np.add.accumulate(np.vstack((t, dts)))[1:]
        xs = np.add.accumulate(np.vstack((x, steps)))[1:]
        hit = pending & (xs >= x_i + lam * ts)
        cars = hit.any(0).nonzero()[0]
        first = hit[:, cars].argmax(0)
        num_t[cars], num_x[cars] = ts[first, cars], xs[first, cars]
        pending[cars] = False
        t, x = ts[-1], xs[-1]
    shock_err = max(np.max(np.abs(num_t - ref_t)),
                    np.max(np.abs(num_x - ref_x)))

    # cars riding a rarefaction fan until they reach its right edge
    rho_minus = rng.uniform(0.55, 0.95, size=m)
    rho_plus = np.maximum(rho_minus / 3.0, 0.1)
    tau_bar = rng.uniform(0.01, 0.05, size=m)
    x_i = rng.uniform(0.5, 1.5, size=m)
    x_bar = x_i + (1.0 - 2.0 * rho_minus) * tau_bar
    ref_t = np.empty(m)
    ref_x = np.empty(m)
    for k in range(m):
        coeff = fan_coefficient(tau_bar[k], x_bar[k], x_i[k])
        ref_t[k], ref_x[k] = rarefaction_exit(coeff, x_i[k], rho_plus[k])
    t = tau_bar.copy()
    x = x_bar.copy()
    num_t = np.full(m, np.nan)
    num_x = np.full(m, np.nan)
    pending = np.ones(m, dtype=bool)
    exit_slope = 1.0 - 2.0 * rho_plus
    while pending.any():
        # in-fan density is (1 - (x - x_i)/t) / 2, so the speed is the mean
        # of the fan slope and the free-flow speed
        x += dt * (0.5 * (1.0 + (x - x_i) / t))
        t += dt
        hit = pending & ((x - x_i) >= exit_slope * t)
        if hit.any():
            num_t[hit], num_x[hit] = t[hit], x[hit]
            pending &= ~hit
    fan_err = max(np.max(np.abs(num_t - ref_t)),
                  np.max(np.abs(num_x - ref_x)))

    ok = shock_err < 1e-4 and fan_err < 1e-4
    _report(9, ok, f"shock max err {shock_err:.2e}, "
                   f"fan exit max err {fan_err:.2e} over {m} configs each")
    assert shock_err < 1e-4
    assert fan_err < 1e-4
