"""Runs one workload, or one set-up measurement, in a fresh interpreter and
prints its measurements as one JSON line.  Started by `run.py`; the
workload name and seed fully determine the inputs.

    python3 bench/worker.py setup WORKLOAD SEED
    python3 bench/worker.py run WORKLOAD SEED SECONDS TRACE
    python3 bench/worker.py reference SEED...   (rewrites reference.json)
"""

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# import the package from this checkout's source (run.py checks it exists)
sys.path.insert(0, str(ROOT / "src"))

REFERENCE = BENCH / "reference.json"
OUT = ROOT / ".bench_out"
CLI_STRIDE = 25
QUERY_POLICIES = ("shortest", "fastest", "aggregated", "online")
QUERY_TRACKERS = ("naive", "complex")
# reference-work probes (speed.py): after every simulate or CLI run, after
# each set-up, and one after every route-queries operation, which is scaled
# by the OP_WINDOW probes on either side of it
PASS_PROBES = 8
SETUP_PROBES = 3
OP_WINDOW = 3

# sizes: one pass takes 3-7 s on a 2-core VM, so a 40 s run holds 5-11
SCENARIOS = {
    "junction-grid": lambda seed: workloads.gadget_chain(seed, 25, 0.1, 20, 0.24),
    "fine-roads-cli": lambda seed: workloads.fine_roads(seed, 10.0, 0.0025, 2.5),
    "route-queries": lambda seed: workloads.gadget_chain(seed, 6, 0.1, 80, 0.12),
}


def departures(seed, steps):
    """Seeded departure steps in the first tenth of the horizon."""
    return sorted(random.Random(seed).sample(range(0, steps // 10), 13))


@dataclass
class Rep:
    """Timings, operation counts and outputs of one pass over a workload.
    The timings are in reference seconds (speed.py), except `raw_wall`."""

    wall: float
    raw_wall: float
    sim: float
    cell_updates: int
    op_times: list
    attempted: int
    failed: int
    problems: list
    digest: str        # equal digests mean bit-identical outputs
    fingerprint: list  # compared with reference.json
    info: dict         # printed, not checked


def _build(bl, text):
    doc = bl.scenario.parse_scenario(text)
    network = bl.scenario.build_network(doc)
    initial = bl.scenario.build_initial(doc)
    return doc, network, initial


def _info(bl, log, **extra):
    """Facts about a run that are printed but not gated.  The history size
    counts every array the log holds, directly or in a dict."""
    history = 0
    for value in vars(log).values():
        for a in value.values() if isinstance(value, dict) else [value]:
            history += getattr(a, "nbytes", 0)
    return {"full_buffers": bl.checks.full_buffers(log),
            "history_bytes": history, **extra}


def _cell_updates(log):
    return sum(e.cells for e in log.network.edges.values()) * log.steps


def grid_rep(bl, text, seed, probe):
    """Library path: parse, build and simulate; no writes, no tracking."""
    t0 = time.perf_counter()
    doc, network, initial = _build(bl, text)
    t1 = time.perf_counter()
    log = bl.solver.simulate(network, initial, float(doc.run["T"]))
    t2 = time.perf_counter()
    f = probe.factor_after(PASS_PROBES)
    problems = bl.checks.check_log(log)
    return Rep(f * (t2 - t0), t2 - t0, f * (t2 - t1), _cell_updates(log),
               [f * (t2 - t0)], 1,
               int(bool(problems)), problems, bl.checks.log_digest(log),
               bl.checks.fingerprint(log), _info(bl, log))


def cli_rep(bl, text, seed, probe):
    """`bufferlane run` in-process into a scratch directory of the checkout,
    with one boundary timer around the single `simulate` call.  The probes
    also run right before and after that call, so the simulate and the
    rest of the run (mostly the writers) each get the factor of the probes
    around them; the walls leave out the probes' own time."""
    work = OUT / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seen = {}
    inner = bl.run.simulate

    def boundary(*args, **kwargs):
        p0 = time.perf_counter()
        probe.run(PASS_PROBES)
        t = time.perf_counter()
        seen["log"] = inner(*args, **kwargs)
        seen["sim"] = time.perf_counter() - t
        seen["sim_factor"] = probe.factor_after(PASS_PROBES)
        seen["probing"] = time.perf_counter() - p0 - seen["sim"]
        return seen["log"]

    bl.run.simulate = boundary
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            path = work / "fine.scn"
            path.write_text(text)
            code = bl.cli.main(["run", str(path), "--out", str(work / "out"),
                                "--log-stride", str(CLI_STRIDE)])
            wall = time.perf_counter() - t0 - seen["probing"]
        f = probe.factor_after(PASS_PROBES)
        sim = seen["sim"] * seen["sim_factor"]
        scaled = sim + (wall - seen["sim"]) * f
        log = seen.pop("log")
        problems = (bl.checks.check_log(log)
                    + bl.checks.check_cli_outputs(work / "out", code, log,
                                                  CLI_STRIDE))
        digest = bl.checks.log_digest(log) + str(code)
        fp = bl.checks.fingerprint(log)
        if not problems:
            for name in sorted(os.listdir(work / "out")):
                digest += bl.checks.file_digest(work / "out" / name)
            route = json.loads((work / "out" / "route.json").read_text())
            fp.append(route["arrival"])
        info = _info(bl, log)
        cells = _cell_updates(log)
        del log  # free the large history before the next pass
    finally:
        bl.run.simulate = inner
        shutil.rmtree(work, ignore_errors=True)
    return Rep(scaled, wall, sim, cells, [scaled], 1, int(bool(problems)),
               problems, digest, fp, info)


def run_query(bl, log, policy, kind, n):
    """One car: plan a route under `policy`, then track it with `kind`."""
    policy = bl.routing.RoutePolicy(policy)
    kind = bl.tracker.TrackerKind(kind)
    start = n * log.tau
    route, predicted = bl.run.plan_route(log, policy, "e1", 0.0, start,
                                         "out", kind)
    if route is None:
        chooser = bl.routing.online_chooser(log, "out", 0.5, 0.5)
    else:
        chooser = bl.routing.fixed_path_chooser(log.network, route)
    car = bl.tracker.track_car(log, "e1", 0.0, start, "out", kind=kind,
                               choose_next=chooser)
    arrived = car.status is bl.tracker.CarStatus.ARRIVED
    return {"departure": n, "policy": policy.value, "tracker": kind.value,
            "predicted": predicted, "path": car.path,
            "arrival": car.arrival_time if arrived else None}


def queries_rep(bl, text, seed, probe):
    """Simulate once, then answer the seeded car queries against the log."""
    t0 = time.perf_counter()
    doc, network, initial = _build(bl, text)
    t1 = time.perf_counter()
    log = bl.solver.simulate(network, initial, float(doc.run["T"]))
    t2 = time.perf_counter()
    f = probe.factor_after(PASS_PROBES)
    results, raw_ops, marks = [], [], []
    # the timed operation is one departure asked under every policy and
    # tracker: single queries differ in cost by 10x between kinds, so their
    # percentiles would fall between kinds and jump from seed to seed
    for n in departures(seed, log.steps):
        q0 = time.perf_counter()
        for policy in QUERY_POLICIES:
            for kind in QUERY_TRACKERS:
                try:
                    results.append(run_query(bl, log, policy, kind, n))
                except bl.errors.BufferlaneError as exc:
                    results.append({"departure": n, "policy": policy,
                                    "tracker": kind, "arrival": None,
                                    "error": str(exc)})
        raw_ops.append(time.perf_counter() - q0)
        marks.append(len(probe.times))
        probe.run()
    probe.run(OP_WINDOW)
    op_times = [raw * probe.factor(i - OP_WINDOW, i + OP_WINDOW)
                for raw, i in zip(raw_ops, marks)]
    problems = bl.checks.check_log(log)
    failed = bl.checks.check_queries(results)
    digest = bl.checks.log_digest(log) + json.dumps(results, sort_keys=True)
    fp = bl.checks.fingerprint(log) + [q["arrival"] or 0.0 for q in results]
    # the walls leave out the probes
    return Rep(f * (t2 - t0) + sum(op_times), t2 - t0 + sum(raw_ops),
               f * (t2 - t1), _cell_updates(log), op_times,
               1 + len(results), int(bool(problems)) + len(failed),
               problems + [f"query {i}: {results[i]}" for i in sorted(failed)],
               digest, fp,
               _info(bl, log, queries=len(results), naive_worst_inversion=max(
                   (a for _, a in bl.checks.inversions(results, "naive")),
                   default=0.0)))


REPS = {"junction-grid": grid_rep, "fine-roads-cli": cli_rep,
        "route-queries": queries_rep}


class _Package:
    """The package modules the benchmark calls, plus its own checks.

    Imported on first use, not at module level: `setup` must time numpy's
    import as part of importing the package."""

    def __init__(self):
        import checks
        from bufferlane import (cli, errors, routing, run, scenario, solver,
                                tracker)
        self.cli, self.errors, self.routing, self.run = cli, errors, routing, run
        self.scenario, self.solver, self.tracker = scenario, solver, tracker
        self.checks = checks


def _quantile(values, q):
    """statistics.quantiles cut point q/100 (needs two or more values)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload, seed, seconds):
    from speed import SpeedProbe

    bl = _Package()
    text = SCENARIOS[workload](seed)
    rep_fn = REPS[workload]
    reps = []
    probe = SpeedProbe()
    probe.run(PASS_PROBES)
    start = time.perf_counter()
    while True:  # stop before a pass that would end after `seconds`
        t0 = time.perf_counter()
        reps.append(rep_fn(bl, text, seed, probe))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    ops = [t for r in reps for t in r.op_times]
    sims = [r.sim for r in reps]
    # printed, not gated: a run has fewer than ten operations above its p90
    reps[-1].info.update(
        op_p90_ms=1e3 * _quantile(ops, 90),
        raw_wall_s=statistics.median(r.raw_wall for r in reps),
        speed_factor=statistics.median(r.wall / r.raw_wall for r in reps),
        probes=len(probe.times))
    return reps, {
        "wall_s": (statistics.median(r.wall for r in reps), len(reps)),
        "cell_updates_per_s": (reps[0].cell_updates / statistics.median(sims),
                               len(reps)),
        "ops_per_s": (len(ops) / sum(ops), len(ops)),
        "op_p50_ms": (1e3 * statistics.median(ops), len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }


def traced(workload, seed):
    """A warm-up pass, a traced pass and an untraced pass to compare it
    with; all three must give the same outputs.  Per-layer metrics come
    from the trace."""
    from speed import NoProbe
    from tracing import Tracer

    bl = _Package()
    text = SCENARIOS[workload](seed)
    rep_fn = REPS[workload]
    probe = NoProbe()  # the spans must not hold probe time
    before = rep_fn(bl, text, seed, probe)
    tracer = Tracer()
    tracer.install()
    tracer.patch_span(sys.modules[__name__], "run_query", "query")
    try:
        rep = tracer.call_in_span(workload, rep_fn, bl, text, seed, probe)
    finally:
        tracer.restore()
    after = rep_fn(bl, text, seed, probe)
    if not rep.digest == before.digest == after.digest:
        rep.problems.append("traced outputs differ from untraced outputs")
        rep.failed += 1
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    return [before, rep, after], layer_metrics(tracer, rep, after.wall)


def layer_metrics(tr, rep, untraced_wall):
    s, calls = tr.seconds, tr.calls

    def p50_ms(name):
        d = tr.span_durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    simulate = tr.span_seconds("solver.simulate")
    kernel = s["junctions.kernel"]
    godunov = s["fluxes.godunov"]
    advance = s["solver.advance_step"]
    write_density = tr.span_seconds("scenario.write_density")
    track = tr.span_seconds("tracker.track.")
    track_steps = calls["tracker.track.car_steps"]
    m = {
        "scenario.parse.s": tr.span_seconds("scenario.parse"),
        "scenario.build.s": tr.span_seconds("scenario.build"),
        "network.validate.s": tr.span_seconds("network.validate"),
        "solver.simulate.s": simulate,
        "junctions.kernel.s": kernel,
        "junctions.kernel.calls": calls["junctions.kernel"],
        "junctions.kernel.share": kernel / simulate if simulate else 0.0,
        "junctions.buffer_step.s": s["junctions.buffer_step"],
        "fluxes.scalar_calls": calls["fluxes.scalar"],
        "fluxes.godunov.s": godunov,
        "fluxes.godunov.calls": calls["fluxes.godunov"],
        "fluxes.godunov.ns_per_cell": 1e9 * godunov / tr.cells if tr.cells else 0.0,
        "solver.step_other.s": advance - kernel - godunov - s["junctions.buffer_step"],
        "solver.record.s": simulate - advance - s["solver.project_cells"],
        "solver.history.bytes": rep.info.get("history_bytes", 0),
        "scenario.write_density.s": write_density,
        "scenario.write_density.bytes": tr.density_bytes,
        "scenario.write_density.mb_per_s": (tr.density_bytes / 1e6 / write_density
                                            if write_density else 0.0),
        "scenario.write_other.s": tr.span_seconds("scenario.write_other"),
        "run.execute.s": tr.span_seconds("run.execute"),
        "cli.main.s": tr.span_seconds("cli.main"),
        "routing.plan.s": tr.span_seconds("routing.plan."),
        "routing.plan.shortest.p50_ms": p50_ms("routing.plan.shortest"),
        "routing.plan.aggregated.p50_ms": p50_ms("routing.plan.aggregated"),
        "routing.plan.fastest.p50_ms": p50_ms("routing.plan.fastest"),
        "routing.online_reroute.calls": calls["routing.online_reroute"],
        "routing.online_reroute.s": s["routing.online_reroute"],
        "routing.dijkstra.calls": calls["routing.dijkstra"],
        "routing.fastest.car_steps": calls["routing.fastest.car_steps"],
        "tracker.track.s": track,
        "tracker.track.naive.p50_ms": p50_ms("tracker.track.naive"),
        "tracker.track.complex.p50_ms": p50_ms("tracker.track.complex"),
        "tracker.car_steps": track_steps,
        "tracker.ns_per_car_step": 1e9 * track / track_steps if track_steps else 0.0,
        "tracker.node_waiting.calls": calls["tracker.node_waiting"],
        "tracker.node_waiting.s": s["tracker.node_waiting"],
        "queries.s": tr.span_seconds("query"),
        "trace.overhead_share": rep.wall / untraced_wall - 1.0,
    }
    return {k: (v, 1) for k, v in m.items()}


def setup(workload, seed):
    """Import plus parse, build and initial data, timed in this process and
    returned in reference seconds.  The probes run afterwards, as they
    import numpy; the first of them is a warm-up and not used."""
    text = SCENARIOS[workload](seed)
    t0 = time.perf_counter()
    from bufferlane import scenario
    doc = scenario.parse_scenario(text)
    scenario.build_network(doc)
    scenario.build_initial(doc)
    raw = time.perf_counter() - t0
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.run(1 + SETUP_PROBES)
    return raw * probe.factor(1)


def reference(seeds):
    """Store the fingerprints of the current program's outputs."""
    from speed import NoProbe

    bl = _Package()
    probe = NoProbe()
    table = {}
    for workload, rep_fn in REPS.items():
        table[workload] = {
            str(seed): rep_fn(bl, SCENARIOS[workload](seed), seed, probe)
            .fingerprint for seed in seeds}
    REFERENCE.write_text(json.dumps(table, separators=(",", ":")) + "\n")


def main(argv):
    mode = argv[0]
    if mode == "setup":
        print(json.dumps({"setup_s": setup(argv[1], int(argv[2]))}))
        return
    if mode == "reference":
        reference([int(a) for a in argv[1:]])
        return
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    if trace:
        reps, metrics = traced(workload, seed)
    else:
        reps, metrics = measure(workload, seed, seconds)
    stored = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    diff = None
    if stored is not None:
        import checks
        diff = max(checks.max_abs_diff(r.fingerprint, stored) for r in reps)
    print(json.dumps({
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "problems": [p for r in reps for p in r.problems][:20],
        "ref_max_abs_diff": diff,
        "info": reps[-1].info,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
