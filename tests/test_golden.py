"""Golden outputs: every table a run records, pinned bitwise by hash.

The file `golden.json` beside this one holds, per run, the sha256 of each
SimLog table and of the pooled-mode event list, or the class of the error
the run raises.  Per car query (a bundled scenario with a `[car]` section
under one policy and one tracker, run through `run.execute`) it holds the
sha256 of the car log, the planned route and the predicted arrival.  Per
`bufferlane run` of such a scenario, at log stride 1 and 7, it holds the
exit code and the sha256 of every output file but `manifest.json`, so the
result writers are pinned byte for byte.  A change to the solver, the
tracker or the writers that keeps the arithmetic and the text leaves every
hash equal.  Re-record all entries (only for an intended change of the
numbers or of the files) with
`PYTHONPATH=src:tests python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bufferlane import bundled_scenario, run, scenario as scn
from bufferlane.cli import main
from bufferlane.errors import BufferlaneError
from bufferlane.junctions import DemandMode
from bufferlane.routing import RoutePolicy
from bufferlane.solver import simulate
from conftest import TABLES, every_row_network, random_scenario

GOLDEN = Path(__file__).with_name("golden.json")
BUNDLED = ("linear", "merge_pooled", "rarefaction_buffer",
           "rarefaction_single", "small_network")
SEEDS = (0, 1, 2, 3, 4)
# bundled scenarios at their own h, T and demand mode; random networks and
# the network with every junction row kind in both modes (pooled runs may
# leave a merge buffer negative, as events)
CASES = ([f"bundled-{name}" for name in BUNDLED]
         + [f"random-{seed}-{mode.value}" for seed in SEEDS
            for mode in DemandMode]
         + [f"rows-{mode.value}" for mode in DemandMode])
# every bundled scenario with a [car] section, per policy and tracker
CARS = ("linear", "rarefaction_buffer", "rarefaction_single",
        "small_network")
CAR_CASES = [f"car-{name}-{policy.value}-{kind}" for name in CARS
             for policy in RoutePolicy for kind in ("naive", "complex")]
# the same scenarios through `bufferlane run`, per log stride
CLI_FILES = ("density.csv", "buffers.csv", "trajectory.csv", "route.json")
CLI_CASES = [f"cli-{name}-{stride}" for name in CARS for stride in (1, 7)]


def _simulate(case):
    kind, name, *rest = case.split("-")
    if kind == "bundled":
        doc = scn.parse_scenario(bundled_scenario(name))
        mode = DemandMode(doc.run.get("demand_mode", "standard"))
        return simulate(scn.build_network(doc), scn.build_initial(doc),
                        float(doc.run["T"]), mode=mode)
    if kind == "rows":
        net, init = every_row_network()
        return simulate(net, init, 4.0, mode=DemandMode(name))
    net, init = random_scenario(np.random.default_rng(int(name)))
    return simulate(net, init, 4.0, mode=DemandMode(rest[0]))


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def record(case):
    """Hashes of every table and of the event list, or the error class."""
    try:
        log = _simulate(case)
    except BufferlaneError as exc:
        return {"error": type(exc).__name__}
    out = {name: _sha(c for key in sorted(getattr(log, name))
                      for c in (key.encode(), np.ascontiguousarray(
                          getattr(log, name)[key]).tobytes()))
           for name in TABLES}
    events = [[ev.node, ev.time, ev.load] for ev in log.events]
    out["events"] = [len(events), _sha([json.dumps(events).encode()])]
    return out


def record_car(case):
    """Hash of one car query's log, planned route and predicted arrival."""
    _, name, policy, kind = case.split("-")
    doc = scn.parse_scenario(bundled_scenario(name))
    plan_route, planned = run.plan_route, []

    def planning(*args, **kwargs):
        planned.append(plan_route(*args, **kwargs))
        return planned[-1]

    run.plan_route = planning
    try:
        result = run.execute(replace(
            doc, car={**doc.car, "policy": policy, "tracker": kind}))
    except BufferlaneError as exc:
        return {"error": type(exc).__name__}
    finally:
        run.plan_route = plan_route
    car = result.car_log
    out = [car.samples, car.grid_t, car.grid_pos, car.travel_times,
           car.waiting_times, car.path, car.arrival_time, car.status.value,
           planned, car.path, result.predicted_arrival]
    return {"car": _sha([json.dumps(out).encode()])}


def record_cli(case, work):
    """Exit code and output file hashes of one `bufferlane run` in `work`."""
    _, name, stride = case.split("-")
    path = Path(work) / f"{name}.scn"
    path.write_text(bundled_scenario(name))
    out = Path(work) / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--out", str(out),
                     "--log-stride", stride])
    return {"code": code,
            **{f: _sha([(out / f).read_bytes()]) for f in CLI_FILES}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, golden):
    assert record(case) == golden[case]


@pytest.mark.parametrize("case", CAR_CASES)
def test_car_queries_match_golden(case, golden):
    assert record_car(case) == golden[case]


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_outputs_match_golden(case, golden, tmp_path):
    assert record_cli(case, tmp_path) == golden[case]


def test_density_history_layout():
    # one C-contiguous (steps+1, cells) block per road: readers such as the
    # CSV writer and byte hashing then never copy a history
    log = _simulate("random-4-standard")
    for eid, e in log.network.edges.items():
        hist = log.rho[eid]
        assert hist.shape == (log.steps + 1, e.cells)
        assert hist.flags["C_CONTIGUOUS"]


if __name__ == "__main__":
    entries = {case: record(case) for case in CASES}
    entries.update({case: record_car(case) for case in CAR_CASES})
    for case in CLI_CASES:
        with tempfile.TemporaryDirectory() as work:
            entries[case] = record_cli(case, work)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
