"""Command line entry point.

`bufferlane run scenario.scn [--out DIR] [flags]` simulates a scenario and
writes the CSV/JSON result files; `bufferlane verify` checks the built-in
analytic trajectories and prints the truncation error per scenario.

Exit codes: 0 ok, 1 bad scenario value or setting or an output path that
cannot be written, 2 scenario parse error (a file that cannot be read or is
not UTF-8 included), 3 time horizon exceeded, 4 unreachable destination.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bundled_scenario, oracle
from .errors import (
    BufferlaneError,
    HorizonExceeded,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    UnreachableDestination,
)
from .junctions import DemandMode
from .routing import RoutePolicy
from .run import execute
from .scenario import (
    parse_scenario,
    write_buffer_csv,
    write_density_csv,
    write_manifest,
    write_route_summary,
    write_trajectory_csv,
)
from .tracker import CarStatus, TrackerKind

def _oracle_error(result):
    """The car's truncation error against the oracle its run names, or
    None without a car or an oracle."""
    name = result.doc.car.get("oracle")
    if name is None or result.car_log is None:
        return None
    exact, t_end = oracle.ORACLES[name]
    return oracle.truncation_error(result.car_log.grid_t,
                                   result.car_log.grid_pos, exact, t_end)


def _cmd_run(args):
    if args.log_stride < 1:
        print(f"error: --log-stride {args.log_stride} must be >= 1",
              file=sys.stderr)
        return 1
    try:
        raw = Path(args.scenario).read_bytes()
        doc = parse_scenario(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:  # the line of the bad byte
        line = raw.count(b"\n", 0, exc.start) + 1
        print(f"error: line {line}: not UTF-8: {exc.reason}", file=sys.stderr)
        return 2
    except (ScenarioSyntaxError, ScenarioSemanticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = _with_settings(doc, {"demand_mode": args.demand_mode, "h": args.h},
                         {"tracker": args.tracker, "policy": args.policy,
                          "w_rho": args.wrho, "w_r": args.wr})
    try:
        result = execute(doc)
    except BufferlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {HorizonExceeded: 3, UnreachableDestination: 4}.get(type(exc), 1)

    out = Path(args.out or (Path(args.scenario).stem + "_out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        log, car, car_log = result.log, result.doc.car, result.car_log
        strided = _StridedView(log, args.log_stride)
        write_density_csv(strided, out / "density.csv")
        write_buffer_csv(strided, out / "buffers.csv")
        extra = {}
        code = 0
        if car_log is not None:
            write_trajectory_csv(car_log, out / "trajectory.csv")
            write_route_summary(out / "route.json", car["policy"],
                                car["start_time"], car_log)
            if car_log.status is CarStatus.ARRIVED:
                print(f"policy={car['policy']} path={'-'.join(car_log.path)} "
                      f"arrival={car_log.arrival_time:.6g} "
                      f"waiting={car_log.total_waiting:.6g}")
            else:
                print(f"car did not arrive: {car_log.status.value}")
                code = 3
            err = _oracle_error(result)
            if err is not None:
                extra["truncation_error"] = err
                print(f"trajectory error vs built-in oracle: {err:.3e}")
        for ev in log.events:
            print(f"negativity event: node {ev.node} t={ev.time:.6g} "
                  f"r={ev.load:.3e}")
        write_manifest(out / "manifest.json", result.doc, log, extra)
    except OSError as exc:  # the output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def _with_settings(doc, run, car):
    """`doc` with the given [run] and [car] settings in place of the file's;
    a setting given as None keeps the file's entry."""
    def merged(cfg, settings):
        return {**cfg, **{k: v for k, v in settings.items() if v is not None}}
    return replace(doc, run=merged(doc.run, run), car=merged(doc.car, car))


class _StridedView:
    """Read-only SimLog facade that keeps every `stride`-th step for CSV
    output (all of them at stride 1, as views of the log's arrays)."""

    def __init__(self, log, stride):
        self.network = log.network
        self.t = log.t[::stride]
        self.rho = {eid: arr[::stride] for eid, arr in log.rho.items()}
        self.buffers = {nid: arr[::stride] for nid, arr in log.buffers.items()}


def _cmd_verify(args):
    failures = 0
    for name in ("linear", "rarefaction_single", "rarefaction_buffer"):
        doc = parse_scenario(bundled_scenario(name))
        for tracker in ("naive", "complex"):
            try:
                result = execute(_with_settings(doc, {"h": args.h},
                                                {"tracker": tracker}))
            except BufferlaneError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            err = _oracle_error(result)
            arrived = result.car_log.status is CarStatus.ARRIVED
            status = "ok" if arrived else "FAIL"
            failures += 0 if arrived else 1
            print(f"{name:20s} {tracker:8s} eps={err:.3e} [{status}]")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bufferlane", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--h", type=float, default=None, help="target cell width")
    p_run.add_argument("--tracker", choices=[k.value for k in TrackerKind])
    p_run.add_argument("--policy", choices=[k.value for k in RoutePolicy])
    p_run.add_argument("--wrho", type=float, default=None)
    p_run.add_argument("--wr", type=float, default=None)
    p_run.add_argument("--demand-mode", choices=[k.value for k in DemandMode])
    p_run.add_argument("--log-stride", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify",
                              help="check built-in analytic trajectories")
    p_verify.add_argument("--h", type=float, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
