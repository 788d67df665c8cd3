"""Command line entry point.

`bufferlane run scenario.scn [--out DIR] [flags]` simulates a scenario and
writes the CSV/JSON result files; `bufferlane verify` checks the built-in
analytic trajectories and prints the truncation error per scenario.

Exit codes: 0 ok, 1 bad scenario value or setting, 2 scenario parse
error, 3 time horizon exceeded, 4 unreachable destination.
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
from .run import execute
from .scenario import (
    parse_scenario,
    write_buffer_csv,
    write_density_csv,
    write_manifest,
    write_route_summary,
    write_trajectory_csv,
)
from .tracker import CarStatus

_ORACLES = {
    "linear": (oracle.linear_network_exact, oracle.LINEAR_T_END),
    "rarefaction": (oracle.rarefaction_exact, oracle.RAREFACTION_T_END),
}


def _oracle_error(doc, result):
    name = doc.car.get("oracle")
    if name not in _ORACLES or result.car_log is None:
        return None
    exact, t_end = _ORACLES[name]
    return oracle.truncation_error(result.car_log.grid_t,
                                   result.car_log.grid_pos, exact, t_end)


def _cmd_run(args):
    if args.log_stride < 1:
        print(f"error: --log-stride {args.log_stride} must be >= 1",
              file=sys.stderr)
        return 1
    try:
        doc = parse_scenario(Path(args.scenario).read_text())
    except (ScenarioSyntaxError, ScenarioSemanticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = _with_settings(doc, {"demand_mode": args.demand_mode, "h": args.h},
                         {"tracker": args.tracker, "policy": args.policy,
                          "w_rho": args.wrho, "w_r": args.wr})
    try:
        result = execute(doc)
    except HorizonExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnreachableDestination as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BufferlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out or (Path(args.scenario).stem + "_out"))
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
        err = _oracle_error(doc, result)
        if err is not None:
            extra["truncation_error"] = err
            print(f"trajectory error vs built-in oracle: {err:.3e}")
    for ev in log.events:
        print(f"negativity event: node {ev.node} t={ev.time:.6g} r={ev.load:.3e}")
    write_manifest(out / "manifest.json", result.doc, log, extra)
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
            result = execute(_with_settings(doc, {"h": args.h},
                                            {"tracker": tracker}))
            err = _oracle_error(doc, result)
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
    p_run.add_argument("--tracker", choices=["naive", "complex"], default=None)
    p_run.add_argument("--policy",
                       choices=["shortest", "fastest", "aggregated", "online"],
                       default=None)
    p_run.add_argument("--wrho", type=float, default=None)
    p_run.add_argument("--wr", type=float, default=None)
    p_run.add_argument("--demand-mode", choices=["standard", "pooled"],
                       default=None)
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
