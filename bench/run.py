"""Benchmark entry point.

    python3 bench/run.py --workload junction-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs single-process in a fresh child interpreter (so its peak
RSS is its own): with `--trace 0` the child repeats the workload for
`--seconds` seconds and set-up is timed in SETUP_RUNS further children; with
`--trace 1` the child makes one untraced and one traced pass and reports the
per-layer metrics.  Timings are in reference seconds (see speed.py).  The
metric names and units come from BENCHMARK.json.
Every metric is printed with its unit and sample count; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from worker import SCENARIOS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = tuple(SCENARIOS)
SETUP_RUNS = 5
SETUP_TIMEOUT = 20
# a run must end within 180 s; one pass of any workload takes well under 20 s
RUN_TIMEOUT = 150


def child(args, timeout):
    """Run the worker in a fresh interpreter; return its last JSON line."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, spec):
    result = child(["run", workload, str(seed), str(seconds), str(trace)],
                   RUN_TIMEOUT)
    measured = result["metrics"]
    if not trace:
        setups = [child(["setup", workload, str(seed)], SETUP_TIMEOUT)["setup_s"]
                  for _ in range(SETUP_RUNS)]
        measured["setup_s"] = [statistics.median(setups), len(setups)]
    wanted = spec["per_layer" if trace else "end_to_end"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload} seed={seed} trace={trace}")
    for m in wanted:
        value, count = measured[m["name"]]
        print(f"  {m['name']:32s} {value:>16.6g} {m['unit']:15s} n={count}")
    print(f"  {'ops_failed_share':32s} {failed / attempted:>16.6g} "
          f"{'share':15s} n={attempted}")
    diff = result["ref_max_abs_diff"]
    print(f"  {'ref_max_abs_diff':32s} "
          f"{'no reference' if diff is None else format(diff, '>16.6g')}")
    for key, value in result["info"].items():
        print(f"  {key:32s} {value}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bufferlane" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace,
                              spec)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
