"""Output checks.  Each returns a list of problems; empty means correct."""

import hashlib
import json
import math

import numpy as np

MASS_TOL = 1e-12
ARRIVAL_TOL = 1e-9

# headers pinned by the package's own CLI and writer tests
CSV_HEADERS = {
    "density.csv": "t,edge_id,cell_index,rho",
    "buffers.csv": "t,node_id,r",
    "trajectory.csv": "t,edge_id,x_on_edge,cumulative_distance,status",
}
JSON_FILES = ("route.json", "manifest.json")


def check_log(log):
    """Per-step mass balance, 0 <= r <= r_max and rho in [0, 1], read from
    the SimLog's public arrays."""
    net = log.network
    problems = []
    mass = sum(e.h * log.rho[eid].sum(axis=1) for eid, e in net.edges.items())
    mass = mass + sum(log.buffers[nid] for nid in net.nodes)
    inflow = sum(log.node_inflow[n.id] for n in net.sources())
    outflow = sum(log.node_outflow[n.id] for n in net.sinks())
    defect = float(np.abs(np.diff(mass) - log.tau * (inflow - outflow)).max())
    if not defect <= MASS_TOL:
        problems.append(f"mass balance defect {defect:.3e}")
    for nid, node in net.nodes.items():
        r = log.buffers[nid]
        if not (r.min() >= 0.0 and r.max() <= node.r_max):
            problems.append(f"buffer {nid} outside [0, {node.r_max}]")
    for eid, hist in log.rho.items():
        if not (hist.min() >= 0.0 and hist.max() <= 1.0):
            problems.append(f"density on {eid} outside [0, 1]")
    return problems


def full_buffers(log):
    """Number of bounded buffers that reached r_max at some step."""
    return sum(1 for nid, node in log.network.nodes.items()
               if math.isfinite(node.r_max)
               and log.buffers[nid].max() >= node.r_max)


def log_digest(log):
    """Hash of every recorded array: equal digests mean bitwise-equal runs."""
    h = hashlib.sha256()
    for table in (log.rho, log.buffers, log.q_in, log.q_out,
                  log.node_inflow, log.node_outflow):
        for key in sorted(table):
            h.update(key.encode())
            h.update(np.ascontiguousarray(table[key]).tobytes())
    return h.hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint(log):
    """Edge masses and buffer loads half-way and at the end, for the drift
    from the stored reference outputs."""
    net = log.network
    steps = (log.steps // 2, log.steps)
    values = []
    for n in steps:
        values += [e.h * float(log.rho[eid][n].sum())
                   for eid, e in net.edges.items()]
        values += [float(log.buffers[nid][n]) for nid in net.nodes]
    return values


def max_abs_diff(values, reference):
    if len(values) != len(reference):
        return math.inf
    return max((abs(a - b) for a, b in zip(values, reference)), default=0.0)


def check_cli_outputs(out, code, log, stride):
    """Exit code 0, all five files, pinned headers, one density row per
    recorded cell and instant."""
    if code != 0:
        return [f"cli exit code {code}"]
    problems = []
    for name, header in CSV_HEADERS.items():
        path = out / name
        if not path.exists():
            problems.append(f"missing {name}")
            continue
        with open(path) as fh:
            if fh.readline().rstrip("\n") != header:
                problems.append(f"{name}: wrong header")
    for name in JSON_FILES:
        try:
            json.loads((out / name).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    if not problems:
        rows = len(range(0, log.steps + 1, stride))
        cells = sum(e.cells for e in log.network.edges.values())
        with open(out / "density.csv", "rb") as fh:
            lines = sum(chunk.count(b"\n")
                        for chunk in iter(lambda: fh.read(1 << 20), b""))
        if lines != 1 + rows * cells:
            problems.append(f"density.csv has {lines} lines, "
                            f"expected {1 + rows * cells}")
    return problems


def inversions(results, tracker):
    """(query index, seconds it arrives before the previous departure) for
    shortest and fastest routes tracked with `tracker`."""
    out = []
    for policy in ("shortest", "fastest"):
        series = sorted((q["departure"], i) for i, q in enumerate(results)
                        if q["policy"] == policy and q["tracker"] == tracker
                        and q["arrival"] is not None)
        out += [(cur, results[prev]["arrival"] - results[cur]["arrival"])
                for (_, prev), (_, cur) in zip(series, series[1:])]
    return out


def check_queries(results):
    """Indices of failed queries: the car must arrive, the fastest plan must
    predict the tracked arrival, and with the complex tracker shortest and
    fastest arrivals must not decrease with the departure time (the FIFO
    property the package's criterion 8 checks).  The naive Euler tracker
    is not FIFO by construction, so its inversions are only reported."""
    failed = set()
    for i, q in enumerate(results):
        if q["arrival"] is None:
            failed.add(i)
        elif (q["policy"] == "fastest"
                and not abs(q["predicted"] - q["arrival"]) <= ARRIVAL_TOL):
            failed.add(i)
    failed.update(i for i, ahead in inversions(results, "complex")
                  if ahead > ARRIVAL_TOL)
    return failed
