"""In-memory tracing of the package's layers, installed from outside.

The tracer replaces module-level bindings (the name a caller looks up at
call time) with wrappers and puts the originals back in `restore`.  Layer
boundaries (parse, build, simulate, each query, each writer) become spans
with a parent; hot inner functions (junction kernels, `godunov_flux`, the
tracker's step functions, `node_waiting`) only add to a call counter and
an accumulated time, which keeps the tracing overhead bounded.  A binding
that no longer exists is skipped, so its metrics read zero instead of the
benchmark failing when the package is refactored.
"""

import os
import time
from collections import Counter, defaultdict

KERNELS = ("source_fluxes", "sink_flux", "one_to_one_fluxes",
           "one_to_two_fluxes", "two_to_one_fluxes")
WRITERS = ("write_density_csv", "write_buffer_csv", "write_trajectory_csv",
           "write_route_summary", "write_manifest")


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent id, name, start, end]
        self._open = []          # ids of the spans currently running
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.cells = 0           # interfaces passed to godunov_flux
        self.density_bytes = 0
        self._saved = []

    # -- installation ------------------------------------------------------

    def patch_span(self, owner, attr, name):
        """Record a span around every call of `owner.attr`."""
        self._patch(owner, attr, self._span(name))

    def call_in_span(self, name, fn, *args):
        """Call `fn(*args)` inside a span; the root of a traced pass."""
        return self._span(name)(fn)(*args)

    def _patch(self, owner, attr, wrap):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def install(self):
        from bufferlane import (cli, junctions, network, routing, run,
                                scenario, solver, tracker)

        span, timed, counted = self._span, self._timed, self._counted
        for owner in (scenario, cli):
            self._patch(owner, "parse_scenario", span("scenario.parse"))
        self._patch(scenario, "build_network", span("scenario.build"))
        self._patch(scenario, "build_initial", span("scenario.build"))
        self._patch(network.RoadNetwork, "validate", span("network.validate"))
        for owner in (solver, run):
            self._patch(owner, "simulate", span("solver.simulate"))
        self._patch(solver, "advance_step", timed("solver.advance_step"))
        self._patch(solver, "project_cells", timed("solver.project_cells"))
        self._patch(solver, "godunov_flux", self._godunov)
        for name in KERNELS:
            self._patch(junctions, name, timed("junctions.kernel"))
        self._patch(junctions, "buffer_step", timed("junctions.buffer_step"))
        for name in ("demand", "supply", "flux"):
            self._patch(junctions, name, counted("fluxes.scalar"))
        for name in WRITERS:
            self._patch(cli, name, span("scenario.write_density"
                                        if name == "write_density_csv"
                                        else "scenario.write_other"))
        self._patch(cli, "write_density_csv", self._measure_density)
        self._patch(cli, "execute", span("run.execute"))
        self._patch(cli, "main", span("cli.main"))
        self._patch(run, "plan_route",
                    span(lambda a, k: f"routing.plan.{a[1].value}"))
        self._patch(routing, "fastest_path",
                    span("routing.fastest", steps="routing.fastest.car_steps"))
        self._patch(routing, "online_reroute", timed("routing.online_reroute"))
        self._patch(routing, "dijkstra", counted("routing.dijkstra"))

        def track_name(args, kwargs):
            kind = kwargs.get("kind", args[5] if len(args) > 5
                              else tracker.TrackerKind.COMPLEX)
            return "tracker.track." + tracker.TrackerKind(kind).value

        for owner in (tracker, run):
            self._patch(owner, "track_car",
                        span(track_name, steps="tracker.track.car_steps"))
        for name in ("naive_step", "complex_step"):
            self._patch(tracker, name, counted("tracker.step"))
        for owner in (tracker, routing):
            self._patch(owner, "node_waiting", timed("tracker.node_waiting"))

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, steps=None):
        """Span per call; `steps` names a counter of car steps made inside."""
        tracer = self

        def wrap(fn):
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                sid = len(tracer.spans)
                record = [sid, tracer._open[-1] if tracer._open else None,
                          label, time.perf_counter(), None]
                tracer.spans.append(record)
                tracer._open.append(sid)
                before = tracer.calls["tracker.step"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[4] = time.perf_counter()
                    tracer._open.pop()
                    if steps:
                        tracer.calls[steps] += tracer.calls["tracker.step"] - before
            return traced
        return wrap

    def _timed(self, name):
        seconds, calls = self.seconds, self.calls

        def wrap(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += time.perf_counter() - t0
                    calls[name] += 1
            return timed
        return wrap

    def _counted(self, name):
        calls = self.calls

        def wrap(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _godunov(self, fn):
        tracer = self
        inner = self._timed("fluxes.godunov")(fn)

        def godunov(u, v):
            tracer.cells += len(u)
            return inner(u, v)
        return godunov

    def _measure_density(self, fn):
        tracer = self

        def write_density(log, path):
            result = fn(log, path)
            tracer.density_bytes += os.path.getsize(path)
            return result
        return write_density

    # -- results -----------------------------------------------------------

    def span_seconds(self, prefix):
        """Summed durations of the spans whose name starts with `prefix`."""
        return sum(end - start for _, _, name, start, end in self.spans
                   if name.startswith(prefix))

    def span_durations(self, name):
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def dump(self, path):
        import json
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(("id", "parent", "name", "start",
                                           "end"), s)) for s in self.spans],
                       "seconds": dict(self.seconds),
                       "calls": dict(self.calls)}, fh)
