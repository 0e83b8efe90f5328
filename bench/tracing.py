"""Outside-in tracing of the pcmopt layers.

The tracer replaces public pcmopt names, in the module where they are looked
up at call time, with wrappers that record one span per call: its name, start,
end, parent span and the round it belongs to. Nothing in ``src/`` changes;
``uninstall`` puts every original back. Spans stay in memory until the
benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time

import pcmopt.metrics
import pcmopt.network
import pcmopt.optimize
import pcmopt.solver
import pcmopt.studies
import pcmopt.surrogate

#: (owner, attribute, span name). Each entry is a place where a layer is
#: entered: a module global that another pcmopt module (or the benchmark)
#: calls through, or a method on a class.
WRAP_POINTS = (
    (pcmopt.solver, "build_mesh", "geometry.build_mesh"),
    (pcmopt.solver, "assemble_network", "network.assemble_network"),
    (pcmopt.network.NetworkModel, "capacitance", "network.capacitance"),
    (pcmopt.network.NetworkModel, "conductance_matrix",
     "network.conductance_matrix"),
    (pcmopt.solver, "simulate", "solver.simulate"),
    (pcmopt.metrics, "simulate", "solver.simulate"),
    (pcmopt.metrics, "compute_metrics", "metrics.compute_metrics"),
    (pcmopt.studies.SimulatorBackend, "evaluate", "studies.evaluate"),
    (pcmopt.studies.SurrogateBackend, "evaluate", "studies.evaluate"),
    # SurrogateBackend.verify delegates to its SimulatorBackend, so wrapping
    # the latter alone counts each verification once.
    (pcmopt.studies.SimulatorBackend, "verify", "studies.verify"),
    (pcmopt.optimize, "ga_minimize", "optimize.ga_minimize"),
    (pcmopt.optimize, "repeat_with_seeds", "optimize.repeat_with_seeds"),
    (pcmopt.studies, "train_lm", "surrogate.train_lm"),
    (pcmopt.surrogate, "train_lm", "surrogate.train_lm"),
    (pcmopt.surrogate, "r_squared", "surrogate.r_squared"),
    (pcmopt.studies, "predict", "surrogate.predict"),
    (pcmopt.surrogate, "predict", "surrogate.predict"),
)

# Span record fields, in the order they are stored.
FIELDS = ("id", "parent", "round", "name", "start", "end", "attrs")


class Tracer:
    """Collects spans from the wrapped layer entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [span_id, parent, tracer.round, name, 0.0, 0.0, None]
            tracer.spans.append(record)
            tracer._stack.append(span_id)
            record[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                tracer._stack.pop()
            if name == "solver.simulate":
                record[6] = {"steps": int(out.t.size),
                             "cycles": int(out.n_cycles),
                             "energy_residual": float(out.energy_residual)}
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, name in WRAP_POINTS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def round_spans(self, round_id: int) -> list[list]:
        return [s for s in self.spans if s[2] == round_id]

    def write(self, path, run_id: str, header: dict) -> None:
        """Write the header, then every span, as one JSON object per line."""
        with open(path, "w") as f:
            f.write(json.dumps(header, separators=(",", ":")) + "\n")
            for s in self.spans:
                rec = dict(zip(FIELDS, s))
                rec["run"] = run_id
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def simulate_builds(spans: list[list]) -> list[int]:
    """Matrix builds (conductance_matrix calls) inside each simulate span,
    in call order."""
    by_id = {s[0]: s for s in spans}
    builds = {s[0]: 0 for s in spans if s[3] == "solver.simulate"}
    for s in spans:
        if s[3] != "network.conductance_matrix":
            continue
        p = s[1]
        while p is not None and by_id[p][3] != "solver.simulate":
            p = by_id[p][1]
        if p is not None:
            builds[p] += 1
    return [builds[k] for k in sorted(builds)]


def layer_metrics(spans: list[list], duration=None) -> dict[str, float]:
    """Per-layer calls, seconds and self seconds for one round's spans.
    ``duration(start, end)`` converts a span's interval to seconds; by
    default its raw length."""
    if duration is None:
        def duration(a, b):
            return b - a
    length = {s[0]: duration(s[4], s[5]) for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + length[s[0]]

    def total(names, self_time=False):
        calls, secs = 0, 0.0
        for s in spans:
            if s[3] in names:
                calls += 1
                secs += length[s[0]]
                if self_time:
                    secs -= child_time.get(s[0], 0.0)
        return calls, secs

    out = {}
    for key, names in (
            ("geometry.build_mesh", {"geometry.build_mesh"}),
            ("network.assemble_network", {"network.assemble_network"}),
            ("metrics.compute_metrics", {"metrics.compute_metrics"}),
            ("studies.evaluate", {"studies.evaluate"}),
            ("studies.verify", {"studies.verify"}),
            ("surrogate.train_lm", {"surrogate.train_lm"}),
            ("surrogate.r_squared", {"surrogate.r_squared"}),
            ("surrogate.predict", {"surrogate.predict"})):
        out[key + ".calls"], out[key + ".s"] = total(names)

    builds, _ = total({"network.conductance_matrix"})
    _, build_s = total({"network.conductance_matrix", "network.capacitance"})
    out["network.matrix_build.calls"] = builds
    out["network.matrix_build.s"] = build_s

    sims = [s for s in spans if s[3] == "solver.simulate"]
    out["solver.simulate.calls"], out["solver.simulate.s"] = total(
        {"solver.simulate"})
    _, out["solver.simulate.self_s"] = total({"solver.simulate"}, True)
    steps = sum(s[6]["steps"] for s in sims)
    out["solver.steps"] = steps
    out["solver.cycles"] = sum(s[6]["cycles"] for s in sims)
    out["solver.rebuild_ratio"] = builds / steps if steps else 0.0
    out["solver.self_us_per_step"] = (
        1e6 * out["solver.simulate.self_s"] / steps if steps else 0.0)
    out["solver.energy_residual.max"] = max(
        (s[6]["energy_residual"] for s in sims), default=0.0)

    opt = {"optimize.ga_minimize", "optimize.repeat_with_seeds"}
    # repeat_with_seeds calls the GA through a private table, so a GA span
    # never nests in another optimize span: totals do not double count.
    out["optimize.calls"], out["optimize.s"] = total(opt)
    _, out["optimize.self_s"] = total(opt, True)
    _, out["studies.evaluate.self_s"] = total({"studies.evaluate"}, True)
    return out
