"""Span tracing of the package's public functions, from outside the package.

Each traced function is replaced, by setattr on its defining module, with a
wrapper that records a span: name, start, end, parent span and invocation
id.  The package's modules call each other through module attributes and
module globals (``circuits`` calls ``spinsys.evolve_arm``, ``evolve_arm``
calls the global ``total_unitary``), so the wrappers see every internal call
without any change to the package.  The re-exports in ``geomphase/__init__``
are left alone.

Spans stay in memory while the workload runs and are written out at the end.
A span's self time is its duration minus the time covered by its direct
child spans; calls are single-threaded, so children never overlap.
"""

import inspect
import json
import os
import time
from statistics import median

import numpy as np

# (module, function) pairs that are traced; the span name is "module.function"
SPANS = (
    ("cli", "parse_args"),
    ("cli", "run"),
    ("circuits", "trace_circuit"),
    ("circuits", "sweep_plane"),
    ("circuits", "sample_circuit"),
    ("circuits", "max_oracle_deviation"),
    ("spinsys", "evolve_arm"),
    ("spinsys", "total_unitary"),
    ("spinsys", "initial_state"),
    ("phase", "pancharatnam"),
    ("phase", "unwrap_append"),
    ("phase", "winding"),
    ("geometry", "solid_angle"),
    ("geometry", "oracle_phase_trace"),
    ("geometry", "monopole_transport_trace"),
    ("geometry", "unwrap_solid_angles"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANS)

# derived per-layer metrics: name -> unit
DERIVED = {
    "spinsys.total_unitary.steps": "count",
    "spinsys.total_unitary.steps_per_s": "1/s",
    "circuits.trace_circuit.refined_points": "count",
    "circuits.sweep_plane.defined_frac": "fraction",
    "cli.run.out_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units.update(DERIVED)
    return units


class Tracer:
    """Records spans of wrapped functions; wrap() swaps a wrapper into a
    module and uninstall() puts every original back."""

    def __init__(self, error_type=Exception, clock=time.perf_counter):
        self.error_type = error_type
        self.clock = clock
        self.spans = []  # [name, start, end, parent, invocation, error, extra]
        self.invocation = None
        self._stack = []
        self._originals = []

    def wrap(self, module, name, span_name, extra=None):
        """Replace module.name with a span-recording wrapper.

        extra(bound_arguments, result) may return a dict of counters to
        attach to the span; it runs only after a successful call.
        """
        fn = getattr(module, name)
        signature = inspect.signature(fn) if extra else None
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            record = [span_name, clock(), None, stack[-1] if stack else None,
                      self.invocation, False, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                record[5] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[6] = extra(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        self._originals.append((module, name, fn))
        setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def dump(self, path, **tags):
        """Write every span as one JSON line, with the given tags."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, invocation, error, extra in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "invocation": invocation, "error": error, "extra": extra,
                    **tags,
                }) + "\n")


def install_geomphase(tracer):
    """Wrap every function in SPANS, with the counters the metrics need."""
    from geomphase import circuits, cli, geometry, phase, spinsys
    from geomphase.errors import GeomphaseError

    tracer.error_type = GeomphaseError
    modules = {"cli": cli, "circuits": circuits, "spinsys": spinsys,
               "phase": phase, "geometry": geometry}

    def steps(args, result):
        return {"steps": args["settings"].n_steps}

    def refined(args, result):
        c = args["circuit"]
        # sample_circuit yields points_per_segment per edge plus the closure
        base = c.points_per_segment * len(c.vertices) + 1
        return {"refined": len(result.samples) - base}

    def defined(args, result):
        alphas = result.alpha_wrapped
        return {"defined": int(np.count_nonzero(~np.isnan(alphas))), "cells": int(alphas.size)}

    def out_bytes(args, result):
        path = args["config"].out
        return {"out_bytes": os.path.getsize(path) if os.path.exists(path) else 0}

    extras = {
        "spinsys.total_unitary": steps,
        "circuits.trace_circuit": refined,
        "circuits.sweep_plane": defined,
        "cli.run": out_bytes,
    }
    for mod, fn in SPANS:
        span_name = f"{mod}.{fn}"
        tracer.wrap(modules[mod], fn, span_name, extras.get(span_name))


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    spans are dicts with start, end and parent (an index into spans or
    None).  Returns a list aligned with spans.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def pass_summary(spans):
    """Per-span calls, self seconds, errors and counters for one pass."""
    summary = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in SPAN_NAMES}
    counters = {"steps": 0, "refined": 0, "defined": 0, "cells": 0, "out_bytes": 0}
    for span, own in zip(spans, self_times(spans)):
        entry = summary[span["name"]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["errors"] += int(span["error"])
        for key, value in (span["extra"] or {}).items():
            counters[key] += value
    return summary, counters


def per_layer_metrics(passes, untraced_s, traced_s):
    """Per-layer metrics from the spans of one or more traced passes.

    passes is a list of span lists, one per traced pass of the same inputs.
    Counts come from the first pass (every pass must repeat them exactly);
    times are medians over the passes.
    """
    summaries = [pass_summary(spans) for spans in passes]
    first, counters = summaries[0]
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = first[name]["calls"]
        values[f"{name}.self_s"] = median(s[name]["self_s"] for s, _ in summaries)
        values[f"{name}.errors"] = first[name]["errors"]
    unitary_s = values["spinsys.total_unitary.self_s"]
    values["spinsys.total_unitary.steps"] = counters["steps"]
    values["spinsys.total_unitary.steps_per_s"] = (
        counters["steps"] / unitary_s if unitary_s > 0 else 0.0
    )
    values["circuits.trace_circuit.refined_points"] = counters["refined"]
    values["circuits.sweep_plane.defined_frac"] = (
        counters["defined"] / counters["cells"] if counters["cells"] else 0.0
    )
    values["cli.run.out_bytes"] = counters["out_bytes"]
    values["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    repeated = all(
        {n: s[n]["calls"] for n in SPAN_NAMES} == {n: first[n]["calls"] for n in SPAN_NAMES}
        and c == counters
        for s, c in summaries
    )
    return values, repeated
