"""Outside-in span tracing of the slnoise layers.

The wrappers are installed only for a traced repetition.  They replace
the module attributes through which ``slnoise.ensemble`` and
``slnoise.cli`` reach the other layers, and ``slnoise.cli.main`` itself,
so no file of the package changes:
each call records a span (name, start, end, parent, run id) plus a few
counts taken from its arguments and results.  Spans stay in memory and are
written out when the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name); the layer is the span name's prefix
WRAPPED = (
    ("slnoise.ensemble", "build_kernel_table", "kernels.build"),
    ("slnoise.ensemble", "make_filters", "schemes.filters"),
    ("slnoise.ensemble", "sample_white", "noise.white"),
    ("slnoise.ensemble", "synthesize_from_white", "noise.synth"),
    ("slnoise.ensemble", "integrate_batch", "dynamics.rk4"),
    ("slnoise.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("slnoise.ensemble", "scan_lambda", "ensemble.scan_lambda"),
    ("slnoise.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("slnoise.cli", "main", "cli.main"),
)

LAYERS = ("kernels", "schemes", "noise", "dynamics", "ensemble", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans of one repetition; nesting follows the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns (result, span)."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return result, span

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, span = self.call(name, fn, *args, **kwargs)
            _annotate(span, args, result)
            return result
        return traced

    def install(self):
        """Patch the wrapped attributes; returns a function undoing it."""
        saved = []
        for modname, attr, name in WRAPPED:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

        def uninstall():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
        return uninstall

    def to_json(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id, **s.attrs}
            for s in self.spans
        ]


def _annotate(span: Span, args, result):
    """Counts measured at the layer boundary, from arguments and results."""
    if span.name == "kernels.build":
        span.attrs["n_fft"] = int(result.grid.n)
    elif span.name == "dynamics.rk4":
        eta, nu = args[1], args[2]
        states = result[0]
        span.attrs["rows"] = int(states.shape[0])
        span.attrs["steps"] = int(states.shape[1] - 1)
        span.attrs["batch_bytes"] = int(eta.nbytes + nu.nbytes + states.nbytes)
    elif span.name == "ensemble.run_ensemble":
        span.attrs["realizations"] = int(result.n_realizations)


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer figures of one traced repetition.

    ``wall_s`` is the traced wall time of the workload call; the layers'
    self times plus ``trace.residual_s`` add up to it exactly.  The caller
    adds ``trace.overhead_s``, which needs an untraced repetition.
    """
    own = self_times(spans)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        layer_s[s.layer] += own[i]
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    builds = [spans[i] for i in by_name.get("kernels.build", ())]
    rk4 = [spans[i] for i in by_name.get("dynamics.rk4", ())]
    runs = [spans[i] for i in by_name.get("ensemble.run_ensemble", ())]
    realizations = sum(s.attrs["realizations"] for s in runs)
    rows = sum(s.attrs["rows"] for s in rk4)
    row_steps = sum(s.attrs["rows"] * s.attrs["steps"] for s in rk4)
    white_n = calls("noise.white")
    synth_n = calls("noise.synth")
    return {
        "kernels.build_calls": len(builds),
        "kernels.build_s": total("kernels.build"),
        "kernels.n_fft": max((s.attrs["n_fft"] for s in builds), default=0),
        "schemes.filters_calls": calls("schemes.filters"),
        "schemes.filters_s": total("schemes.filters"),
        "noise.white_s": total("noise.white"),
        "noise.white_us_per_realization":
            1e6 * total("noise.white") / max(white_n, 1),
        "noise.synth_s": total("noise.synth"),
        "noise.synth_us_per_realization":
            1e6 * total("noise.synth") / max(synth_n, 1),
        "dynamics.rk4_s": total("dynamics.rk4"),
        "dynamics.rk4_ns_per_realization_step":
            1e9 * total("dynamics.rk4") / max(row_steps, 1),
        "dynamics.rows_per_call": rows / max(len(rk4), 1),
        "ensemble.self_s": layer_s["ensemble"],
        "ensemble.realizations": realizations,
        "ensemble.batch_bytes_computed":
            max((s.attrs["batch_bytes"] for s in rk4), default=0),
        "cli.self_s": layer_s["cli"],
        "trace.wall_s": wall_s,
        "trace.residual_s": wall_s - sum(layer_s.values()),
    }
