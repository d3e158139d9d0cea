"""In-memory spans around calls into pabi, for the traced benchmark run.

A span records its name, start, end, parent and the id of the operation
it belongs to.  Spans stay in memory and are written out once, when the
run ends.  Functions called thousands of times per operation (stream
construction, objective evaluations) get one aggregate span per parent
instead of one span per call: it carries the call count and the summed
duration, which keeps both the memory and the overhead of tracing small.

Wrapping happens only in the traced run: `install` replaces each listed
public function in every loaded ``pabi`` module that holds it, so calls
from inside the package (validate_mixing_bound -> run_chains, the CLI ->
solve_closed_form, ...) are seen too.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from contextlib import contextmanager

# (module, attribute) -> span name; "aggregate" marks per-call hot paths.
WRAPPED = {
    ("pabi.shifts", "solve_closed_form"): ("shifts.solve_closed_form", "span"),
    ("pabi.shifts", "stationarity_residuals"): ("shifts.stationarity_residuals", "span"),
    ("pabi.shifts", "numeric_oracle"): ("shifts.numeric_oracle", "span"),
    ("pabi.shifts", "objective_E"): ("shifts.objective_E", "aggregate"),
    ("pabi.bounds", "renyi_bound_general"): ("bounds.renyi_bound_general", "span"),
    ("pabi.bounds", "renyi_bound_dissipative"): ("bounds.renyi_bound_dissipative", "span"),
    ("pabi.bounds", "renyi_bound_sqrt_shift"): ("bounds.renyi_bound_sqrt_shift", "span"),
    ("pabi.bounds", "dissipative_shift_series"): ("bounds.dissipative_series", "span"),
    ("pabi.privacy", "epsilon_nsgd"): ("privacy.epsilon_nsgd", "span"),
    ("pabi.privacy", "alpha_star"): ("privacy.alpha_star", "span"),
    ("pabi.privacy", "privacy_curve_sweep"): ("privacy.sweep", "span"),
    ("pabi.simulate", "rng_stream"): ("simulate.rng_stream", "aggregate"),
    ("pabi.simulate", "run_chains"): ("simulate.run_chains", "span"),
    ("pabi.simulate", "run_noisy_sgd"): ("simulate.run_noisy_sgd", "span"),
    ("pabi.simulate", "empirical_tv"): ("simulate.empirical_tv", "span"),
    ("pabi.simulate", "validate_mixing_bound"): ("simulate.validate_mixing_bound", "span"),
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # finished spans, dicts
        self.counts = {}  # name -> integer count
        self._stack = []  # open spans
        self._aggregates = {}  # (parent id, name) -> aggregate span dict
        self._next_id = 0
        self._op = None
        self.warning_registry = {}  # once-per-location, as the default filter

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its children share its id."""
        self._op = self._new_id()
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": self._new_id(),
            "op": self._op,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def add_aggregate(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1]["id"] if self._stack else None
        key = (parent, name)
        agg = self._aggregates.get(key)
        if agg is None:
            agg = self._aggregates[key] = {
                "id": self._new_id(),
                "op": self._op,
                "name": name,
                "parent": parent,
                "start": start,
                "duration": 0.0,
                "calls": 0,
            }
        agg["duration"] += end - start
        agg["calls"] += 1

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def finished(self) -> list:
        """All spans, aggregates included, each with a `duration`."""
        out = []
        for s in self.spans:
            out.append(dict(s, duration=s["end"] - s["start"]))
        for a in self._aggregates.values():
            out.append(dict(a, end=a["start"] + a["duration"]))
        return out


def self_times(spans: list) -> dict:
    """Name -> summed self time: duration minus the children's durations.

    Children of one span never overlap (the benchmark is single-threaded
    and PABI_THREADS=1), so subtracting their summed durations is the
    same as subtracting the part of the interval they cover.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["duration"]
    out = {}
    for s in spans:
        own = s["duration"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def _wrap(tracer: Tracer, fn, name: str, mode: str):
    if mode == "aggregate":
        @functools.wraps(fn)
        def aggregated(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_aggregate(name, start, time.perf_counter())

        return aggregated

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with tracer.span(name):
            if name == "shifts.solve_closed_form":
                return _counting_warnings(tracer, fn, args, kwargs)
            if name == "simulate.run_chains":
                _count_chain_arrays(tracer, args[1])
            elif name == "simulate.run_noisy_sgd":
                _count_sgd_arrays(tracer, args[2], len(args[0]))
            return fn(*args, **kwargs)

    return spanned


def _counting_warnings(tracer: Tracer, fn, args, kwargs):
    # Count the RuntimeWarnings (float overflow in the backward recursion)
    # and then re-issue them once per location, so the traced run prints
    # what the plain run prints instead of silencing them.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    tracer.count("shifts.runtime_warnings", len(runtime))
    for w in caught:
        warnings.warn_explicit(
            w.message, w.category, w.filename, w.lineno, registry=tracer.warning_registry
        )
    return result


def _count_chain_arrays(tracer: Tracer, config) -> None:
    # Computed from array sizes, not measured: one noise stream per chain
    # when sigma > 0, T*dim float64 normals each.
    if config.sigma > 0:
        normals = config.n_chains * config.T * config.dim
        tracer.count("simulate.streams_built", config.n_chains)
        tracer.count("simulate.normals_drawn", normals)
        tracer.count("simulate.noise_bytes_computed", 8 * normals)


def _count_sgd_arrays(tracer: Tracer, config, n_data: int) -> None:
    # Computed from array sizes: a mask stream per chain (T*n_data uniforms
    # kept as a bool mask) plus the noise stream when sigma > 0.
    tracer.count("simulate.streams_built", config.n_chains)
    tracer.count("simulate.mask_bytes_computed", config.n_chains * config.T * n_data)
    _count_chain_arrays(tracer, config)


def install(tracer: Tracer) -> list:
    """Wrap every function in WRAPPED wherever a pabi module holds it.

    Returns the undo list for `uninstall`.
    """
    undo = []
    modules = [m for n, m in sys.modules.items() if n == "pabi" or n.startswith("pabi.")]
    for (module_name, attr), (name, mode) in WRAPPED.items():
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, original, name, mode)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
