"""In-memory span tracing of symode's layers, installed from outside.

A ``Tracer`` wraps the public functions and public methods of each layer
module under the names the callers look up: a function bound into another
module by ``from .x import f`` is replaced there too, and a method is
replaced on its class. Each call records one span (name, start, end,
parent); spans stay in memory until ``write`` saves them. Nothing inside
``src/`` changes, and a traced run must produce the same ``results.json``
bytes as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# Module names of the layers that get spans. ``cli`` is a thin argparse
# front and ``datasets`` a container; neither gets its own metrics.
LAYERS = ("config", "epidemic", "dataio", "losses", "expressions",
          "optimize", "search", "controller", "forecast", "pipeline")

# Private names that are layer boundaries in their own right.
EXTRA_SPANS = {
    "losses.EulerResidualObjective.__init__": ("losses", "EulerResidualObjective", "__init__"),
    "search._finetune_pool": ("search", None, "_finetune_pool"),
}

OBJECTIVE_SPANS = ("losses.EulerResidualObjective.loss_and_grad",
                   "losses.EulerResidualObjective.loss")
FIT_SPAN = "search.score_sequence"
FORWARD_SPAN = "expressions.forward_pass"
# The pipeline's entry points. Their own time, outside every layer call they
# make, is orchestration no layer span accounts for.
ENTRY_SPANS = ("pipeline.run_pipeline", "pipeline.run_synthetic",
               "pipeline.run_real")


def _observe_bfgs(tracer, idx, args, kwargs, result):
    tracer.counters["bfgs.runs"] += 1
    tracer.counters["bfgs.iters"] += result.iterations_used
    tracer.counters["bfgs.converged"] += int(result.converged)


def _observe_fit(tracer, idx, args, kwargs, result):
    sequence = tuple(args[0] if args else kwargs["sequence"])
    # the parent is the search_component call, so this key asks whether the
    # same component search already fitted this sequence in an earlier epoch
    key = (tracer.parents[idx], sequence)
    tracer.counters["search.fits"] += 1
    tracer.counters["search.repeats"] += int(key in tracer.fitted)
    tracer.counters["search.score0"] += int(result.score == 0.0)
    tracer.fitted.add(key)


def _observe_sample(tracer, idx, args, kwargs, result):
    tracer.counters["search.sampled"] += len(result.sequences)


def _observe_component(tracer, idx, args, kwargs, result):
    tracer.counters["search.fit_loss_max"] = max(
        tracer.counters["search.fit_loss_max"], result.best.loss)


def _observe_rollout(tracer, idx, args, kwargs, result):
    tracer.counters["forecast.steps"] += result.states.shape[0] - 1
    tracer.counters["forecast.diverged"] += int(not result.completed)


def _observe_load_csv(tracer, idx, args, kwargs, result):
    tracer.counters["dataio.rows"] += sum(t.shape[0] for t in result.trajectories)


def _observe_write(tracer, idx, args, kwargs, result):
    tracer.counters["pipeline.results_bytes"] += os.path.getsize(result)


OBSERVERS = {
    "optimize.minimize_bfgs": _observe_bfgs,
    "search.score_sequence": _observe_fit,
    "search.search_component": _observe_component,
    "controller.sample_sequences": _observe_sample,
    "forecast.rollout": _observe_rollout,
    "dataio.load_csv": _observe_load_csv,
    "pipeline.write_results": _observe_write,
}


class Tracer:
    """Span recorder for one benchmark operation (one ``run_id``)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = Counter()
        self.fitted = set()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "symode" and not mod_name.startswith("symode."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _wrap_member(self, cls, attr, name):
        member = cls.__dict__[attr]
        if isinstance(member, (classmethod, staticmethod)):
            self._set(cls, attr, type(member)(self.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            self._set(cls, attr, self.wrap(name, member))

    def install(self):
        """Wrap every layer's public functions and methods, plus the private
        boundaries in ``EXTRA_SPANS``."""
        for layer in LAYERS:
            module = importlib.import_module(f"symode.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace_function(obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for member in list(vars(obj)):
                        if not member.startswith("_"):
                            self._wrap_member(obj, member, f"{layer}.{attr}.{member}")
        for name, (layer, cls_name, attr) in EXTRA_SPANS.items():
            module = importlib.import_module(f"symode.{layer}")
            if cls_name is None:
                fn = getattr(module, attr)
                self._replace_function(fn, self.wrap(name, fn))
            else:
                self._wrap_member(getattr(module, cls_name), attr, name)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """Write the spans to an ``.npz`` file: ``names`` is the table of span
        names, ``name`` indexes it per span, ``parent`` is the parent span
        (-1 for none), ``start_ns``/``end_ns`` are perf_counter nanoseconds;
        every span belongs to ``run_id``."""
        import numpy as np

        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        np.savez(path, run_id=np.array(self.run_id), names=np.array(table),
                 name=np.array([index[n] for n in self.names], dtype=np.int32),
                 parent=np.array(self.parents, dtype=np.int64),
                 start_ns=np.array(self.starts, dtype=np.int64),
                 end_ns=np.array(self.ends, dtype=np.int64))

    def summary(self, window_ns):
        """Per-span and per-layer totals plus the exact counters.

        ``window_ns`` is the (start, end) interval of the measured phase.
        Uncovered time is the part of it that no layer call accounts for:
        the window outside every top-level span, plus the self time of the
        entry spans (the pipeline's own code between the layer calls it
        makes, private helpers included).
        """
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0] * n
        in_objective = [False] * n
        in_fit = [False] * n
        calls = Counter()
        total = defaultdict(int)
        self_ns = defaultdict(int)
        covered = 0
        forward_in_objective = 0
        objective_in_fit = 0
        for i in range(n):
            name, parent = self.names[i], self.parents[i]
            if parent >= 0:
                child_time[parent] += duration[i]
                in_objective[i] = in_objective[parent]
                in_fit[i] = in_fit[parent]
            else:
                start = max(self.starts[i], window_ns[0])
                end = min(self.ends[i], window_ns[1])
                covered += max(0, end - start)
            if name == FORWARD_SPAN and in_objective[i]:
                forward_in_objective += 1
            if name in OBJECTIVE_SPANS:
                objective_in_fit += int(in_fit[i])
                in_objective[i] = True
            if name == FIT_SPAN:
                in_fit[i] = True
            calls[name] += 1
            total[name] += duration[i]
        for i in range(n):
            self_ns[self.names[i]] += duration[i] - child_time[i]
        uncovered = (window_ns[1] - window_ns[0] - covered
                     + sum(self_ns.get(name, 0) for name in ENTRY_SPANS))
        layer_self = {layer: 0 for layer in LAYERS}
        for name, value in self_ns.items():
            layer_self[name.split(".", 1)[0]] += value
        counters = dict(self.counters)
        counters["objective.calls"] = sum(calls[name] for name in OBJECTIVE_SPANS)
        counters["objective.calls_in_fits"] = objective_in_fit
        counters["expressions.forward_in_objective"] = forward_in_objective
        counters["spans"] = n
        return {
            "calls": dict(calls),
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
            "uncovered_s": uncovered / 1e9,
            "counters": counters,
        }
