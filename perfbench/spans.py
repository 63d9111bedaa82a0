"""Span recorder for one traced flowtab run (runs inside the measured child).

Every public function that ``flowtab.cli`` and ``flowtab.sweep`` bind, and
every public method of ``flowtab.model.Mixture``, is replaced by a wrapper
that records a span: (id, parent, name, start, end, pid, count, error).
Span names are ``<layer>.<function>``, the layer being the flowtab module
that defines the function.  Spans stay in memory; a process writes its own
spans to ``spans-<pid>.jsonl`` in the trace directory.

The wrappers are installed before ``run_sweep`` forks its pool, so workers
inherit them.  A forked worker starts with the parent's open spans on its
stack, so its first span's parent is the ``run_sweep`` span that forked it;
the worker writes its spans each time it returns to that depth, because pool
workers leave through ``os._exit`` and never reach an end-of-run hook.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import time

# spans split by an argument, so that each kind or axis gets its own name
_LABELS = {
    "algorithms.evaluate_batch": lambda args, kwargs: _arg(args, kwargs, 2, "spec").kind,
    "analytic.analytic_for_spec": lambda args, kwargs: _arg(args, kwargs, 1, "spec").kind,
    "analytic.invert_for_coverage": lambda args, kwargs: _arg(args, kwargs, 2, "axis"),
    "model.Mixture.quantile": lambda args, kwargs: "length" if args[0].discrete else "size",
}

# work counted at the same boundaries as the spans
_COUNTS = {
    "generator.generate_arrays": lambda args, kwargs, result: len(result[0]),
    "generator.read_flow_csv": lambda args, kwargs, result: len(result[0]),
    "algorithms.evaluate_batch": lambda args, kwargs, result: len(result[0]),
    "model.Mixture.quantile": lambda args, kwargs, result: _size(result),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(value) -> int:
    return len(value) if hasattr(value, "__len__") else 1


class Tracer:
    """Collects spans for the current process and, after a fork, its child."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.fork_depth = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # keep the inherited stack (it names the parent span), drop the
        # inherited finished spans: the parent writes those itself
        self.pid = os.getpid()
        self.spans = []
        self.next_id = 0
        self.fork_depth = len(self.stack)

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, fn, name: str):
        label = _LABELS.get(name)
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            span_id = f"{self.pid}:{self.next_id}"
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append({
                    "id": span_id,
                    "parent": parent,
                    "name": span_name,
                    "start": start,
                    "end": end,
                    "pid": self.pid,
                    "count": count(args, kwargs, result) if count and error is None else None,
                    "error": error,
                })
                if self.fork_depth and len(self.stack) == self.fork_depth:
                    self.flush()

        return traced


COST_CALLS, COST_ROUNDS = 20000, 5


def span_cost(tracer: Tracer) -> float:
    """Seconds the recorder adds per span, timed in the calling process: a
    traced no-op call plus writing its span out, minus a bare call (median
    of COST_ROUNDS rounds of COST_CALLS calls).  Call it after the final
    flush; the probe's spans go to the null device, not to the trace."""
    def noop():
        return None

    traced = tracer.wrap(noop, "probe")
    costs = []
    for _ in range(COST_ROUNDS):
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(COST_CALLS):
            traced()
        with open(os.devnull, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        tracer.spans = []
        costs.append((time.perf_counter() - start - bare) / COST_CALLS)
    return max(statistics.median(costs), 0.0)


def install(out_dir: str):
    """Wrap flowtab's public functions in place; returns (tracer, traced main)."""
    import flowtab.cli
    import flowtab.model
    import flowtab.sweep

    tracer = Tracer(out_dir)
    wrapped: dict[int, object] = {}
    for module in (flowtab.cli, flowtab.sweep):
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not callable(value) or isinstance(value, type):
                continue
            home = getattr(value, "__module__", "") or ""
            if not home.startswith("flowtab."):
                continue
            if id(value) not in wrapped:
                layer = home.rsplit(".", 1)[1]
                wrapped[id(value)] = tracer.wrap(value, f"{layer}.{value.__name__}")
            setattr(module, attr, wrapped[id(value)])
    mixture = flowtab.model.Mixture
    for attr, value in list(vars(mixture).items()):
        if not attr.startswith("_") and callable(value):
            setattr(mixture, attr, tracer.wrap(value, f"model.Mixture.{attr}"))
    return tracer, flowtab.cli.main
