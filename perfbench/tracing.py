"""Layer tracing from outside the program.

Every public module-level function of each borsuk module is replaced by a
wrapper that records a span (name, start, end, parent) in memory.  The
wrapper is installed under every name that refers to the function in any
borsuk module, so that `from .exactnum import log_binomial` in bounds is
traced as well as `exactnum.log_binomial`.  Self time is a span's duration
minus the durations of its direct child spans; counters come from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

LAYERS = (
    "cli",
    "exactnum",
    "params",
    "construction",
    "algebra",
    "bounds",
    "upper",
    "optimality",
)

def _rank_cells(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    rows, cols = matrix.shape
    tracer.counts["algebra.rank_mod_p.cells"] += rows * cols


def _export_bytes(tracer, args, kwargs, result):
    fh = args[0] if args else kwargs["fh"]
    tracer.counts["construction.export_bytes"] += fh.tell()


def _search_counts(tracer, args, kwargs, result):
    tracer.counts["optimality.search.evaluated"] += result.evaluated
    tracer.counts["optimality.search.resampled"] += result.resampled


_HOOKS: Dict[str, Callable] = {
    "algebra.rank_mod_p": _rank_cells,
    "construction.export_points": _export_bytes,
    "optimality.search_optimum": _search_counts,
}


class Tracer:
    """Span recorder; one per traced interpreter."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.wrapped: List[str] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of each layer under all their names."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or inspect.isgeneratorfunction(fn)
                    or fn.__module__ != module.__name__
                    # in cli only main is a layer boundary: the cmd_*
                    # handlers' own time belongs to main's self time
                    or (layer == "cli" and attr != "main")
                ):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapper = self._wrap(name, fn)
                self.wrapped.append(name)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, key, wrapper)

    def summary(self) -> Dict[str, Any]:
        """Self seconds and calls per wrapped function, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts = dict(self.counts)
        walk_steps = full_evals = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
            if parent >= 0 and self.spans[parent][0] == "bounds.find_d0":
                walk_steps += name == "params.choose_a"
                full_evals += name == "params.plan_fixed"
        counts["bounds.find_d0.walk_steps"] = walk_steps
        counts["bounds.find_d0.full_eval_ratio"] = (
            full_evals / walk_steps if walk_steps else 0.0
        )
        evaluated = counts.pop("optimality.search.evaluated", 0)
        resampled = counts.pop("optimality.search.resampled", 0)
        tried = evaluated + resampled
        counts["optimality.search.reject_ratio"] = resampled / tried if tried else 0.0
        counts.setdefault("algebra.rank_mod_p.cells", 0)
        counts.setdefault("construction.export_bytes", 0)
        return {
            "wrapped": sorted(self.wrapped),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": counts,
        }

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
