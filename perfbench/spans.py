"""Span tracing of the program's public functions, and self-time arithmetic.

:class:`Tracer` replaces public functions by wrappers *on their module
attributes*, so calls made inside a module through its globals (such as
``checkpoint_scan`` calling ``product``) are caught too.  A span is
``[name, start, end, parent, size]``; spans stay in memory until the run
ends.  Nothing here imports ``sigfbsde``: the worker hands the modules in.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import statistics
import time

NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self, modules: dict, sizes: dict | None = None):
        """Wrap every public function defined in each module.

        ``modules`` maps a layer prefix (``"sde"``, ``"engine"`` ...) to the
        module; ``sizes`` maps a span name to ``f(result) -> number`` stored
        in the span's ``size`` slot.
        """
        sizes = sizes or {}
        for prefix, module in modules.items():
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{prefix}.{attr}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, sizes.get(name)))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    One thread runs every span, so children never overlap and their summed
    durations are the part of the parent they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _find(spans, name) -> list:
    return [i for i, s in enumerate(spans) if s[NAME] == name]


def iteration_windows(spans) -> list:
    """``(start, end)`` of every training iteration inside ``solver.train``.

    ``train`` derives each iteration's batch seed first thing, so its direct
    ``solver.derive_seed`` children mark where iterations start; the last
    iteration ends where ``train`` ends.
    """
    (train,) = _find(spans, "solver.train")
    starts = [s[START] for s in spans
              if s[PARENT] == train and s[NAME] == "solver.derive_seed"]
    ends = starts[1:] + [spans[train][END]]
    return list(zip(starts, ends)), train


def per_iteration(spans, warmup: int) -> tuple[dict, int]:
    """Per-iteration medians over the timed iterations.

    For every function: ``calls`` and ``self_ms``; ``ms`` (inclusive) too.
    Layer totals ``<layer>.self_ms`` and ``solver.iteration.self_ms`` (the
    part of an iteration no wrapped call covers) are added.  Returns the
    metrics and the number of iterations found.
    """
    windows, train = iteration_windows(spans)
    own = self_times(spans)
    per_iter = [dict() for _ in windows]
    bounds = [w[0] for w in windows]
    for i, s in enumerate(spans):
        if i == train or s[START] < bounds[0] or s[START] >= windows[-1][1]:
            continue
        k = bisect.bisect_right(bounds, s[START]) - 1
        acc = per_iter[k]
        name = s[NAME]
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        acc[name + ".self_ms"] = acc.get(name + ".self_ms", 0.0) + own[i] * 1e3
        acc[name + ".ms"] = acc.get(name + ".ms", 0.0) + (s[END] - s[START]) * 1e3
        layer = name.split(".")[0] + ".self_ms"
        acc[layer] = acc.get(layer, 0.0) + own[i] * 1e3
        if s[SIZE] is not None:
            acc[name + ".size"] = acc.get(name + ".size", 0) + s[SIZE]
        if s[PARENT] == train:
            acc["covered"] = acc.get("covered", 0.0) + (s[END] - s[START])
    for (start, end), acc in zip(windows, per_iter):
        acc["solver.iteration.self_ms"] = (end - start - acc.pop("covered", 0.0)) * 1e3
        acc["solver.self_ms"] = acc.get("solver.self_ms", 0.0) \
            + acc["solver.iteration.self_ms"]
    timed = per_iter[warmup:] or per_iter
    keys = sorted({k for acc in timed for k in acc})
    return {k: statistics.median(acc.get(k, 0) for acc in timed) for k in keys}, len(windows)


def per_call(spans, names) -> dict:
    """Inclusive milliseconds and call counts of whole-run functions."""
    out = {}
    for name in names:
        idx = _find(spans, name)
        out[name + ".calls"] = len(idx)
        out[name + ".ms"] = sum(spans[i][END] - spans[i][START] for i in idx) * 1e3
        sizes = [spans[i][SIZE] for i in idx if spans[i][SIZE] is not None]
        if sizes:
            out[name + ".size"] = sum(sizes)
    return out


def within(spans, root: str) -> dict:
    """Self milliseconds and calls of every function under the spans ``root``."""
    own = self_times(spans)
    roots = set(_find(spans, root))
    inside = [False] * len(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        inside[i] = s[PARENT] in roots or (s[PARENT] >= 0 and inside[s[PARENT]])
        if inside[i]:
            out[s[NAME] + ".calls"] = out.get(s[NAME] + ".calls", 0) + 1
            out[s[NAME] + ".self_ms"] = out.get(s[NAME] + ".self_ms", 0.0) + own[i] * 1e3
    return out
