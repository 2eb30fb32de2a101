"""Span tracer that instruments qcbound from outside the package.

``Tracer.install`` replaces each public function of the package's modules with
a wrapper in the namespace of every other package module that binds it, so
each call from one layer into another opens a span; calls within a layer stay
in the caller's self time.  A few more seams get spans: ``cli.main`` (the
root), the draw loop ``experiments._run_indexed`` (its tasks become
``experiments.draw`` spans, from which ``pool_efficiency`` is computed), the
row aggregation ``experiments._aggregate_row``, the direct
``np.linalg.eigvalsh`` calls made from ``experiments``, and the construction
checks of ``HermitianOperator`` and ``EntanglementInputs``.  The counting-
function fits inside ``level_stats.unfold`` are counted, not timed, in the
extra of the span that makes them.  ``uninstall`` restores every binding.

Spans are kept in memory as ``[name, start, end, parent, extra]`` lists; the
parent of a draw that runs on a pool thread is the draw-loop span that caused
it.  A span's self time is its duration minus the part of its interval that
its children cover (the union of their intervals, since the draws of one loop
can overlap in time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = (
    "quantum",
    "ensembles",
    "models",
    "entanglement",
    "curvature",
    "level_stats",
    "experiments",
    "cli",
)

# Per-span operation counts, computed from the call's arguments.
_EXTRAS = {
    "quantum.eigensystem": lambda op: op.dim**3,
    "models.sector_eigenvalues": lambda op, indices: len(indices) ** 3,
    "experiments.eigvalsh": lambda a: np.shape(a)[0] ** 3,
    "level_stats.weibull_fit": lambda sample: len(sample),
}


class _Proxy:
    """Attribute proxy: overridden attributes first, then the target's."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name, extra=0, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = [name, 0.0, 0.0, parent, extra]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter()
        return rec, stack

    @staticmethod
    def _close(rec, stack) -> None:
        rec[2] = time.perf_counter()
        stack.pop()

    def wrap(self, name, fn):
        extra_of = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = self._open(name, extra_of(*args, **kwargs) if extra_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec, stack)

        return traced

    def _wrap_run_indexed(self, run_indexed):
        """Draw-loop span (extra = threads) whose tasks become draw spans
        (extra = 1 when the draw returned None: rejected or failed)."""

        def traced(task, n_tasks, threads):
            loop, loop_stack = self._open("experiments.draw_loop", threads)

            def draw(i):
                rec, draw_stack = self._open("experiments.draw", parent=loop)
                try:
                    result = task(i)
                    rec[4] = int(result is None)
                    return result
                finally:
                    self._close(rec, draw_stack)

            try:
                return run_indexed(draw, n_tasks, threads)
            finally:
                self._close(loop, loop_stack)

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_in_caller(self, fn):
        """Count calls of ``fn`` in the extra of the span that makes them."""
        stack_of = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack_of()[-1][4] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qcbound.{name}") for name in LAYERS}
        wrapped = {}
        for caller, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("qcbound.")):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                if layer == caller:
                    continue  # calls within a layer stay in its self time
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._set(module, attr, wrapped[obj])
        cli, experiments = modules["cli"], modules["experiments"]
        level_stats = modules["level_stats"]
        self._set(cli, "main", self.wrap("cli.main", cli.main))
        self._set(experiments, "_run_indexed",
                  self._wrap_run_indexed(experiments._run_indexed))
        self._set(experiments, "_aggregate_row",
                  self.wrap("experiments.aggregate", experiments._aggregate_row))
        self._set(level_stats, "_fit_counting_function",
                  self._count_in_caller(level_stats._fit_counting_function))
        eigvalsh = self.wrap("experiments.eigvalsh", np.linalg.eigvalsh)
        self._set(experiments, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=eigvalsh)))
        for cls, name in ((modules["quantum"].HermitianOperator, "quantum.HermitianOperator"),
                          (modules["entanglement"].EntanglementInputs,
                           "entanglement.EntanglementInputs")):
            self._set(cls, "__post_init__", self.wrap(name, cls.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    extra: int = 0


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans) -> tuple:
    """Per-name totals and the parallel overlap of a finished trace.

    Returns ``(stats, root_s, overlap_s)``: ``stats`` maps span names to
    ``LayerStats`` fields; ``root_s`` is the summed duration of the top-level
    spans; ``overlap_s`` is the time children of one parent ran concurrently,
    counted once per extra concurrent child.  By construction
    ``sum(self_s) == root_s + overlap_s``.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append((rec[1], rec[2]))
    stats = defaultdict(LayerStats)
    root_s = overlap_s = 0.0
    for rec in spans:
        name, start, end, parent, extra = rec
        kids = children.get(id(rec), ())
        covered = _union_length(kids)
        overlap_s += sum(e - s for s, e in kids) - covered
        if parent is None:
            root_s += end - start
        entry = stats[name]
        entry.calls += 1
        entry.self_s += end - start - covered
        entry.total_s += end - start
        entry.extra += extra
    return {name: asdict(entry) for name, entry in stats.items()}, root_s, overlap_s
