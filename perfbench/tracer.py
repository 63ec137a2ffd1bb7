"""In-memory span recorder that wraps simpop's public functions from outside.

``Tracer.install`` replaces every public module-level function of the layer
modules with a wrapper that records a span, and rebinds the same wrapper
wherever another simpop module (the CLI included) imported that function by
name. The ``rank`` method of every ranker class is wrapped too, so ranking
time inside ``evaluate`` lands on the ranker's own layer. No program file
changes; ``uninstall`` restores the originals. Spans stay in a list until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "synth",
    "sessions",
    "affinity",
    "embedder",
    "model",
    "recommender",
    "baselines",
    "evaluator",
)

# span fields
NAME, PARENT, START, END, INFO = range(5)


#: result summaries kept on a span, so counts are taken where the work happens
_INFO = {
    "sessions.parse_session_log": lambda corpus: corpus.n_actions,
    "affinity.build_affinity_graph": lambda graph: graph.n_pairs,
    "embedder.fit_embedding": lambda fit: (fit[1].iterations, fit[1].stop_reason),
}


class Tracer:
    """Spans as ``[name, parent index, start, end, info]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, info])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        summarize = _INFO.get(name)
        begin, end, spans = self.begin, self.end, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if summarize is not None:
                spans[idx][INFO] = summarize(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"simpop.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    rank = vars(obj).get("rank")
                    if inspect.isfunction(rank):
                        self._undo.append((obj, "rank", rank))
                        setattr(obj, "rank", self.wrap(rank, f"{layer}.{name}.rank"))
        modules = [importlib.import_module(f"simpop.{m}") for m in LAYERS + ("cli",)]
        modules.append(importlib.import_module("simpop"))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._undo):
            setattr(module, name, obj)
        self._undo.clear()

    def per_span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost one span adds to a call, from a no-op function."""

        def noop():
            return None

        traced = self.wrap(noop, "calibration")
        mark = len(self.spans)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        del self.spans[mark:]
        return max(wrapped - plain, 0.0) / calls
