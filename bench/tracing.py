"""Span tracing of photoncorr from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span: layer (the defining module), function
name, start, end, parent span, and the exception type if the call raised.
The wrapper is bound in the defining module and in every loaded
``photoncorr`` module that re-binds the same function object (``cli``, the
package ``__init__``, sibling modules), so calls between modules, such as
``inference`` -> ``dark_matrix``, become child spans. ``uninstall`` puts
the original functions back, so untraced iterations run the plain code.

Spans stay in memory until the run ends, in flat arrays rather than one
object per span, so that a few hundred thousand spans add no work for the
garbage collector. ``layer_metrics`` reduces the spans of one iteration to
the per-layer metrics described in ``bench/README.md``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import statistics
import sys
import threading
import time
from array import array

TRACED_LAYERS = ("distributions", "detector", "measures", "montecarlo", "inference", "io")


def _simulate_shots(args, kwargs, result):
    return result.shots


def _written_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Quantities computed from a call's arguments or effects, per (layer, name).
_EXTRAS = {
    ("montecarlo", "simulate"): _simulate_shots,
    ("io", "atomic_write_text"): _written_bytes,
}


class Spans:
    """Spans in call order: parents come before their children."""

    def __init__(self, functions: list[tuple[str, str]]):
        self.functions = functions  # (layer, name) per function id
        self.parent = array("q")    # index of the parent span, -1 at the root
        self.function = array("q")  # function id
        self.start = array("d")
        self.end = array("d")
        self.error: dict[int, str] = {}  # span -> exception type name
        self.extra: dict[int, int] = {}  # span -> shots simulated or bytes written

    def __len__(self) -> int:
        return len(self.start)


class Tracer:
    def __init__(self):
        self._functions: list[tuple[str, str]] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.spans = Spans(self._functions)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the CLI commands at the root."""
        return self._wrap(layer, name, fn)(*args, **kwargs)

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self._functions)
            self._functions.append(key)
        function = self._ids[key]
        extra = _EXTRAS.get(key)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            spans = self.spans
            index = len(spans.start)
            spans.parent.append(stack[-1] if stack else -1)
            spans.function.append(function)
            spans.end.append(0.0)
            stack.append(index)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                spans.error[index] = type(err).__name__
                raise
            finally:
                spans.end[index] = clock()
                stack.pop()
            if extra is not None:
                spans.extra[index] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced module, everywhere bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in TRACED_LAYERS:
            module = sys.modules[f"photoncorr.{layer}"]
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "photoncorr" or key.startswith("photoncorr."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> Spans:
        """Hand over the spans recorded so far and start a new set."""
        spans, self.spans = self.spans, Spans(self._functions)
        return spans


def write_spans(path: str, iterations: dict[int, Spans]) -> None:
    """Write the spans of every traced iteration as gzip-compressed CSV."""
    with gzip.open(path, "wt", compresslevel=3) as handle:
        handle.write("iteration,span,parent,layer,function,start,end,error,extra\n")
        for iteration, spans in iterations.items():
            for i in range(len(spans)):
                layer, name = spans.functions[spans.function[i]]
                handle.write(
                    f"{iteration},{i},{spans.parent[i]},{layer},{name},"
                    f"{spans.start[i]!r},{spans.end[i]!r},{spans.error.get(i, '')},"
                    f"{spans.extra.get(i, '')}\n"
                )


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile; 0 unless at least ten samples lie beyond it."""
    n = len(samples)
    if n < 100:
        return 0.0
    return sorted(samples)[-(-9 * n // 10) - 1]


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one iteration."""
    n = len(spans)
    duration = [spans.end[i] - spans.start[i] for i in range(n)]
    child_time = [0.0] * n
    stage = [None] * n
    names = [spans.functions[f] for f in spans.function]
    for i in range(n):
        parent = spans.parent[i]
        if parent >= 0:
            child_time[parent] += duration[i]
        if names[i] in (("inference", "fit_stage1"), ("inference", "fit_stage2")):
            stage[i] = names[i][1][-6:]
        elif parent >= 0:
            stage[i] = stage[parent]

    m: dict[str, float] = {}
    for layer in ("cli",) + TRACED_LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for key in ("stage1_calls", "stage1_detector_calls", "stage2_calls",
                "stage2_detector_calls", "stage2_fallbacks"):
        m[f"inference.{key}"] = 0
    m["inference.stage1_s"] = m["inference.stage2_s"] = 0.0
    m["io.bytes_written"] = 0
    m["montecarlo.simulate_s"] = 0.0
    shots = simulate_calls = 0
    resample_starts: dict[int, list[float]] = {}

    for i in range(n):
        layer, name = names[i]
        parent = spans.parent[i]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += duration[i] - child_time[i]
        if layer == "detector" and stage[i] is not None:
            m[f"inference.{stage[i]}_detector_calls"] += 1
        elif name in ("fit_stage1", "fit_stage2"):
            m[f"inference.{stage[i]}_calls"] += 1
            m[f"inference.{stage[i]}_s"] += duration[i]
            if (name == "fit_stage2" and spans.error.get(i) == "FitConvergenceError"
                    and parent >= 0 and names[parent][1] == "bootstrap"
                    and parent not in spans.error):
                m["inference.stage2_fallbacks"] += 1
        elif name == "poisson_resample" and parent >= 0 and names[parent][1] == "bootstrap":
            resample_starts.setdefault(parent, []).append(spans.start[i])
        elif name == "atomic_write_text" and i in spans.extra:
            m["io.bytes_written"] += spans.extra[i]
        elif name == "simulate" and layer == "montecarlo":
            simulate_calls += 1
            shots += spans.extra.get(i, 0)
            m["montecarlo.simulate_s"] += duration[i]

    # One resample runs from its poisson_resample call to the next one, or
    # to the end of the bootstrap for the last.
    resamples: list[float] = []
    for parent, starts in resample_starts.items():
        bounds = starts + [spans.end[parent]]
        resamples.extend(b - a for a, b in zip(bounds, bounds[1:]))

    m["montecarlo.calls"] = simulate_calls
    m["montecarlo.shots_per_s"] = shots / m["montecarlo.simulate_s"] if simulate_calls else 0.0
    det_calls = m["detector.calls"]
    m["detector.us_per_call"] = 1e6 * m["detector.self_s"] / det_calls if det_calls else 0.0
    m["inference.resample_s"] = statistics.median(resamples) if resamples else 0.0
    m["inference.resample_p90_s"] = p90(resamples)
    del m["cli.calls"], m["inference.calls"]
    return m
