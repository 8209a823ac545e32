"""Per-layer spans and counters, installed by wrapping maxlinear functions.

Each wrapper replaces a name in the module where its caller looks it
up: ``pipeline`` binds most helpers with ``from ... import``, while
``ordering`` and ``estimation`` reach the kernels through the
``_kernels`` module, so a wrapper placed anywhere else would count zero.

Spans nest per thread (``study`` orders replicates on a thread pool).
A span's self time is its duration minus its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute, layer); where a module is named, its callers look the
# attribute up there at call time.
SPANS = (
    ("fileio", "read_sample_csv", "fileio.read"),
    ("fileio", "write_sample_csv", "fileio.write"),
    ("fileio", "write_matrix_csv", "fileio.write"),
    ("fileio", "write_dot", "fileio.write"),
    ("pipeline", "empirical_frechet_transform", "estimation.transform"),
    ("ordering", "estimate_max_scaling", "estimation.spectral"),
    ("ordering", "estimate_rescaled_max_scaling", "estimation.spectral"),
    ("pipeline", "polar_decompose", "estimation.polar"),
    ("pipeline", "scaling_from_polar", "estimation.polar"),
    ("_kernels", "scaled_rowmax_invsq_mean", "kernels.mle"),
    ("_kernels", "scaling_sum", "kernels.scaling_sum"),
    ("_kernels", "max_times_product", "kernels.max_times"),
    ("pipeline", "learn_order", "ordering.learn"),
    ("pipeline", "learn_generations", "ordering.learn"),
    ("pipeline", "simulate", "model.simulate"),
    ("pipeline", "scaling_vector_from_provider", "pipeline.scaling_vector"),
    ("pipeline", "shared_polar_scaling_vector", "pipeline.scaling_vector"),
    ("pipeline", "squared_coefficients", "identify.recover"),
    ("pipeline", "coefficients_from_squares", "identify.recover"),
    ("pipeline", "recovery_variance_positive", "asymptotics.covariance"),
)
COUNTED = (("asymptotics", "scaling_covariance_entry", "asymptotics.entry"),)
PROVIDERS = ("ExactScalings", "SpectralScalings", "FrechetMleScalings")
PROVIDER_METHODS = ("max_scaling", "rescaled_scaling")


class Tracer:
    """Spans and counters of one command at a time; see ``command_metrics``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.busy: dict[str, float] = defaultdict(float)
            self.own: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.bytes: dict[str, int] = defaultdict(int)
            self.provider_calls = 0
            self.provider_misses = 0  # kernel calls made inside a provider call
            self.passes = 0
            self.top: list[tuple[float, float]] = []  # outermost spans, any thread

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.in_provider = 0
        return local

    def _span(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            children = [0.0]
            state.stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                duration = end - start
                if state.stack:
                    state.stack[-1][0] += duration
                with tracer._lock:
                    tracer.busy[layer] += duration
                    tracer.own[layer] += duration - children[0]
                    tracer.calls[layer] += 1
                    if not state.stack:
                        tracer.top.append((start, end))
                    if layer.startswith("kernels.") and state.in_provider:
                        tracer.provider_misses += 1
            tracer._measure(layer, args, result)
            return result

        return wrapper

    def _measure(self, layer: str, args, result) -> None:
        if layer == "fileio.read":
            size = os.path.getsize(args[0])
        elif layer == "fileio.write":
            size = os.path.getsize(args[1])
        elif layer.startswith("kernels."):
            size = sum(a.nbytes for a in args if hasattr(a, "nbytes"))
        elif layer == "ordering.learn":
            with self._lock:
                self.passes += len(result.passes)
            return
        else:
            return
        with self._lock:
            self.bytes[layer] += size

    def _count(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _provider(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            with tracer._lock:
                tracer.provider_calls += 1
            state.in_provider += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state.in_provider -= 1

        return wrapper

    def install(self) -> None:
        """Wrap every traced name of the imported maxlinear package; a
        missing name raises AttributeError."""
        for module, name, layer in SPANS:
            mod = importlib.import_module(f"maxlinear.{module}")
            setattr(mod, name, self._span(getattr(mod, name), layer))
        for module, name, layer in COUNTED:
            mod = importlib.import_module(f"maxlinear.{module}")
            setattr(mod, name, self._count(getattr(mod, name), layer))
        ordering = importlib.import_module("maxlinear.ordering")
        for cls_name in PROVIDERS:
            cls = getattr(ordering, cls_name)
            for method in PROVIDER_METHODS:
                setattr(cls, method, self._provider(getattr(cls, method)))

    def command_metrics(self, start: float, end: float) -> dict[str, float]:
        """Per-layer metrics of the command that ran from ``start`` to ``end``."""
        busy, calls = self.busy, self.calls

        def rate(layer: str) -> float:
            return self.bytes[layer] / 1e6 / busy[layer] if busy[layer] > 0 else 0.0

        return {
            "fileio.read_s": busy["fileio.read"],
            "fileio.read_mb_per_s": rate("fileio.read"),
            "fileio.write_s": busy["fileio.write"],
            "fileio.write_mb_per_s": rate("fileio.write"),
            "estimation.transform_s": busy["estimation.transform"],
            "estimation.spectral_calls": calls["estimation.spectral"],
            "estimation.spectral_s": busy["estimation.spectral"],
            "estimation.polar_s": busy["estimation.polar"],
            "kernels.mle_calls": calls["kernels.mle"],
            "kernels.mle_s": busy["kernels.mle"],
            "kernels.scaling_sum_calls": calls["kernels.scaling_sum"],
            "kernels.scaling_sum_s": busy["kernels.scaling_sum"],
            "kernels.max_times_s": busy["kernels.max_times"],
            "kernels.bytes_computed": sum(
                self.bytes[k] for k in ("kernels.mle", "kernels.scaling_sum", "kernels.max_times")
            ),
            "ordering.learn_s": busy["ordering.learn"],
            "ordering.self_s": self.own["ordering.learn"],
            "ordering.provider_calls": self.provider_calls,
            "ordering.cache_hit_ratio": (
                1.0 - self.provider_misses / self.provider_calls if self.provider_calls else 0.0
            ),
            "ordering.passes": self.passes,
            "model.simulate_s": busy["model.simulate"],
            "pipeline.scaling_vector_s": busy["pipeline.scaling_vector"],
            "identify.recover_s": busy["identify.recover"],
            "asymptotics.covariance_s": busy["asymptotics.covariance"],
            "asymptotics.entry_calls": calls["asymptotics.entry"],
            "pipeline.self_s": (end - start) - _union_length(self.top, start, end),
        }


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def median_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_command) for name in per_command[0]}
