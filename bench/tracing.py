"""Span and probe recording for traced runs, and helpers shared by the
workloads.  In a timed run operations get ``NO_TRACE``, whose spans cost
one call each."""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc

MB = 1024.0 * 1024.0


class Tracer:
    """Per-operation span and probe totals, kept in memory."""

    def __init__(self):
        self.ops: list[dict[str, float]] = []

    def begin_op(self):
        self.ops.append({})

    def add(self, name: str, value: float):
        current = self.ops[-1]
        current[name] = current.get(name, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """Add the block's duration in ms to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, (time.perf_counter() - start) * 1e3)

    def median(self, name: str) -> float:
        return statistics.median(op[name] for op in self.ops if name in op)


class _NoTrace:
    """Stands in for a Tracer in timed runs: spans cost one call."""

    def span(self, name):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()


@contextlib.contextmanager
def counting(module, name: str, counter: list):
    """Count calls to ``module.name`` while the block runs."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def elapsed_ms(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e3


def peak_alloc_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
