"""In-memory span recording around oalsim's module boundaries.

A span is (name, parent, run id, start, end). Layers are timed from outside
the package: each boundary function is replaced, on the module or class that
the harness looks it up on, by a wrapper that records one span per call and
optionally feeds a counter hook. `Patches.restore` puts every original back.

This module imports no numpy, so the benchmark can pin the numeric libraries'
thread counts before numpy is first imported.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable

NO_PARENT = -1


class Patches:
    """Attribute replacements that are undone together, in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper: Callable) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans kept in parallel lists; counts keyed by metric name."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.run_id = 0
        self._stack = [NO_PARENT]

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """`fn` with a span per call; `hook(counts, result, args, kwargs)` after it."""
        names, parents, runs, starts, ends = (
            self.names, self.parents, self.runs, self.starts, self.ends,
        )
        stack = self._stack
        counts = self.counts
        calls_key = f"{name}_calls"

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.parents, self.starts, self.ends)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trun\tname\tstart\tend\n")
            for i, (name, parent, run, start, end) in enumerate(
                zip(self.names, self.parents, self.runs, self.starts, self.ends)
            ):
                fh.write(f"{i}\t{parent}\t{run}\t{name}\t{start!r}\t{end!r}\n")


def self_times(names, parents, starts, ends) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans.

    Children of one parent never overlap (one thread, nested calls), so the
    covered part is the sum of the children's durations.
    """
    child = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            child[parent] += ends[i] - starts[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += (ends[i] - starts[i]) - child[i]
    return dict(out)


def span_cost(n: int = 100_000) -> float:
    """Seconds a span adds to one call: a wrapped no-op minus a bare one."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = perf_counter()
    for _ in range(n):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(n):
        wrapped()
    return (perf_counter() - t0 - bare) / n
