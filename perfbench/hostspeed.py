"""Host-speed normalisation: a fixed reference burst timed between pieces of work.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2x for seconds to hours at a time, as its neighbours load it. Wall times
of the same run then differ by more than any bound the benchmark may set. So
the benchmark times a fixed reference computation between episodes, every
EVERY_S seconds of program time, and at the ends of each timed region. Like
the program, the reference is Python that handles small dicts, lists and
strings plus many calls on small numpy arrays; it takes about 1.5 ms. Time
outside the bursts is divided by the host's slowdown at that moment:

    normalised = wall / (burst / NOMINAL_S)

where `burst` is the running median of nearby bursts. NOMINAL_S is about the
burst's time, inside a run, on the 2-CPU x86-64 machine the benchmark was
tuned on when that host is fast, so a normalised time reads as seconds on a
fast host. The normalisation does not depend on the program, so a program
that does a given share less work reads that share faster.

References made of a single kind of work (a pure-Python integer loop, a
small matrix product, a random walk over a large object graph) tracked the
program poorly: the program's wall time went as their time to a power that
itself changed with the host's state, from 0.6 in one hour to 2.4 in another.
The mixed reference tracks it with a power near 1 (README.md has the figures).

Numpy is imported when a clock is made, after the thread counts are pinned.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
from time import perf_counter

NOMINAL_S = 1.5e-3
EVERY_S = 0.05
SMOOTH = 5  # bursts in the running median


class HostClock:
    """Reference bursts, by start and end time, and the slowdown they imply."""

    def __init__(self, every_s: float = EVERY_S):
        import numpy as np

        self.every_s = every_s
        self._np = np
        self._doc = {
            "regions": [
                {
                    "id": i,
                    "name": f"r{i}",
                    "attrs": {"color": ("red", "blue")[i % 2], "w": i * 0.5},
                    "tags": [f"t{j}" for j in range(i % 5)],
                }
                for i in range(120)
            ]
        }
        self._text = " ".join(f"word{i} Thing{i % 13} 12.{i}" for i in range(300))
        self._pattern = re.compile(r"Thing(\d+)")
        self._v = np.linspace(0.0, 1.0, 600)
        self._w = np.linspace(-1.0, 1.0, 32)
        self._a = np.linspace(0.0, 1.0, 600 * 32).reshape(600, 32)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] | None = None

    def burst(self) -> None:
        t0 = perf_counter()
        self._reference()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._factors = None

    def _reference(self) -> float:
        """The fixed work a burst times; its result is unused."""
        np = self._np
        doc = json.loads(json.dumps(self._doc))
        rows = sorted(
            ((r["attrs"]["w"], r["name"], len(r["tags"])) for r in doc["regions"]),
            key=lambda row: (-row[2], row[0]),
        )
        text = self._pattern.sub(lambda m: m.group(1), self._text)
        total = float(len(text) + len("".join(f"{w:.2f}|{name}" for w, name, _ in rows)))
        v, w, a = self._v, self._w, self._a
        for i in range(40):
            total += float(a[i] @ w) + float(np.exp(-v[i : i + 50]).sum())
            total += float(np.argmax(v[i : i + 20]))
        return total + float(np.argsort(a @ w)[0])

    def maybe_burst(self) -> None:
        """A burst when EVERY_S or more has passed since the last one."""
        if not self.ends or perf_counter() - self.ends[-1] >= self.every_s:
            self.burst()

    def burst_s(self, lo: float, hi: float) -> float:
        """Time spent in bursts that lie within [lo, hi]."""
        i = bisect.bisect_left(self.starts, lo)
        j = bisect.bisect_right(self.ends, hi)
        return sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def factors(self) -> list[float]:
        """Slowdown per burst: running median of burst times over NOMINAL_S."""
        if self._factors is None:
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            self._factors = slowdowns(durations)
        return self._factors

    def normalize(self, lo: float, hi: float) -> float:
        """Normalised length of [lo, hi], leaving out the bursts inside it.

        The gap between bursts k and k+1 is divided by the mean of their
        factors; time before the first or after the last burst by that
        burst's factor.
        """
        return normalize(self.starts, self.ends, self.factors(), lo, hi)



def slowdowns(durations: list[float]) -> list[float]:
    half = SMOOTH // 2
    out = []
    for k in range(len(durations)):
        window = durations[max(0, k - half) : k + half + 1]
        out.append(statistics.median(window) / NOMINAL_S)
    return out


def normalize(starts, ends, factors, lo: float, hi: float) -> float:
    if not starts:
        raise ValueError("no reference burst was timed")
    total = 0.0
    # before the first burst and after the last
    total += max(0.0, min(hi, starts[0]) - lo) / factors[0]
    total += max(0.0, hi - max(lo, ends[-1])) / factors[-1]
    # gaps between bursts k and k+1 that overlap [lo, hi]
    k = max(0, bisect.bisect_right(ends, lo) - 1)
    while k + 1 < len(starts) and ends[k] < hi:
        part = min(hi, starts[k + 1]) - max(lo, ends[k])
        if part > 0:
            total += part / (0.5 * (factors[k] + factors[k + 1]))
        k += 1
    return total
