"""Arithmetic of the benchmark: percentiles with their sample counts, op
outcomes scored at their cap, times scaled by a reference kernel, and
spans with their self times.

Nothing here imports gops, so the arithmetic can be tested on its own.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

OK = "ok"
CAPPED = "capped"    # hit its node or time cap
CRASHED = "crashed"  # raised, or a CLI child printed a traceback or a bad exit code
WRONG = "wrong"      # an output check rejected its answer
BELOW_BOUND = "below-bound"  # a valid greedy answer under its stated guarantee


def percentile(values, q: float):
    """Nearest-rank percentile, ``0 < q <= 1``, plus the number of samples
    above it. Returns ``(value, beyond)``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values):
    """The middle value; the mean of the two middle ones for an even count."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass(frozen=True)
class Outcome:
    """One attempted op: what became of it and how long it took."""

    status: str
    seconds: float
    cap_s: float

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def latency(self) -> float:
        """The latency sample: a failed op missed every latency limit, so
        it counts at its cap, however fast it failed."""
        return self.seconds if self.ok else self.cap_s


def fold(repeats) -> "Outcome":
    """One op's repeats folded into one sample: the median time, and the
    first repeat's status, unless some repeat's answer was wrong."""
    status = WRONG if any(o.status == WRONG for o in repeats) else repeats[0].status
    return Outcome(status, median([o.seconds for o in repeats]), repeats[0].cap_s)


def reference_kernel(n: int = 4000) -> int:
    """Fixed interpreter-bound work (dict inserts, string builds, integer
    arithmetic). Its time tracks how fast the machine runs Python at the
    moment; about 1 ms on a 2.1 GHz Xeon core with no neighbours busy."""
    table = {}
    for i in range(n):
        table[i] = str(i)
    total = 0
    for key, text in table.items():
        total += len(text) + (key & 7)
    return total


def scaled(raw, kernel_s, reference_s: float, half_window: int = 2) -> list:
    """Each raw time scaled to the reference speed: ``raw[i]`` times
    ``reference_s`` over the median kernel time measured around it. The
    machine's speed can change by half within seconds when neighbours get
    busy; the ratio of an op to the kernel beside it does not."""
    out = []
    for i, seconds in enumerate(raw):
        near = kernel_s[max(0, i - half_window):i + half_window + 1]
        out.append(seconds * reference_s / median(near))
    return out


def summarize(outcomes) -> dict:
    """End-to-end figures over a list of Outcomes."""
    latencies = [o.latency for o in outcomes]
    p50, _ = percentile(latencies, 0.5)
    p90, beyond = percentile(latencies, 0.9)
    ok = sum(o.ok for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    return {"n": len(outcomes), "ok": ok, "p50": p50, "p90": p90,
            "beyond_p90": beyond, "ok_per_s": ok / busy if busy > 0 else 0.0}


@dataclass
class Span:
    op: int
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; one caller, so a stack gives the parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, op: int, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(op, parent, name, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def repeated(self, op: int, name: str, seconds: float, parent: Span) -> None:
        """Mark ``seconds`` of the closed span ``parent`` as work repeated
        from an earlier span (a composite call redoing a step traced on its
        own). It becomes a child span, so it leaves the parent's self time."""
        index = next(i for i in range(len(self.spans) - 1, -1, -1) if self.spans[i] is parent)
        self.spans.append(Span(op, index, name, parent.start, parent.start + seconds))


def self_times(spans) -> dict:
    """Summed self time per span name: each span's duration minus the
    durations of its direct children."""
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_sum[s.parent] += s.seconds
    out = {}
    for i, s in enumerate(spans):
        out[s.name] = out.get(s.name, 0.0) + s.seconds - child_sum[i]
    return out
