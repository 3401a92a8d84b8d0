"""Arithmetic of the repository benchmark, kept free of ``repro`` imports.

Percentiles are nearest-rank, so every reported value is one that was
actually observed.  Span self time, due-time latency and operation
accounting live here too, so ``tests/test_e2ebench_arithmetic.py`` can pin
them exactly without running a workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("a percentile of no values is undefined")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction must lie in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    """Median of the per-unit values (the mean of the middle two for even n)."""
    if not values:
        raise ValueError("a median of no values is undefined")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def due_time_latencies(
    dues: Sequence[float],
    submits: Sequence[float],
    service_latencies: Sequence[float],
) -> List[float]:
    """Open-loop latency of each request, timed from when it was due.

    Completion is the submit time plus the service-measured latency, so a
    generator that ran late charges its lateness to the request.
    """
    if not len(dues) == len(submits) == len(service_latencies):
        raise ValueError("dues, submits and latencies must align")
    return [
        submit - due + latency
        for due, submit, latency in zip(dues, submits, service_latencies)
    ]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


@dataclass
class OpTally:
    """Operations attempted and failed; a failed check fails what it covers."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, count: int, ok: bool, what: str) -> bool:
        """Account ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(what)
        return ok


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    """Index of the enclosing span in the same span list (None at the root)."""
    thread: int
    layer: bool = True
    """False for the benchmark's own phase markers, which coverage ignores."""


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def span_self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's self time: its duration minus what its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.end
        - span.start
        - union_seconds(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if min(end, span.end) > max(start, span.start)
        )
        for index, span in enumerate(spans)
    ]


def self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, span_self_seconds(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + seconds
    return totals


def coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` inside layer spans, across all threads."""
    covered = union_seconds(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.layer and min(span.end, end) > max(span.start, start)
    )
    return ratio(covered, end - start)
