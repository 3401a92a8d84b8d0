"""Unified cost-measurement subsystem.

Everything this library reports as "cost" flows through this package:

* :mod:`repro.telemetry.backends` — the pluggable inversion-counting
  primitive behind every Kendall-tau distance (pure-Python merge sort, plus
  an optional vectorized numpy backend; ``REPRO_METRIC_BACKEND`` selects)
  and :func:`kendall_tau_delta`, the windowed distance both verifiers use.
* :mod:`repro.telemetry.trace` — streaming per-step cost traces
  (:class:`TraceRecorder` / :class:`CostTrace`), the memory-bounded
  replacement for full-trajectory snapshots when only costs are analysed.

See the "Telemetry subsystem" section of ``DESIGN.md`` for the selection
rules and the trace schema.
"""

from repro.telemetry.backends import (
    BACKEND_ENV_VAR,
    InversionBackend,
    MergeSortBackend,
    NumpyBackend,
    available_backends,
    count_cross_inversions,
    count_inversions,
    count_inversions_batch,
    get_backend,
    kendall_tau_delta,
    numpy_available,
    set_backend,
)
from repro.telemetry.trace import (
    CostTrace,
    PhaseRegression,
    TraceEvent,
    TraceRecorder,
    downsample_events,
    regress_phases_against_harmonic,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "CostTrace",
    "InversionBackend",
    "MergeSortBackend",
    "NumpyBackend",
    "PhaseRegression",
    "TraceEvent",
    "TraceRecorder",
    "available_backends",
    "count_cross_inversions",
    "count_inversions",
    "count_inversions_batch",
    "downsample_events",
    "get_backend",
    "kendall_tau_delta",
    "numpy_available",
    "regress_phases_against_harmonic",
    "set_backend",
]
