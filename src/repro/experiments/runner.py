"""Experiment plumbing: results, scaling knobs and reproducible randomness.

Every experiment of the suite (:mod:`repro.experiments.suite`) is a function
``run_eN(scale, seed) -> ExperimentResult``.  The :class:`ExperimentScale`
knob exists so the same experiment code serves three audiences:

* the integration tests run experiments at ``SMOKE`` scale (seconds),
* the pytest-benchmark harness runs them at ``BENCH`` scale (tens of
  seconds in total),
* ``EXPERIMENTS.md`` is regenerated at ``FULL`` scale.

Randomness is always derived from ``seeded_rng(seed, *salt)``, which hashes
the salt into the seed, so two experiments never share random streams even
when they share a seed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, TypeVar

from repro.errors import ReproError
from repro.experiments.tables import ResultTable
from repro.telemetry.trace import TraceSample


class ExperimentScale(str, enum.Enum):
    """How much work an experiment should do."""

    SMOKE = "smoke"
    """Minimal sizes/trials for fast integration tests."""

    BENCH = "bench"
    """Moderate sizes/trials for the pytest-benchmark harness."""

    FULL = "full"
    """The sizes/trials used to produce ``EXPERIMENTS.md``."""


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment: tables plus pass/fail style findings."""

    experiment_id: str
    title: str
    paper_claim: str
    """The statement of the paper this experiment reproduces."""
    tables: Sequence[ResultTable]
    findings: Dict[str, float] = field(default_factory=dict)
    """Headline scalar findings (max ratio, deviation, slope, …)."""
    notes: Sequence[str] = field(default_factory=tuple)
    traces: Sequence[TraceSample] = field(default_factory=tuple)
    """Seeded streamed cost traces recorded by this run (one per traced
    seed per workload group).  The run store archives them so cross-run
    populations can compute variance bands; rendering (tables, markdown)
    deliberately ignores them — a trace is data, not prose."""

    def to_markdown(self) -> str:
        """Render the whole experiment (claim, tables, findings) as Markdown."""
        lines: List[str] = [f"## {self.experiment_id}: {self.title}", ""]
        lines.append(f"*Paper claim.* {self.paper_claim}")
        lines.append("")
        for table in self.tables:
            lines.append(table.to_markdown())
            lines.append("")
        if self.findings:
            lines.append("*Headline findings:*")
            lines.append("")
            for key, value in self.findings.items():
                lines.append(f"- {key}: {value:.3f}")
            lines.append("")
        for note in self.notes:
            lines.append(f"> {note}")
            lines.append("")
        return "\n".join(lines)

    def to_ascii(self) -> str:
        """Render the experiment for terminal output (benchmarks print this)."""
        parts = [f"{self.experiment_id}: {self.title}"]
        for table in self.tables:
            parts.append(table.to_ascii())
        if self.findings:
            parts.append(
                "findings: "
                + ", ".join(f"{key}={value:.3f}" for key, value in self.findings.items())
            )
        return "\n\n".join(parts)


def seeded_rng(seed: int, *salt: object) -> random.Random:
    """A :class:`random.Random` derived deterministically from ``seed`` and ``salt``."""
    return random.Random("|".join([str(seed)] + [repr(item) for item in salt]))


_ScaleValue = TypeVar("_ScaleValue")


def scale_pick(
    scale: ExperimentScale,
    smoke: _ScaleValue,
    bench: _ScaleValue,
    full: _ScaleValue,
) -> _ScaleValue:
    """Select a per-scale configuration value; ``scale`` may be its name."""
    try:
        scale = ExperimentScale(scale)
    except ValueError:
        valid = ", ".join(member.value for member in ExperimentScale)
        raise ReproError(f"unknown experiment scale {scale!r}; choose one of {valid}") from None
    if scale is ExperimentScale.SMOKE:
        return smoke
    if scale is ExperimentScale.BENCH:
        return bench
    return full
