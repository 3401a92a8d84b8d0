"""The repository benchmark: one command per workload.

    python3 e2ebench/run.py --workload learn --seed 1 --seconds 25 --trace 0

Runs repeated units (passes or cycles) of one workload for ``--seconds``
seconds against the ``src/`` tree of the checkout it sits in, checks every
output, and prints as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, each the mean over units;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics, writing the spans to ``.e2ebench-out/``.  Exit codes: 0
when every check held, 1 when an output check failed, 2 on a usage error or
a checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import sys
import time
from statistics import fmean
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchstats import OpTally, coverage, median, ratio, self_seconds, span_self_seconds
from benchtrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT_DIRECTORY = ROOT / ".e2ebench-out"

#: Units a run always measures, however short ``--seconds`` is.
MIN_UNITS = 5
#: In a traced run: untraced and traced units each, at least.
MIN_TRACED_UNITS = 2

#: Per-layer self times, by span name (seconds per unit).
LAYER_SPANS = (
    "core.process",
    "minla.verify",
    "core.opt",
    "minla.closest",
    "telemetry.count",
    "dynamic.serve",
    "dynamic.verify",
    "workloads.generate",
    "service.partition",
    "service.start",
    "service.engine",
)
#: Per-layer figures the serving units report from the service itself.
SERVICE_STATS = (
    ("service.engine_busy_frac", "fraction"),
    ("service.batch_mean", "count"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.latency_p50_ms", "ms"),
    ("vnet.distance_cache.hit_ratio", "fraction"),
    ("service.latency_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.samples", "count"),
)


def pin_environment() -> None:
    """Run the program under test with its defaults, one job, whatever the caller set."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_JOBS"] = "1"


def cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate line of ``/proc/stat``."""
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def host_facts(steal_before: Tuple[int, int]) -> Dict[str, object]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.telemetry import backends

    steal, total = cpu_times()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "telemetry_backend": backends.get_backend().name,
        "steal_share": (steal - steal_before[0]) / max(total - steal_before[1], 1),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts on the process backend."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def same_work(units, prefixes: Sequence[str]) -> bool:
    """Whether every unit's work-counter delta (within ``prefixes``) is identical."""
    views = [
        {name: count for name, count in unit.work.items() if name.startswith(tuple(prefixes))}
        for unit in units
    ]
    return all(view == views[0] for view in views)


def end_to_end(units) -> Dict[str, Dict[str, object]]:
    # Means, not medians, over units: unit values switch between speed
    # levels within a run (host regimes; the thread fleet's replay is
    # bimodal from cycle to cycle), and a median jumps between the levels
    # where a mean moves with their mix.
    return {
        "setup_s": metric(fmean([unit.setup_seconds for unit in units]), "s"),
        "pass_s": metric(fmean([unit.seconds for unit in units]), "s"),
        "ops_per_s": metric(
            fmean([ratio(unit.ops, unit.ops_seconds) for unit in units]), "1/s"
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def per_layer(untraced, traced, traced_spans) -> Dict[str, Dict[str, object]]:
    layers: Dict[str, List[float]] = {name: [] for name in LAYER_SPANS}
    submit_block: List[float] = []
    coverages: List[float] = []
    for unit, spans in zip(traced, traced_spans):
        totals = self_seconds(spans)
        for name in LAYER_SPANS:
            layers[name].append(totals.get(name, 0.0))
        # Submitting-thread time blocked in submit during the replay only.
        submit_block.append(
            sum(
                seconds
                for span, seconds in zip(spans, span_self_seconds(spans))
                if span.name == "service.submit"
                and span.parent is not None
                and spans[span.parent].name == "bench.replay"
            )
        )
        coverages.append(coverage(spans, unit.start, unit.end))
    metrics = {f"{name}_s": metric(median(values), "s") for name, values in layers.items()}
    metrics["service.submit_block_s"] = metric(median(submit_block), "s")

    work = untraced[0].work
    metrics["minla.verifier.full_check_frac"] = metric(
        ratio(
            work.get("minla.verifier.full_checks", 0),
            work.get("minla.verifier.full_checks", 0)
            + work.get("minla.verifier.incremental_checks", 0),
        ),
        "fraction",
    )
    metrics["telemetry.elements_per_call"] = metric(
        ratio(
            work.get("telemetry.backends.elements", 0),
            work.get("telemetry.backends.calls", 0),
        ),
        "count",
    )
    metrics["core.permutation.swaps"] = metric(
        work.get("core.permutation.swaps", 0), "count"
    )
    for name, unit_name in SERVICE_STATS:
        values = [unit.stats[name] for unit in untraced if name in unit.stats]
        metrics[name] = metric(median(values) if values else 0.0, unit_name)
    metrics["trace.overhead_frac"] = metric(
        median([unit.end - unit.start for unit in traced])
        / median([unit.end - unit.start for unit in untraced])
        - 1.0,
        "fraction",
    )
    metrics["trace.coverage_frac"] = metric(median(coverages), "fraction")
    return metrics


def write_spans(path: Path, facts, traced_spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write(json.dumps({"host": facts}) + "\n")
        for unit_index, spans in enumerate(traced_spans):
            for index, span in enumerate(spans):
                out.write(
                    json.dumps(
                        [unit_index, span.thread, index, span.parent, span.name,
                         span.start, span.end, span.layer]
                    )
                    + "\n"
                )


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))

    import units

    if args.workload not in units.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; choose one of "
              f"{sorted(units.WORKLOADS)}", file=sys.stderr)
        return 2
    steal_before = cpu_times()
    workload = units.WORKLOADS[args.workload](args.seed)
    if args.workload == "serve":
        # The thread fleet cannot use a second core (one interpreter lock),
        # and unpinned its throughput is set by lock convoys across cores.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = Tracer()
    if args.trace:
        units.register_layers(tracer)

    tally = OpTally()
    workload.prepare()
    untraced, traced, traced_spans = [], [], []
    started = time.perf_counter()
    while True:
        trace_this = args.trace and len(traced) < len(untraced)
        if trace_this:
            tracer.install()
        try:
            unit = workload.unit(tracer, tally)
        finally:
            if trace_this:
                tracer.uninstall()
        if trace_this:
            traced.append(unit)
            traced_spans.append(tracer.take())
        else:
            untraced.append(unit)
        if tally.failed:
            break
        done = untraced + traced
        enough = (
            len(traced) >= MIN_TRACED_UNITS and len(untraced) >= MIN_TRACED_UNITS
            if args.trace
            else len(untraced) >= MIN_UNITS
        )
        # Start no unit that a typical unit's time would carry past the end.
        elapsed = time.perf_counter() - started
        typical = median([u.end - u.start for u in done])
        if enough and elapsed + typical > args.seconds:
            break

    units_run = untraced + traced
    work_ok = same_work(units_run, workload.same_work_prefixes)
    if not work_ok:
        tally.errors.append("work counters differ between units of one seed")
    facts = host_facts(steal_before)
    print(json.dumps({"host": facts}))
    print(json.dumps({
        "units": len(units_run),
        "unit_seconds": [round(unit.seconds, 4) for unit in units_run],
        "unit_ops_per_s": [round(ratio(unit.ops, unit.ops_seconds), 1) for unit in units_run],
        "unit_setup_s": [round(unit.setup_seconds, 5) for unit in units_run],
        "work": {name: count for name, count in units_run[0].work.items()
                 if name.startswith("core.")},
        "same_work": work_ok,
        "errors": tally.errors,
    }))
    if args.trace and not traced:
        metrics = {}  # a check failed before the first traced unit
    elif args.trace:
        metrics = per_layer(untraced, traced, traced_spans)
        write_spans(
            OUTPUT_DIRECTORY / f"spans-{args.workload}-seed{args.seed}.jsonl.gz",
            facts,
            traced_spans,
        )
    else:
        metrics = end_to_end(untraced)
    stop_resource_tracker()
    correct = work_ok and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
