"""The four workloads: one repeatable unit each, driven through ``repro``'s API.

A unit (a pass or a cycle) regenerates its inputs from the run's seed, so
every unit of one seed does the same algorithmic work; ``run.py`` checks
that through the work-counter deltas.  Every unit verifies its outputs and
accounts the operations it attempted (reveal steps or requests) in an
:class:`~benchstats.OpTally`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import repro
from repro import dynamic_minla, service
from repro.minla.characterizations import IncrementalStepVerifier
from repro.obs.profile import work_delta, work_snapshot
from repro.service.loadgen import CLOSED_LOOP_BATCH_TIMEOUT
from repro.telemetry import backends
from repro.vnet import LinearDatacenter

from benchstats import OpTally, due_time_latencies, nearest_rank, ratio
from benchtrace import Tracer

clock = time.perf_counter

#: learn: one random instance per kind at this size, verified trials each.
LEARN_NODES = 256
LEARN_TRIALS = 16
#: dynamic: E9's full-scale shape.
DYNAMIC_GROUPS = 6
DYNAMIC_GROUP_SIZE = 12
DYNAMIC_REQUESTS = 4_000
#: serve*: the zipf-tenants stream on one shard.  At 4 000 req/s neither
#: backend backlogs; the process backend does at 8 000 req/s during the
#: stream's reveal-heavy prefix, so that rate would measure the backlog.
SERVE_SCENARIO = "zipf-tenants"
SERVE_NODES = 2_048
SERVE_REQUESTS = 8_000
SERVE_BATCH = 16
SERVE_RATE = 4_000.0
SERVE_QUEUE_CAPACITY = 1_024


@dataclass
class Unit:
    """What one pass or cycle measured."""

    start: float
    end: float
    setup_seconds: float
    ops: int
    """Verified operations the throughput figure counts."""
    ops_seconds: float
    """Wall time those operations took."""
    work: Dict[str, int]
    """Work-counter delta of the whole unit."""
    stats: Dict[str, float] = field(default_factory=dict)
    """Per-layer figures the service reports (serve* only)."""

    @property
    def seconds(self) -> float:
        """Unit wall time without its set-up."""
        return self.end - self.start - self.setup_seconds


def register_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    tracer.add_method(repro.OnlineMinLAAlgorithm, "process", "core.process")
    tracer.add_method(IncrementalStepVerifier, "observe", "minla.verify")
    tracer.add_method(IncrementalStepVerifier, "check_step", "minla.verify")
    tracer.add_function(repro.offline_optimum_bounds, "core.opt")
    tracer.add_function(repro.closest_feasible_arrangement, "minla.closest")
    backend_class = type(backends.get_backend())
    for method in ("count_inversions", "count_cross_inversions", "count_inversions_batch"):
        for owner in backend_class.__mro__:
            if method in vars(owner):
                tracer.add_method(owner, method, "telemetry.count")
                break
    tracer.add_method(dynamic_minla.DynamicMinLAAlgorithm, "serve", "dynamic.serve")
    # run_dynamic's verification is the Kendall-tau recount it makes itself,
    # outside any serve() call.
    tracer.add_method(
        repro.Arrangement, "kendall_tau", "dynamic.verify", outermost_only=True
    )
    tracer.add_method(service.ArrangementService, "submit", "service.submit")
    tracer.add_method(service.ShardEngine, "serve_batch", "service.engine")


class Workload:
    """One workload: ``prepare`` once per run, then ``unit`` repeatedly."""

    name = ""
    #: Work counters that must repeat exactly across the units of one seed.
    same_work_prefixes: Tuple[str, ...] = ("",)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Run-level work that is not measured (reference results)."""

    def unit(self, tracer: Tracer, tally: OpTally) -> Unit:
        raise NotImplementedError


# ----------------------------------------------------------------------
# learn — the paper's main result (E2/E3 shape)
# ----------------------------------------------------------------------
class Learn(Workload):
    """One clique-merge and one line instance, OPT bracket plus Rand trials."""

    name = "learn"

    def _inputs(self) -> List[Tuple[str, "repro.OnlineMinLAInstance"]]:
        inputs = []
        for kind, generate in (
            ("cliques", repro.random_clique_merge_sequence),
            ("lines", repro.random_line_sequence),
        ):
            rng = random.Random(f"{self.seed}|learn|{kind}")
            sequence = generate(LEARN_NODES, rng)
            inputs.append(
                (kind, repro.OnlineMinLAInstance.with_random_start(sequence, rng))
            )
        return inputs

    def unit(self, tracer: Tracer, tally: OpTally) -> Unit:
        before = work_snapshot()
        start = clock()
        inputs = self._inputs()
        setup_seconds = clock() - start
        steps = 0
        learner_seconds = 0.0
        for kind, instance in inputs:
            if kind == "cliques":
                factory = repro.RandomizedCliqueLearner
                ratio_bound = repro.rand_cliques_ratio_bound(instance.num_nodes)
            else:
                factory = repro.RandomizedLineLearner
                ratio_bound = repro.rand_lines_ratio_bound(instance.num_nodes)
            operations = LEARN_TRIALS * instance.num_steps
            try:
                opt = repro.offline_optimum_bounds(instance)
                began = clock()
                results = repro.run_trials(
                    factory,
                    instance,
                    num_trials=LEARN_TRIALS,
                    seed=self.seed,
                    verify=True,
                    jobs=1,
                )
                learner_seconds += clock() - began
                steps += operations
                mean_cost = repro.expected_cost(results)
                # Theorems 6 and 14: E[cost] <= c * H_n * OPT <= c * H_n * OPT_ub.
                ok = (
                    len(results) == LEARN_TRIALS
                    and 0 <= opt.lower <= opt.upper
                    and mean_cost <= ratio_bound * opt.upper
                )
                what = f"{kind}: mean cost {mean_cost} vs bound {ratio_bound} * {opt.upper}"
            except repro.ReproError as error:
                ok, what = False, f"{kind}: {error!r}"
            tally.check(operations, ok, what)
        end = clock()
        return Unit(
            start=start,
            end=end,
            setup_seconds=setup_seconds,
            ops=steps,
            ops_seconds=learner_seconds,
            work=work_delta(before, work_snapshot()),
        )


# ----------------------------------------------------------------------
# dynamic — E9's dynamic MinLA comparison
# ----------------------------------------------------------------------
def _contestants(kind: "repro.GraphKind") -> Dict[str, Callable[[], object]]:
    """E9's four algorithms for one pattern kind."""
    learner = (
        repro.RandomizedCliqueLearner
        if kind is repro.GraphKind.CLIQUES
        else repro.RandomizedLineLearner
    )
    return {
        "never move": dynamic_minla.NeverMoveAlgorithm,
        "move-to-front pair": dynamic_minla.MoveToFrontPairAlgorithm,
        "move smaller component": dynamic_minla.MoveSmallerComponentAlgorithm,
        "learning rand (paper)": lambda: dynamic_minla.CollocateLearnerAdapter(
            learner, kind, name="learning rand (paper)"
        ),
    }


class Dynamic(Workload):
    """Both E9 patterns, all four contestants, ``run_dynamic(verify=True)``."""

    name = "dynamic"

    def _inputs(self) -> list:
        inputs = []
        sizes = [DYNAMIC_GROUP_SIZE] * DYNAMIC_GROUPS
        for pattern, kind, generate in (
            ("tenant cliques", repro.GraphKind.CLIQUES, dynamic_minla.requests_from_clique_pattern),
            ("pipelines", repro.GraphKind.LINES, dynamic_minla.requests_from_line_pattern),
        ):
            rng = random.Random(f"{self.seed}|dynamic|{pattern}")
            nodes, requests = generate(sizes, DYNAMIC_REQUESTS, rng)
            inputs.append((pattern, kind, nodes, requests, repro.random_arrangement(nodes, rng)))
        return inputs

    def unit(self, tracer: Tracer, tally: OpTally) -> Unit:
        before = work_snapshot()
        start = clock()
        inputs = self._inputs()
        setup_seconds = clock() - start
        served = 0
        began = clock()
        for pattern, kind, nodes, requests, initial in inputs:
            contestants = _contestants(kind)
            operations = len(contestants) * len(requests)
            try:
                totals = {}
                for label, factory in contestants.items():
                    result = dynamic_minla.run_dynamic(
                        factory(),
                        nodes,
                        requests,
                        initial,
                        rng=random.Random(f"{self.seed}|dynamic-run|{pattern}|{label}"),
                        verify=True,
                    )
                    if len(result.records) != len(requests):
                        raise repro.ReproError(f"{label} served {len(result.records)} requests")
                    totals[label] = result.total_cost
                ok = totals["learning rand (paper)"] < totals["never move"]
                what = f"{pattern}: learner total {totals['learning rand (paper)']} vs never-move {totals['never move']}"
            except repro.ReproError as error:
                ok, what = False, f"{pattern}: {error!r}"
            if tally.check(operations, ok, what):
                served += operations
        end = clock()
        return Unit(
            start=start,
            end=end,
            setup_seconds=setup_seconds,
            ops=served,
            ops_seconds=end - began,
            work=work_delta(before, work_snapshot()),
        )


# ----------------------------------------------------------------------
# serve / serve-process — the serving layer on each backend
# ----------------------------------------------------------------------
class Serve(Workload):
    """Replay the stream to one deployment, then serve it open loop to another."""

    name = "serve"
    backend = "thread"
    # Batch composition in the open-loop half depends on timing; the
    # learner's own work (reveals in request order) does not.
    same_work_prefixes = ("core.",)

    def _inputs(self, tracer: Tracer) -> "Tuple[object, list, object]":
        with tracer.span("workloads.generate"):
            stream = repro.get_scenario(SERVE_SCENARIO).request_stream(
                SERVE_NODES, SERVE_REQUESTS, self.seed
            )
            requests = list(stream)
        with tracer.span("service.partition"):
            partition = service.discover_stream_partition(stream, 1)
        return stream, requests, partition

    def _deploy(self, tracer: Tracer, stream, partition, batch_timeout) -> "service.ArrangementService":
        with tracer.span("service.start"):
            deployment = service.build_traffic_service(
                stream,
                num_shards=1,
                learner="rand",
                seed=self.seed,
                batch_size=SERVE_BATCH,
                batch_timeout=batch_timeout,
                queue_capacity=SERVE_QUEUE_CAPACITY,
                partition=partition,
                backend=self.backend,
                retain_results=True,
            )
            deployment.start()
        return deployment

    def prepare(self) -> None:
        """The E14 anchor: the same stream through one engine, sequentially."""
        stream = repro.get_scenario(SERVE_SCENARIO).request_stream(
            SERVE_NODES, SERVE_REQUESTS, self.seed
        )
        requests = list(stream)
        (nodes,) = service.discover_stream_partition(stream, 1).shard_nodes
        engine = service.ShardEngine(
            0,
            nodes,
            stream.kind,
            service.learner_factory(stream.kind, "rand"),
            rng=service.shard_rng(self.seed, 0),
            datacenter=LinearDatacenter(len(nodes)),
        )
        records = []
        for first in range(0, len(requests), SERVE_BATCH):
            records.extend(engine.serve_batch(requests[first : first + SERVE_BATCH]))
        self._reference = [
            (record.migration_swaps, record.communication_cost) for record in records
        ]
        self._reference_report = engine.report()

    def unit(self, tracer: Tracer, tally: OpTally) -> Unit:
        before = work_snapshot()
        start = clock()
        stream, requests, partition = self._inputs(tracer)
        setup_seconds = clock() - start
        stats: Dict[str, float] = {}
        replay_setup, replayed, replay_seconds = self._replay(
            tracer, tally, stream, requests, partition, stats
        )
        open_setup = self._open_loop(tracer, tally, stream, requests, partition, stats)
        end = clock()
        return Unit(
            start=start,
            end=end,
            setup_seconds=setup_seconds + replay_setup + open_setup,
            ops=replayed,
            ops_seconds=replay_seconds,
            work=work_delta(before, work_snapshot()),
            stats=stats,
        )

    def _replay(self, tracer, tally, stream, requests, partition, stats):
        """Back to back, batch composition fixed by request order.

        Returns ``(set-up seconds, verified requests, replay seconds)``.
        """
        began = clock()
        replay = self._deploy(tracer, stream, partition, None)
        setup_seconds = clock() - began
        cache_before = work_snapshot()
        replay_seconds = 0.0
        try:
            with tracer.span("bench.replay", layer=False):
                replay_start = clock()
                for pair in requests:
                    replay.submit(pair)
                results = replay.drain()
                replay_seconds = clock() - replay_start
            (report,) = replay.shard_reports()
            (worker,) = replay.worker_stats()
            served = [
                (result.migration_swaps, result.communication_cost)
                for result in results
            ]
            ok = (
                [result.request_index for result in results] == list(range(len(requests)))
                and served == self._reference
                and report.migration_swaps == self._reference_report.migration_swaps
                and report.communication_cost
                == self._reference_report.communication_cost
            )
            what = "replay totals differ from the sequential ShardEngine reference"
        except repro.ReproError as error:
            ok, what = False, f"replay: {error!r}"
        finally:
            replay.close()
        if not tally.check(len(requests), ok, what):
            return setup_seconds, 0, replay_seconds
        cache = work_delta(cache_before, work_snapshot())
        hits = cache.get("vnet.distance_cache.hits", 0)
        stats["service.engine_busy_frac"] = worker.busy_fraction
        stats["vnet.distance_cache.hit_ratio"] = ratio(
            hits, hits + cache.get("vnet.distance_cache.misses", 0)
        )
        return setup_seconds, len(requests), replay_seconds

    def _open_loop(self, tracer, tally, stream, requests, partition, stats) -> float:
        """A seeded Poisson schedule, each request timed from when it was due.

        Returns the set-up seconds.
        """
        began = clock()
        open_loop = self._deploy(tracer, stream, partition, CLOSED_LOOP_BATCH_TIMEOUT)
        setup_seconds = clock() - began
        arrivals = random.Random(f"{self.seed}|e2ebench-arrivals")
        dues: List[float] = []
        submits: List[float] = []
        try:
            with tracer.span("bench.open_loop", layer=False):
                due = clock()
                for pair in requests:
                    due += arrivals.expovariate(SERVE_RATE)
                    delay = due - clock()
                    if delay > 0:
                        time.sleep(delay)
                    dues.append(due)
                    submits.append(clock())
                    open_loop.submit(pair)
                results = open_loop.drain()
            ok = [result.request_index for result in results] == list(range(len(requests)))
            what = "the open-loop cycle did not serve every request exactly once"
        except repro.ReproError as error:
            ok, what = False, f"open loop: {error!r}"
        finally:
            open_loop.close()
        if not tally.check(len(requests), ok, what):
            return setup_seconds
        latencies = due_time_latencies(
            dues, submits, [result.latency_seconds for result in results]
        )
        stats["service.latency_p50_ms"] = 1e3 * nearest_rank(latencies, 0.5)
        stats["service.latency_p99_ms"] = 1e3 * nearest_rank(latencies, 0.99)
        stats["loadgen.late_p99_ms"] = 1e3 * nearest_rank(
            [submit - due for due, submit in zip(dues, submits)], 0.99
        )
        stats["loadgen.samples"] = float(len(latencies))
        stats["service.batch_mean"] = sum(
            result.batch_size for result in results
        ) / len(results)
        stats["service.queue_wait_p50_ms"] = 1e3 * nearest_rank(
            [result.queue_seconds for result in results], 0.5
        )
        return setup_seconds


class ServeProcess(Serve):
    """The same cycle on the process backend: one forked worker per deployment."""

    name = "serve-process"
    backend = "process"


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (Learn, Dynamic, Serve, ServeProcess)
}
