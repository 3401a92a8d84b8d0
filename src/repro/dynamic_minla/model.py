"""The dynamic MinLA (itinerant list update) cost model of Olver et al.

Section 1.3 of the paper relates online learning MinLA to the *dynamic*
minimum linear arrangement problem introduced at WAOA 2018: the nodes live on
a line, requests are node pairs, serving a request costs the current distance
between the two nodes, and after serving the algorithm may rearrange the
nodes, paying one unit per swap of adjacent nodes.  Crucially, the dynamic
problem does **not** force the permutation to be a MinLA of the revealed
graph — collocation is priced, not mandated.

This sub-package implements that cost model as a baseline substrate so that
experiment E9 can compare, on the same traffic, (a) the paper's learning
algorithms (which enforce MinLA feasibility) against (b) the classic dynamic
MinLA heuristics (which only chase cheap requests).  The comparison
illustrates the price and the benefit of the learning model's stricter
requirement.

Rearrangement swaps are charged through the same telemetry machinery as the
core experiments: every rearrangement is recorded as an
:class:`~repro.core.cost.UpdateRecord` (with its moving/rearranging phase
split, which the learner adapter passes through verbatim) in a
:class:`~repro.core.cost.CostLedger`, and :func:`run_dynamic` can stream the
records into a :class:`~repro.telemetry.trace.CostTrace`.  E9 therefore
reports phase-split costs identically to E2/E3.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.cost import CostLedger, UpdateRecord
from repro.core.permutation import Arrangement
from repro.errors import ReproError
from repro.graphs.reveal import RevealStep
from repro.telemetry.backends import kendall_tau_delta
from repro.telemetry.trace import CostTrace, TraceRecorder

Node = Hashable


@dataclass(frozen=True)
class DynamicRequest:
    """One communication request between two (distinct) nodes."""

    u: Node
    v: Node

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ReproError("a request must involve two distinct nodes")


@dataclass(frozen=True)
class ServeRecord:
    """Cost breakdown of serving one request."""

    request: DynamicRequest
    serve_cost: int
    """Distance between the endpoints at the moment the request arrives."""
    move_cost: int
    """Adjacent swaps spent rearranging after serving."""

    @property
    def total_cost(self) -> int:
        """Serve plus rearrangement cost of this request."""
        return self.serve_cost + self.move_cost


@dataclass
class DynamicRunResult:
    """Outcome of running a dynamic MinLA algorithm on a request sequence."""

    algorithm_name: str
    records: List[ServeRecord] = field(default_factory=list)
    final_arrangement: Optional[Arrangement] = None
    rearrangement_ledger: Optional[CostLedger] = None
    """Per-request rearrangement swaps with their moving/rearranging split."""
    trace: Optional[CostTrace] = None
    """Streamed trace of the rearrangement swaps when the run was traced."""

    @property
    def total_serve_cost(self) -> int:
        """Sum of request distances paid."""
        return sum(record.serve_cost for record in self.records)

    @property
    def total_move_cost(self) -> int:
        """Sum of rearrangement costs paid."""
        return sum(record.move_cost for record in self.records)

    @property
    def total_cost(self) -> int:
        """The dynamic MinLA objective: serve plus move cost."""
        return self.total_serve_cost + self.total_move_cost

    @property
    def total_moving_cost(self) -> int:
        """Rearrangement swaps attributed to moving phases."""
        if self.rearrangement_ledger is None:
            return self.total_move_cost
        return self.rearrangement_ledger.total_moving_cost

    @property
    def total_rearranging_cost(self) -> int:
        """Rearrangement swaps attributed to rearranging (orientation) phases."""
        if self.rearrangement_ledger is None:
            return 0
        return self.rearrangement_ledger.total_rearranging_cost


class DynamicMinLAAlgorithm(abc.ABC):
    """Base class for algorithms in the dynamic MinLA cost model.

    Every rearrangement is additionally charged to a
    :class:`~repro.core.cost.CostLedger` as an
    :class:`~repro.core.cost.UpdateRecord`.  Plain heuristics report their
    whole rearrangement as moving cost; an implementation that distinguishes
    phases (the learner adapter) calls :meth:`_charge_phase_split` inside
    :meth:`_rearrange` and the split is recorded instead.
    """

    name: str = "dynamic-minla-algorithm"

    def __init__(self) -> None:
        self._arrangement: Optional[Arrangement] = None
        self._rng: random.Random = random.Random(0)
        self._ledger = CostLedger()
        self._pending_split: Optional[Tuple[int, int, int]] = None

    def reset(
        self,
        nodes: Sequence[Node],
        initial_arrangement: Arrangement,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Prepare for a fresh run starting from ``initial_arrangement``."""
        if initial_arrangement.nodes != frozenset(nodes):
            raise ReproError("initial arrangement does not match the node universe")
        self._arrangement = initial_arrangement
        self._rng = rng if rng is not None else random.Random(0)
        self._ledger = CostLedger()
        self._pending_split = None
        self._after_reset()

    def _after_reset(self) -> None:
        """Hook for subclasses that keep extra per-run state."""

    @property
    def current_arrangement(self) -> Arrangement:
        """The permutation currently maintained by the algorithm."""
        if self._arrangement is None:
            raise ReproError("the algorithm has not been reset yet")
        return self._arrangement

    @property
    def ledger(self) -> CostLedger:
        """The run's rearrangement swaps as phase-attributed update records."""
        return self._ledger

    def _charge_phase_split(
        self, moving_cost: int, rearranging_cost: int, kendall_tau: int
    ) -> None:
        """Report the phase split of the rearrangement being computed.

        Called by :meth:`_rearrange` implementations that know how their
        swaps divide into a moving and a rearranging phase; :meth:`serve`
        validates the split against the returned total.
        """
        self._pending_split = (moving_cost, rearranging_cost, kendall_tau)

    def serve(self, request: DynamicRequest) -> ServeRecord:
        """Serve one request: pay its distance, then optionally rearrange."""
        arrangement = self.current_arrangement
        serve_cost = abs(
            arrangement.position(request.u) - arrangement.position(request.v)
        )
        self._pending_split = None
        new_arrangement, move_cost = self._rearrange(request)
        # The very same object cannot have changed the node universe.
        if new_arrangement is not arrangement and new_arrangement.nodes != arrangement.nodes:
            raise ReproError("rearranging must not change the node universe")
        if self._pending_split is None:
            # The block operations of the plain heuristics are swap-exact
            # single-block moves: all swaps are moving swaps and the
            # Kendall-tau distance equals the swap count.
            moving_cost, rearranging_cost, kendall_tau = move_cost, 0, move_cost
        else:
            moving_cost, rearranging_cost, kendall_tau = self._pending_split
            if moving_cost + rearranging_cost != move_cost:
                raise ReproError(
                    f"{self.name} reported a phase split of "
                    f"{moving_cost} + {rearranging_cost} swaps for a "
                    f"rearrangement of {move_cost} swaps"
                )
        self._ledger.add(
            UpdateRecord(
                step_index=len(self._ledger),
                step=RevealStep(request.u, request.v),
                moving_cost=moving_cost,
                rearranging_cost=rearranging_cost,
                kendall_tau=kendall_tau,
            )
        )
        self._arrangement = new_arrangement
        return ServeRecord(request=request, serve_cost=serve_cost, move_cost=move_cost)

    @abc.abstractmethod
    def _rearrange(self, request: DynamicRequest) -> Tuple[Arrangement, int]:
        """Return the post-request arrangement and the swaps spent reaching it."""


def run_dynamic(
    algorithm: DynamicMinLAAlgorithm,
    nodes: Sequence[Node],
    requests: Sequence[DynamicRequest],
    initial_arrangement: Arrangement,
    rng: Optional[random.Random] = None,
    verify: bool = True,
    trace_every: Optional[int] = None,
) -> DynamicRunResult:
    """Run one dynamic MinLA algorithm over a request sequence.

    ``trace_every`` streams the rearrangement swaps (with their phase split)
    into a :class:`~repro.telemetry.trace.CostTrace`, exactly as
    ``run_online`` does for the learning model.
    """
    algorithm.reset(nodes, initial_arrangement, rng=rng)
    result = DynamicRunResult(algorithm_name=algorithm.name)
    recorder = TraceRecorder(every=trace_every) if trace_every is not None else None
    previous = initial_arrangement
    for request in requests:
        record = algorithm.serve(request)
        current = algorithm.current_arrangement
        if verify and current is not previous:
            actual_distance = kendall_tau_delta(previous.order, current.order)
            if record.move_cost < actual_distance:
                raise ReproError(
                    f"{algorithm.name} under-reported a move cost "
                    f"({record.move_cost} < {actual_distance})"
                )
        if recorder is not None:
            recorder.record_update(algorithm.ledger.records[-1])
        previous = current
        result.records.append(record)
    result.final_arrangement = algorithm.current_arrangement
    result.rearrangement_ledger = algorithm.ledger
    if recorder is not None:
        result.trace = recorder.as_trace()
    return result
