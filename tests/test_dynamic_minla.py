"""Tests for the dynamic MinLA cost model and its baseline algorithms."""

import random

import pytest

from repro.core.permutation import Arrangement, random_arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.dynamic_minla.algorithms import (
    CollocateLearnerAdapter,
    MoveSmallerComponentAlgorithm,
    MoveToFrontPairAlgorithm,
    NeverMoveAlgorithm,
    requests_from_clique_pattern,
    requests_from_line_pattern,
)
from repro.dynamic_minla.model import DynamicRequest, run_dynamic
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind


class TestModel:
    def test_request_validation(self):
        with pytest.raises(ReproError):
            DynamicRequest("a", "a")

    def test_serve_cost_is_current_distance(self):
        nodes = list(range(5))
        requests = [DynamicRequest(0, 4), DynamicRequest(1, 2)]
        result = run_dynamic(NeverMoveAlgorithm(), nodes, requests, Arrangement(nodes))
        assert [record.serve_cost for record in result.records] == [4, 1]
        assert result.total_move_cost == 0
        assert result.total_cost == 5
        assert result.final_arrangement == Arrangement(nodes)

    def test_reset_validation(self):
        algorithm = NeverMoveAlgorithm()
        with pytest.raises(ReproError):
            algorithm.reset([0, 1], Arrangement([0, 1, 2]))
        with pytest.raises(ReproError):
            _ = NeverMoveAlgorithm().current_arrangement


class _UnderReportingSlide(MoveSmallerComponentAlgorithm):
    """Slides the smaller component like its parent but reports one swap fewer."""

    name = "under-reporting-slide"

    def _rearrange(self, request):
        arrangement, cost = super()._rearrange(request)
        return arrangement, max(cost - 1, 0)


class _SilentReversal(NeverMoveAlgorithm):
    """Reverses the block spanning a far-apart request and reports no swaps."""

    name = "silent-reversal"

    def _rearrange(self, request):
        arrangement = self.current_arrangement
        lo, hi = sorted((arrangement.position(request.u), arrangement.position(request.v)))
        if hi - lo < 3:
            return arrangement, 0
        reversed_arrangement, _ = arrangement.reverse_block(arrangement.order[lo : hi + 1])
        return reversed_arrangement, 0


class _UniverseSwapper(NeverMoveAlgorithm):
    """Replaces the rightmost node with a stranger (or only copies the order)."""

    name = "universe-swapper"

    def __init__(self, replace):
        super().__init__()
        self._replace = replace

    def _rearrange(self, request):
        order = list(self.current_arrangement.order)
        if self._replace:
            order[-1] = "stranger"
        return Arrangement(order), 0


class TestVerification:
    def test_under_reported_slide_raises(self):
        nodes = list(range(8))
        requests = [DynamicRequest(0, 5)]
        with pytest.raises(ReproError, match="under-reported a move cost"):
            run_dynamic(_UnderReportingSlide(), nodes, requests, Arrangement(nodes))
        # The verifier is what catches it: the unverified run completes.
        result = run_dynamic(
            _UnderReportingSlide(), nodes, requests, Arrangement(nodes), verify=False
        )
        assert result.total_move_cost == 3

    def test_silent_reversal_after_idle_requests_raises(self):
        nodes = list(range(8))
        requests = [DynamicRequest(0, 1), DynamicRequest(1, 2), DynamicRequest(0, 4)]
        with pytest.raises(ReproError, match=r"under-reported a move cost \(0 < 10\)"):
            run_dynamic(_SilentReversal(), nodes, requests, Arrangement(nodes))

    @pytest.mark.parametrize("verify", [True, False])
    def test_changed_node_universe_raises(self, verify):
        # serve() itself rejects the new universe, with or without verification.
        nodes = list(range(5))
        with pytest.raises(ReproError, match="must not change the node universe"):
            run_dynamic(
                _UniverseSwapper(True),
                nodes,
                [DynamicRequest(0, 1)],
                Arrangement(nodes),
                verify=verify,
            )

    def test_fresh_object_over_the_same_universe_is_accepted(self):
        nodes = list(range(5))
        result = run_dynamic(
            _UniverseSwapper(False), nodes, [DynamicRequest(0, 4)] * 3, Arrangement(nodes)
        )
        assert result.final_arrangement == Arrangement(nodes)
        assert result.total_cost == 12


class TestBaselines:
    def test_move_to_front_pair_collocates_requested_nodes(self):
        nodes = list(range(6))
        requests = [DynamicRequest(0, 5)]
        result = run_dynamic(MoveToFrontPairAlgorithm(), nodes, requests, Arrangement(nodes))
        record = result.records[0]
        assert record.serve_cost == 5
        assert record.move_cost == 4
        final = result.final_arrangement
        assert abs(final.position(0) - final.position(5)) == 1

    def test_move_to_front_pair_no_move_when_adjacent(self):
        nodes = list(range(3))
        result = run_dynamic(
            MoveToFrontPairAlgorithm(), nodes, [DynamicRequest(0, 1)], Arrangement(nodes)
        )
        assert result.total_move_cost == 0

    def test_move_smaller_component_collocates_components(self):
        nodes = list(range(8))
        requests = [
            DynamicRequest(0, 1),
            DynamicRequest(6, 7),
            DynamicRequest(1, 6),
            DynamicRequest(0, 7),
        ]
        result = run_dynamic(
            MoveSmallerComponentAlgorithm(), nodes, requests, Arrangement(nodes)
        )
        final = result.final_arrangement
        assert final.is_contiguous({0, 1, 6, 7})
        # The last request is within the now-collocated component: cheap serve, no move.
        assert result.records[-1].move_cost == 0
        assert result.records[-1].serve_cost <= 3

    def test_repeated_requests_within_component_never_move(self):
        nodes = list(range(4))
        requests = [DynamicRequest(0, 3)] * 3
        result = run_dynamic(
            MoveSmallerComponentAlgorithm(), nodes, requests, Arrangement(nodes)
        )
        assert result.records[0].move_cost > 0
        assert result.records[1].move_cost == 0
        assert result.records[2].move_cost == 0


class TestLearnerAdapter:
    def test_clique_adapter_reveals_once_per_merge(self):
        rng = random.Random(0)
        nodes, requests = requests_from_clique_pattern([4, 4], 200, rng)
        adapter = CollocateLearnerAdapter(RandomizedCliqueLearner, GraphKind.CLIQUES)
        result = run_dynamic(
            adapter, nodes, requests, random_arrangement(nodes, rng), rng=random.Random(1)
        )
        moving_records = [record for record in result.records if record.move_cost > 0]
        # At most one migration per component merge: fewer than n merges overall.
        assert len(moving_records) <= len(nodes) - 1
        # Once the groups are learned, requests are served at distance <= group size.
        late_serves = [record.serve_cost for record in result.records[-50:]]
        assert max(late_serves) <= 4

    def test_line_adapter_skips_invalid_reveals(self):
        nodes = list(range(4))
        # The hidden pattern is NOT a line (a star), so some requests cannot be
        # revealed without breaking the path structure; they must be served in place.
        requests = [DynamicRequest(0, 1), DynamicRequest(0, 2), DynamicRequest(1, 2)]
        adapter = CollocateLearnerAdapter(RandomizedLineLearner, GraphKind.LINES)
        result = run_dynamic(adapter, nodes, requests, Arrangement(nodes), rng=random.Random(0))
        assert len(result.records) == 3

    def test_adapter_requires_reset_before_serving(self):
        adapter = CollocateLearnerAdapter(RandomizedCliqueLearner, GraphKind.CLIQUES)
        with pytest.raises(ReproError):
            adapter.serve(DynamicRequest(0, 1))


class TestRequestGenerators:
    def test_clique_pattern_requests_stay_within_groups(self):
        rng = random.Random(2)
        nodes, requests = requests_from_clique_pattern([3, 5], 100, rng)
        assert len(nodes) == 8
        groups = [set(range(3)), set(range(3, 8))]
        for request in requests:
            assert any(request.u in group and request.v in group for group in groups)

    def test_line_pattern_requests_are_path_edges(self):
        rng = random.Random(3)
        nodes, requests = requests_from_line_pattern([4, 3], 100, rng)
        valid_edges = {(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)}
        for request in requests:
            assert (request.u, request.v) in valid_edges or (
                request.v,
                request.u,
            ) in valid_edges

    def test_generator_validation(self):
        with pytest.raises(ReproError):
            requests_from_clique_pattern([1, 3], 10, random.Random(0))
        with pytest.raises(ReproError):
            requests_from_line_pattern([2], 0, random.Random(0))
