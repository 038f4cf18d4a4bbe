"""Admission control: priority ordering, shedding, query normalization."""

import pytest

from repro.serve import QueryService, ServePipeline, ServeQuery
from repro.serve.admission import OUTCOMES, SHED, admit

pytestmark = pytest.mark.serve


class TestServeQuery:
    def test_coerces_types(self):
        q = ServeQuery("3", "7", priority="2", deadline="1.5")
        assert q.key == (3, 7)
        assert q.priority == 2 and q.deadline == 1.5

    def test_defaults(self):
        q = ServeQuery(0, 1)
        assert q.priority == 0 and q.deadline is None


class TestAdmissionController:
    """``admit`` orders one batch by priority and cuts it at capacity."""

    def test_unbounded_admits_all_in_priority_order(self):
        qs = [ServeQuery(0, 1, priority=0), ServeQuery(2, 3, priority=5),
              ServeQuery(4, 5, priority=5)]
        admitted, shed = admit(qs, None)
        assert [q.key for q in admitted] == [(2, 3), (4, 5), (0, 1)]
        assert shed == []

    def test_sheds_lowest_priority_latest_submitted(self):
        qs = [ServeQuery(0, 1, priority=1), ServeQuery(2, 3, priority=0),
              ServeQuery(4, 5, priority=0), ServeQuery(6, 7, priority=2)]
        admitted, shed = admit(qs, 2)
        assert [q.key for q in admitted] == [(6, 7), (0, 1)]
        # ties broken by submission order; the later 0-priority sheds last
        assert [q.key for q in shed] == [(2, 3), (4, 5)]

    def test_deterministic(self):
        qs = [ServeQuery(i, i + 1, priority=i % 3) for i in range(9)]
        first = admit(qs, 4)
        second = admit(qs, 4)
        assert [q.key for q in first[0]] == [q.key for q in second[0]]
        assert [q.key for q in first[1]] == [q.key for q in second[1]]

    def test_rejects_nonpositive_capacity(self, serve_graph):
        # Refused when built, not by failing every query of every run.
        for max_queue in (0, -1):
            with pytest.raises(ValueError, match="max_queue"):
                ServePipeline(serve_graph, max_queue=max_queue)
            with pytest.raises(ValueError, match="max_queue"):
                QueryService(serve_graph, max_queue=max_queue)

    def test_outcome_vocabulary_is_closed(self):
        assert set(OUTCOMES) == {
            "ok", "inexact", "shed", "timeout", "failed", "repaired",
        }


class TestPipelineAdmission:
    def test_shed_outcome_recorded(self, serve_graph, serve_pairs):
        pipe = ServePipeline(serve_graph, max_queue=3)
        res = pipe.run([(s, t, i) for i, (s, t) in enumerate(serve_pairs[:5])])
        assert res.counts() == {"ok": 3, "shed": 2}
        # lowest-priority submissions shed; they carry no distance
        shed = [key for key, ans in res.answers.items() if ans.outcome == SHED]
        assert set(shed) == {serve_pairs[0], serve_pairs[1]}
        for key in shed:
            assert key not in res.distances
            assert res.distance(*key) == float("inf")

    def test_duplicate_keys_collapse_keeping_max_priority(self, serve_graph, serve_pairs):
        s, t = serve_pairs[0]
        pipe = ServePipeline(serve_graph)
        res = pipe.run([(s, t, 0), (s, t, 9), serve_pairs[1]])
        assert len(res.distances) == 2
        assert res.counts() == {"ok": 2}

    def test_invalid_vertex_rejected_at_admission(self, serve_graph):
        with pytest.raises(ValueError):
            ServePipeline(serve_graph).run([(0, serve_graph.num_vertices + 5)])

    def test_unknown_method_rejected(self, serve_graph):
        with pytest.raises(ValueError, match="unknown serve method"):
            ServePipeline(serve_graph, method="magic")

    def test_empty_batch(self, serve_graph):
        res = ServePipeline(serve_graph).run([])
        assert res.distances == {} and res.counts() == {}
