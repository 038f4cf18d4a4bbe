"""QuerySpan acceptance: one record per method, complete and round-trip.

With an observer installed, a single query per method yields one
QuerySpan JSON record that round-trips and carries work, depth, steps,
pruned, the μ-settled step, cache hit/miss counts, and budget fields —
for each of the five single-query methods.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import ppsp
from repro.graphs import road_graph
from repro.obs import Observer, QuerySpan
from repro.robustness import Budget

pytestmark = pytest.mark.obs

METHODS = ("sssp", "et", "astar", "bids", "bidastar")


@pytest.fixture(scope="module")
def graph():
    return road_graph(10, 10, seed=5, name="span-road")


@pytest.fixture(scope="module")
def spans(graph):
    """One complete span per method: engine + cache + budget data,
    each query under a generous budget."""
    obs = Observer()
    s, t = 0, graph.num_vertices - 1
    out = {}
    for method in METHODS:
        with obs.span(method, source=s, target=t) as span:
            ans = ppsp(graph, s, t, method=method, observer=obs,
                       budget=Budget(max_steps=10**6))
            span.distance = ans.distance
        out[method] = span
    return out


@pytest.mark.parametrize("method", METHODS)
class TestSpanAcceptance:
    def test_engine_fields_populated(self, spans, method):
        span = spans[method]
        assert span.runs == 1
        assert span.work > 0
        assert span.depth > 0
        assert span.steps > 0
        assert span.relaxations > 0
        assert span.peak_frontier > 0
        assert span.pruned >= 0
        if method != "sssp":  # sssp maintains no mu; everyone else settles
            assert span.mu_settled_step is not None
            assert math.isfinite(span.final_mu)

    def test_cache_fields_populated(self, spans, method):
        span = spans[method]
        d = span.to_dict()
        assert set(d["cache"]) == {"hits", "misses", "evictions", "layers"}

    def test_budget_fields_populated(self, spans, method):
        budget = spans[method].budget
        assert budget is not None
        assert budget["exhausted"] is False
        assert budget["steps"] == spans[method].steps
        assert {"reason", "relaxations", "elapsed_seconds", "limits"} <= set(budget)

    def test_record_roundtrips_through_json(self, spans, method):
        span = spans[method]
        text = span.to_json()
        json.loads(text)  # strict JSON, no NaN/Infinity literals
        back = QuerySpan.from_json(text)
        # Compare re-encoded: NaN != NaN, but its "nan" encoding is stable.
        assert back.to_json() == text

    def test_record_contains_required_keys(self, spans, method):
        d = json.loads(spans[method].to_json())
        for key in ("work", "depth", "steps", "pruned", "mu_settled_step",
                    "cache", "budget", "distance", "wall_seconds"):
            assert key in d, key
        assert d["method"] == method


class TestSpanFolding:
    def test_spans_nest_and_shadow(self, graph):
        obs = Observer()
        with obs.span("outer") as outer:
            ppsp(graph, 0, 5, method="bids", observer=obs)
            with obs.span("inner") as inner:
                ppsp(graph, 0, 7, method="bids", observer=obs)
            ppsp(graph, 0, 9, method="bids", observer=obs)
        assert inner.runs == 1
        assert outer.runs == 2  # the inner query folded only into inner

    def test_exhausted_budget_marks_span_inexact(self, graph):
        obs = Observer()
        with obs.span("bids") as span:
            ppsp(graph, 0, graph.num_vertices - 1, method="bids",
                 observer=obs, budget=Budget(max_steps=1))
        assert span.exhausted
        assert not span.exact
        assert span.budget["exhausted"] is True

    def test_non_finite_floats_encode_as_strings(self):
        span = QuerySpan(method="x", final_mu=math.inf, distance=math.nan)
        d = json.loads(span.to_json())
        assert d["final_mu"] == "inf"
        assert d["distance"] == "nan"
        back = QuerySpan.from_json(span.to_json())
        assert back.final_mu == math.inf
        assert math.isnan(back.distance)

    def test_unknown_cache_event_rejected(self):
        with pytest.raises(ValueError, match="unknown cache event"):
            QuerySpan(method="x").fold_cache("result", "explode")

    def test_max_spans_bound(self, graph):
        obs = Observer(max_spans=3)
        for i in range(6):
            with obs.span(f"m{i}"):
                pass
        assert len(obs.spans) == 3
        assert [s.method for s in obs.spans] == ["m3", "m4", "m5"]
