"""Bit-identity digests of engine runs at a scale the golden traces miss.

The 8x8 golden traces (``test_trace_golden.py``) stay sparse and never
prune both halves of a split frontier.  These runs are large enough to
switch the frontier to its dense form, prune extracted and deferred
elements in the same step, and relax waves of thousands of edges.  Each
run is pinned by sha1 digests of its ``dist`` bytes, its per-step work
(``meter.step_work``), its :meth:`StepTrace.to_json` export and its
path, so any change to the floats, the step sequence or the cost
accounting fails here.  Batch entries pin every method's whole
:class:`~repro.core.batch.BatchResult` the same way: distances in key
order, the merged meter, ``details``, search count, certificates and
each pair's path (or the exception it raises).  Regenerate deliberately
with::

    UPDATE_ENGINE_DIGEST=1 PYTHONPATH=src python -m pytest tests/core/test_engine_digest.py

and say in the change why the digests moved.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import ppsp
from repro.core.batch import BATCH_METHODS, solve_batch
from repro.core.paths import PathError
from repro.core.query_graph import QueryGraph
from repro.core.tracing import StepTrace
from repro.experiments.ext_directed import directed_road
from repro.graphs import largest_component, road_graph, social_graph
from repro.heuristics import LandmarkHeuristic, LandmarkSet, MemoizedHeuristic
from repro.robustness import Budget

FIXTURE = Path(__file__).parent / "fixtures" / "engine_digests.json"
UPDATE = os.environ.get("UPDATE_ENGINE_DIGEST") == "1"
METHODS = ("sssp", "et", "astar", "bids", "bidastar")


def _sha1(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha1(data).hexdigest()


def _digest(dist: np.ndarray, meter, trace: StepTrace, paths) -> dict:
    return {
        "dist": _sha1(np.ascontiguousarray(dist).tobytes()),
        "step_work": _sha1(np.asarray(meter.step_work, dtype=np.float64).tobytes()),
        "trace": _sha1(trace.to_json()),
        "path": _sha1(json.dumps(paths)),
    }


def _pairs(graph, count: int, seed: int) -> list[tuple[int, int]]:
    comp = largest_component(graph)
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in rng.choice(comp, size=2, replace=False))
            for _ in range(count)]


def _single(graph, method, s, t, *, landmarks=None) -> dict:
    kwargs = {}
    if landmarks is not None and method in ("astar", "bidastar"):
        # Fresh memoized rows per run: a shared cache would make the
        # evaluation counts, and so the work, depend on run order.
        def h(v):
            return MemoizedHeuristic(LandmarkHeuristic(landmarks, v), graph.num_vertices)
        if method == "astar":
            kwargs["heuristic"] = h(t)
        else:
            kwargs["heuristic_to_source"] = h(s)
            kwargs["heuristic_to_target"] = h(t)
    trace = StepTrace()
    ans = ppsp(graph, s, t, method=method, trace=trace, **kwargs)
    return _digest(ans.run.dist, ans.run.meter, trace, ans.path())


def _batch(graph, queries, **kwargs) -> dict:
    """Digest of one certified batch: every observable of the result."""
    res = solve_batch(graph, queries, certify=True, **kwargs)
    pairs = queries.original_pairs if isinstance(queries, QueryGraph) else queries
    paths = []
    for s, t in pairs:
        for a, b in ((s, t), (t, s)):
            try:
                paths.append(res.path(a, b))
            except (PathError, NotImplementedError, KeyError, ValueError) as exc:
                paths.append(type(exc).__name__)
    details = dict(res.details)
    if "budget_report" in details:
        # Elapsed wall time is the one field that never repeats.
        report = details["budget_report"].to_dict()
        report.pop("elapsed_seconds")
        details["budget_report"] = report
    payload = {
        "distances": [[s, t, d] for (s, t), d in res.distances.items()],
        "work": res.meter.work,
        "depth": res.meter.depth,
        "steps": res.meter.steps,
        "details": details,
        "num_searches": res.num_searches,
        "exact": res.exact,
        "certificates": [[s, t, a.certificate.to_dict()] for (s, t), a in res.answers.items()],
    }
    return {
        "batch": _sha1(json.dumps(payload)),
        "step_work": _sha1(np.asarray(res.meter.step_work, dtype=np.float64).tobytes()),
        "path": _sha1(json.dumps(paths)),
    }


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    out: dict[str, dict] = {}
    road = road_graph(30, 30, seed=3, name="digest-road")
    for s, t in _pairs(road, 3, seed=11):
        for method in METHODS:
            out[f"road30-{method}-{s}-{t}"] = _single(road, method, s, t)

    social = social_graph(2000, seed=5, name="digest-social")
    landmarks = LandmarkSet(social, k=4, seed=2)
    for s, t in _pairs(social, 3, seed=12):
        for method in METHODS:
            out[f"social2000-{method}-{s}-{t}"] = _single(
                social, method, s, t, landmarks=landmarks
            )

    # A cycle plus a chord over five endpoints: one query-graph
    # component, so the batch is a single five-source engine run.
    rng = np.random.default_rng(13)
    v = [int(x) for x in rng.choice(largest_component(road), 5, replace=False)]
    queries = [(v[i], v[(i + 1) % 5]) for i in range(5)] + [(v[0], v[2])]
    trace = StepTrace()
    res = solve_batch(road, queries, method="multi", trace=trace)
    # The (k, n) distance matrix of a multi batch lives in its path
    # state: one unit, which answers every key.
    (unit,) = res._units
    rows = unit.rows
    out["road30-multi"] = _digest(rows, res.meter, trace,
                                  [res.path(s, t) for s, t in queries])

    # Three query-graph components (a triangle with a tail, a separate
    # pair, a self pair), one query given against its stored orientation.
    w = [int(x) for x in rng.choice(largest_component(road), 7, replace=False)]
    mixed = [(w[0], w[1]), (w[1], w[2]), (w[2], w[0]), (w[3], w[2]),
             (w[4], w[5]), (w[6], w[6])]
    for method in BATCH_METHODS:
        out[f"road30-batch-{method}"] = _batch(road, mixed, method=method)
    out["road30-batch-multi-chunked4"] = _batch(road, mixed, method="multi", max_sources=4)
    out["road30-batch-multi-budget"] = _batch(
        road, mixed, method="multi", budget=Budget(max_relaxations=1500)
    )

    one_way = directed_road(900, seed=51)
    s, t = _pairs(one_way, 1, seed=14)[0]
    out[f"directed30-bids-{s}-{t}"] = _single(one_way, "bids", s, t)

    # Both orientations of one pair, a vertex in both roles, a self pair
    # and a pair into vertex 899, which has no in-edges.
    a, b, c = (int(x) for x in np.random.default_rng(15).choice(
        largest_component(one_way), 3, replace=False))
    directed = QueryGraph([(a, b), (b, a), (b, c), (c, c), (a, 899)], directed=True)
    for method in ("multi", "sssp-vc"):
        out[f"directed30-batch-{method}"] = _batch(one_way, directed, method=method)
    return out


def test_engine_runs_match_digests(runs):
    if UPDATE:
        FIXTURE.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {FIXTURE.name}")
    golden = json.loads(FIXTURE.read_text())
    assert sorted(runs) == sorted(golden)
    for name, want in golden.items():
        assert runs[name] == want, name
