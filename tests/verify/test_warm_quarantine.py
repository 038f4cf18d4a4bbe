"""WarmEngine certificate-verified cache hits and quarantine."""

from __future__ import annotations

import pytest

from repro.obs import Observer
from repro.perf import WarmEngine
from repro.robustness import FaultInjector


def test_clean_hits_serve_from_cache(grid, pairs, truth):
    we = WarmEngine(grid, verify_hits=True)
    s, t = pairs[0]
    a1 = we.query(s, t, method="bids")
    a2 = we.query(s, t, method="bids")
    assert a2.cached and a2.distance == a1.distance
    assert we.quarantined == 0
    assert abs(a1.distance - truth[(s, t)]) <= 1e-6 * max(1.0, truth[(s, t)])


def test_corrupted_hit_quarantined_not_served(grid, pairs, truth):
    inj = FaultInjector(seed=2, flip_cache_payload=True)
    we = WarmEngine(grid, verify_hits=True, fault_injector=inj)
    s, t = pairs[0]
    a1 = we.query(s, t, method="bids")
    a2 = we.query(s, t, method="bids")  # hit corrupted -> evict + recompute
    assert inj.fired and inj.fired[-1][1] == "flip-cache"
    assert we.quarantined == 1
    assert not a2.cached
    assert abs(a2.distance - truth[(s, t)]) <= 1e-6 * max(1.0, truth[(s, t)])
    # the poisoned entry was evicted: the recomputed answer re-seeds the
    # cache, so once the injector is spent the third query hits clean
    a3 = we.query(s, t, method="bids")
    assert a3.cached and a3.distance == a2.distance


def test_uncertified_entry_recomputed_without_quarantine(grid, pairs):
    plain = WarmEngine(grid)  # no certificates attached
    s, t = pairs[1]
    plain.query(s, t, method="bids")
    hit = plain.results.get(s, t, "bids")
    assert hit is not None and hit.certificate is None
    checked = WarmEngine(grid, verify_hits=True)
    checked.results.put(s, t, "bids", hit)
    a = checked.query(s, t, method="bids")
    # unproven, recomputed, but not counted as corruption
    assert checked.quarantined == 0
    assert a.certificate is not None


def test_batch_attaches_certificates(grid, pairs):
    we = WarmEngine(grid, verify_hits=True)
    res = we.batch(pairs[:6], method="multi")
    for s, t in pairs[:6]:
        # undirected batches normalize keys, so check both orientations
        hit = we.results.get(s, t, "bids") or we.results.get(t, s, "bids")
        assert hit is not None and hit.certificate is not None
    assert all(ans.certificate is not None for ans in res.answers.values())


def test_quarantine_counters_and_observer(grid, pairs):
    obs = Observer()
    inj = FaultInjector(seed=3, flip_cache_payload=True)
    we = WarmEngine(grid, verify_hits=True, fault_injector=inj, observer=obs)
    s, t = pairs[2]
    we.query(s, t, method="bids")
    we.query(s, t, method="bids")
    assert we.stats()["quarantined"] == 1
    text = obs.export_text()
    assert 'repro_verify_quarantine_total{layer="result-cache"} 1' in text
    assert 'repro_verify_checks_total{outcome="invalid"} 1' in text


def test_verify_off_by_default(grid, pairs):
    we = WarmEngine(grid)
    assert "quarantined" not in we.stats()
