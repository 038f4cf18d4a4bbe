"""The end-to-end chaos sweep: zero silent wrong answers, ever.

Every :class:`FaultInjector` bit-flip corruption class (tentative
distances, checkpoint sidecars), crossed with all
five batch methods plus the resilient chain and several seeds, runs
through serve-with-verification and is compared against ground-truth
Dijkstra.  The acceptance bar is absolute: an answer may be *repaired*
or explicitly *failed*, but an outcome of ``ok``/``inexact`` with
``exact=True`` must never carry a wrong distance.

Marked ``verify``: excluded from tier-1, run via ``make verify-chaos``.
"""

from __future__ import annotations

import pytest

from repro.robustness import FaultInjector
from repro.serve import CheckpointStore, ServePipeline, serve_batch

pytestmark = pytest.mark.verify

ALL_METHODS = (
    "multi", "plain-bids", "plain-star-bids", "sssp-plain", "sssp-vc", "resilient",
)
SEEDS = (0, 1, 2, 3)


def silent_wrong(res, truth):
    """Keys served as trustworthy yet disagreeing with ground truth."""
    out = []
    for key, expected in truth.items():
        ans = res.answers[key]
        if ans.outcome in ("shed", "timeout", "failed"):
            continue
        if not ans.exact:
            # degraded answers promise only an upper bound
            if ans.distance < expected - 1e-6 * max(1.0, expected):
                out.append(key)
            continue
        if abs(ans.distance - expected) > 1e-6 * max(1.0, expected):
            out.append(key)
    return out


@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("seed", SEEDS)
def test_flip_dist_never_silent(grid, pairs, truth, method, seed):
    inj = FaultInjector(seed=seed, flip_dist_at=2, flip_dist_count=4, max_fires=6)
    res = serve_batch(grid, pairs, method=method, verify=True,
                      fault_injector=inj, checkpoint_every=8)
    assert inj.fired, "injector never fired; the scenario tests nothing"
    assert silent_wrong(res, truth) == []
    v = res.details["verification"]
    assert v["repaired"] == v["invalid"]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_clean_control_no_false_positives(grid, pairs, truth, method):
    """Silent-completion control: without faults nothing is repaired."""
    res = serve_batch(grid, pairs, method=method, verify=True,
                      checkpoint_every=8)
    assert silent_wrong(res, truth) == []
    v = res.details["verification"]
    assert v["invalid"] == 0 and v["repaired"] == 0 and v["failed"] == 0
    assert res.counts() == {"ok": len(pairs)}


@pytest.mark.parametrize("seed", SEEDS)
def test_flip_checkpoint_never_silent(grid, pairs, truth, tmp_path, seed):
    ckpt = str(tmp_path / f"job{seed}.json")
    inj = FaultInjector(seed=seed, flip_checkpoint=True, max_fires=16)
    ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                  checkpoint_every=4, fault_injector=inj, verify=True).run(pairs)
    assert any(f[1] == "flip-checkpoint" for f in inj.fired)
    res = ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                        checkpoint_every=4, verify=True).run(pairs, resume=True)
    # the corrupted checkpoint was quarantined and everything recomputed
    assert "checkpoint_quarantined" in res.details
    assert res.resumed_queries == 0
    assert silent_wrong(res, truth) == []


def test_combined_corruption_never_silent(grid, pairs, truth, tmp_path):
    """Both flip classes armed at once, across a crash/resume."""
    ckpt = str(tmp_path / "combo.json")
    inj = FaultInjector(seed=7, flip_dist_at=2, flip_dist_count=4,
                        flip_checkpoint=True, max_fires=12)
    res1 = ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                         checkpoint_every=4, fault_injector=inj,
                         verify=True).run(pairs)
    assert silent_wrong(res1, truth) == []
    res2 = ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                         checkpoint_every=4, verify=True).run(pairs, resume=True)
    assert silent_wrong(res2, truth) == []
