"""ServePipeline's verification stage: detect, repair, never serve wrong."""

from __future__ import annotations

import pytest

from repro.obs import Observer
from repro.robustness import FaultInjector
from repro.serve import OUTCOMES, REPAIRED, ServePipeline, serve_batch
from tests.verify.conftest import assert_matches_truth


def test_repaired_is_a_first_class_outcome():
    assert REPAIRED == "repaired"
    assert REPAIRED in OUTCOMES


def test_clean_run_all_valid_no_repairs(grid, pairs, truth):
    res = serve_batch(grid, pairs, method="multi", verify=True)
    assert res.counts() == {"ok": len(pairs)}
    v = res.details["verification"]
    assert v["checked"] == len(pairs)
    assert v["valid"] == len(pairs)
    assert v["invalid"] == v["repaired"] == v["failed"] == 0
    assert_matches_truth(res.distances, truth)


def test_flip_dist_detected_and_repaired(grid, pairs, truth):
    inj = FaultInjector(seed=1, flip_dist_at=2, flip_dist_count=4, max_fires=4)
    res = serve_batch(grid, pairs, method="multi", verify=True,
                      fault_injector=inj, checkpoint_every=8)
    v = res.details["verification"]
    assert v["invalid"] > 0 and v["repaired"] == v["invalid"]
    assert res.counts().get("repaired", 0) == v["repaired"]
    # repaired answers are exact and match ground truth
    for ans in res.answers.values():
        if ans.outcome == REPAIRED:
            assert ans.exact
    assert_matches_truth(res.distances, truth)


def test_without_verify_corruption_is_silent(grid, pairs, truth):
    """Control: the same corruption goes unnoticed without the stage —
    exactly the wrong-answer class the certificates exist to close."""
    inj = FaultInjector(seed=1, flip_dist_at=2, flip_dist_count=4, max_fires=4)
    res = serve_batch(grid, pairs, method="multi", fault_injector=inj,
                      checkpoint_every=8)
    wrong = [
        k for k, expected in truth.items()
        if abs(res.distances[k] - expected) > 1e-6 * max(1.0, expected)
    ]
    assert wrong, "corruption should silently distort at least one answer"
    assert all(ans.outcome == "ok" for ans in res.answers.values())


def test_verify_counts_in_observer(grid, pairs):
    obs = Observer()
    inj = FaultInjector(seed=1, flip_dist_at=2, flip_dist_count=4, max_fires=4)
    res = serve_batch(grid, pairs, method="multi", verify=True,
                      fault_injector=inj, observer=obs, checkpoint_every=8)
    v = res.details["verification"]
    text = obs.export_text()
    assert f'repro_verify_checks_total{{outcome="valid"}} {v["valid"]}' in text
    assert f'repro_verify_repairs_total{{result="repaired"}} {v["repaired"]}' in text
    assert f'repro_serve_queries_total{{outcome="repaired"}} {v["repaired"]}' in text


def test_repaired_outcomes_survive_checkpoint_resume(grid, pairs, truth, tmp_path):
    ckpt = str(tmp_path / "job.json")
    inj = FaultInjector(seed=1, flip_dist_at=2, flip_dist_count=4, max_fires=2)
    killed = {"n": 0}

    def crash_once(manifest):
        killed["n"] += 1
        if killed["n"] == 2:
            raise KeyboardInterrupt

    pipe = ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                         checkpoint_every=4, fault_injector=inj, verify=True,
                         checkpoint_hook=crash_once)
    with pytest.raises(KeyboardInterrupt):
        pipe.run(pairs)
    res = ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                        checkpoint_every=4, verify=True).run(pairs, resume=True)
    assert res.resumed_queries == 8
    # outcomes recorded before the crash (incl. repaired) are restored
    assert_matches_truth(res.distances, truth)


def test_inexact_budget_answers_pass_with_upper_bound_certs(grid, pairs):
    from repro.robustness import Budget

    res = serve_batch(grid, pairs, method="sssp-plain", verify=True,
                      budget=Budget(max_steps=3), checkpoint_every=len(pairs))
    v = res.details["verification"]
    assert v["checked"] == len(pairs)
    # degraded answers carry one-sided certificates; none should be
    # refuted (a true upper bound is a valid weak claim)
    assert v["failed"] == 0
    for ans in res.answers.values():
        if not ans.exact:
            assert ans.outcome == "inexact"


def test_resilient_method_verifies(grid, pairs, truth):
    inj = FaultInjector(seed=4, flip_dist_at=1, flip_dist_count=4, max_fires=3)
    res = serve_batch(grid, pairs[:8], method="resilient", verify=True,
                      fault_injector=inj)
    v = res.details["verification"]
    assert v["checked"] == 8
    assert_matches_truth(
        {k: res.distances[k] for k in pairs[:8]},
        {k: truth[k] for k in pairs[:8]},
    )
