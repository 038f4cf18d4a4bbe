"""Crash/resume determinism: the pipeline's central guarantee.

A batch job killed at any checkpoint boundary and resumed must produce
``distances`` and ``exact`` flags **bit-identical** to the uninterrupted
run — resumed answers come off disk (float64 sidecar, no decimal
round-trip) and re-executed shards rerun under identical shard
boundaries, so equality here is ``==`` on floats, not approx.
"""

import hashlib

import numpy as np
import pytest

from repro.core.batch import BATCH_METHODS
from repro.serve import CheckpointStore, ServePipeline

pytestmark = pytest.mark.serve


class Killed(RuntimeError):
    """The simulated mid-run crash."""


def kill_after(n_checkpoints):
    """A checkpoint_hook that crashes after the n-th durable write."""
    seen = []

    def hook(manifest):
        seen.append(manifest)
        if len(seen) == n_checkpoints:
            raise Killed(f"killed after checkpoint {n_checkpoints}")

    return hook


def run_interrupted(graph, pairs, method, path, kill_at, *, checkpoint_every=2):
    """Run, crash after ``kill_at`` checkpoints, resume; the resumed result."""
    pipe = ServePipeline(
        graph, method=method, checkpoint_path=path,
        checkpoint_every=checkpoint_every, checkpoint_hook=kill_after(kill_at),
    )
    with pytest.raises(Killed):
        pipe.run(pairs)
    fresh = ServePipeline(
        graph, method=method, checkpoint_path=path, checkpoint_every=checkpoint_every,
    )
    return fresh.run(pairs, resume=True)


class TestResumeBitIdentical:
    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_kill_at_seeded_random_checkpoint(self, method, serve_graph, serve_pairs,
                                              tmp_path):
        """The property pinned by the issue: kill anywhere, resume, equal."""
        reference = ServePipeline(
            serve_graph, method=method, checkpoint_every=2,
        ).run(serve_pairs)
        num_checkpoints = reference.details["num_shards"]
        seed = int.from_bytes(hashlib.sha256(method.encode()).digest()[:4], "big")
        rng = np.random.default_rng(seed)
        kill_at = int(rng.integers(1, num_checkpoints))  # never the final write
        resumed = run_interrupted(
            serve_graph, serve_pairs, method, tmp_path / "job.json", kill_at)
        assert resumed.answers == reference.answers  # bitwise float ==
        assert resumed.resumed_queries == kill_at * 2

    def test_kill_at_every_boundary(self, serve_graph, serve_pairs, tmp_path):
        """Exhaustive over kill points for the default method."""
        reference = ServePipeline(
            serve_graph, method="multi", checkpoint_every=3,
        ).run(serve_pairs)
        for kill_at in range(1, reference.details["num_shards"]):
            path = tmp_path / f"kill{kill_at}.json"
            resumed = run_interrupted(
                serve_graph, serve_pairs, "multi", path, kill_at, checkpoint_every=3)
            assert resumed.answers == reference.answers, kill_at

    def test_resume_preserves_shed_set(self, serve_graph, serve_pairs, tmp_path):
        """Shedding is part of the deterministic contract across a crash."""
        kwargs = dict(method="multi", checkpoint_every=2, max_queue=6)
        submitted = [(s, t, i) for i, (s, t) in enumerate(serve_pairs)]
        reference = ServePipeline(serve_graph, **kwargs).run(submitted)
        path = tmp_path / "job.json"
        pipe = ServePipeline(serve_graph, checkpoint_path=path,
                             checkpoint_hook=kill_after(1), **kwargs)
        with pytest.raises(Killed):
            pipe.run(submitted)
        resumed = ServePipeline(serve_graph, checkpoint_path=path, **kwargs).run(
            submitted, resume=True)
        assert resumed.answers == reference.answers
        assert resumed.counts()["shed"] == 2


class TestResumeSafety:
    def test_resume_without_checkpoint_path_rejected(self, serve_graph, serve_pairs):
        with pytest.raises(ValueError, match="checkpoint_path"):
            ServePipeline(serve_graph).run(serve_pairs, resume=True)

    def test_resume_with_no_checkpoint_runs_fresh(self, serve_graph, serve_pairs,
                                                  tmp_path):
        res = ServePipeline(
            serve_graph, checkpoint_path=tmp_path / "absent.json",
        ).run(serve_pairs[:2], resume=True)
        assert res.resumed_queries == 0 and res.counts() == {"ok": 2}

    def test_foreign_checkpoint_rejected_by_fingerprint(self, serve_graph, serve_pairs,
                                                        tmp_path):
        path = tmp_path / "job.json"
        pipe = ServePipeline(serve_graph, method="multi", checkpoint_path=path,
                             checkpoint_every=2, checkpoint_hook=kill_after(1))
        with pytest.raises(Killed):
            pipe.run(serve_pairs)
        other = ServePipeline(serve_graph, method="sssp-vc", checkpoint_path=path,
                              checkpoint_every=2)
        with pytest.raises(ValueError, match="method"):
            other.run(serve_pairs, resume=True)

    def test_without_resume_flag_checkpoint_is_overwritten(self, serve_graph,
                                                           serve_pairs, tmp_path):
        path = tmp_path / "job.json"
        pipe = ServePipeline(serve_graph, checkpoint_path=path, checkpoint_every=2,
                             checkpoint_hook=kill_after(1))
        with pytest.raises(Killed):
            pipe.run(serve_pairs)
        res = ServePipeline(serve_graph, checkpoint_path=path,
                            checkpoint_every=2).run(serve_pairs)  # resume=False
        assert res.resumed_queries == 0 and res.counts() == {"ok": len(serve_pairs)}
        manifest, _ = CheckpointStore(path).load()
        assert len(manifest["completed_shards"]) == res.details["num_shards"]
