"""Graph content fingerprints and checkpoint integrity hardening."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, road_graph
from repro.obs import Observer
from repro.serve import (
    CheckpointCorrupt,
    CheckpointStore,
    ServePipeline,
    ServeQuery,
    batch_fingerprint,
)


def test_fingerprint_deterministic(grid):
    assert grid.fingerprint() == grid.fingerprint()
    again = road_graph(12, 12, seed=5, name="renamed")
    # content hash: same CSR bytes, different name -> same fingerprint
    assert again.fingerprint() == grid.fingerprint()


def test_fingerprint_sees_weight_changes(grid):
    w = grid.weights.copy()
    w[0] += 1.0
    bumped = Graph(
        indptr=grid.indptr, indices=grid.indices, weights=w,
        directed=grid.directed, coords=grid.coords,
        coord_system=grid.coord_system, name=grid.name,
    )
    assert bumped.fingerprint() != grid.fingerprint()


def test_fingerprint_sees_seed_changes():
    a = road_graph(8, 8, seed=1)
    b = road_graph(8, 8, seed=2)
    assert a.fingerprint() != b.fingerprint()


def test_batch_fingerprint_carries_graph_hash(grid):
    queries = [ServeQuery(0, 5), ServeQuery(3, 9)]
    fp = batch_fingerprint(grid, queries, "multi", 16)
    assert fp["graph"]["fingerprint"] == grid.fingerprint()


def test_resume_rejects_different_graph_content(grid, tmp_path):
    ckpt = str(tmp_path / "job.json")
    pairs = [(0, 140), (3, 97), (12, 55)]
    ServePipeline(grid, method="multi", checkpoint_path=ckpt).run(pairs)
    other = road_graph(12, 12, seed=6, name=grid.name)
    pipe = ServePipeline(other, method="multi", checkpoint_path=ckpt)
    with pytest.raises(ValueError, match="content fingerprint"):
        pipe.run(pairs, resume=True)


def test_sidecar_checksum_catches_corruption(grid, tmp_path):
    ckpt = str(tmp_path / "job.json")
    pairs = [(0, 140), (3, 97), (12, 55)]
    ServePipeline(grid, method="multi", checkpoint_path=ckpt).run(pairs)
    store = CheckpointStore(ckpt)
    blob = bytearray(open(store.sidecar, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(store.sidecar, "wb").write(bytes(blob))
    with pytest.raises(CheckpointCorrupt, match="checksum"):
        store.load()


def test_unreadable_sidecar_is_corrupt(grid, tmp_path):
    ckpt = str(tmp_path / "job.json")
    pairs = [(0, 140), (3, 97)]
    ServePipeline(grid, method="multi", checkpoint_path=ckpt).run(pairs)
    store = CheckpointStore(ckpt)
    # keep the manifest checksum in agreement with the garbage bytes so
    # the npz reader itself must refuse them
    import hashlib
    import json

    garbage = b"not an npz archive"
    open(store.sidecar, "wb").write(garbage)
    manifest = json.load(open(store.path))
    manifest["sidecar_sha256"] = hashlib.sha256(garbage).hexdigest()
    json.dump(manifest, open(store.path, "w"))
    with pytest.raises(CheckpointCorrupt, match="unreadable"):
        store.load()


def test_missing_checksum_quarantined(tmp_path):
    """A manifest with no sidecar checksum vouches for nothing: with it
    gone and a sidecar distance rewritten, resume must recompute rather
    than serve the planted 1.0 for (0, 99) (true distance 7794.71)."""
    import json

    g = road_graph(10, 10, seed=1)
    pairs = [(0, 99), (5, 90), (3, 77), (12, 64)]
    ckpt = str(tmp_path / "job.json")
    ServePipeline(g, method="multi", checkpoint_path=ckpt, checkpoint_every=2).run(pairs)
    store = CheckpointStore(ckpt)
    manifest = json.load(open(store.path))
    del manifest["sidecar_sha256"]
    json.dump(manifest, open(store.path, "w"))
    with np.load(store.sidecar) as data:
        arrays = {k: data[k].copy() for k in ("s", "t", "dist", "exact")}
    assert (arrays["s"][0], arrays["t"][0]) == (0, 99)
    arrays["dist"][0] = 1.0
    np.savez(store.sidecar, **arrays)
    with pytest.raises(CheckpointCorrupt, match="no sidecar checksum"):
        store.load()
    res = ServePipeline(g, method="multi", checkpoint_path=ckpt,
                        checkpoint_every=2).run(pairs, resume=True)
    assert "checkpoint_quarantined" in res.details
    assert res.resumed_queries == 0
    ans = res.answers[(0, 99)]
    assert (ans.outcome, round(ans.distance, 2)) == ("ok", 7794.71)


def test_pipeline_quarantines_corrupt_checkpoint(grid, truth, pairs, tmp_path):
    ckpt = str(tmp_path / "job.json")
    ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                  checkpoint_every=4).run(pairs)
    store = CheckpointStore(ckpt)
    blob = bytearray(open(store.sidecar, "rb").read())
    blob[len(blob) // 3] ^= 0xFF
    open(store.sidecar, "wb").write(bytes(blob))
    obs = Observer()
    pipe = ServePipeline(grid, method="multi", checkpoint_path=ckpt,
                         checkpoint_every=4, observer=obs)
    res = pipe.run(pairs, resume=True)
    assert "checkpoint_quarantined" in res.details
    assert res.resumed_queries == 0  # recomputed, never resumed
    assert 'repro_verify_quarantine_total{layer="checkpoint"} 1' in obs.export_text()
    for key, expected in truth.items():
        assert abs(res.distances[key] - expected) <= 1e-6 * max(1.0, expected)


def test_fingerprint_roundtrips_through_npz(grid, tmp_path):
    from repro.graphs import io as graph_io

    path = str(tmp_path / "g.npz")
    graph_io.save_npz(path, grid)
    loaded = graph_io.load_npz(path)
    assert loaded.fingerprint() == grid.fingerprint()
