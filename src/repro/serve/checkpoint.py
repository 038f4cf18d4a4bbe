"""Durable checkpoints: crash a batch job, resume it, lose nothing.

A checkpoint is two files written atomically (temp file + ``os.replace``)
after every completed shard:

* ``<path>`` — a JSON **manifest**: format kind/version, the batch
  fingerprint (graph, method, shard size, query digest), the set of
  completed shard indices, and per-query outcome/exactness flags keyed
  ``"s->t"``;
* ``<path stem>.npz`` — the **sidecar**: parallel int64/float64/bool
  arrays (``s``, ``t``, ``dist``, ``exact``) holding every answered
  query's distance at full precision.  Distances live here, not in the
  JSON, so a resumed run reproduces them *bit-identically* — no decimal
  round-trip.

The sidecar is written first and the manifest second; the manifest
records the sidecar's SHA-256, so on resume the pair is known to be
internally consistent.  A crash between the two writes leaves the old
manifest's checksum disagreeing with the new sidecar — the load then
raises :class:`CheckpointCorrupt` and the pipeline *quarantines* the
checkpoint (recomputes from scratch) rather than resuming from bytes it
cannot vouch for.  The same exception covers a manifest with no
checksum, unreadable npz payloads (torn writes, bit rot) and mismatched
array lengths.

On resume the manifest's fingerprint must match the new run's
configuration exactly; a mismatch (different graph content or name,
query set, method, or shard size) raises a ``ValueError`` naming the
field instead of silently mixing answers from two different jobs.  The
graph is identified by :meth:`repro.graphs.Graph.fingerprint` — a CSR
content hash — so even a same-shape regenerated graph is refused.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

__all__ = [
    "CheckpointCorrupt",
    "CheckpointStore",
    "batch_fingerprint",
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_KIND = "repro-serve-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointCorrupt(RuntimeError):
    """A checkpoint whose bytes cannot be trusted (checksum mismatch,
    unreadable sidecar, torn arrays).  Callers quarantine: ignore the
    checkpoint and recompute, never resume from it."""


def batch_fingerprint(graph, queries, method: str, checkpoint_every: int) -> dict:
    """Identity of one batch job: what a checkpoint may be resumed into.

    Deadlines are deliberately excluded — a resumed run recomputes them
    from its own clock — but the (source, target, priority) sequence is
    digested in submission order, so any change to the query set or its
    ordering (which would shift shard boundaries) is caught.
    """
    h = hashlib.sha256()
    for q in queries:
        h.update(f"{q.source},{q.target},{q.priority};".encode())
    return {
        "graph": {
            "name": graph.name,
            "n": int(graph.num_vertices),
            "m": int(graph.num_edges),
            "directed": bool(graph.directed),
            "weight_sum": round(float(graph.weights.sum()), 6),
            "fingerprint": graph.fingerprint(),
        },
        "method": str(method),
        "checkpoint_every": int(checkpoint_every),
        "num_queries": len(queries),
        "queries_sha256": h.hexdigest()[:16],
    }


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class CheckpointStore:
    """Atomic reader/writer of one checkpoint (manifest + npz sidecar)."""

    def __init__(self, path) -> None:
        self.path = str(path)
        stem, _ = os.path.splitext(self.path)
        self.sidecar = stem + ".npz"
        if self.sidecar == self.path:
            raise ValueError(
                f"checkpoint path {self.path!r} must not itself end in .npz "
                "(that name is reserved for the distance sidecar)"
            )

    def exists(self) -> bool:
        return os.path.exists(self.path) and os.path.exists(self.sidecar)

    # ------------------------------------------------------------------
    def save(self, manifest: dict, *, s, t, dist, exact) -> None:
        """Write one checkpoint durably (sidecar first, manifest last)."""
        payload = dict(manifest)
        payload["kind"] = CHECKPOINT_KIND
        payload["version"] = CHECKPOINT_VERSION
        payload["sidecar"] = os.path.basename(self.sidecar)

        tmp = self.sidecar + ".tmp"
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                s=np.asarray(s, dtype=np.int64),
                t=np.asarray(t, dtype=np.int64),
                dist=np.asarray(dist, dtype=np.float64),
                exact=np.asarray(exact, dtype=bool),
            )
        # Digest the exact bytes just written; load() re-hashes the file
        # so any later corruption of the sidecar is detected on resume.
        payload["sidecar_sha256"] = _sha256_file(tmp)
        os.replace(tmp, self.sidecar)

        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    # ------------------------------------------------------------------
    def load(self) -> tuple[dict, dict] | None:
        """The checkpoint as ``(manifest, arrays)``; None when absent."""
        if not self.exists():
            return None
        with open(self.path) as fh:
            manifest = json.load(fh)
        if manifest.get("kind") != CHECKPOINT_KIND:
            raise ValueError(
                f"{self.path!r} is not a serve checkpoint "
                f"(kind={manifest.get('kind')!r})"
            )
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path!r} has version {manifest.get('version')!r}; "
                f"this build reads version {CHECKPOINT_VERSION}"
            )
        expected = manifest.get("sidecar_sha256")
        if expected is None:
            # Nothing vouches for the sidecar's bytes, and resumed
            # answers are not re-verified: quarantine, never trust.
            raise CheckpointCorrupt(
                f"checkpoint {self.path!r} records no sidecar checksum; "
                "refusing to resume from unverifiable bytes"
            )
        actual = _sha256_file(self.sidecar)
        if actual != expected:
            raise CheckpointCorrupt(
                f"checkpoint sidecar {self.sidecar!r} fails its checksum "
                f"(manifest says {expected[:12]}…, file hashes {actual[:12]}…); "
                "refusing to resume from corrupt bytes"
            )
        try:
            with np.load(self.sidecar) as data:
                arrays = {k: data[k] for k in ("s", "t", "dist", "exact")}
        except Exception as exc:  # np.load raises zipfile/OS/Value errors
            raise CheckpointCorrupt(
                f"checkpoint sidecar {self.sidecar!r} is unreadable: {exc}"
            ) from exc
        n = len(arrays["s"])
        if any(len(arrays[k]) != n for k in ("t", "dist", "exact")):
            raise CheckpointCorrupt(
                f"checkpoint sidecar {self.sidecar!r} is corrupt: "
                "parallel arrays disagree on length"
            )
        return manifest, arrays

    def verify_fingerprint(self, manifest: dict, fingerprint: dict) -> None:
        """Raise a field-naming ``ValueError`` unless the job matches."""
        stored = manifest.get("fingerprint", {})
        # Graph *content* mismatch gets its own message: same-named,
        # same-shaped graphs with different bytes are the dangerous case
        # (a regenerated input), and "field graph differed" hides it.
        old_g, new_g = stored.get("graph") or {}, fingerprint.get("graph") or {}
        old_fp, new_fp = old_g.get("fingerprint"), new_g.get("fingerprint")
        if old_fp is not None and new_fp is not None and old_fp != new_fp:
            raise ValueError(
                f"checkpoint {self.path!r} was written against a different "
                f"graph: content fingerprint was {old_fp}, the loaded graph "
                f"is {new_fp}; resuming would mix answers across graphs"
            )
        for field in ("graph", "method", "checkpoint_every", "num_queries", "queries_sha256"):
            if stored.get(field) != fingerprint.get(field):
                raise ValueError(
                    f"checkpoint {self.path!r} does not match this job: "
                    f"{field} was {stored.get(field)!r}, now {fingerprint.get(field)!r}"
                )

    def clear(self) -> None:
        """Delete both files (a finished job's checkpoint is garbage)."""
        for p in (self.path, self.sidecar):
            try:
                os.remove(p)
            except FileNotFoundError:
                pass
