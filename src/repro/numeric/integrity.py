"""Artifact integrity: atomic writes and canonical content digests.

A crashed ``repro bench record`` used to leave a truncated
``BENCH_<n>.json`` behind, and nothing downstream could tell a truncated
artifact from a complete one whose numbers happened to parse.  Two
primitives fix both halves:

* :func:`atomic_write_text` / :func:`atomic_write_json` — write to a
  temporary file in the destination directory, ``fsync``, then
  ``os.replace`` onto the target, so readers only ever see the old
  content or the complete new content, never a partial write;
* :func:`content_digest` — sha256 over the :func:`canonical_json`
  serialization (sorted keys, no whitespace), stamped into artifacts and
  verified on load so silent corruption or hand-editing surfaces as a
  typed :class:`repro.errors.BenchArtifactError` instead of being
  ingested.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = [
    "atomic_write_json", "atomic_write_text", "canonical_json",
    "content_digest",
]


def canonical_json(doc: object) -> str:
    """Deterministic JSON serialization (sorted keys, minimal separators)
    — the byte stream :func:`content_digest` hashes, independent of the
    pretty-printing used on disk."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_digest(doc: object) -> str:
    """sha256 hex digest of ``doc``'s canonical JSON form."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():            # a failure before the replace
            tmp.unlink(missing_ok=True)
    return path


def atomic_write_json(path: str | Path, doc: object) -> Path:
    """Serialize ``doc`` and write it atomically; returns ``path``."""
    return atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
