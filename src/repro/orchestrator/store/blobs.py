"""Content-addressed blob storage for checkpoint/corpus payloads.

Blobs live on disk under ``<root>/<sha256[:2]>/<sha256>`` — named by the
sha256 of their bytes, so identical payloads are stored once no matter how
many jobs reference them (checkpoints of trials over the same contract
share most of their corpus).  The blob *files* are immutable and
self-verifying: :meth:`BlobStore.get` re-hashes what it reads, and a blob
that no longer matches its address is quarantined — moved aside to
``<sha>.corrupt`` — and read as missing, so the next :meth:`put` of the
same payload writes a good copy.  Reference counting lives with whoever owns
the references (the SQLite backend keeps a ``blobs`` refcount table and
calls :meth:`delete` when a sha drops to zero).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.orchestrator.store.base import atomic_write_text


class BlobStore:
    """A directory of immutable sha256-addressed text blobs."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, sha: str) -> Path:
        return self.root / sha[:2] / sha

    @staticmethod
    def address(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def put(self, text: str) -> str:
        """Store ``text``, returning its address (idempotent: an existing
        blob with the same content is reused untouched)."""
        sha = self.address(text)
        path = self.path_for(sha)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text)
        return sha

    def get(self, sha: str) -> str | None:
        """The blob's text, or None when it is missing, unreadable or no
        longer hashes to ``sha`` (a corrupt blob is quarantined)."""
        path = self.path_for(sha)
        try:
            text = path.read_text()
        except OSError:
            return None
        except UnicodeDecodeError:
            text = None
        if text is not None and self.address(text) == sha:
            return text
        try:
            os.replace(path, path.with_name(sha + ".corrupt"))
        except OSError:  # another reader quarantined it first
            pass
        return None

    def has(self, sha: str) -> bool:
        return self.path_for(sha).exists()

    def delete(self, sha: str) -> None:
        path = self.path_for(sha)
        path.unlink(missing_ok=True)
        try:  # drop the fan-out dir once its last blob is gone
            path.parent.rmdir()
        except OSError:
            pass

    def link(self, sha: str, dest) -> None:
        """Materialize the blob at ``dest`` without copying: hardlink it
        (falling back to an atomic copy when the filesystem refuses)."""
        dest = Path(dest)
        src = self.path_for(sha)
        tmp = dest.with_name(dest.name + ".tmp")
        tmp.unlink(missing_ok=True)
        try:
            os.link(src, tmp)
        except OSError:
            atomic_write_text(dest, src.read_text())
            return
        os.replace(tmp, dest)

    def shas(self) -> set:
        """Every address currently on disk (quarantined blobs excluded)."""
        return {path.name for path in self.root.glob("??/*")
                if not path.name.endswith(".corrupt")}

    def quarantined(self) -> int:
        """How many quarantined ``<sha>.corrupt`` files are on disk."""
        return sum(1 for _ in self.root.glob("??/*.corrupt"))
