"""Persistent, resumable stores for campaign results and checkpoints.

Two interchangeable backends behind one interface
(:class:`~repro.orchestrator.store.base.StoreBackend`):

``json``
    one canonical-JSON file per job — the determinism reference and the
    export format (:mod:`~repro.orchestrator.store.jsonfile`).
``sqlite``
    one WAL-mode ``results.db`` with batched writes, an indexed findings
    projection and indexed resume (:mod:`~repro.orchestrator.store.sqlite`)
    — for matrix scale.

Both persist the **same canonical record text** (wire schema 2), so a
store can be exported/read back across backends byte-identically.  Both
keep mid-campaign checkpoints the same way: one plain
``<job_id>.checkpoint.json`` file under the root, written, read and
consumed by the workers themselves (:class:`CheckpointSession`).

:func:`ResultStore` is the constructor everything uses.  Backend choice:
an explicit ``backend=`` argument wins; otherwise an existing store under
``root`` keeps its own format (a ``results.db`` means sqlite, record
files mean json — so resuming never silently forks a directory into two
half-stores); otherwise the ``REPRO_STORE`` environment variable;
otherwise ``json``.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.store.base import (
    CHECKPOINT_SUFFIX,
    LIVE_TELEMETRY_NAME,
    SCHEMA_VERSION,
    TELEMETRY_SUFFIX,
    CheckpointSession,
    StoreBackend,
    atomic_write_text,
    build_record,
    checkpoint_path,
    clear_checkpoint_file,
    finding_fingerprint,
    finding_rows_from_record,
    read_checkpoint_file,
    sweep_stale_temps,
    write_checkpoint_file,
)
from repro.orchestrator.store.jsonfile import JsonResultStore
from repro.orchestrator.store.sqlite import DB_NAME, SqliteResultStore

__all__ = ["ResultStore", "CheckpointSession", "canonical_json",
           "write_checkpoint_file", "read_checkpoint_file",
           "clear_checkpoint_file", "checkpoint_path", "CHECKPOINT_SUFFIX",
           "TELEMETRY_SUFFIX", "LIVE_TELEMETRY_NAME",
           "StoreBackend", "JsonResultStore", "SqliteResultStore",
           "STORE_BACKENDS", "resolve_store_backend",
           "atomic_write_text", "sweep_stale_temps", "build_record",
           "finding_fingerprint", "finding_rows_from_record",
           "SCHEMA_VERSION", "DEFAULT_STORE"]

#: backend key → class, as selected by ``--store`` / ``REPRO_STORE``
STORE_BACKENDS = {
    "json": JsonResultStore,
    "sqlite": SqliteResultStore,
}

DEFAULT_STORE = "json"


def resolve_store_backend(root, backend: str | None = None) -> str:
    """The backend key to use for the store at ``root``.

    Explicit choice > existing store's own format > ``REPRO_STORE`` >
    ``json``.  Formats never mix in one directory: opening an existing
    store always honors what is already there.
    """
    if backend is None:
        backend = _detected_backend(Path(root)) \
            or os.environ.get("REPRO_STORE") or DEFAULT_STORE
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {backend!r} "
            f"(choose from {', '.join(sorted(STORE_BACKENDS))})")
    return backend


def _detected_backend(root: Path) -> str | None:
    if (root / DB_NAME).exists():
        return "sqlite"
    for path in root.glob("*.json"):
        if (not path.name.endswith(CHECKPOINT_SUFFIX)
                and not path.name.endswith(TELEMETRY_SUFFIX)):
            return "json"
    return None


def ResultStore(root, backend: str | None = None, **kwargs) -> StoreBackend:
    """Open (or create) the result store at ``root``.

    A factory rather than a class since the store package split, but the
    call shape is unchanged — ``ResultStore(results_dir)`` everywhere.
    ``kwargs`` pass through to the backend (e.g. the sqlite writer's
    ``batch_size``/``flush_interval``).
    """
    return STORE_BACKENDS[resolve_store_backend(root, backend)](root, **kwargs)
