"""The persistent, resumable store for campaign results and checkpoints.

One canonical-JSON file per job (:mod:`~repro.orchestrator.store.jsonfile`)
— the determinism reference and the export format.  Mid-campaign
checkpoints are plain ``<job_id>.checkpoint.json`` files under the same
root, written, read and consumed by the workers themselves
(:class:`CheckpointSession`).

:data:`ResultStore` is the constructor everything uses:
``ResultStore(results_dir)``.  A directory holding a ``results.db`` from
the retired database backend is refused with :class:`LegacyStoreError`
rather than opened as an empty store and silently re-run.
"""

from __future__ import annotations

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.store.base import (
    CHECKPOINT_SUFFIX,
    LIVE_TELEMETRY_NAME,
    SCHEMA_VERSION,
    TELEMETRY_SUFFIX,
    CheckpointSession,
    LegacyStoreError,
    StoreBackend,
    UnreadableRecordsError,
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

__all__ = ["ResultStore", "CheckpointSession", "canonical_json",
           "write_checkpoint_file", "read_checkpoint_file",
           "clear_checkpoint_file", "checkpoint_path", "CHECKPOINT_SUFFIX",
           "TELEMETRY_SUFFIX", "LIVE_TELEMETRY_NAME",
           "StoreBackend", "JsonResultStore", "LegacyStoreError",
           "UnreadableRecordsError",
           "atomic_write_text", "sweep_stale_temps", "build_record",
           "finding_fingerprint", "finding_rows_from_record",
           "SCHEMA_VERSION"]

#: the result store: ``ResultStore(results_dir)`` opens (or creates) one
ResultStore = JsonResultStore
