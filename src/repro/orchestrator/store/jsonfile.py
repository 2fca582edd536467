"""The result store: one canonical-JSON file per job.

One result file per job under the results directory, named by ``job_id``.
Files are written in canonical form — sorted keys, fixed separators,
trailing newline, and ``wall_time`` normalized to 0.0 — so two runs of the
same matrix with the same seeds produce *byte-identical* artifacts no
matter the worker count or scheduling order.  Wall-clock timing is
environment noise; the scheduler reports it live but it never enters the
store.

Each record carries the job's content :meth:`fingerprint
<repro.orchestrator.jobs.CampaignJob.fingerprint>`; a cached result is
only reused when the fingerprint still matches, so editing a contract or
a config re-runs exactly the affected cells.  Only ``ok`` outcomes are
persisted — errors and timeouts are retried on the next run.

This layout *is* the export format: :meth:`StoreBackend.export` copies
exactly these files.  Resume is tolerant — a mangled record reads as
absent and its cell re-runs — but enumeration is strict:
:meth:`JsonResultStore.canonical_records`, which ``repro report``,
``repro replay`` and ``export`` read through, names every unreadable
record instead of skipping it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.jobs import CampaignJob, JobOutcome
from repro.orchestrator.store.base import (
    CHECKPOINT_SUFFIX,
    TELEMETRY_SUFFIX,
    StoreBackend,
    UnreadableRecordsError,
    atomic_write_text,
    build_record,
    outcome_from_record,
    record_is_fresh,
)


class JsonResultStore(StoreBackend):
    """Directory of per-job campaign result records."""

    def _record_paths(self):
        return sorted(path for path in self.root.glob("*.json")
                      if not path.name.endswith(CHECKPOINT_SUFFIX)
                      and not path.name.endswith(TELEMETRY_SUFFIX))

    def load(self, job: CampaignJob) -> JobOutcome | None:
        """The cached outcome for ``job``, or None when absent or stale."""
        try:
            record = json.loads(self.path_for(job).read_text())
        except (OSError, ValueError):
            return None
        if not record_is_fresh(record, job):
            return None
        outcome = outcome_from_record(job, record)
        if outcome is not None:
            self._count_loaded()
        return outcome

    def save(self, outcome: JobOutcome) -> Path | None:
        """Persist an ``ok`` outcome; no-op for errors and timeouts."""
        if not outcome.ok:
            return None
        path = atomic_write_text(self.path_for(outcome.job),
                                 canonical_json(build_record(outcome)))
        self._count_saved()
        return path

    def completed_ids(self) -> set:
        return {path.stem for path in self._record_paths()}

    def canonical_records(self) -> dict:
        out, unreadable = {}, []
        for path in self._record_paths():
            try:
                text = path.read_text()
                if isinstance(json.loads(text), dict):
                    out[path.stem] = text
                    continue
            except OSError:  # raced with a concurrent delete
                continue
            except ValueError:  # truncated, or not UTF-8
                pass
            unreadable.append(path)
        if unreadable:
            raise UnreadableRecordsError(unreadable)
        return out

    def delete_record(self, job_id: str) -> bool:
        path = self.root / f"{job_id}.json"
        try:
            path.unlink()
        except OSError:
            return False
        return True
