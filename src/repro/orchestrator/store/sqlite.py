"""WAL-mode SQLite result store: one ``results.db`` instead of O(cells)
record files.

Why this exists: at matrix scale (thousands of contracts × presets ×
trials) the per-file layout makes resume an O(dir) glob plus a full
``json.loads`` of *every* record, and every worker outcome a synchronous
file write on the scheduler thread.  Here resume is one indexed query
over primary keys with no JSON parsing at all, record writes are batched
through a buffered writer (flushed on a size/interval threshold — the
scheduler is the single writer, and WAL readers never block on it), and
findings are projected into an indexed table that ``repro report``
queries without touching the records.

Determinism is preserved by construction, not by care: the database
stores the **exact canonical text** :func:`~repro.orchestrator.store.base.
build_record` + ``canonical_json`` produce — the same bytes the JSON
backend writes — and :meth:`~repro.orchestrator.store.base.StoreBackend.
export` materializes them back into the per-file layout.  The golden-
fixture tests diff that surface byte-for-byte against the JSON backend.

Mid-campaign checkpoints are not kept in the database: as on the JSON
backend they are plain ``<job_id>.checkpoint.json`` files under the root,
written and consumed by the workers themselves, so the scheduler's single
writer never contends with them.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time

from repro.engine.checkpoint import canonical_json
from repro.orchestrator.jobs import CampaignJob, JobOutcome
from repro.orchestrator.store.base import (
    SCHEMA_VERSION,
    StoreBackend,
    build_record,
    finding_rows_from_record,
    outcome_from_record,
)

#: the one database file a sqlite store keeps under its root
DB_NAME = "results.db"

#: buffered-writer thresholds: a flush is forced once this many records
#: are pending, or once the oldest pending record is this old
BATCH_SIZE = 64
FLUSH_INTERVAL = 0.5

#: SQLite's IN-clause parameter ceiling is 999 on old builds; chunk under it
_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    job_id      TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    status      TEXT NOT NULL,
    canonical   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_status ON records(status);
CREATE TABLE IF NOT EXISTS findings (
    job_id      TEXT NOT NULL,
    name        TEXT NOT NULL,
    preset      TEXT NOT NULL,
    trial       INTEGER NOT NULL,
    bug_class   TEXT NOT NULL,
    contract    TEXT NOT NULL,
    pc          INTEGER NOT NULL,
    line        INTEGER NOT NULL,
    severity    TEXT NOT NULL,
    confidence  REAL NOT NULL,
    description TEXT NOT NULL,
    fingerprint TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_findings_job ON findings(job_id);
CREATE INDEX IF NOT EXISTS idx_findings_contract ON findings(contract);
CREATE INDEX IF NOT EXISTS idx_findings_class ON findings(bug_class);
CREATE INDEX IF NOT EXISTS idx_findings_severity ON findings(severity);
CREATE INDEX IF NOT EXISTS idx_findings_fingerprint ON findings(fingerprint);
"""

_FINDING_COLUMNS = ("job_id", "name", "preset", "trial", "bug_class",
                    "contract", "pc", "line", "severity", "confidence",
                    "description", "fingerprint")


class SqliteResultStore(StoreBackend):
    """Single-file result store with batched writes and indexed queries."""

    name = "sqlite"

    def __init__(self, root, batch_size: int = BATCH_SIZE,
                 flush_interval: float = FLUSH_INTERVAL) -> None:
        super().__init__(root)
        self.db_path = self.root / DB_NAME
        self.batch_size = int(batch_size)
        self.flush_interval = float(flush_interval)
        # one connection, guarded by a lock: the scheduler is the single
        # writer within a process, but `repro top` snapshots can read from
        # another thread, and cross-process writers (the stress test) are
        # serialized by SQLite itself via the busy timeout below
        self._conn = sqlite3.connect(str(self.db_path), timeout=10.0,
                                     check_same_thread=False)
        self._lock = threading.RLock()
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=10000")
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES (?, ?)",
                ("record_schema", str(SCHEMA_VERSION)))
        #: pending (job_id, fingerprint, status, canonical, finding_rows)
        self._pending = []
        self._last_flush = time.monotonic()

    # -- records --------------------------------------------------------------

    def save(self, outcome: JobOutcome) -> str | None:
        """Buffer an ``ok`` outcome (returns its job id; None for
        errors/timeouts); flushed on the size/interval threshold, on any
        read, and on close."""
        if not outcome.ok:
            return None
        record = build_record(outcome)
        text = canonical_json(record)
        rows = finding_rows_from_record(record)
        with self._lock:
            self._pending.append((outcome.job.job_id,
                                  record["fingerprint"], record["status"],
                                  text, rows))
            due = (len(self._pending) >= self.batch_size
                   or time.monotonic() - self._last_flush
                   >= self.flush_interval)
        self._count_saved(rows=0)  # rows are counted when they land
        if due:
            self.flush()
        return outcome.job.job_id

    def flush(self) -> None:
        """Commit every buffered record in one transaction."""
        with self._lock:
            batch, self._pending = self._pending, []
            self._last_flush = time.monotonic()
            if not batch:
                return
            rows_written = 0
            with self._conn:
                for job_id, fingerprint, status, text, rows in batch:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO records"
                        " (job_id, fingerprint, status, canonical)"
                        " VALUES (?, ?, ?, ?)",
                        (job_id, fingerprint, status, text))
                    self._conn.execute(
                        "DELETE FROM findings WHERE job_id = ?", (job_id,))
                    self._conn.executemany(
                        "INSERT INTO findings"
                        f" ({', '.join(_FINDING_COLUMNS)})"
                        f" VALUES ({', '.join('?' * len(_FINDING_COLUMNS))})",
                        [tuple(row[col] for col in _FINDING_COLUMNS)
                         for row in rows])
                    rows_written += 1 + len(rows)
        self._count_flush(rows_written)

    def load(self, job: CampaignJob) -> JobOutcome | None:
        found = self.load_fresh([job])
        return found.get(job.job_id)

    def load_fresh(self, jobs) -> dict:
        """Cached outcomes for every fresh job — chunked indexed selects,
        parsing only the records that will actually be reused."""
        self.flush()
        start = time.perf_counter()
        wanted = {job.job_id: job for job in jobs}
        out = {}
        ids = sorted(wanted)
        with self._lock:
            for lo in range(0, len(ids), _CHUNK):
                chunk = ids[lo:lo + _CHUNK]
                cursor = self._conn.execute(
                    "SELECT job_id, fingerprint, status, canonical"
                    f" FROM records WHERE job_id IN"
                    f" ({', '.join('?' * len(chunk))})", chunk)
                for job_id, fingerprint, status, text in cursor:
                    job = wanted[job_id]
                    if fingerprint != job.fingerprint() or status != "ok":
                        continue
                    try:
                        record = json.loads(text)
                    except ValueError:
                        continue
                    outcome = outcome_from_record(job, record)
                    if outcome is not None:
                        out[job_id] = outcome
        self._count_query(time.perf_counter() - start)
        self._count_loaded(len(out))
        return out

    def fresh_ids(self, jobs) -> set:
        """The resume scan: fingerprint/status comparison straight off the
        primary-key index, no JSON parsed, no payload columns read."""
        self.flush()
        start = time.perf_counter()
        wanted = {job.job_id: job.fingerprint() for job in jobs}
        fresh = set()
        ids = sorted(wanted)
        with self._lock:
            (total,) = self._conn.execute(
                "SELECT COUNT(*) FROM records").fetchone()
            if len(ids) * 4 >= total:
                # the matrix covers most of the table (the common resume
                # shape): one sequential read beats per-chunk IN lookups
                cursor = self._conn.execute(
                    "SELECT job_id, fingerprint FROM records"
                    " WHERE status = 'ok'")
                fresh.update(job_id for job_id, fingerprint in cursor
                             if wanted.get(job_id) == fingerprint)
            else:
                for lo in range(0, len(ids), _CHUNK):
                    chunk = ids[lo:lo + _CHUNK]
                    cursor = self._conn.execute(
                        "SELECT job_id, fingerprint FROM records"
                        f" WHERE status = 'ok' AND job_id IN"
                        f" ({', '.join('?' * len(chunk))})", chunk)
                    fresh.update(job_id for job_id, fingerprint in cursor
                                 if wanted[job_id] == fingerprint)
        self._count_query(time.perf_counter() - start)
        return fresh

    def completed_ids(self) -> set:
        self.flush()
        start = time.perf_counter()
        with self._lock:
            ids = {row[0] for row in self._conn.execute(
                "SELECT job_id FROM records WHERE status = 'ok'")}
        self._count_query(time.perf_counter() - start)
        return ids

    def canonical_records(self) -> dict:
        self.flush()
        with self._lock:
            return dict(self._conn.execute(
                "SELECT job_id, canonical FROM records ORDER BY job_id"))

    def delete_record(self, job_id: str) -> bool:
        self.flush()
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "DELETE FROM records WHERE job_id = ?", (job_id,))
            self._conn.execute(
                "DELETE FROM findings WHERE job_id = ?", (job_id,))
        return cursor.rowcount > 0

    # -- findings projection --------------------------------------------------

    def query_findings(self, contract=None, bug_class=None, severity=None,
                       fingerprint=None, job_id=None, preset=None) -> list:
        """Answer from the indexed projection — never parses a record."""
        self.flush()
        start = time.perf_counter()
        clauses, params = [], []
        for column, value in (("contract", contract), ("severity", severity),
                              ("fingerprint", fingerprint),
                              ("job_id", job_id), ("preset", preset)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if bug_class is not None:
            wanted = [bug_class] if isinstance(bug_class, str) \
                else sorted(bug_class)
            if not wanted:  # empty restriction selects nothing
                clauses.append("1 = 0")
            else:
                clauses.append(
                    f"bug_class IN ({', '.join('?' * len(wanted))})")
                params.extend(wanted)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = [dict(zip(_FINDING_COLUMNS, row))
                    for row in self._conn.execute(
                        f"SELECT {', '.join(_FINDING_COLUMNS)}"
                        f" FROM findings{where}"
                        " ORDER BY job_id, bug_class, contract, pc",
                        params)]
        self._count_query(time.perf_counter() - start)
        return rows

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self.flush()
        with self._lock:
            self._conn.close()
