"""The result-store package: backend parity, durability, and scale hooks.

Covers the store split (json per-file reference vs WAL-mode sqlite):
byte-identical canonical records across backends, export round-trips,
buffered-write flush semantics, the indexed findings projection,
checkpoint files on a sqlite store root, stale temp-file sweeping, concurrent multi-process writers (no lost or torn records), and
a hypothesis round-trip of records through sqlite back to canonical JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignResult
from repro.engine.checkpoint import CampaignCheckpoint, canonical_json
from repro.oracles.base import SEVERITIES, BugClass, Finding
from repro.orchestrator import CampaignJob, create_backend
from repro.orchestrator.jobs import JobOutcome
from repro.orchestrator.store import (
    DB_NAME,
    JsonResultStore,
    ResultStore,
    SqliteResultStore,
    atomic_write_text,
    build_record,
    finding_fingerprint,
    read_checkpoint_file,
    resolve_store_backend,
    write_checkpoint_file,
)

BACKEND_NAMES = ("json", "sqlite")

#: a source that is never compiled here — store tests exercise
#: persistence, not fuzzing, so records are synthesized
SOURCE = "contract C { function f() public { } }"


def _job(name: str = "C", preset: str = "mufuzz",
         trial: int = 0, **kw) -> CampaignJob:
    base = dict(name=name, source=SOURCE, preset=preset, trial=trial,
                overrides={"iterations": 5})
    base.update(kw)
    return CampaignJob(**base)


def _finding(contract: str = "C", bug_class: BugClass = BugClass.RE,
             pc: int = 7, severity: str = "high") -> Finding:
    return Finding(bug_class=bug_class, contract=contract, pc=pc,
                   line=3, description=f"{bug_class.value} at {pc}",
                   severity=severity, confidence=0.9,
                   witness=({"fn": "f", "args": [], "value": 0,
                             "sender": 1},))


def _outcome(job: CampaignJob, findings=(), telemetry=None,
             coverage: float = 0.5) -> JobOutcome:
    result = CampaignResult(
        fuzzer="MuFuzz", contract=job.name, coverage=coverage,
        iterations=10, total_steps=400, wall_time=1.25,
        findings=list(findings), curve=[(100, 0.25), (400, coverage)],
        seeds_in_queue=3, transactions=20)
    return JobOutcome(job=job, status="ok", result=result,
                      telemetry=telemetry)


def _checkpoint(contract: str = "C") -> CampaignCheckpoint:
    return CampaignCheckpoint(
        config={"iterations": 5}, rng_state=(3, tuple(range(6)), None),
        budget={"iterations_used": 2}, queue=[], coverage={},
        selector={}, masked={}, scheduler={}, collector={},
        oracle_state={}, loop={}, fuzzer="MuFuzz", contract=contract)


@pytest.fixture(params=BACKEND_NAMES)
def store(request, tmp_path):
    store = ResultStore(tmp_path / "results", backend=request.param)
    yield store
    store.close()


class TestBackendSelection:
    def test_explicit_backend_wins(self, tmp_path):
        assert ResultStore(tmp_path / "a", backend="json").name == "json"
        assert ResultStore(tmp_path / "b",
                           backend="sqlite").name == "sqlite"

    def test_existing_store_keeps_its_format(self, tmp_path, monkeypatch):
        sql_dir, json_dir = tmp_path / "sql", tmp_path / "json"
        ResultStore(sql_dir, backend="sqlite").close()
        json_store = ResultStore(json_dir, backend="json")
        json_store.save(_outcome(_job()))
        # even with the env pointing the other way, an existing store is
        # never silently forked into a second format
        monkeypatch.setenv("REPRO_STORE", "json")
        assert resolve_store_backend(sql_dir) == "sqlite"
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        assert resolve_store_backend(json_dir) == "json"

    def test_env_applies_to_fresh_directories_only(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        assert resolve_store_backend(tmp_path / "fresh") == "sqlite"
        monkeypatch.delenv("REPRO_STORE")
        assert resolve_store_backend(tmp_path / "fresh2") == "json"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            ResultStore(tmp_path, backend="postgres")

    def test_checkpoints_do_not_pin_a_format(self, tmp_path, monkeypatch):
        """A directory holding only checkpoint files (interrupted before
        any record settled) is still 'fresh' for format selection."""
        store = ResultStore(tmp_path / "r", backend="json")
        job = _job()
        write_checkpoint_file(store.checkpoint_path_for(job), _checkpoint(),
                              job.fingerprint())
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        assert resolve_store_backend(tmp_path / "r") == "sqlite"


class TestRoundTrip:
    def test_save_load_round_trip(self, store):
        job = _job()
        outcome = _outcome(job, findings=[_finding()],
                           telemetry={"counters": {"x": 1}})
        assert store.save(outcome) is not None
        loaded = store.load(job)
        assert loaded is not None and loaded.ok
        expected = CampaignResult.from_dict(
            {**outcome.result.to_dict(), "wall_time": 0.0})
        assert loaded.result == expected
        assert loaded.telemetry == {"counters": {"x": 1}}

    def test_stale_fingerprint_not_reused(self, store):
        store.save(_outcome(_job()))
        edited = _job(source=SOURCE + "\n// edited\n")
        assert store.load(edited) is None
        assert store.fresh_ids([edited]) == set()
        assert store.completed_ids() == {_job().job_id}

    def test_fresh_ids_and_load_fresh(self, store):
        jobs = [_job(trial=t) for t in range(3)]
        for job in jobs[:2]:
            store.save(_outcome(job))
        assert store.fresh_ids(jobs) == {j.job_id for j in jobs[:2]}
        loaded = store.load_fresh(jobs)
        assert sorted(loaded) == sorted(j.job_id for j in jobs[:2])
        assert all(o.ok for o in loaded.values())

    def test_failures_not_persisted(self, store):
        failed = JobOutcome(job=_job(), status="error", error="boom")
        assert store.save(failed) is None
        assert store.completed_ids() == set()

    def test_delete_record_drops_everything(self, store):
        job = _job()
        store.save(_outcome(job, findings=[_finding()]))
        assert store.delete_record(job.job_id)
        assert store.completed_ids() == set()
        assert store.query_findings() == []
        assert not store.delete_record(job.job_id)  # already gone


class TestCanonicalParity:
    def test_identical_canonical_text_across_backends(self, tmp_path):
        jobs = [_job(trial=t) for t in range(3)]
        outcomes = [_outcome(job, findings=[_finding(pc=10 + t)])
                    for t, job in enumerate(jobs)]
        canon = {}
        for name in BACKEND_NAMES:
            with ResultStore(tmp_path / name, backend=name) as store:
                for outcome in outcomes:
                    store.save(outcome)
                canon[name] = store.canonical_records()
        assert canon["json"] == canon["sqlite"]
        assert len(canon["json"]) == 3

    def test_export_round_trips_to_per_file_layout(self, tmp_path):
        outcome = _outcome(_job(), findings=[_finding()])
        with ResultStore(tmp_path / "db", backend="sqlite") as store:
            store.save(outcome)
            paths = store.export(tmp_path / "out")
        with ResultStore(tmp_path / "ref", backend="json") as ref:
            ref_path = ref.save(outcome)
        assert [p.name for p in paths] == [ref_path.name]
        assert paths[0].read_bytes() == ref_path.read_bytes()
        # the exported directory is itself a working json store
        with ResultStore(tmp_path / "out") as reread:
            assert reread.name == "json"
            assert reread.load(_job()) is not None


class TestFindingsProjection:
    def _populate(self, store):
        specs = [("C", BugClass.RE, 7, "high", "mufuzz", 0),
                 ("C", BugClass.RE, 7, "high", "sfuzz", 0),
                 ("C", BugClass.IO, 21, "medium", "mufuzz", 1),
                 ("D", BugClass.TO, 33, "low", "mufuzz", 0)]
        by_job: dict = {}
        for contract, bug_class, pc, severity, preset, trial in specs:
            job = _job(name=contract, preset=preset, trial=trial)
            by_job.setdefault(job.job_id, (job, []))[1].append(
                _finding(contract=contract, bug_class=bug_class, pc=pc,
                         severity=severity))
        for job, findings in by_job.values():
            store.save(_outcome(job, findings=findings))

    def test_rows_carry_coordinates_and_fingerprint(self, store):
        self._populate(store)
        rows = store.query_findings()
        assert len(rows) == 4
        assert {row["preset"] for row in rows} == {"mufuzz", "sfuzz"}
        re_rows = [r for r in rows if r["bug_class"] == "RE"]
        # the same defect reported by two presets shares one fingerprint
        assert len({r["fingerprint"] for r in re_rows}) == 1
        assert re_rows[0]["fingerprint"] == \
            finding_fingerprint("RE", "C", 7)

    def test_filters(self, store):
        self._populate(store)
        assert len(store.query_findings(contract="C")) == 3
        assert len(store.query_findings(bug_class="RE")) == 2
        assert len(store.query_findings(bug_class=["RE", "IO"])) == 3
        assert len(store.query_findings(severity="low")) == 1
        assert len(store.query_findings(preset="sfuzz")) == 1
        assert store.query_findings(contract="C", severity="low") == []
        assert store.query_findings(bug_class=[]) == []

    def test_filtered_rows_identical_across_backends(self, tmp_path):
        results = {}
        for name in BACKEND_NAMES:
            with ResultStore(tmp_path / name, backend=name) as store:
                self._populate(store)
                results[name] = (store.query_findings(),
                                 store.query_findings(contract="C",
                                                      bug_class="RE"))
        assert results["json"] == results["sqlite"]

    def test_severities_cover_the_ladder(self, store):
        self._populate(store)
        assert {r["severity"] for r in store.query_findings()} == \
            set(SEVERITIES)


class TestAtomicWrites:
    def test_temp_name_appends_never_rewrites_suffix(self, tmp_path,
                                                     monkeypatch):
        """The checkpoint temp must be <name>.tmp appended to the full
        compound suffix — with_suffix('.tmp') would collapse
        'j.checkpoint.json' and 'j.telemetry.json' onto one temp path."""
        renames = []
        real_replace = os.replace

        def spy(src, dst):
            renames.append((os.path.basename(str(src)),
                            os.path.basename(str(dst))))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write_text(tmp_path / "j.checkpoint.json", "{}\n")
        assert renames == [("j.checkpoint.json.tmp", "j.checkpoint.json")]

    def test_checkpoint_write_uses_appended_temp(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        job = _job()
        path = store.checkpoint_path_for(job)
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        assert path.name == f"{job.job_id}.checkpoint.json"
        assert read_checkpoint_file(path, job.fingerprint()) is not None
        # no stray temp, and no file with a mangled suffix
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.checkpoint"))

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_stale_temps_swept_on_open(self, tmp_path, backend):
        root = tmp_path / "results"
        root.mkdir()
        stale = root / "dead.json.tmp"
        stale.write_text("{ torn")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = root / "live.json.tmp"
        fresh.write_text("{ in flight")
        store = ResultStore(root, backend=backend)
        assert not stale.exists()  # crashed writer's orphan: swept
        assert fresh.exists()      # a concurrent writer's: kept
        assert store.temps_swept == 1
        store.close()


class TestSqliteBuffering:
    def test_writes_are_batched_until_flush(self, tmp_path):
        root = tmp_path / "r"
        store = ResultStore(root, backend="sqlite", batch_size=1000,
                            flush_interval=3600.0)
        for trial in range(5):
            store.save(_outcome(_job(trial=trial)))
        # a second, independent connection must not see unflushed rows
        with ResultStore(root) as observer:
            assert observer.completed_ids() == set()
        store.flush()
        with ResultStore(root) as observer:
            assert len(observer.completed_ids()) == 5
        assert store.stats_dict()["batch_flushes"] >= 1
        assert store.stats_dict()["rows_written"] >= 5
        store.close()

    def test_batch_size_threshold_forces_flush(self, tmp_path):
        root = tmp_path / "r"
        store = ResultStore(root, backend="sqlite", batch_size=2,
                            flush_interval=3600.0)
        store.save(_outcome(_job(trial=0)))
        store.save(_outcome(_job(trial=1)))  # hits the threshold
        with ResultStore(root) as observer:
            assert len(observer.completed_ids()) == 2
        store.close()

    def test_reads_flush_first(self, tmp_path):
        store = ResultStore(tmp_path / "r", backend="sqlite",
                            batch_size=1000, flush_interval=3600.0)
        job = _job()
        store.save(_outcome(job))
        # same store: any read path must observe its own buffered writes
        assert store.completed_ids() == {job.job_id}
        store.close()

    def test_close_flushes(self, tmp_path):
        root = tmp_path / "r"
        store = ResultStore(root, backend="sqlite", batch_size=1000,
                            flush_interval=3600.0)
        store.save(_outcome(_job()))
        store.close()
        with ResultStore(root) as observer:
            assert len(observer.completed_ids()) == 1


class TestCheckpointBlobs:
    """Checkpoints on a sqlite store root: the database holds none of
    them, so they are the same plain worker-written files as on the json
    backend."""

    def test_checkpoint_round_trip_and_file_transport(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        job = _job()
        path = store.checkpoint_path_for(job)
        assert path == tmp_path / f"{job.job_id}.checkpoint.json"
        # the path dispatched to workers is the store's path
        backend = create_backend("inline", checkpoint_every=3,
                                 checkpoint_dir=tmp_path)
        assert backend.checkpoint_transport(job) == {"every": 3,
                                                     "path": str(path)}
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        loaded = read_checkpoint_file(path, job.fingerprint())
        assert loaded is not None and loaded.contract == "C"
        store.close()

    def test_tampered_blob_reads_as_missing(self, tmp_path):
        """A checkpoint file that is truncated, carries another job's
        fingerprint, or is not UTF-8 is never trusted: the job resumes
        fresh."""
        store = ResultStore(tmp_path, backend="sqlite")
        job = _job()
        path = store.checkpoint_path_for(job)
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        assert read_checkpoint_file(path, job.fingerprint()) is None
        tampered = text.replace(job.fingerprint(), "0" * 16, 1)
        assert tampered != text
        path.write_text(tampered)
        assert read_checkpoint_file(path, job.fingerprint()) is None
        path.write_bytes(b"\xff\xfe not utf-8")
        assert read_checkpoint_file(path, job.fingerprint()) is None
        store.close()

    def test_resaving_repairs_a_corrupt_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        job = _job()
        path = store.checkpoint_path_for(job)
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        text = path.read_text()
        path.write_bytes(b"\xff\xfe not utf-8")
        assert read_checkpoint_file(path, job.fingerprint()) is None
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        assert path.read_text() == text
        assert read_checkpoint_file(path, job.fingerprint()) is not None
        store.close()

    def test_clear_checkpoint_releases_blob_and_file(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        job = _job()
        path = store.checkpoint_path_for(job)
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        store.clear_checkpoint(job)
        assert not path.exists()
        store.clear_checkpoint(job)  # already gone: a no-op
        store.close()


_STRESS_WORKER = r"""
import sys
from repro.core.campaign import CampaignResult
from repro.orchestrator import CampaignJob
from repro.orchestrator.jobs import JobOutcome
from repro.orchestrator.store import ResultStore

root, backend, worker, count = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                int(sys.argv[4]))
kwargs = {"batch_size": 7, "flush_interval": 0.01} \
    if backend == "sqlite" else {}
store = ResultStore(root, backend=backend, **kwargs)
for i in range(count):
    job = CampaignJob(name=f"W{worker}", preset="mufuzz", trial=i,
                      source="contract C { function f() public { } }",
                      overrides={"iterations": 5})
    result = CampaignResult(fuzzer="MuFuzz", contract=job.name,
                            coverage=0.5, iterations=10, total_steps=400,
                            wall_time=1.25, transactions=20)
    store.save(JobOutcome(job=job, status="ok", result=result))
store.close()
"""


class TestConcurrentWriters:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_parallel_processes_lose_nothing(self, tmp_path, backend):
        """N processes hammer one store; every record must land intact
        (parseable, canonical, fingerprint-correct) — no lost writes, no
        torn rows, even with sqlite's buffered writer flushing under
        cross-process lock contention."""
        workers, per_worker = 4, 25
        root = tmp_path / "shared"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        procs = [subprocess.Popen(
            [sys.executable, "-c", _STRESS_WORKER, str(root), backend,
             str(w), str(per_worker)], env=env)
            for w in range(workers)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with ResultStore(root) as store:
            assert store.name == backend
            canonical = store.canonical_records()
            assert len(canonical) == workers * per_worker
            jobs = [_job(name=f"W{w}", trial=i)
                    for w in range(workers) for i in range(per_worker)]
            assert store.fresh_ids(jobs) == {j.job_id for j in jobs}
            for job in jobs:
                # byte-exact: the canonical text is exactly what a lone
                # writer would have produced — torn or interleaved rows
                # cannot survive this comparison
                expected = canonical_json(build_record(
                    JobOutcome(job=job, status="ok",
                               result=CampaignResult(
                                   fuzzer="MuFuzz", contract=job.name,
                                   coverage=0.5, iterations=10,
                                   total_steps=400, wall_time=1.25,
                                   transactions=20))))
                assert canonical[job.job_id] == expected, job.job_id


_description = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=0, max_size=40)

_findings = st.lists(
    st.builds(
        Finding,
        bug_class=st.sampled_from(sorted(BugClass,
                                         key=lambda bc: bc.value)),
        contract=st.just("C"),
        pc=st.integers(min_value=0, max_value=10_000),
        line=st.integers(min_value=0, max_value=500),
        description=_description,
        severity=st.sampled_from(SEVERITIES),
        confidence=st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False, width=64),
    ),
    max_size=5, unique_by=lambda f: (f.bug_class, f.pc))


class TestHypothesisRoundTrip:
    @given(findings=_findings,
           coverage=st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, width=64),
           telemetry=st.one_of(
               st.none(),
               st.dictionaries(st.text(max_size=8),
                               st.integers(min_value=0,
                                           max_value=2**40),
                               max_size=3)))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sqlite_round_trips_to_canonical_json(self, tmp_path, findings,
                                                  coverage, telemetry):
        """Any record pushed through the sqlite backend comes back as the
        exact canonical JSON the reference backend would have written,
        and loads back to an equal result."""
        job = _job()
        outcome = _outcome(job, findings=findings, telemetry=telemetry,
                           coverage=coverage)
        expected_text = canonical_json(build_record(outcome))
        with ResultStore(tmp_path / "db", backend="sqlite") as store:
            store.save(outcome)
            assert store.canonical_records() == {job.job_id: expected_text}
            loaded = store.load(job)
            assert loaded is not None
            assert loaded.result == CampaignResult.from_dict(
                {**outcome.result.to_dict(), "wall_time": 0.0})
            assert loaded.telemetry == telemetry
            assert len(store.query_findings(job_id=job.job_id)) == \
                len(findings)


class TestStoreStats:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_stats_dict_counts_activity(self, tmp_path, backend):
        with ResultStore(tmp_path / "r", backend=backend) as store:
            job = _job()
            store.save(_outcome(job, findings=[_finding()]))
            store.flush()
            store.load(job)
            store.query_findings()
            stats = store.stats_dict()
        assert stats["backend"] == backend
        assert stats["records_saved"] == 1
        assert stats["records_loaded"] >= 1
        if backend == "sqlite":
            assert stats["batch_flushes"] >= 1
            assert stats["rows_written"] >= 2  # record + finding row
        assert stats["queries"] >= 1

    def test_db_file_not_mistaken_for_a_record(self, tmp_path):
        with ResultStore(tmp_path, backend="sqlite") as store:
            store.save(_outcome(_job()))
        assert (tmp_path / DB_NAME).exists()
        # a json store never globs results.db
        ids = JsonResultStore(tmp_path).completed_ids()
        assert DB_NAME not in {f"{i}.json" for i in ids}

    def test_factory_returns_expected_classes(self, tmp_path):
        assert isinstance(ResultStore(tmp_path / "a", backend="json"),
                          JsonResultStore)
        assert isinstance(ResultStore(tmp_path / "b", backend="sqlite"),
                          SqliteResultStore)
