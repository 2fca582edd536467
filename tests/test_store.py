"""The result-store package: records, durability, and refusals.

Covers save/load/resume, export round-trips, the findings projection,
checkpoint files on a store root, stale temp-file sweeping, concurrent
multi-process writers (no lost or torn records), a hypothesis round-trip
of records back to canonical JSON, and the loud refusal of a results
directory the retired database backend wrote.
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

from repro.cli import main
from repro.core.campaign import CampaignResult
from repro.engine.checkpoint import CampaignCheckpoint, canonical_json
from repro.oracles.base import SEVERITIES, BugClass, Finding
from repro.orchestrator import CampaignJob, create_backend, run_matrix
from repro.orchestrator.jobs import JobOutcome
from repro.orchestrator.store import (
    JsonResultStore,
    LegacyStoreError,
    ResultStore,
    atomic_write_text,
    build_record,
    finding_fingerprint,
    read_checkpoint_file,
    write_checkpoint_file,
)

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


@pytest.fixture
def store(tmp_path):
    store = ResultStore(tmp_path / "results")
    yield store
    store.close()


class TestBackendSelection:
    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            run_matrix([("C", SOURCE)], presets=("mufuzz",),
                       results_dir=tmp_path, store="postgres")
        assert list(tmp_path.iterdir()) == []


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
        assert store.load_fresh([edited]) == {}
        assert store.completed_ids() == {_job().job_id}

    def test_load_fresh(self, store):
        jobs = [_job(trial=t) for t in range(3)]
        for job in jobs[:2]:
            store.save(_outcome(job))
        loaded = store.load_fresh(jobs)
        assert set(loaded) == {j.job_id for j in jobs[:2]}
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
    def test_export_round_trips_to_per_file_layout(self, tmp_path):
        outcome = _outcome(_job(), findings=[_finding()])
        with ResultStore(tmp_path / "src") as store:
            saved = store.save(outcome)
            paths = store.export(tmp_path / "out")
        assert [p.name for p in paths] == [saved.name]
        assert paths[0].read_bytes() == saved.read_bytes()
        # the exported directory is itself a working store
        with ResultStore(tmp_path / "out") as reread:
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
        store = ResultStore(tmp_path)
        job = _job()
        path = store.checkpoint_path_for(job)
        write_checkpoint_file(path, _checkpoint(), job.fingerprint())
        assert path.name == f"{job.job_id}.checkpoint.json"
        assert read_checkpoint_file(path, job.fingerprint()) is not None
        # no stray temp, and no file with a mangled suffix
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.checkpoint"))

    def test_stale_temps_swept_on_open(self, tmp_path):
        root = tmp_path / "results"
        root.mkdir()
        stale = root / "dead.json.tmp"
        stale.write_text("{ torn")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = root / "live.json.tmp"
        fresh.write_text("{ in flight")
        store = ResultStore(root)
        assert not stale.exists()  # crashed writer's orphan: swept
        assert fresh.exists()      # a concurrent writer's: kept
        assert store.temps_swept == 1
        store.close()


class TestCheckpointBlobs:
    """Checkpoints on a store root: plain worker-written files next to
    the records, never records themselves."""

    def test_checkpoint_round_trip_and_file_transport(self, tmp_path):
        store = ResultStore(tmp_path)
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
        store = ResultStore(tmp_path)
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
        store = ResultStore(tmp_path)
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
        store = ResultStore(tmp_path)
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

root, worker, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ResultStore(root)
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
    def test_parallel_processes_lose_nothing(self, tmp_path):
        """N processes hammer one store; every record must land intact
        (parseable, canonical, fingerprint-correct) — no lost writes, no
        torn files."""
        workers, per_worker = 4, 25
        root = tmp_path / "shared"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        procs = [subprocess.Popen(
            [sys.executable, "-c", _STRESS_WORKER, str(root),
             str(w), str(per_worker)], env=env)
            for w in range(workers)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with ResultStore(root) as store:
            canonical = store.canonical_records()
            assert len(canonical) == workers * per_worker
            jobs = [_job(name=f"W{w}", trial=i)
                    for w in range(workers) for i in range(per_worker)]
            assert set(store.load_fresh(jobs)) == {j.job_id for j in jobs}
            for job in jobs:
                # byte-exact: the canonical text is exactly what a lone
                # writer would have produced — torn or interleaved writes
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
    def test_record_round_trips_to_canonical_json(self, tmp_path, findings,
                                                  coverage, telemetry):
        """Any record pushed through the store comes back as the exact
        canonical JSON of its outcome, and loads back to an equal
        result."""
        job = _job()
        outcome = _outcome(job, findings=findings, telemetry=telemetry,
                           coverage=coverage)
        expected_text = canonical_json(build_record(outcome))
        with ResultStore(tmp_path / "db") as store:
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
    def test_stats_dict_counts_activity(self, tmp_path):
        with ResultStore(tmp_path / "r") as store:
            job = _job()
            store.save(_outcome(job, findings=[_finding()]))
            store.load(job)
            store.query_findings()
            stats = store.stats_dict()
        assert stats["records_saved"] == 1
        assert stats["records_loaded"] >= 1
        assert stats["queries"] >= 1

    def test_factory_returns_expected_classes(self, tmp_path):
        assert isinstance(ResultStore(tmp_path / "a"), JsonResultStore)


class TestLoudFailures:
    """A store that cannot be read ends in a nonzero exit naming the
    culprit, never in a silently smaller or re-run result."""

    @pytest.mark.parametrize("command", ["report", "replay"])
    def test_unreadable_records_are_named(self, tmp_path, capsys, command):
        root = tmp_path / "results"
        with ResultStore(root) as store:
            paths = [store.save(_outcome(_job(trial=t),
                                         findings=[_finding(pc=10 + t)]))
                     for t in range(3)]
        truncated, non_utf8 = paths[1], paths[2]
        truncated.write_text(truncated.read_text()[:40])
        non_utf8.write_bytes(b"\xff\xfe not utf-8")
        assert main([command, str(root)]) == 2
        err = capsys.readouterr().err
        assert str(truncated) in err and str(non_utf8) in err
        assert str(paths[0]) not in err
        assert "re-running the campaign refreshes them" in err

    def test_results_db_is_refused_on_every_open_path(self, tmp_path,
                                                      capsys):
        """A directory the retired database backend wrote is refused by
        name, and nothing is written into it."""
        root = tmp_path / "results"
        root.mkdir()
        (root / "results.db").write_bytes(b"SQLite format 3\x00")
        contract = tmp_path / "c.sol"
        contract.write_text(SOURCE)
        with pytest.raises(LegacyStoreError, match="46555dd"):
            run_matrix([("C", SOURCE)], presets=("mufuzz",),
                       overrides={"iterations": 5}, workers=1,
                       results_dir=root)
        for argv in (["campaign", str(contract), "--fuzzers", "mufuzz",
                      "--trials", "1", "--iterations", "5",
                      "--workers", "1", "--results-dir", str(root)],
                     ["report", str(root)],
                     ["replay", str(root)]):
            assert main(argv) == 2, argv
            assert "46555dd" in capsys.readouterr().err, argv
        assert [p.name for p in root.iterdir()] == ["results.db"]
