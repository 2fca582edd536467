"""The campaign orchestrator: jobs, backends, store, determinism."""

from __future__ import annotations

import os
import threading

import pytest

from repro.compiler.cache import compile_cached
from repro.core.campaign import CampaignResult
from repro.corpus import generate_d2
from repro.oracles.base import BugClass, Finding
from repro.orchestrator import (
    BACKENDS,
    CampaignJob,
    ResultStore,
    backend_for,
    build_matrix,
    create_backend,
    execute_job,
    merge_trials,
    run_matrix,
    summarize,
)
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE

BROKEN_SOURCE = "contract Broken { function f( public"

#: tiny budget: orchestration behaviour, not fuzzing quality, is under test
FAST = {"iterations": 15}

#: parallel worker count for the backend-parity tests; CI sweeps 1/2/4
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def _job(**kw) -> CampaignJob:
    base = dict(name="Crowdsale", source=CROWDSALE_SOURCE,
                preset="mufuzz", overrides=dict(FAST))
    base.update(kw)
    return CampaignJob(**base)


class TestJobModel:
    def test_trial_seeds_are_distinct_and_stable(self):
        seeds = [_job(trial=t).derived_seed() for t in range(10)]
        assert len(set(seeds)) == 10
        assert seeds == [_job(trial=t).derived_seed() for t in range(10)]

    def test_seed_varies_along_every_matrix_axis(self):
        base = _job().derived_seed()
        assert _job(preset="sfuzz").derived_seed() != base
        assert _job(name="Other").derived_seed() != base
        assert _job(base_seed=2).derived_seed() != base

    def test_explicit_rng_seed_bypasses_derivation(self):
        job = _job(overrides={"rng_seed": 17})
        assert job.derived_seed() == 17
        assert job.build_config().rng_seed == 17

    def test_config_comes_from_preset_registry(self):
        config = _job(overrides={"iterations": 33}).build_config()
        assert config.name == "MuFuzz"
        assert config.iterations == 33
        with pytest.raises(ValueError):
            _job(preset="nonesuch").build_config()

    def test_job_id_is_filesystem_safe(self):
        job_id = _job(name="weird name/../x").job_id
        assert "/" not in job_id and " " not in job_id

    def test_fingerprint_tracks_content(self):
        assert _job().fingerprint() == _job().fingerprint()
        assert _job().fingerprint() != _job(source=GAME_SOURCE).fingerprint()
        assert _job().fingerprint() != \
            _job(overrides={"iterations": 16}).fingerprint()

    def test_supported_classes_round_trip(self):
        job = _job(supported_bug_classes=["RE", "IO"])
        assert job.supported_set() == {BugClass.RE, BugClass.IO}
        assert CampaignJob.from_dict(job.to_dict()) == job

    def test_build_matrix_shape_and_uniqueness(self):
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)],
            presets=("mufuzz", "sfuzz"), trials=2)
        assert len(jobs) == 8
        assert len({job.job_id for job in jobs}) == 8

    def test_build_matrix_rejects_duplicate_contract_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_matrix([("A", CROWDSALE_SOURCE), ("A", GAME_SOURCE)],
                         presets=("mufuzz",))


class TestExecuteJob:
    def test_ok_outcome_carries_result(self):
        outcome = execute_job(_job())
        assert outcome.ok and outcome.status == "ok"
        assert isinstance(outcome.result, CampaignResult)
        assert outcome.result.iterations > 0

    def test_compile_error_is_captured_not_raised(self):
        outcome = execute_job(_job(name="Broken", source=BROKEN_SOURCE))
        assert outcome.status == "error"
        assert outcome.result is None
        assert outcome.error  # traceback text


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        job = _job()
        outcome = execute_job(job)
        store = ResultStore(tmp_path)
        assert store.save(outcome) is not None
        loaded = store.load(job)
        assert loaded is not None and loaded.ok
        # wall-clock time is normalized out of the canonical artifact
        expected = CampaignResult.from_dict(
            {**outcome.result.to_dict(), "wall_time": 0.0})
        assert loaded.result == expected

    def test_stale_fingerprint_is_not_reused(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(execute_job(_job()))
        edited = _job(source=CROWDSALE_SOURCE + "\n// edited\n")
        assert store.path_for(edited) == store.path_for(_job())
        assert store.load(edited) is None

    def test_failures_are_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        outcome = execute_job(_job(name="Broken", source=BROKEN_SOURCE))
        assert store.save(outcome) is None
        assert store.completed_ids() == set()

    def test_persisted_bytes_are_reproducible(self, tmp_path):
        job = _job()
        store = ResultStore(tmp_path)
        store.save(execute_job(job))
        first = store.canonical_records()[job.job_id]
        store.save(execute_job(job))
        assert store.canonical_records()[job.job_id] == first


class TestRunMatrix:
    def test_resume_skips_completed_jobs(self, tmp_path):
        contracts = [("Crowdsale", CROWDSALE_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=2, overrides=FAST,
                  workers=1, results_dir=tmp_path)
        first = run_matrix(contracts, **kw)
        assert first.executed == 4 and first.cached == 0
        second = run_matrix(contracts, **kw)
        assert second.executed == 0 and second.cached == 4
        assert [(o.job.job_id, o.result) for o in second.outcomes] == \
            [(o.job.job_id,
              CampaignResult.from_dict(
                  {**o.result.to_dict(), "wall_time": 0.0}))
             for o in first.outcomes]

    @pytest.mark.parametrize("payload", [
        pytest.param(b'{"schema": 2, "fingerprint": "', id="truncated"),
        pytest.param(b"\xff\xfe not utf-8", id="non-utf8")])
    def test_mangled_checkpoint_runs_fresh(self, tmp_path, payload):
        """A checkpoint file that does not parse is no checkpoint: the
        cell runs fresh to the clean result and consumes the file, instead
        of failing on every re-run."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE)]
        kw = dict(presets=("mufuzz",), trials=1, overrides=FAST, workers=1)
        (clean,) = run_matrix(contracts, **kw).outcomes
        with ResultStore(tmp_path) as results:
            planted = results.checkpoint_path_for(clean.job)
        planted.write_bytes(payload)
        run = run_matrix(contracts, **kw, results_dir=tmp_path,
                         checkpoint_every=3)
        (outcome,) = run.outcomes
        assert outcome.ok, outcome.error
        assert {**outcome.result.to_dict(), "wall_time": 0.0} == \
            {**clean.result.to_dict(), "wall_time": 0.0}
        assert not planted.exists()

    def test_cached_cell_drops_its_leftover_checkpoint(self, tmp_path):
        """A checkpoint left next to a stored record (a crash between
        saving the result and consuming the file) is swept on re-run."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE)]
        kw = dict(presets=("mufuzz",), trials=1, overrides=FAST, workers=1,
                  results_dir=tmp_path, checkpoint_every=3)
        (outcome,) = run_matrix(contracts, **kw).outcomes
        with ResultStore(tmp_path) as results:
            leftover = results.checkpoint_path_for(outcome.job)
        assert not leftover.exists()
        leftover.write_text("{}\n")
        rerun = run_matrix(contracts, **kw)
        assert rerun.executed == 0 and rerun.cached == 1
        assert not leftover.exists()

    def test_budget_specs_fold_into_every_job(self):
        """run_matrix's budget parameters reach each campaign's config
        and govern it through the engine's single Budget authority."""
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=("mufuzz",),
                         overrides={"iterations": None, "rng_seed": 5},
                         tx_budget=120, workers=1)
        (result,) = (o.result for o in run.outcomes)
        assert result.transactions >= 120

    def test_budget_spec_conflicts_with_override(self):
        with pytest.raises(ValueError, match="tx_budget"):
            run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                       presets=("mufuzz",),
                       overrides={"iterations": None, "tx_budget": 5},
                       tx_budget=120, workers=1)

    def test_one_broken_contract_does_not_kill_the_matrix(self):
        run = run_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Broken", BROKEN_SOURCE)],
            presets=("mufuzz",), overrides=FAST, workers=1)
        assert len(run.errors) == 1
        assert run.errors[0].job.name == "Broken"
        assert [job.name for job, _ in run.ok_results()] == ["Crowdsale"]

    def test_summaries_aggregate_trials(self):
        run = run_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                         presets=("mufuzz",), trials=3, overrides=FAST,
                         workers=1)
        (summary,) = summarize(run.outcomes)
        assert summary.trials == 3
        results = run.results_for("mufuzz")["Crowdsale"]
        assert summary.mean_coverage == pytest.approx(
            sum(r.coverage for r in results) / 3)
        assert summary.best_coverage == max(r.coverage for r in results)


class TestBackends:
    """The pluggable execution backends: registry and auto-selection,
    the inline/pool determinism guard, compile-cache amortization, worker
    recycling, and timeout kill-and-respawn."""

    def test_registry_and_auto_selection(self):
        assert set(BACKENDS) == {"inline", "pool"}
        assert backend_for(workers=1, job_timeout=None) == "inline"
        assert backend_for(workers=4, job_timeout=None) == "pool"
        assert backend_for(workers=1, job_timeout=5.0) == "pool"
        # a recycling quota needs worker processes: never dropped silently
        assert backend_for(workers=1, recycle_after=0) == "inline"
        assert backend_for(workers=1, recycle_after=1) == "pool"
        engine = create_backend(None, workers=1, recycle_after=1)
        assert engine.name == "pool" and engine.recycle_after == 1
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("nonesuch")

    def test_inline_rejects_job_timeout(self):
        with pytest.raises(ValueError, match="inline"):
            create_backend("inline", job_timeout=1.0)
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("inline", recycle_after=1)

    def test_invalid_recycle_after_rejected(self):
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("pool", recycle_after=-5)
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("pool", recycle_after=0.5)  # would truncate to 0
        with pytest.raises(ValueError, match="recycle_after"):
            create_backend("pool", recycle_after=2.5)  # silent truncation
        # 0 and None both mean "never recycle"
        assert create_backend("pool", recycle_after=0).recycle_after is None
        assert create_backend("pool").recycle_after is None

    def test_all_backends_byte_identical(self, tmp_path):
        """The determinism guard: every backend must persist exactly the
        same bytes for the same matrix, at any worker count (CI sweeps
        ``REPRO_TEST_WORKERS`` over 1, 2, and 4)."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=2, overrides=FAST)
        persisted = {}
        for backend in sorted(BACKENDS):
            results_dir = tmp_path / backend
            run = run_matrix(contracts, backend=backend, workers=WORKERS,
                             results_dir=results_dir, **kw)
            assert not run.errors and not run.timeouts, backend
            assert run.backend == backend
            assert run.executed == 8
            persisted[backend] = ResultStore(results_dir) \
                .canonical_records()
        assert len(persisted["inline"]) == 8
        assert persisted["inline"] == persisted["pool"]

    @pytest.mark.skipif(os.environ.get("REPRO_TEST_WORKERS") is not None,
                        reason="worker-count independent: once per suite "
                               "is enough; skip in the CI worker sweep")
    def test_pool_amortizes_compilation_and_isolates_at_recycle_one(self):
        """20 cells over 2 contracts: each pool worker compiles each
        contract at most once (hits >= cells - contracts x workers);
        ``recycle_after=1`` is the isolation mode — a fresh process per
        job, so every compile cache starts cold — and settles the same
        results.  The scheduler's own compile cache is warm first: a
        worker forked from it must not inherit the entries."""
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        for _, source in contracts:
            compile_cached(source)
        kw = dict(presets=("mufuzz", "sfuzz"), trials=5, overrides=FAST,
                  workers=2, backend="pool")
        pool = run_matrix(contracts, **kw)
        isolated = run_matrix(contracts, recycle_after=1, **kw)
        assert not pool.errors and not isolated.errors
        assert pool.executed == isolated.executed == 20
        assert pool.stats.compile_cache_hits >= 20 - 2 * 2
        assert pool.stats.compile_cache_misses <= 2 * 2
        assert isolated.stats.compile_cache_hits == 0
        assert isolated.stats.compile_cache_misses == 20
        # every worker is retired after its job, bar the last per worker
        assert isolated.stats.workers_recycled >= 20 - 2
        assert ([o.result.to_dict() | {"wall_time": 0.0}
                 for o in pool.outcomes]
                == [o.result.to_dict() | {"wall_time": 0.0}
                    for o in isolated.outcomes])

    def test_pool_forks_only_from_a_single_threaded_scheduler(
            self, monkeypatch):
        """Every worker is forked, one per job at ``recycle_after=1``,
        and the scheduler has no other thread at any fork: the dispatch
        channels start no feeder thread."""
        threads = []
        fork = os.fork

        def recording_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        jobs = [_job(trial=t) for t in range(4)]
        engine = create_backend("pool", workers=2, recycle_after=1)
        outcomes = engine.run(jobs)
        assert all(o.ok for o in outcomes)
        assert len(threads) >= len(jobs)
        assert set(threads) == {1}, threads

    def test_pool_keeps_each_worker_on_one_contract(self):
        """Contract-sticky dispatch: a contract compiles in a second
        worker only when that worker steals from the tail, so misses stay
        within contracts + workers - 1."""
        contracts = [(c.name, c.source) for c in generate_d2()[:4]]
        run = run_matrix(contracts, presets=("mufuzz", "sfuzz"), trials=3,
                         overrides={"iterations": 5}, workers=2,
                         backend="pool")
        assert not run.errors and run.executed == 24
        assert run.stats.compile_cache_misses <= len(contracts) + 2 - 1

    def test_pool_dispatch_survives_a_broken_pipe(self, monkeypatch):
        """A failed send leaves the job pending: it is dispatched again
        and the matrix still settles every job ``ok``."""
        from multiprocessing.connection import Connection
        send = Connection.send
        failures = []

        def failing_send(conn, obj):
            if not failures:
                failures.append(obj)
                raise BrokenPipeError("injected")
            return send(conn, obj)

        monkeypatch.setattr(Connection, "send", failing_send)
        jobs = [_job(trial=t) for t in range(3)]
        outcomes = create_backend("pool", workers=2).run(jobs)
        assert failures and failures[0] is not None
        assert [o.status for o in outcomes] == ["ok"] * 3

    def test_pool_timeout_excludes_worker_start(self):
        """Worker start-up is not charged to a job's timeout: a forked
        worker is ready within milliseconds, so a budget far above a
        job's run time but below an interpreter boot times out nothing."""
        contracts = [(c.name, c.source) for c in generate_d2()[:3]]
        run = run_matrix(contracts, presets=("mufuzz",), trials=2,
                         overrides={"iterations": 5}, workers=2,
                         backend="pool", job_timeout=0.25)
        assert not run.timeouts and not run.errors
        assert run.executed == 6

    def test_pool_recycles_workers_after_quota(self):
        jobs = build_matrix([("Crowdsale", CROWDSALE_SOURCE)],
                            presets=("mufuzz",), trials=6, overrides=FAST)
        engine = create_backend("pool", workers=1, recycle_after=2)
        outcomes = engine.run(jobs)
        assert all(o.ok for o in outcomes)
        assert engine.stats["workers_recycled"] == 2
        # every fresh incarnation recompiles once: recycling trades cache
        # warmth for bounded per-process memory
        assert engine.stats["compile_cache_misses"] == 3
        assert engine.stats["compile_cache_hits"] == 3

    def test_pool_dispatches_before_settling(self):
        """A worker that reports a result gets its next job before the
        scheduler settles (and, under run_matrix, saves) that result."""
        jobs = [_job(trial=t) for t in range(3)]
        engine = create_backend("pool", workers=1)
        log = []
        payload = engine.job_payload

        def logged_payload(job):
            log.append(("dispatch", job.job_id))
            return payload(job)

        engine.job_payload = logged_payload
        outcomes = engine.run(
            jobs, progress=lambda o: log.append(("settle", o.job.job_id)))
        assert all(o.ok for o in outcomes)
        first, second = jobs[0].job_id, jobs[1].job_id
        assert log.index(("dispatch", second)) < \
            log.index(("settle", first)), log

    def test_pool_timeout_kills_worker_and_queue_continues(self):
        """Timeout kill, a captured per-job error, and unaffected
        neighbours, all in one pool run."""
        hang = _job(name="Hang", overrides={"iterations": 50_000_000})
        broken = _job(name="Broken", source=BROKEN_SOURCE)
        fast = [_job(trial=t) for t in range(4)]
        engine = create_backend("pool", workers=2, job_timeout=2.0)
        outcomes = engine.run([hang, broken] + fast)
        by_id = {o.job.job_id: o for o in outcomes}
        assert by_id["Hang__mufuzz__t000"].status == "timeout"
        assert "timeout" in by_id["Hang__mufuzz__t000"].error
        assert by_id["Broken__mufuzz__t000"].status == "error"
        assert "Traceback" in by_id["Broken__mufuzz__t000"].error
        assert all(o.ok for o in outcomes if o.job.name == "Crowdsale")
        assert engine.stats["workers_killed"] == 1

    def test_pool_isolates_a_broken_job(self):
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Broken", BROKEN_SOURCE)],
            presets=("mufuzz",), trials=2, overrides=FAST)
        outcomes = create_backend("pool", workers=2).run(jobs)
        by_name: dict = {}
        for outcome in outcomes:
            by_name.setdefault(outcome.job.name, []).append(outcome)
        assert all(o.ok for o in by_name["Crowdsale"])
        assert all(o.status == "error" for o in by_name["Broken"])
        assert "Traceback" in by_name["Broken"][0].error


class TestParallelExecution:
    """The worker-pool path: worker processes, crash capture, timeouts, and
    the determinism guard — parallel runs must persist byte-identical
    results to a serial run of the same matrix."""

    def test_parallel_run_matches_serial_byte_for_byte(self, tmp_path):
        contracts = [("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
        kw = dict(presets=("mufuzz", "sfuzz"), trials=1, overrides=FAST)
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial = run_matrix(contracts, workers=1, results_dir=serial_dir,
                            **kw)
        parallel = run_matrix(contracts, workers=2,
                              results_dir=parallel_dir, **kw)
        assert not serial.errors and not parallel.errors
        serial_records = ResultStore(serial_dir).canonical_records()
        parallel_records = ResultStore(parallel_dir).canonical_records()
        assert sorted(serial_records) == sorted(parallel_records)
        assert len(serial_records) == 4
        for job_id, text in serial_records.items():
            assert parallel_records[job_id] == text, job_id

    def test_worker_error_is_captured_and_others_finish(self):
        jobs = build_matrix(
            [("Crowdsale", CROWDSALE_SOURCE), ("Broken", BROKEN_SOURCE)],
            presets=("mufuzz",), overrides=FAST)
        outcomes = create_backend(workers=2).run(jobs)
        by_name = {o.job.name: o for o in outcomes}
        assert by_name["Crowdsale"].ok
        assert by_name["Broken"].status == "error"
        assert "Traceback" in by_name["Broken"].error

    def test_job_timeout_terminates_the_worker(self):
        job = _job(overrides={"iterations": 50_000_000})
        (outcome,) = create_backend(workers=2, job_timeout=1.0).run([job])
        assert outcome.status == "timeout"
        assert outcome.result is None
        assert "timeout" in outcome.error


class TestMergeTrials:
    def _result(self, coverage, findings=()):
        return CampaignResult(
            fuzzer="MuFuzz", contract="C", coverage=coverage,
            iterations=10, total_steps=100, wall_time=0.1,
            findings=list(findings), curve=[(50, coverage)])

    def test_merges_mean_coverage_and_unions_findings(self):
        reentrancy = Finding(bug_class=BugClass.RE, contract="C", pc=4,
                             line=2, description="re")
        overflow = Finding(bug_class=BugClass.IO, contract="C", pc=9,
                           line=3, description="io")
        merged = merge_trials([
            self._result(0.4, [reentrancy]),
            self._result(0.8, [reentrancy, overflow]),
        ])
        assert merged.coverage == pytest.approx(0.6)
        assert merged.bug_classes == {BugClass.RE, BugClass.IO}
        assert len(merged.findings) == 2  # deduplicated union
        assert merged.iterations == 20

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_trials([])
