"""Golden-result determinism guard for the EVM hot path.

The interpreter overhaul (shared code-analysis cache, table dispatch,
journal-based state reset) must be *behavior-preserving*: campaign results
have to come out byte-identical to the pre-overhaul implementation.  The
committed fixture ``tests/data/golden_campaign.json`` was generated with
the straight-line interpreter and fork-per-iteration reset (post
semantics-bugfixes); this test replays the same matrix on every execution
backend × performance-tier setting and asserts the canonical JSON still
matches, so a dispatch-table, journal-reset or tier regression that
silently changes results is caught — not just one that crashes.

Regenerate (only after an *intentional* semantics change):

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src:. python tests/test_golden_determinism.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.corpus import generate_d2, generate_d3
from repro.orchestrator import run_matrix
from repro.orchestrator.backends import BACKENDS
from repro.orchestrator.store import canonical_json
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_campaign.json"

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

#: the matrix is small but deliberately diverse: the two hand-written
#: contracts plus two generated d2 entries (different bug templates and
#: gate depths), across the masked and unmasked mutation strategies
PRESETS = ("mufuzz", "sfuzz")
OVERRIDES = {"iterations": 30, "rng_seed": 11}

#: the state cache, surface pruning and block fusion are pure performance
#: layers, so every tier setting must settle the *same* fixture; all-on is
#: the config default and all-off the reference path
TIERS = {
    "all-on": {},
    "cache-off": {"use_state_cache": False},
    "prune-off": {"use_surface_pruning": False},
    "fuse-off": {"use_block_fusion": False},
    "all-off": {"use_state_cache": False, "use_surface_pruning": False,
                "use_block_fusion": False},
}

#: backend × tier cells; the default tiers keep the bare backend name as id
BACKEND_TIERS = [pytest.param(backend, tier,
                              id=backend if tier == "all-on"
                              else f"{backend}-{tier}")
                 for backend in sorted(BACKENDS) for tier in TIERS]


def _golden_contracts() -> list:
    d2 = generate_d2()
    picks = [d2[0], d2[len(d2) // 2]]
    return ([("Crowdsale", CROWDSALE_SOURCE), ("Game", GAME_SOURCE)]
            + [(c.name, c.source) for c in picks])


def _canonical_run(backend: str, **extra_overrides) -> str:
    run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                     overrides={**OVERRIDES, **extra_overrides},
                     workers=WORKERS, backend=backend)
    assert not run.errors and not run.timeouts, (backend, run.errors)
    record = {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
              for o in run.outcomes}
    return canonical_json(record)


@pytest.mark.parametrize("backend, tier", BACKEND_TIERS)
def test_backend_matches_golden_fixture(backend, tier):
    assert GOLDEN_PATH.exists(), \
        "golden fixture missing — see module docstring to regenerate"
    assert _canonical_run(backend, **TIERS[tier]) == \
        GOLDEN_PATH.read_text(), \
        (f"{backend} backend with tiers {tier} diverged from the golden "
         f"campaign fixture; if the semantics change was intentional, "
         f"regenerate it (see module docstring)")


def _assert_toggle_transparent(tier: str, on: bool) -> None:
    """Flip ``tier`` alone from either end of the matrix — off with the
    other tiers on, or on with the other tiers off — and require the
    golden bytes: a performance tier may never change a result."""
    (field,) = TIERS[f"{tier}-off"]
    overrides = {**TIERS["all-off"], field: True} if on else {field: False}
    assert _canonical_run("inline", **overrides) == \
        GOLDEN_PATH.read_text(), \
        f"{field}={on} alone diverged from the golden campaign fixture"


@pytest.mark.parametrize("on", [False, True], ids=["cache-off", "cache-on"])
def test_state_cache_is_transparent_to_golden_fixture(on):
    _assert_toggle_transparent("cache", on)


@pytest.mark.parametrize("on", [False, True],
                         ids=["pruning-off", "pruning-on"])
def test_surface_pruning_is_transparent_to_golden_fixture(on):
    _assert_toggle_transparent("prune", on)


@pytest.mark.parametrize("on", [False, True],
                         ids=["fusion-off", "fusion-on"])
def test_block_fusion_is_transparent_to_golden_fixture(on):
    _assert_toggle_transparent("fuse", on)


def test_result_store_transparent_to_golden_fixture(tmp_path):
    """Persisting through the result store changes nothing: the
    in-memory results still match the golden fixture, the persisted
    records are byte-identical to saving the same outcomes afresh, and
    an export copies them byte for byte."""
    from repro.orchestrator.store import ResultStore

    assert GOLDEN_PATH.exists(), \
        "golden fixture missing — see module docstring to regenerate"
    results_dir = tmp_path / "results"
    run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                     overrides=dict(OVERRIDES), workers=WORKERS,
                     backend="inline", results_dir=results_dir)
    assert not run.errors and not run.timeouts, run.errors
    record = {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
              for o in run.outcomes}
    assert canonical_json(record) == GOLDEN_PATH.read_text(), \
        ("the persisted run diverged from the golden campaign fixture — "
         "the result store must never touch results")

    with ResultStore(results_dir) as store:
        persisted = store.canonical_records()
        exported = store.export(tmp_path / "exported")
    assert {p.stem: p.read_text() for p in exported} == persisted
    with ResultStore(tmp_path / "reference") as ref:
        for outcome in run.outcomes:
            ref.save(outcome)
        assert ref.canonical_records() == persisted, \
            "persisted records diverged from a fresh save of the outcomes"


@pytest.mark.parametrize("backend, tier", BACKEND_TIERS)
def test_interrupted_matrix_resumes_to_golden_fixture(backend, tier,
                                                      tmp_path):
    """Interrupt/resume determinism against the golden fixture, swept
    across every execution backend × tier setting (the state cache
    rebuilds cold on resume; resumed frames may bail out of a fused
    block to the table loop).

    Every golden cell is interrupted at an arbitrary mid-campaign
    iteration: the campaign runs inline with a checkpoint sink that aborts
    after its second emission (the engine's crash model), and the captured
    checkpoint is persisted into the results directory exactly as a killed
    worker would have left it.  The full matrix then runs on ``backend`` —
    each worker must *resume* the half-finished campaigns from those
    checkpoints — and the settled results must still match the golden
    fixture byte for byte."""
    from repro.compiler.cache import compile_cached
    from repro.core.fuzzer import Fuzzer
    from repro.orchestrator.jobs import build_matrix
    from repro.orchestrator.store import (CHECKPOINT_SUFFIX, ResultStore,
                                          write_checkpoint_file)

    overrides = {**OVERRIDES, **TIERS[tier]}
    jobs = build_matrix(_golden_contracts(), PRESETS, trials=1,
                        overrides=overrides)
    store = ResultStore(tmp_path / "results")

    class Interrupt(Exception):
        pass

    for job in jobs:
        captured = []

        def sink(checkpoint):
            captured.append(checkpoint)
            if len(captured) == 2:
                raise Interrupt

        fuzzer = Fuzzer(compile_cached(job.source, job.contract),
                        job.build_config(), job.supported_set())
        try:
            fuzzer.run(checkpoint_every=7, checkpoint_sink=sink)
        except Interrupt:
            pass
        assert captured, f"{job.job_id}: campaign emitted no checkpoint"
        write_checkpoint_file(store.checkpoint_path_for(job), captured[-1],
                              job.fingerprint())

    def pending() -> set:
        return {path.name for path in
                store.root.glob(f"*{CHECKPOINT_SUFFIX}")}

    assert pending() == {store.checkpoint_path_for(job).name
                         for job in jobs}

    run = run_matrix(_golden_contracts(), presets=PRESETS, trials=1,
                     overrides=overrides, workers=WORKERS,
                     backend=backend, results_dir=store.root,
                     checkpoint_every=7)
    assert not run.errors and not run.timeouts, (backend, run.errors)
    assert not pending()  # consumed on completion
    record = {o.job.job_id: {**o.result.to_dict(), "wall_time": 0.0}
              for o in run.outcomes}
    assert canonical_json(record) == GOLDEN_PATH.read_text(), \
        (f"{backend} backend with tiers {tier} resumed-from-checkpoint "
         f"results diverged from the golden campaign fixture")


@pytest.mark.parametrize("tier", ["cache", "prune", "fuse"])
def test_tier_does_work_only_when_on(tier):
    """Byte-identity cannot see a tier that has quietly become a no-op, so
    each tier's own work counter must move in a real campaign with the
    tier on and stay still with it off: state-cache hits, oracles pruned
    (with a narrower event mask) and fused entries compiled.  Both
    contracts, one small d2 and one large d3, have surfaces with dead
    classes."""
    from repro.compiler.cache import compile_cached
    from repro.core import statecache
    from repro.core.config import preset_config
    from repro.core.fuzzer import Fuzzer
    from repro.evm import fusion

    (field,) = TIERS[f"{tier}-off"]
    for contract in (generate_d2()[0], generate_d3(count=1)[0]):
        artifact = compile_cached(contract.source, contract.name)
        work, masks = {}, {}
        for on in (True, False):
            fusion.clear_cache()  # programs compile afresh for this campaign
            hits = statecache._hits_total
            fuzzer = Fuzzer(artifact, preset_config(
                "mufuzz", iterations=60, rng_seed=11, **{field: on}))
            fuzzer.run()
            work[on] = {
                "cache": statecache._hits_total - hits,
                "prune": len(fuzzer.bus.pruned),
                "fuse": fusion.fusion_stats()["entries_compiled"]}[tier]
            masks[on] = fuzzer.base_chain.event_mask
        assert work[True] > 0 and work[False] == 0, \
            (contract.name, tier, work)
        if tier == "prune":  # pruned oracles' event kinds are never recorded
            assert masks[True] != masks[False], contract.name
            assert masks[True] & ~masks[False] == 0, contract.name


def test_golden_findings_replay_from_witnesses():
    """Every finding in the golden fixture re-triggers when its stored
    witness sequence is re-executed in a fresh campaign environment (the
    witness/replay half of the streaming-oracle-bus guarantee)."""
    from repro.core.replay import replay_findings
    from repro.oracles.base import Finding
    from repro.orchestrator.jobs import build_matrix

    data = json.loads(GOLDEN_PATH.read_text())
    jobs = {job.job_id: job
            for job in build_matrix(_golden_contracts(), PRESETS, trials=1,
                                    overrides=dict(OVERRIDES))}
    replayed = 0
    for job_id, cell in data.items():
        findings = [Finding.from_dict(f) for f in cell["findings"]]
        if not findings:
            continue
        job = jobs[job_id]
        outcomes = replay_findings(job.source, job.build_config(),
                                   findings, contract=job.contract,
                                   supported=job.supported_set())
        bad = [(o.finding.bug_class.value, o.finding.pc, o.status)
               for o in outcomes if not o.ok]
        assert not bad, f"{job_id}: witnesses failed to re-trigger: {bad}"
        replayed += len(outcomes)
    assert replayed, "golden fixture contains no findings to replay"


if __name__ == "__main__":
    if os.environ.get("REPRO_REGEN_GOLDEN") != "1":
        raise SystemExit("set REPRO_REGEN_GOLDEN=1 to rewrite the fixture")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    text = _canonical_run("inline")
    GOLDEN_PATH.write_text(text)
    print(f"wrote {GOLDEN_PATH} ({len(text)} bytes, "
          f"{len(json.loads(text))} cells)")
