"""Unit tests for block-fused execution (repro.evm.fusion).

Covers the compile-time machinery directly — constant folding (values and
shadows), PUSH+JUMP threading, tier classification and fallback reasons,
the mask-keyed program memo — plus end-to-end differential checks that a
fused Machine reproduces the table loop byte for byte on hand-written
programs exercising every tier and bailout path.  The hypothesis-based
differential sweep lives in test_properties.py.
"""

import pytest

from repro.chain.blockchain import BlockContext
from repro.chain.state import WorldState
from repro.evm import fusion
from repro.evm.fusion import (
    FUSION_BAILOUT,
    TIER_BAILOUT,
    TIER_FUSED,
    FusedProgram,
    fused_program,
    fusion_stats,
)
from repro.evm.machine import Machine, Message
from repro.evm.opcodes import Op
from repro.evm.trace import EV_ALL, EV_BRANCH, EV_COMPARE, EV_OVERFLOW

U256 = 1 << 256


def asm(*ops) -> bytes:
    """Ints are opcodes; tuples are (PUSH-value, width)."""
    out = bytearray()
    for op in ops:
        if isinstance(op, tuple):
            value, width = op
            out.append(0x60 + width - 1)
            out.extend(value.to_bytes(width, "big"))
        else:
            out.append(op)
    return bytes(out)


def push1(v):
    return (v, 1)


def run_code(code: bytes, *, block_fusion: bool, event_mask: int = EV_ALL,
             calldata: bytes = b"", gas: int = 1_000_000,
             max_steps: int = 200_000):
    world = WorldState()
    world.account(0xAAA)
    world.set_code(0xAAA, code)  # a CALL to self re-enters the same code
    world.set_balance(0xBEEF, 10 ** 20)
    machine = Machine(world, BlockContext(), max_steps=max_steps,
                      event_mask=event_mask, block_fusion=block_fusion)
    msg = Message(address=0xAAA, caller=0xBEEF, origin=0xBEEF, value=0,
                  data=calldata, gas=gas, code=code)
    return machine.execute(msg), machine


def _trace_tuple(machine):
    t = machine.trace
    return (t.branches, t.compares, t.calls, t.overflows, t.storage_ops,
            t.selfdestructs, t.block_reads, t.branch_edges,
            t.ether_received, t.steps, t.reverted, t.error)


def assert_differential(code: bytes, *, event_mask: int = EV_ALL,
                        calldata: bytes = b"", gas: int = 1_000_000,
                        max_steps: int = 200_000):
    """Fused and table execution must agree on result, trace, and state."""
    res_t, m_t = run_code(code, block_fusion=False, event_mask=event_mask,
                          calldata=calldata, gas=gas, max_steps=max_steps)
    res_f, m_f = run_code(code, block_fusion=True, event_mask=event_mask,
                          calldata=calldata, gas=gas, max_steps=max_steps)
    assert (res_f.success, res_f.returndata, res_f.error, res_f.gas_left) \
        == (res_t.success, res_t.returndata, res_t.error, res_t.gas_left)
    assert _trace_tuple(m_f) == _trace_tuple(m_t)
    for addr in (0xAAA,):
        at, af = m_t.world.account(addr), m_f.world.account(addr)
        assert af.storage == at.storage
        assert af.storage_shadow == at.storage_shadow
    return res_f, m_f


def entered(code: bytes, mask: int, starts=(0,)) -> FusedProgram:
    """The program for ``code`` under ``mask`` with the entries at
    ``starts`` compiled, through the same accessor their stubs call."""
    program = fused_program(code, mask)
    for start in starts:
        program.materialize(start)
    return program


#: i = 3; while i: i -= 1 — the back edge re-enters pc 2 through a
#: threaded ``return B2`` (an ancestor on the chain is never spliced)
COUNTDOWN = asm(push1(3),                       # pc 0..1
                Op.JUMPDEST,                    # pc 2
                Op.DUP1, push1(10), Op.JUMPI,   # pc 3..6
                Op.POP, Op.STOP,                # pc 7..8
                Op.INVALID,                     # pc 9 (padding)
                Op.JUMPDEST,                    # pc 10
                push1(1), Op.SWAP1, Op.SUB,     # pc 11..14
                push1(2), Op.JUMP)              # pc 15..17


@pytest.fixture(autouse=True)
def _fresh_fusion_cache():
    fusion.clear_cache()
    yield
    fusion.clear_cache()


# -- constant folding ---------------------------------------------------------


class TestFolding:
    def test_push_push_add_folds_to_literal(self):
        # PUSH 2, PUSH 3, ADD, PUSH 0, SSTORE
        code = asm(push1(2), push1(3), Op.ADD, push1(0), Op.SSTORE, Op.STOP)
        program = entered(code, 0)
        assert program.stats["folded"] >= 1
        # the folded 5 flows straight into the inlined SSTORE as a baked
        # literal — it is never materialized on the runtime stack
        assert ("m.world.set_storage(frame.msg.address, 0, 5, ES)"
                in program.source)
        assert "values.append" not in program.source
        res, m = run_code(code, block_fusion=True, event_mask=0)
        assert res.success
        assert m.world.account(0xAAA).storage[0] == 5

    def test_overflow_event_blocks_wrapping_fold(self):
        # 2**255 * 2 truncates: must NOT fold while EV_OVERFLOW subscribed
        code = asm((1 << 255, 32), push1(2), Op.MUL, Op.POP, Op.STOP)
        masked = entered(code, EV_OVERFLOW)
        unmasked = entered(code, 0)
        assert masked.stats["folded"] < unmasked.stats["folded"]
        # ...and the runtime handler actually records the event
        _, m = run_code(code, block_fusion=True, event_mask=EV_OVERFLOW)
        assert len(m.trace.overflows) == 1
        # non-truncating arithmetic still folds under the same mask
        benign = asm(push1(2), push1(3), Op.ADD, Op.POP, Op.STOP)
        assert entered(benign, EV_OVERFLOW).stats["folded"] >= 1

    def test_compare_event_blocks_comparison_fold(self):
        code = asm(push1(1), push1(2), Op.GT, push1(0), Op.SSTORE, Op.STOP)
        assert entered(code, EV_COMPARE).stats["folded"] == 0
        folded = entered(code, 0)
        assert folded.stats["folded"] >= 1
        # GT pops x=2 (top), y=1: 2 > 1 → 1, baked into the inlined SSTORE
        assert ("m.world.set_storage(frame.msg.address, 0, 1, "
                in folded.source)
        _, m = run_code(code, block_fusion=True, event_mask=EV_COMPARE)
        assert len(m.trace.compares) == 1

    def test_folded_compare_shadow_matches_handler(self):
        # fold ISZERO over a folded EQ: the branch-distance shadow chain
        # must survive into the JUMPI's recorded branch event
        code = asm(push1(5), push1(5), Op.EQ, Op.ISZERO,
                   push1(10), Op.JUMPI, Op.STOP,     # pc 8 JUMPI, pc 9 STOP
                   Op.JUMPDEST, Op.STOP)            # pc 10 JUMPDEST
        # EV_BRANCH records the JUMPI; EV_COMPARE stays off so EQ folds
        res, m = assert_differential(code, event_mask=EV_BRANCH)
        assert res.success
        (branch,) = m.trace.branches
        assert branch.taken is False  # EQ(5,5)→1, ISZERO→0: fallthrough
        # EQ's d_false=1 becomes d_true through ISZERO's negation
        assert branch.dist_true == 1

    def test_dup_swap_pop_operate_on_pending(self):
        code = asm(push1(7), push1(9), Op.SWAP1, Op.DUP2, Op.ADD, Op.POP,
                   Op.POP, Op.STOP)
        program = entered(code, 0)
        # every op folded away: no runtime stack traffic at all (only the
        # overflow precheck inspects the stack)
        assert "append" not in program.source
        assert ".pop()" not in program.source
        assert program.stats["folded"] >= 5
        assert_differential(code, event_mask=0)

    def test_pure_binary_folds_via_absint(self):
        # DIV pops x=20 (top), y... handler computes top / next: 20/5 = 4
        code = asm(push1(5), push1(20), Op.DIV, push1(0), Op.SSTORE,
                   Op.STOP)
        program = entered(code, EV_ALL)
        assert program.stats["folded"] >= 1
        _, m = run_code(code, block_fusion=True)
        assert m.world.account(0xAAA).storage[0] == 4
        assert_differential(code)

    def test_fold_never_taints_caller_checked(self):
        # folded EQ never marks the frame caller-checked (pending constants
        # are untainted by construction) — matching the table loop, where
        # comparing two PUSH immediates carries no CALLER taint either
        code = asm(push1(1), push1(1), Op.EQ, Op.POP, Op.STOP)
        for on in (False, True):
            res, m = run_code(code, block_fusion=on, event_mask=0)
            assert res.success


# -- threading ----------------------------------------------------------------


class TestThreading:
    def test_static_jump_threads_and_chains_inline(self):
        code = asm(push1(4), Op.JUMP, Op.INVALID,    # pc 3 INVALID padding
                   Op.JUMPDEST, Op.STOP)             # pc 4 JUMPDEST
        program = entered(code, 0, starts=(0, 4))
        assert program.stats["threaded"] == 1
        # the target block is spliced into B0's body (superblock chain),
        # so no trampoline transition (`return B4,`) remains on the path;
        # entered on its own, its decline guard resumes the table at pc 4
        assert program.stats["chained"] >= 1
        assert "return FB, gas, steps, 4" in program.source
        assert "return B4," not in program.source
        res, _ = run_code(code, block_fusion=True)
        assert res.success

    def test_countdown_loop_runs_block_to_block(self):
        program = entered(COUNTDOWN, 0)
        assert program.stats["threaded"] >= 2
        res, m = assert_differential(COUNTDOWN, event_mask=EV_ALL)
        assert res.success
        assert len(m.trace.branches) == 4  # 3 taken + 1 fallthrough

    def test_static_jump_to_non_jumpdest_raises_exact_error(self):
        code = asm(push1(3), Op.JUMP, Op.STOP)
        res_f, _ = run_code(code, block_fusion=True)
        res_t, _ = run_code(code, block_fusion=False)
        assert not res_f.success
        assert res_f.error == res_t.error == "InvalidJump: JUMP to 3 at pc=2"

    def test_dynamic_jump_through_runtime_stack(self):
        # dest arrives via calldata: cannot thread, still must execute
        code = asm(push1(0), Op.CALLDATALOAD, Op.JUMP, Op.INVALID,
                   Op.JUMPDEST, Op.STOP)             # pc 5 JUMPDEST
        data = (5).to_bytes(32, "big")
        res, _ = assert_differential(code, calldata=data)
        assert res.success


# -- tiers and bailouts -------------------------------------------------------


class TestTiers:
    def test_gas_observing_block_takes_bailout_tier(self):
        code = asm(Op.GAS, Op.POP, Op.STOP)
        program = fused_program(code, 0)
        assert program.tiers[0] == TIER_BAILOUT
        assert program.stats["reasons"] == {"gas_observing": 1}
        res, _ = assert_differential(code)
        assert res.success

    def test_create_block_takes_bailout_tier(self):
        code = asm(push1(0), push1(0), push1(0), Op.CREATE, Op.STOP)
        program = fused_program(code, 0)
        assert program.tiers[0] == TIER_BAILOUT
        assert program.stats["reasons"] == {"raising": 1}
        assert_differential(code)  # table replay raises the same error

    def test_undefined_byte_takes_bailout_tier(self):
        code = asm(push1(1), 0xEF, Op.STOP)
        program = fused_program(code, 0)
        assert program.tiers[0] == TIER_BAILOUT
        assert program.stats["reasons"] == {"undefined": 1}
        assert_differential(code)

    def test_bailout_closure_returns_sentinel_before_executing(self):
        code = asm(push1(0), push1(0), Op.SSTORE, Op.CREATE, Op.STOP)
        program = fused_program(code, 0)
        world = WorldState()
        world.account(0xAAA)
        machine = Machine(world, BlockContext(), block_fusion=True)
        msg = Message(address=0xAAA, caller=0xB, origin=0xB, value=0,
                      data=b"", gas=100, code=code)
        frame_stub = None  # the closure must not touch the frame at all
        nxt, gas, steps, payload = program.entry(machine, frame_stub, 0,
                                                 100, 0)
        assert nxt is FUSION_BAILOUT
        assert (gas, steps, payload) == (100, 0, 0)

    def test_out_of_gas_mid_program_declines_before_the_block(self):
        # enough gas for the first block, not the second: the fused loop
        # must bail to the table, which raises at the exact table pc
        body = [Op.JUMPDEST] + [push1(1), Op.POP] * 8 + [Op.STOP]
        code = asm(push1(3), Op.JUMP, *body)           # pc 3 JUMPDEST
        before = fusion_stats()["runtime_bailouts"]
        res_t, m_t = run_code(code, block_fusion=False, gas=20)
        res_f, m_f = run_code(code, block_fusion=True, gas=20)
        assert not res_f.success
        assert res_f.error == res_t.error
        assert res_f.error.startswith("OutOfGas: out of gas at pc=")
        assert m_f.trace.steps == m_t.trace.steps
        assert fusion_stats()["runtime_bailouts"] > before

    def test_step_budget_exhaustion_matches_table(self):
        # infinite loop, tiny step budget — the prepay precheck must bail
        # before the final block so the table raises at the same step
        code = asm(Op.JUMPDEST, push1(0), Op.JUMP)
        res_f, m_f = run_code(code, block_fusion=True, max_steps=50)
        res_t, m_t = run_code(code, block_fusion=False, max_steps=50)
        assert not res_f.success
        assert res_f.error == res_t.error \
            == "OutOfGas: per-transaction step budget exhausted"
        # the table counts the step that trips the budget before raising
        assert m_f.trace.steps == m_t.trace.steps == 51

    def test_revert_refunds_exact_gas(self):
        code = asm(push1(0), push1(0), Op.REVERT)
        res_f, _ = run_code(code, block_fusion=True, gas=1000)
        res_t, _ = run_code(code, block_fusion=False, gas=1000)
        assert not res_f.success and not res_t.success
        assert res_f.gas_left == res_t.gas_left > 0


# -- caching ------------------------------------------------------------------


class TestCache:
    def test_programs_specialize_per_mask(self):
        code = asm(push1(1), push1(2), Op.LT, Op.POP, Op.STOP)
        folded = entered(code, 0)
        unfolded = entered(code, EV_COMPARE)
        assert folded is not unfolded
        assert folded.stats["folded"] > unfolded.stats["folded"]

    def test_id_memo_keys_on_mask(self):
        # regression for the CodeAnalysis id-memo pitfall: two configs
        # (different oracle masks) sharing one worker process interleave
        # lookups over the *same* code object — each must keep getting its
        # own specialization, with the memo fast path serving both
        code = asm(push1(1), push1(2), Op.GT, Op.POP, Op.STOP)
        a0 = fused_program(code, 0)
        b0 = fused_program(code, EV_COMPARE)
        for _ in range(3):
            assert fused_program(code, 0) is a0
            assert fused_program(code, EV_COMPARE) is b0
        stats = fusion_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 6

    def test_empty_code_has_no_entry(self):
        program = fused_program(b"", 0)
        assert isinstance(program, FusedProgram)
        assert program.entry is None
        res, _ = run_code(b"", block_fusion=True)
        assert res.success


# -- compile on first entry ---------------------------------------------------

#: COUNTDOWN with GAS in the loop head: pc 2 is bailout-tier, so after
#: B0 the table loop finishes the frame and the fused-tier blocks at
#: pc 9 and pc 11 never compile
GAS_LOOP = asm(push1(3),                     # pc 0..1
               Op.JUMPDEST, Op.GAS, Op.POP,  # pc 2..4
               Op.DUP1, push1(11), Op.JUMPI,  # pc 5..8
               Op.POP, Op.STOP,              # pc 9..10
               Op.JUMPDEST,                  # pc 11
               push1(1), Op.SWAP1, Op.SUB,   # pc 12..15
               push1(2), Op.JUMP)            # pc 16..18


class TestLazyCompile:
    def test_entry_never_entered_is_never_compiled(self):
        # the dynamic JUMP goes where calldata says: pc 5, never pc 7
        code = asm(push1(0), Op.CALLDATALOAD, Op.JUMP,    # pc 0..3
                   Op.INVALID,                            # pc 4
                   Op.JUMPDEST, Op.STOP,                  # pc 5..6
                   Op.JUMPDEST, push1(1), push1(0),       # pc 7..11
                   Op.SSTORE, Op.STOP)                    # pc 12..13
        program = fused_program(code, EV_ALL)
        fused = [s for s, tier in program.tiers.items() if tier == TIER_FUSED]
        assert fused == [0, 4, 5, 7]
        # classification counts every fused-tier block up front...
        assert program.stats["fused"] == 4
        # ...but nothing is compiled before execution enters it
        assert program.stats["compiled"] == 0
        assert program.source == ""
        res, m = run_code(code, block_fusion=True,
                          calldata=(5).to_bytes(32, "big"))
        assert res.success
        assert m.world.account(0xAAA).storage == {}
        assert program.stats["compiled"] == 2
        assert "def B0(" in program.source and "def B5(" in program.source
        assert "def B4(" not in program.source
        assert "def B7(" not in program.source
        assert program.stats["fused"] == 4
        stats = fusion_stats()
        assert stats["blocks_fused"] == 4
        assert stats["entries_compiled"] == 2

    @pytest.mark.parametrize("code, start, path", [
        (asm(push1(2), push1(3), Op.ADD, Op.POP, Op.STOP), 0, "entry"),
        (COUNTDOWN, 2, "threaded"),
    ], ids=["entry", "threaded"])
    def test_entry_materializes_exactly_once(self, code, start, path):
        for _ in range(2):
            res, _ = assert_differential(code, event_mask=EV_ALL)
            assert res.success
        program = fused_program(code, EV_ALL)
        assert program.tiers[start] == TIER_FUSED
        if path == "threaded":
            assert f"return B{start}," in program.source
        assert program.source.count(f"def B{start}(") == 1
        compiled = program.stats["compiled"]
        assert compiled == program.source.count("def B")
        assert fusion_stats()["entries_compiled"] == compiled
        # the stub is gone: the accessor and both maps hand out the
        # compiled closure, and nothing compiles again
        closure = program.materialize(start)
        assert program.blocks[start] is closure
        if start == 0:
            assert program.entry is closure
        run_code(code, block_fusion=True)
        assert program.stats["compiled"] == compiled
        assert program.source.count(f"def B{start}(") == 1

    def test_nested_call_reenters_code_with_an_uncompiled_entry(self):
        # outer frame (no calldata): CALL self with one byte of calldata,
        # then jump to pc 27; the inner frame jumps to pc 21, then pc 27.
        # The blocks at pc 4 and pc 21 observe gas, so each frame hands
        # the rest of its run to the table loop there: the CALL and both
        # visits to pc 27 run on the table loop, and only B0 compiles.
        # The id predates the bailout of gas-observing blocks and is kept
        # for continuity: B27 is now asserted never to compile
        code = asm(Op.CALLDATASIZE, push1(21), Op.JUMPI,  # pc 0..3
                   push1(0), push1(0), push1(1), push1(0),  # ret/args
                   push1(0), Op.ADDRESS, Op.GAS, Op.CALL,  # pc 12..16
                   Op.POP, push1(27), Op.JUMP,             # pc 17..20
                   Op.JUMPDEST, Op.GAS, Op.POP,            # pc 21..23
                   push1(27), Op.JUMP,                     # pc 24..26
                   Op.JUMPDEST, push1(0), Op.SLOAD,        # pc 27..30
                   push1(1), Op.ADD, push1(0), Op.SSTORE,  # pc 31..36
                   Op.STOP)                                # pc 37
        assert code[21] == code[27] == Op.JUMPDEST
        program = fused_program(code, EV_ALL)
        assert program.tiers[4] == program.tiers[21] == TIER_BAILOUT
        assert program.tiers[27] == TIER_FUSED
        assert program.stats["compiled"] == 0
        res, m = assert_differential(code)
        assert res.success
        assert m.world.account(0xAAA).storage[0] == 2  # both frames ran it
        assert len(m.trace.calls) == 1
        assert "def B27(" not in program.source
        assert program.stats["compiled"] == 1  # B0, entered by both frames
        stats = fusion_stats()
        assert stats["runtime_bailouts"] == 2  # pc 4 outer, pc 21 inner
        assert stats["misses"] == 1

    def test_cache_misses_stay_one_per_code_and_mask(self):
        for _ in range(3):
            run_code(GAS_LOOP, block_fusion=True)
            run_code(GAS_LOOP, block_fusion=True, event_mask=0)
        stats = fusion_stats()
        assert stats["entries_compiled"] == 2  # B0 per mask
        assert stats["misses"] == 2
        assert stats["programs"] == 2


# -- telemetry ----------------------------------------------------------------


class TestTelemetry:
    def test_counters_flow_into_metrics_snapshot(self):
        from repro.telemetry import metrics
        code = asm(push1(4), Op.JUMP, Op.INVALID,
                   Op.JUMPDEST, Op.GAS, Op.POP, Op.STOP)
        fused_program(code, 0)
        run_code(code, block_fusion=True)
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["fusion.programs_compiled"] >= 1
        assert counters["fusion.blocks.fused"] >= 1
        assert counters["fusion.blocks.bailout"] >= 1
        assert counters["fusion.threaded_jumps"] >= 1
        assert counters["fusion.fallback.gas_observing"] >= 1
        assert counters["fusion.fused_steps"] >= 1

    def test_fused_steps_counts_executed_instructions(self):
        fusion.clear_cache()
        code = asm(push1(2), push1(3), Op.ADD, Op.POP, Op.STOP)
        run_code(code, block_fusion=True)
        assert fusion_stats()["fused_steps"] == 5  # prepaid per block
