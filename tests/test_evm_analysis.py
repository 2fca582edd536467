"""Unit tests for the shared code-analysis cache and the predecoded stream."""

import pytest

from repro.cache import CACHES
from repro.evm.analysis import (
    KIND_CALL,
    KIND_DUP,
    KIND_JUMP,
    KIND_JUMPDEST,
    KIND_JUMPI,
    KIND_PUSH,
    KIND_SIMPLE,
    KIND_STOP,
    KIND_SWAP,
    analyze_code,
)
from repro.evm.opcodes import OPCODE_INFO, Op


@pytest.fixture(autouse=True)
def fresh_cache():
    CACHES["analysis"].clear()
    yield
    CACHES["analysis"].clear()


class TestDecodedStream:
    def test_push_entry_carries_value_and_next_pc(self):
        code = bytes([0x61, 0x12, 0x34, Op.STOP])  # PUSH2 0x1234
        decoded = analyze_code(code).decoded
        kind, gas, value, next_pc = decoded[0]
        assert kind == KIND_PUSH
        assert value == 0x1234
        assert next_pc == 3
        assert gas == OPCODE_INFO[0x61].gas
        # immediate positions are never decoded as instructions
        assert decoded[1] is None and decoded[2] is None
        assert decoded[3][0] == KIND_STOP

    def test_truncated_push_zero_pads_right(self):
        # EVM spec: a PUSH3 whose immediate runs past end-of-code reads the
        # missing bytes as zero — value 0x010000, not 1.
        decoded = analyze_code(bytes([0x62, 0x01])).decoded
        kind, _, value, next_pc = decoded[0]
        assert kind == KIND_PUSH
        assert value == 0x010000
        assert next_pc == 4  # declared width, past end-of-code: frame halts

    def test_control_flow_kinds(self):
        code = bytes([Op.JUMPDEST, Op.JUMP, Op.JUMPI, 0x80, 0x90, Op.STOP])
        decoded = analyze_code(code).decoded
        assert decoded[0][0] == KIND_JUMPDEST
        assert decoded[1][0] == KIND_JUMP
        assert decoded[2][0] == KIND_JUMPI
        assert decoded[3][:3] == (KIND_DUP, OPCODE_INFO[0x80].gas, 1)
        assert decoded[4][:3] == (KIND_SWAP, OPCODE_INFO[0x90].gas, 1)
        assert decoded[5][0] == KIND_STOP

    def test_call_family_gets_call_kind(self):
        code = bytes([Op.CALL, Op.DELEGATECALL, Op.ADD])
        decoded = analyze_code(code).decoded
        assert decoded[0][0] == KIND_CALL
        assert decoded[1][0] == KIND_CALL
        assert decoded[2][0] == KIND_SIMPLE

    def test_undefined_byte_is_none(self):
        decoded = analyze_code(bytes([0x37])).decoded  # CALLDATACOPY: undefined
        assert decoded[0] is None

    def test_jumpdests_skip_push_immediates(self):
        # 0x5B inside a PUSH2 immediate is data, not a jump target
        code = bytes([0x61, 0x5B, 0x5B, Op.JUMPDEST])
        assert analyze_code(code).jumpdests == frozenset({3})


class TestProcessLevelCache:
    def test_shared_across_machines(self):
        from repro.chain.blockchain import BlockContext
        from repro.chain.state import WorldState
        from repro.evm.machine import Machine, Message

        code = bytes([Op.CALLER, Op.STOP])
        for _ in range(3):
            world = WorldState()
            world.account(0xAAA)
            machine = Machine(world, BlockContext())
            msg = Message(address=0xAAA, caller=0xB, origin=0xB, value=0,
                          data=b"", gas=10 ** 6, code=code)
            assert machine.execute(msg).success
        assert CACHES["analysis"].misses == 1
