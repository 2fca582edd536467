"""Shared per-code analysis: jumpdest sets + a predecoded instruction stream.

The fuzzing loop builds a fresh :class:`~repro.evm.machine.Machine` for
every transaction (`chain.Chain.apply`), so any per-instance cache of code
analysis is cold on every transaction of every iteration.  This module
hoists that work to the process-level :class:`~repro.cache.ContentCache`
named ``analysis``, keyed on ``sha256(code)``: one contract's bytecode
is scanned exactly once per worker process, no matter how many Machines,
transactions, or campaign iterations execute it.

``analyze_code`` returns a :class:`CodeAnalysis` with

* ``jumpdests`` — the valid JUMP/JUMPI targets (immediate bytes skipped);
* ``decoded``  — a per-pc dispatch table: ``decoded[pc]`` is ``None`` for
  undefined bytes (and unreachable immediate positions), else a tuple
  ``(kind, gas, a, b)`` the interpreter loop consumes without any further
  dict probes, ``is_push``/``push_width`` calls, enum constructions, or
  byte slicing:

  ====================  =========================  ======================
  kind                  a                          b
  ====================  =========================  ======================
  ``KIND_PUSH``         immediate value (padded)   next pc
  ``KIND_DUP``          n (1-based)                next pc
  ``KIND_SWAP``         n (1-based)                next pc
  ``KIND_JUMPDEST``     --                         next pc
  ``KIND_JUMP``         --                         --
  ``KIND_JUMPI``        --                         next pc (fallthrough)
  ``KIND_STOP``         --                         --
  ``KIND_SIMPLE``       handler function           next pc
  ====================  =========================  ======================

PUSH immediates that run past end-of-code decode as right-zero-padded
values (EVM spec), matching :mod:`repro.analysis.disassembler`.
"""

from __future__ import annotations

from repro.cache import ContentCache
from repro.evm import opcodes
from repro.evm.handlers import SIMPLE_HANDLERS, make_unhandled
from repro.evm.opcodes import Op

#: dispatch-entry kinds, ordered roughly by dynamic frequency.  CALL-family
#: opcodes get their own kind because they recurse into nested frames: the
#: interpreter syncs its local step counter with the machine around them
#: (every other kind runs counter-free).
(KIND_PUSH, KIND_SIMPLE, KIND_DUP, KIND_SWAP,
 KIND_JUMPI, KIND_JUMP, KIND_JUMPDEST, KIND_STOP, KIND_CALL) = range(9)


class CodeAnalysis:
    """Immutable per-bytecode analysis shared by every Machine."""

    __slots__ = ("jumpdests", "decoded", "code_len")

    def __init__(self, jumpdests: frozenset, decoded: list,
                 code_len: int) -> None:
        self.jumpdests = jumpdests
        self.decoded = decoded
        self.code_len = code_len


def _analyze(code: bytes) -> CodeAnalysis:
    n = len(code)
    decoded: list = [None] * n
    dests = set()
    info_get = opcodes.OPCODE_INFO.get
    i = 0
    while i < n:
        op = code[i]
        info = info_get(op)
        if info is None:
            # undefined byte: left as None, raises InvalidOpcode if executed
            i += 1
            continue
        gas = info.gas
        if 0x60 <= op <= 0x7F:  # PUSH1..PUSH32
            width = op - 0x5F
            imm = code[i + 1: i + 1 + width]
            if len(imm) < width:
                # EVM spec: immediates past end-of-code read as zero —
                # the value is right-padded, not shrunk
                imm = imm.ljust(width, b"\x00")
            decoded[i] = (KIND_PUSH, gas, int.from_bytes(imm, "big"),
                          i + 1 + width)
            i += 1 + width
            continue
        if 0x80 <= op <= 0x8F:  # DUP1..DUP16
            decoded[i] = (KIND_DUP, gas, op - 0x80 + 1, i + 1)
        elif 0x90 <= op <= 0x9F:  # SWAP1..SWAP16
            decoded[i] = (KIND_SWAP, gas, op - 0x90 + 1, i + 1)
        elif op == Op.JUMPDEST:
            dests.add(i)
            decoded[i] = (KIND_JUMPDEST, gas, 0, i + 1)
        elif op == Op.JUMPI:
            decoded[i] = (KIND_JUMPI, gas, 0, i + 1)
        elif op == Op.JUMP:
            decoded[i] = (KIND_JUMP, gas, 0, 0)
        elif op == Op.STOP:
            decoded[i] = (KIND_STOP, gas, 0, 0)
        elif op == Op.CALL or op == Op.DELEGATECALL:
            decoded[i] = (KIND_CALL, gas, SIMPLE_HANDLERS[op], i + 1)
        else:
            handler = SIMPLE_HANDLERS.get(op)
            if handler is None:
                handler = make_unhandled(op)
            decoded[i] = (KIND_SIMPLE, gas, handler, i + 1)
        i += 1
    return CodeAnalysis(frozenset(dests), decoded, n)


#: the process-level cache, sized far above the distinct codes of any one
#: campaign (contract under test + agents) for long-lived workers that
#: fuzz many contracts back to back
_CACHE = ContentCache("analysis", _analyze, 256)

#: the (cached) analysis of ``code``.  analyze_code runs once per *frame*,
#: so it is the cache's own ``get`` with no call layer in between.  Its
#: identity memo keys on ``id(code)`` with no variant, which is only sound
#: because :class:`CodeAnalysis` is mask-independent; any layer that
#: specializes per event mask must pass the mask as the variant — see
#: :func:`repro.evm.fusion.fused_program`, where two configs sharing one
#: worker process would otherwise cross-contaminate.
analyze_code = _CACHE.get
