"""Compilation artifacts: everything downstream consumers need."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.abi import ContractABI
from repro.compiler.layout import StorageLayout
from repro.evm import opcodes
from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class BranchInfo:
    """Compiler-known metadata for one JUMPI in the runtime code."""

    pc: int
    kind: str          # 'if' | 'while' | 'for' | 'require' | 'assert' |
                       # 'payable' | 'dispatch' | 'transfer' | 'calldata'
    line: int
    nesting: int       # static nesting depth of conditional constructs
    function: str      # enclosing function name ('' for dispatcher)


@dataclass
class CompiledContract:
    """The full output of compiling one contract."""

    name: str
    init_code: bytes
    runtime_code: bytes
    abi: ContractABI
    layout: StorageLayout
    contract_ast: ast.ContractDef
    srcmap: dict = field(default_factory=dict)        # runtime pc -> line
    branch_info: dict = field(default_factory=dict)   # jumpi pc -> BranchInfo
    function_entries: dict = field(default_factory=dict)  # fn name -> body pc
    source: str = ""

    @property
    def instruction_count(self) -> int:
        """Number of instructions in the runtime code (D1 size criterion)."""
        count = 0
        i = 0
        code = self.runtime_code
        while i < len(code):
            op = code[i]
            if opcodes.is_push(op):
                i += opcodes.push_width(op)
            i += 1
            count += 1
        return count

    @property
    def total_branches(self) -> int:
        """Total JUMPI direction count (the branch-coverage denominator)."""
        return 2 * len(self.branch_info)
