"""The MiniSol → EVM-bytecode compiler.

``compile_source`` is the one-call entry point used throughout the project:
it parses MiniSol source and returns :class:`CompiledContract` artifacts
carrying init/runtime bytecode, the ABI, the storage layout, the typed AST,
and per-JUMPI branch metadata (kind, source line, static nesting depth) that
the fuzzer's energy scheduler and the analyses consume.
"""

from repro.compiler.abi import ContractABI, FunctionABI, encode_call, encode_words
from repro.compiler.artifacts import BranchInfo, CompiledContract
from repro.compiler.cache import (
    CompileCache,
    compile_cache_stats,
    compile_cached,
)
from repro.compiler.codegen import CodeGenerator, compile_contract, compile_source
from repro.compiler.layout import MemoryFrame, StorageLayout

__all__ = [
    "ContractABI",
    "FunctionABI",
    "encode_call",
    "encode_words",
    "BranchInfo",
    "CompiledContract",
    "CompileCache",
    "CodeGenerator",
    "compile_cache_stats",
    "compile_cached",
    "compile_contract",
    "compile_source",
    "MemoryFrame",
    "StorageLayout",
]
