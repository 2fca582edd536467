"""Shared infrastructure for the static-analyzer behavioural models.

Each tool model runs a *real* (if simplified) analysis:

* bytecode tools (Oyente, Osiris, Mythril, Securify) explore CFG paths with
  tool-specific depth/path budgets — exceeding the budget is how Mythril's
  documented timeouts on path-heavy contracts arise;
* Slither works on the MiniSol AST with narrow structural patterns.

The base class exposes the path explorer and small AST-walking helpers the
concrete tools share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.surface import surface_for
from repro.evm.opcodes import Op
from repro.lang import ast_nodes as ast
from repro.oracles.base import BugClass


@dataclass
class StaticAnalysisResult:
    """Outcome of one static tool on one contract."""

    tool: str
    contract: str
    findings: set = field(default_factory=set)  # set[BugClass]
    timeout: bool = False
    error: bool = False
    paths_explored: int = 0

    @property
    def ok(self) -> bool:
        return not (self.timeout or self.error)


class StaticAnalyzer:
    """Base class; concrete tools override ``_analyze``."""

    name: str = "static"
    #: bug classes the tool supports (Table I row)
    supported: frozenset = frozenset()
    #: bytecode tools filter their findings through the shared
    #: :class:`~repro.analysis.surface.VulnerabilitySurface`: a class the
    #: surface *proves* impossible (whole-code opcode absence) cannot
    #: survive as a finding.  Semantically a no-op for the current pattern
    #: set — every pattern implies the opcodes the proof checks — but it
    #: pins the tools to the same soundness baseline as the fuzzer's
    #: oracle pruning.  AST tools (Slither) leave this off.
    uses_bytecode_surface: bool = False
    #: maximum CFG paths explored before the tool gives up (timeout)
    path_limit: int = 256
    #: maximum instructions along one path
    depth_limit: int = 4096
    #: total symbolic work budget (sum of explored path lengths); None = off.
    #: Models symbolic executors whose per-instruction constraint solving
    #: makes path-heavy contracts time out (Mythril's failure mode).
    instruction_budget: int | None = None

    def analyze(self, artifact, contract_name: str | None = None
                ) -> StaticAnalysisResult:
        """Run the tool on a compiled contract artifact."""
        result = StaticAnalysisResult(
            tool=self.name,
            contract=contract_name or artifact.name)
        self._work = 0
        try:
            self._analyze(artifact, result)
        except _AnalysisTimeout:
            result.timeout = True
            result.findings.clear()
        result.findings &= set(self.supported)
        if self.uses_bytecode_surface and result.ok:
            surface = surface_for(artifact.runtime_code)
            result.findings = {bc for bc in result.findings
                               if surface.is_live(bc)}
        return result

    def _analyze(self, artifact, result: StaticAnalysisResult) -> None:
        raise NotImplementedError

    # -- CFG path exploration ------------------------------------------------------

    def explore_paths(self, code: bytes, result: StaticAnalysisResult):
        """Yield opcode-sequence paths (lists of Instruction) via bounded
        DFS from the entry block.  Raises :class:`_AnalysisTimeout` when the
        path budget is exhausted — the tool's documented failure mode."""
        cfg = build_cfg(code)
        if not cfg.blocks:
            return
        entry = min(cfg.blocks)
        stack = [(entry, [], frozenset())]
        while stack:
            block_pc, prefix, visited = stack.pop()
            block = cfg.blocks.get(block_pc)
            if block is None:
                continue
            path = prefix + block.instructions
            if len(path) > self.depth_limit:
                continue
            successors = [s for s in block.successors if s not in visited]
            if not successors:
                result.paths_explored += 1
                self._work += len(path)
                if result.paths_explored > self.path_limit:
                    raise _AnalysisTimeout()
                if self.instruction_budget is not None \
                        and self._work > self.instruction_budget:
                    raise _AnalysisTimeout()
                yield path
                continue
            for succ in successors:
                stack.append((succ, path, visited | {block_pc}))

    # -- AST helpers --------------------------------------------------------------------

    @staticmethod
    def walk_expressions(node):
        """Yield every Expr node under ``node`` (statement or expression)."""
        if isinstance(node, ast.Expr):
            yield node
        for value in vars(node).values():
            if isinstance(value, (ast.Expr, ast.Stmt)):
                yield from StaticAnalyzer.walk_expressions(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, (ast.Expr, ast.Stmt)):
                        yield from StaticAnalyzer.walk_expressions(item)

    @staticmethod
    def walk_statements(node):
        """Yield every Stmt under ``node`` (inclusive), in source order."""
        if isinstance(node, ast.Stmt):
            yield node
        for value in vars(node).values():
            if isinstance(value, ast.Stmt):
                yield from StaticAnalyzer.walk_statements(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Stmt):
                        yield from StaticAnalyzer.walk_statements(item)

    @staticmethod
    def conditions_of(fn: ast.FunctionDef):
        """Yield the condition expressions of every branch construct."""
        for stmt in StaticAnalyzer.walk_statements(fn.body):
            if isinstance(stmt, (ast.If, ast.While, ast.Require,
                                 ast.AssertStmt)):
                yield stmt.cond
            elif isinstance(stmt, ast.For) and stmt.cond is not None:
                yield stmt.cond


class _AnalysisTimeout(Exception):
    """Internal: the path budget ran out."""


# -- small opcode-path predicates shared by the bytecode tools -----------------


def contains_in_order(path, first: int, second: int) -> bool:
    """True when opcode ``first`` occurs before ``second`` on the path."""
    seen_first = False
    for ins in path:
        if ins.opcode == first:
            seen_first = True
        elif seen_first and ins.opcode == second:
            return True
    return False


def call_forwards_gas(path, index: int) -> bool:
    """True when the CALL at ``path[index]`` forwards more than the 2300
    stipend (its gas operand is the preceding PUSH's immediate, or GAS)."""
    if index == 0:
        return False
    prev = path[index - 1]
    if prev.opcode == Op.GAS:
        return True
    if 0x60 <= prev.opcode <= 0x7F and prev.operand is not None:
        return prev.operand > 2300
    return False


def block_dep_branch(path) -> bool:
    """Block-dependence pattern: a block-state read reaching a JUMPI."""
    return (contains_in_order(path, Op.TIMESTAMP, Op.JUMPI)
            or contains_in_order(path, Op.NUMBER, Op.JUMPI))


def tainted_arithmetic(path, arith_ops) -> bool:
    """Over-approximate IO pattern: a calldata word preceding arithmetic
    on the path (no value reasoning — the tools' shared FP source)."""
    return any(contains_in_order(path, Op.CALLDATALOAD, op)
               for op in arith_ops)


def reentrant_call(path) -> bool:
    """No-write-after-call violation: a gas-forwarding CALL with a later
    SSTORE on the same path — the RE pattern every bytecode tool shares."""
    for index, ins in enumerate(path):
        if ins.opcode == Op.CALL and call_forwards_gas(path, index) \
                and any(later.opcode == Op.SSTORE
                        for later in path[index + 1:]):
            return True
    return False
