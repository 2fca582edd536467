"""MiniSol code generation.

The generated runtime bytecode has the canonical solc shape:

* a calldata-size guard and selector dispatcher at the top,
* per-function entries (payable guard, argument decode),
* shared function bodies reachable both from dispatch and from internal
  calls (return address on the operand stack),
* explicit REVERT blocks for failed require/payable/transfer checks.

Every ``JUMPI`` the fuzzer will ever see is recorded in
``CompiledContract.branch_info`` with its construct kind, source line, and
static nesting depth.
"""

from __future__ import annotations

import copy

from repro.compiler.abi import ContractABI, encode_words, make_function_abi
from repro.compiler.artifacts import BranchInfo, CompiledContract
from repro.compiler.asm import Assembler
from repro.compiler.layout import StorageLayout, build_frames
from repro.evm.machine import keccak
from repro.evm.opcodes import Op
from repro.lang import ast_nodes as ast
from repro.lang.errors import MiniSolError
from repro.lang.parser import parse_source

#: gas forwarded by transfer/send — the stipend that blocks reentrancy
TRANSFER_GAS = 2300
#: gas forwarded by call.value — plenty for a reentrant callback
CALL_VALUE_GAS = 1_000_000


class CompileError(MiniSolError):
    """Semantic error discovered during code generation."""


class CodeGenerator:
    """Compiles one :class:`~repro.lang.ast_nodes.ContractDef`."""

    def __init__(self, contract: ast.ContractDef, source: str = "") -> None:
        self.contract = contract
        self.source = source
        self.layout = StorageLayout.for_contract(contract)
        self.frames, self.scratch = build_frames(contract)
        self._check_recursion()

        # per-assembly state
        self.asm: Assembler = Assembler()
        self._record_branches = False
        self._branch_info: dict[int, BranchInfo] = {}
        self._function_entries: dict[str, int] = {}
        self._body_labels: dict[str, int] = {}
        self._current_fn: ast.FunctionDef | None = None
        self._nesting = 0

    # -- public API ---------------------------------------------------------------

    def compile(self) -> CompiledContract:
        """Produce the full compilation artifact."""
        runtime = self._compile_runtime()
        srcmap = dict(self.asm.srcmap)
        branch_info = dict(self._branch_info)
        entries = dict(self._function_entries)
        init = self._compile_init()
        abi = self._build_abi()
        return CompiledContract(
            name=self.contract.name,
            init_code=init,
            runtime_code=runtime,
            abi=abi,
            layout=self.layout,
            contract_ast=self.contract,
            srcmap=srcmap,
            branch_info=branch_info,
            function_entries=entries,
            source=self.source,
        )

    # -- semantic checks -------------------------------------------------------------

    def _check_recursion(self) -> None:
        """MiniSol frames are static, so the internal call graph must be a DAG."""
        graph: dict[str, set] = {}
        for fn in self.contract.functions:
            graph[fn.name] = set()
            self._collect_calls(fn.body, graph[fn.name])

        state: dict[str, int] = {}

        def visit(name: str) -> None:
            if state.get(name) == 1:
                raise CompileError(
                    f"recursive internal call involving {name!r} "
                    "(MiniSol uses static frames)")
            if state.get(name) == 2 or name not in graph:
                return
            state[name] = 1
            for callee in graph[name]:
                visit(callee)
            state[name] = 2

        for fn_name in graph:
            visit(fn_name)

    def _collect_calls(self, node, out: set) -> None:
        if isinstance(node, ast.InternalCall):
            if node.name != "encodePacked":
                out.add(node.name)
        for value in vars(node).values():
            if isinstance(value, (ast.Expr, ast.Stmt)):
                self._collect_calls(value, out)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, (ast.Expr, ast.Stmt)):
                        self._collect_calls(item, out)

    def _build_abi(self) -> ContractABI:
        abi = ContractABI(name=self.contract.name)
        for fn in self.contract.external_functions:
            abi.functions.append(make_function_abi(
                fn.name, [p.param_type for p in fn.params], fn.returns,
                fn.payable, fn.mutability))
        ctor = self.contract.constructor
        if ctor is not None:
            abi.constructor_inputs = tuple(p.param_type for p in ctor.params)
        return abi

    def _modifier(self, name: str) -> ast.ModifierDef:
        for mod in self.contract.modifiers:
            if mod.name == name:
                return mod
        raise CompileError(f"unknown modifier {name!r}")

    def _wrapped_body(self, fn: ast.FunctionDef) -> ast.Block:
        """The function body with its modifiers inlined around it."""
        body: ast.Stmt = fn.body
        for mod_name in reversed(fn.modifiers):
            mod = self._modifier(mod_name)
            if mod.params:
                raise CompileError(
                    f"modifier {mod_name!r} with parameters is unsupported")
            wrapper = copy.deepcopy(mod.body)
            _splice_placeholder(wrapper, body)
            body = wrapper
        if isinstance(body, ast.Block):
            return body
        return ast.Block(statements=[body], line=fn.line)

    # -- top-level code layout -----------------------------------------------------------

    def _compile_runtime(self) -> bytes:
        self.asm = Assembler()
        self._record_branches = True
        self._branch_info = {}
        self._function_entries = {}
        self._body_labels = {fn.name: self.asm.new_label()
                             for fn in self.contract.functions
                             if not fn.is_constructor}
        asm = self.asm

        # --- dispatcher ---
        fallback = asm.new_label()
        externals = self.contract.external_functions
        entry_labels = {fn.name: asm.new_label() for fn in externals}

        asm.push(32)
        asm.emit(Op.CALLDATASIZE)
        asm.emit(Op.LT)  # calldatasize < 32
        pc = asm.jumpi_to(fallback)
        self._note_branch(pc, "calldata", self.contract.line, "")

        asm.push(0)
        asm.emit(Op.CALLDATALOAD)
        for fn in externals:
            asm.emit(Op.DUP1)
            asm.push(self._selector(fn))
            asm.emit(Op.EQ)
            pc = asm.jumpi_to(entry_labels[fn.name])
            self._note_branch(pc, "dispatch", fn.line, fn.name)
        asm.emit(Op.POP)
        asm.place(fallback)
        self._emit_revert()

        # --- per-function entries ---
        for fn in externals:
            self._compile_entry(fn, entry_labels[fn.name])

        # --- shared bodies ---
        for fn in self.contract.functions:
            if not fn.is_constructor:
                self._compile_body(fn)

        return asm.assemble()

    def _compile_init(self) -> bytes:
        self.asm = Assembler()
        self._record_branches = False
        self._body_labels = {fn.name: self.asm.new_label()
                             for fn in self.contract.functions
                             if not fn.is_constructor}
        asm = self.asm

        # state variable initializers
        self._current_fn = None
        for var in self.contract.state_vars:
            if var.init is None:
                continue
            if var.var_type.is_mapping:
                raise CompileError(
                    f"mapping {var.name!r} cannot have an initializer",
                    var.line)
            asm.set_line(var.line)
            self._expr(var.init)
            asm.push(self.layout.slot_of(var.name))
            asm.emit(Op.SSTORE)

        ctor = self.contract.constructor
        exit_label = asm.new_label()
        if ctor is not None:
            frame = self.frames[ctor.name]
            for index, param in enumerate(ctor.params):
                asm.push(32 * index)
                asm.emit(Op.CALLDATALOAD)
                asm.push(frame.offset_of(param.name))
                asm.emit(Op.MSTORE)
            ctor_body = asm.new_label()
            asm.push_label(exit_label)
            asm.jump_to(ctor_body)
            asm.place(exit_label)
            asm.emit(Op.STOP)
            # constructor body
            self._current_fn = ctor
            asm.place(ctor_body)
            self._stmt(self._wrapped_body(ctor))
            if ctor.returns is not None:
                asm.push(0)
                asm.push(frame.ret_offset)
                asm.emit(Op.MSTORE)
            asm.emit(Op.JUMP)
        else:
            asm.emit(Op.STOP)

        # bodies of all other functions (reachable from the constructor)
        for fn in self.contract.functions:
            if not fn.is_constructor:
                self._compile_body(fn)

        return asm.assemble()

    def _selector(self, fn: ast.FunctionDef) -> int:
        return make_function_abi(
            fn.name, [p.param_type for p in fn.params], fn.returns,
            fn.payable, fn.mutability).selector

    def _compile_entry(self, fn: ast.FunctionDef, entry_label: int) -> None:
        asm = self.asm
        asm.set_line(fn.line)
        entry_pc = asm.place(entry_label)
        self._function_entries.setdefault(fn.name, entry_pc)
        asm.emit(Op.POP)  # drop the dispatcher's selector copy

        if not fn.payable:
            ok = asm.new_label()
            asm.emit(Op.CALLVALUE)
            asm.emit(Op.ISZERO)
            pc = asm.jumpi_to(ok)
            self._note_branch(pc, "payable", fn.line, fn.name)
            self._emit_revert()
            asm.place(ok)

        frame = self.frames[fn.name]
        for index, param in enumerate(fn.params):
            asm.push(32 * (index + 1))
            asm.emit(Op.CALLDATALOAD)
            asm.push(frame.offset_of(param.name))
            asm.emit(Op.MSTORE)

        exit_label = asm.new_label()
        asm.push_label(exit_label)
        asm.jump_to(self._body_labels[fn.name])
        asm.place(exit_label)
        if fn.returns is not None:
            asm.push(frame.ret_offset)
            asm.emit(Op.MLOAD)
            asm.push(0)
            asm.emit(Op.MSTORE)
            asm.push(32)
            asm.push(0)
            asm.emit(Op.RETURN)
        else:
            asm.emit(Op.STOP)

    def _compile_body(self, fn: ast.FunctionDef) -> None:
        asm = self.asm
        asm.set_line(fn.line)
        self._current_fn = fn
        self._nesting = 0
        asm.place(self._body_labels[fn.name])
        self._stmt(self._wrapped_body(fn))
        if fn.returns is not None:
            asm.push(0)
            asm.push(self.frames[fn.name].ret_offset)
            asm.emit(Op.MSTORE)
        asm.emit(Op.JUMP)  # pops the return address
        self._current_fn = None

    # -- helpers ---------------------------------------------------------------------------

    def _emit_revert(self) -> None:
        self.asm.push(0)
        self.asm.push(0)
        self.asm.emit(Op.REVERT)

    def _note_branch(self, pc: int, kind: str, line: int, function: str) -> None:
        if self._record_branches:
            self._branch_info[pc] = BranchInfo(
                pc=pc, kind=kind, line=line, nesting=self._nesting,
                function=function)

    # -- statements ---------------------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        asm = self.asm
        asm.set_line(stmt.line)

        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self._stmt(inner)
            return

        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self._expr(stmt.init)
            else:
                asm.push(0)
            asm.push(self._local_offset(stmt.name, stmt.line))
            asm.emit(Op.MSTORE)
            return

        if isinstance(stmt, ast.Assign):
            self._compile_assign(stmt)
            return

        if isinstance(stmt, ast.If):
            self._compile_if(stmt)
            return

        if isinstance(stmt, ast.While):
            self._compile_while(stmt)
            return

        if isinstance(stmt, ast.For):
            self._compile_for(stmt)
            return

        if isinstance(stmt, ast.Require):
            ok = asm.new_label()
            self._expr(stmt.cond)
            pc = asm.jumpi_to(ok)
            self._note_branch(pc, "require", stmt.line, self._fn_name())
            self._emit_revert()
            asm.place(ok)
            return

        if isinstance(stmt, ast.AssertStmt):
            ok = asm.new_label()
            self._expr(stmt.cond)
            pc = asm.jumpi_to(ok)
            self._note_branch(pc, "assert", stmt.line, self._fn_name())
            asm.emit(Op.INVALID)
            asm.place(ok)
            return

        if isinstance(stmt, ast.RevertStmt):
            self._emit_revert()
            return

        if isinstance(stmt, ast.Return):
            fn = self._current_fn
            if stmt.value is not None:
                if fn is None or fn.returns is None:
                    raise CompileError("return value in void function",
                                       stmt.line)
                self._expr(stmt.value)
                asm.push(self.frames[fn.name].ret_offset)
                asm.emit(Op.MSTORE)
            asm.emit(Op.JUMP)
            return

        if isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)
            asm.emit(Op.POP)
            return

        if isinstance(stmt, ast.Transfer):
            self._compile_transfer(stmt)
            return

        if isinstance(stmt, ast.SelfDestructStmt):
            self._expr(stmt.beneficiary)
            asm.emit(Op.SELFDESTRUCT)
            return

        if isinstance(stmt, ast.Emit):
            self._compile_emit(stmt)
            return

        if isinstance(stmt, ast.Placeholder):
            raise CompileError("`_;` outside a modifier", stmt.line)

        raise CompileError(f"cannot compile statement {type(stmt).__name__}",
                           stmt.line)

    def _fn_name(self) -> str:
        return self._current_fn.name if self._current_fn else ""

    def _compile_if(self, stmt: ast.If) -> None:
        asm = self.asm
        then_label = asm.new_label()
        end_label = asm.new_label()
        self._expr(stmt.cond)
        pc = asm.jumpi_to(then_label)
        self._note_branch(pc, "if", stmt.line, self._fn_name())
        self._nesting += 1
        if stmt.otherwise is not None:
            self._stmt(stmt.otherwise)
        asm.jump_to(end_label)
        asm.place(then_label)
        self._stmt(stmt.then)
        asm.place(end_label)
        self._nesting -= 1

    def _compile_while(self, stmt: ast.While) -> None:
        asm = self.asm
        start = asm.new_label()
        end = asm.new_label()
        asm.place(start)
        self._expr(stmt.cond)
        asm.emit(Op.ISZERO)
        pc = asm.jumpi_to(end)
        self._note_branch(pc, "while", stmt.line, self._fn_name())
        self._nesting += 1
        self._stmt(stmt.body)
        self._nesting -= 1
        asm.jump_to(start)
        asm.place(end)

    def _compile_for(self, stmt: ast.For) -> None:
        asm = self.asm
        start = asm.new_label()
        end = asm.new_label()
        if stmt.init is not None:
            self._stmt(stmt.init)
        asm.place(start)
        if stmt.cond is not None:
            self._expr(stmt.cond)
        else:
            asm.push(1)
        asm.emit(Op.ISZERO)
        pc = asm.jumpi_to(end)
        self._note_branch(pc, "for", stmt.line, self._fn_name())
        self._nesting += 1
        self._stmt(stmt.body)
        if stmt.update is not None:
            self._stmt(stmt.update)
        self._nesting -= 1
        asm.jump_to(start)
        asm.place(end)

    def _compile_assign(self, stmt: ast.Assign) -> None:
        asm = self.asm
        target = stmt.target

        if isinstance(target, ast.Ident):
            name = target.name
            if self._in_frame(name):
                offset = self._local_offset(name, stmt.line)
                if stmt.op == "=":
                    self._expr(stmt.value)
                else:
                    asm.push(offset)
                    asm.emit(Op.MLOAD)
                    self._expr(stmt.value)
                    self._apply_compound(stmt.op)
                asm.push(offset)
                asm.emit(Op.MSTORE)
                return
            if self.layout.is_state_var(name):
                slot = self.layout.slot_of(name)
                if stmt.op == "=":
                    self._expr(stmt.value)
                else:
                    asm.push(slot)
                    asm.emit(Op.SLOAD)
                    self._expr(stmt.value)
                    self._apply_compound(stmt.op)
                asm.push(slot)
                asm.emit(Op.SSTORE)
                return
            raise CompileError(f"undeclared variable {name!r}", stmt.line)

        if isinstance(target, ast.Index):
            if stmt.op == "=":
                self._expr(stmt.value)
                self._mapping_slot(target)
                asm.emit(Op.SSTORE)
            else:
                self._mapping_slot(target)
                asm.emit(Op.DUP1)
                asm.emit(Op.SLOAD)
                self._expr(stmt.value)
                self._apply_compound(stmt.op)
                asm.emit(Op.SWAP1)
                asm.emit(Op.SSTORE)
            return

        raise CompileError("invalid assignment target", stmt.line)

    def _apply_compound(self, op: str) -> None:
        """Stack: [current, rhs] → [current <op> rhs]."""
        asm = self.asm
        if op == "+=":
            asm.emit(Op.ADD)
        elif op == "-=":
            asm.emit(Op.SWAP1)
            asm.emit(Op.SUB)
        elif op == "*=":
            asm.emit(Op.MUL)
        elif op == "/=":
            asm.emit(Op.SWAP1)
            asm.emit(Op.DIV)
        else:
            raise CompileError(f"unsupported compound op {op!r}")

    def _compile_transfer(self, stmt: ast.Transfer) -> None:
        asm = self.asm
        self._emit_call_prefix()
        self._expr(stmt.amount)
        self._expr(stmt.target)
        asm.push(TRANSFER_GAS)
        asm.emit(Op.CALL)
        ok = asm.new_label()
        pc = asm.jumpi_to(ok)
        self._note_branch(pc, "transfer", stmt.line, self._fn_name())
        self._emit_revert()
        asm.place(ok)

    def _emit_call_prefix(self) -> None:
        """Push ret_size, ret_offset, args_size, args_offset (all zero)."""
        for _ in range(4):
            self.asm.push(0)

    def _compile_emit(self, stmt: ast.Emit) -> None:
        asm = self.asm
        for index, arg in enumerate(stmt.args):
            self._expr(arg)
            asm.push(self.scratch + 32 * index)
            asm.emit(Op.MSTORE)
        asm.push(keccak(stmt.name.encode()) % (1 << 256))
        asm.push(32 * len(stmt.args))
        asm.push(self.scratch)
        asm.emit(Op.LOG1)

    # -- expressions -------------------------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> None:
        asm = self.asm
        if expr.line:
            asm.set_line(expr.line)

        if isinstance(expr, ast.IntLit):
            asm.push(expr.value % (1 << 256))
            return

        if isinstance(expr, ast.BoolLit):
            asm.push(1 if expr.value else 0)
            return

        if isinstance(expr, ast.StringLit):
            asm.push(keccak(expr.value.encode()) % (1 << 256))
            return

        if isinstance(expr, ast.Ident):
            name = expr.name
            if self._in_frame(name):
                asm.push(self._local_offset(name, expr.line))
                asm.emit(Op.MLOAD)
                return
            if self.layout.is_state_var(name):
                if self.layout.types[name].is_mapping:
                    raise CompileError(
                        f"mapping {name!r} used without an index", expr.line)
                asm.push(self.layout.slot_of(name))
                asm.emit(Op.SLOAD)
                return
            raise CompileError(f"undeclared identifier {name!r}", expr.line)

        if isinstance(expr, ast.Index):
            self._mapping_slot(expr)
            asm.emit(Op.SLOAD)
            return

        if isinstance(expr, ast.Binary):
            self._compile_binary(expr)
            return

        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                self._expr(expr.operand)
                asm.emit(Op.ISZERO)
                return
            if expr.op == "-":
                self._expr(expr.operand)
                asm.push(0)
                asm.emit(Op.SUB)  # 0 - operand
                return
            raise CompileError(f"unsupported unary {expr.op!r}", expr.line)

        if isinstance(expr, ast.EnvRead):
            self._compile_env_read(expr)
            return

        if isinstance(expr, ast.BalanceOf):
            self._expr(expr.target)
            asm.emit(Op.BALANCE)
            return

        if isinstance(expr, ast.Keccak):
            for index, arg in enumerate(expr.args):
                self._expr(arg)
                asm.push(self.scratch + 32 * index)
                asm.emit(Op.MSTORE)
            asm.push(32 * len(expr.args))
            asm.push(self.scratch)
            asm.emit(Op.SHA3)
            return

        if isinstance(expr, ast.InternalCall):
            self._compile_internal_call(expr)
            return

        if isinstance(expr, ast.Send):
            self._emit_call_prefix()
            self._expr(expr.amount)
            self._expr(expr.target)
            asm.push(TRANSFER_GAS)
            asm.emit(Op.CALL)
            return

        if isinstance(expr, ast.CallValue):
            self._emit_call_prefix()
            self._expr(expr.amount)
            self._expr(expr.target)
            asm.push(CALL_VALUE_GAS)
            asm.emit(Op.CALL)
            return

        if isinstance(expr, ast.Delegatecall):
            self._expr(expr.data)
            asm.push(self.scratch)
            asm.emit(Op.MSTORE)
            asm.push(0)               # ret_size
            asm.push(0)               # ret_offset
            asm.push(32)              # args_size
            asm.push(self.scratch)    # args_offset
            self._expr(expr.target)
            asm.emit(Op.GAS)
            asm.emit(Op.DELEGATECALL)
            return

        raise CompileError(f"cannot compile expression {type(expr).__name__}",
                           expr.line)

    def _compile_env_read(self, expr: ast.EnvRead) -> None:
        asm = self.asm
        what = expr.what
        simple = {
            "msg.sender": Op.CALLER,
            "msg.value": Op.CALLVALUE,
            "tx.origin": Op.ORIGIN,
            "block.timestamp": Op.TIMESTAMP,
            "block.number": Op.NUMBER,
            "block.coinbase": Op.COINBASE,
            "block.difficulty": Op.DIFFICULTY,
            "this": Op.ADDRESS,
        }
        if what in simple:
            asm.emit(simple[what])
            return
        if what == "this.balance":
            asm.emit(Op.ADDRESS)
            asm.emit(Op.BALANCE)
            return
        raise CompileError(f"unknown environment read {what!r}", expr.line)

    def _compile_binary(self, expr: ast.Binary) -> None:
        asm = self.asm
        op = expr.op
        self._expr(expr.left)
        self._expr(expr.right)
        # Stack is [left, right] with right on top; EVM binary ops use the
        # top as the first operand, so non-commutative ops need a SWAP1.
        if op == "+":
            asm.emit(Op.ADD)
        elif op == "-":
            asm.emit(Op.SWAP1)
            asm.emit(Op.SUB)
        elif op == "*":
            asm.emit(Op.MUL)
        elif op == "/":
            asm.emit(Op.SWAP1)
            asm.emit(Op.DIV)
        elif op == "%":
            asm.emit(Op.SWAP1)
            asm.emit(Op.MOD)
        elif op == "<":
            asm.emit(Op.SWAP1)
            asm.emit(Op.LT)
        elif op == ">":
            asm.emit(Op.SWAP1)
            asm.emit(Op.GT)
        elif op == "<=":
            asm.emit(Op.SWAP1)
            asm.emit(Op.GT)
            asm.emit(Op.ISZERO)
        elif op == ">=":
            asm.emit(Op.SWAP1)
            asm.emit(Op.LT)
            asm.emit(Op.ISZERO)
        elif op == "==":
            asm.emit(Op.EQ)
        elif op == "!=":
            asm.emit(Op.EQ)
            asm.emit(Op.ISZERO)
        elif op in ("&&", "&"):
            asm.emit(Op.AND)
        elif op in ("||", "|"):
            asm.emit(Op.OR)
        elif op == "^":
            asm.emit(Op.XOR)
        else:
            raise CompileError(f"unsupported operator {op!r}", expr.line)

    def _compile_internal_call(self, expr: ast.InternalCall) -> None:
        asm = self.asm
        callee = None
        for fn in self.contract.functions:
            if fn.name == expr.name and not fn.is_constructor:
                callee = fn
                break
        if callee is None:
            raise CompileError(f"unknown function {expr.name!r}", expr.line)
        if len(expr.args) != len(callee.params):
            raise CompileError(
                f"{expr.name} takes {len(callee.params)} args, "
                f"got {len(expr.args)}", expr.line)
        frame = self.frames[callee.name]
        for param, arg in zip(callee.params, expr.args):
            self._expr(arg)
            asm.push(frame.offset_of(param.name))
            asm.emit(Op.MSTORE)
        ret = asm.new_label()
        asm.push_label(ret)
        asm.jump_to(self._body_labels[callee.name])
        asm.place(ret)
        asm.push(frame.ret_offset)
        asm.emit(Op.MLOAD)

    # -- lvalue helpers -----------------------------------------------------------------------------

    def _in_frame(self, name: str) -> bool:
        fn = self._current_fn
        return fn is not None and self.frames[fn.name].has_local(name)

    def _local_offset(self, name: str, line: int) -> int:
        fn = self._current_fn
        if fn is None or not self.frames[fn.name].has_local(name):
            raise CompileError(f"no local {name!r} in this context", line)
        return self.frames[fn.name].offset_of(name)

    def _mapping_slot(self, expr: ast.Index) -> None:
        """Push keccak(key ‖ slot) for ``base[key]``."""
        asm = self.asm
        if not self.layout.is_state_var(expr.base):
            raise CompileError(f"unknown mapping {expr.base!r}", expr.line)
        if not self.layout.types[expr.base].is_mapping:
            raise CompileError(f"{expr.base!r} is not a mapping", expr.line)
        self._expr(expr.key)
        asm.push(0x00)
        asm.emit(Op.MSTORE)
        asm.push(self.layout.slot_of(expr.base))
        asm.push(0x20)
        asm.emit(Op.MSTORE)
        asm.push(0x40)
        asm.push(0x00)
        asm.emit(Op.SHA3)


def _splice_placeholder(node: ast.Stmt, replacement: ast.Stmt) -> bool:
    """Replace the first ``_;`` under ``node`` with ``replacement``."""
    if isinstance(node, ast.Block):
        for index, stmt in enumerate(node.statements):
            if isinstance(stmt, ast.Placeholder):
                node.statements[index] = replacement
                return True
            if _splice_placeholder(stmt, replacement):
                return True
        return False
    if isinstance(node, ast.If):
        if _splice_placeholder(node.then, replacement):
            return True
        if node.otherwise is not None:
            return _splice_placeholder(node.otherwise, replacement)
        return False
    if isinstance(node, (ast.While, ast.For)):
        return _splice_placeholder(node.body, replacement)
    return False


def compile_contract(contract: ast.ContractDef,
                     source: str = "") -> CompiledContract:
    """Compile one contract AST."""
    return CodeGenerator(contract, source).compile()


def compile_source(source: str, contract_name: str | None = None
                   ) -> CompiledContract:
    """Parse and compile MiniSol ``source``.

    When the source holds several contracts, ``contract_name`` picks one
    (default: the first).
    """
    unit = parse_source(source)
    if contract_name is None:
        contract = unit.contracts[0]
    else:
        contract = unit.contract(contract_name)
    return compile_contract(contract, source)
