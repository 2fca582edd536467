"""MiniSol abstract syntax tree.

Every node carries ``line`` so diagnostics, source maps, and the paper-style
"bug at line N" reports stay meaningful.  The data-flow analysis
(:mod:`repro.analysis.dataflow`) and the compiler both walk this tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.types import Type


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base expression node."""

    line: int = 0


@dataclass
class IntLit(Expr):
    """Integer literal (unit multipliers already applied)."""

    value: int = 0


@dataclass
class BoolLit(Expr):
    """``true`` / ``false``."""

    value: bool = False


@dataclass
class StringLit(Expr):
    """String literal (only used as require/revert messages)."""

    value: str = ""


@dataclass
class Ident(Expr):
    """Reference to a state variable, local, or parameter."""

    name: str = ""


@dataclass
class Index(Expr):
    """Mapping access ``base[key]``."""

    base: str = ""
    key: Expr = field(default_factory=Expr)


@dataclass
class Binary(Expr):
    """Binary operation; op in + - * / % < > <= >= == != && || & | ^."""

    op: str = "+"
    left: Expr = field(default_factory=Expr)
    right: Expr = field(default_factory=Expr)


@dataclass
class Unary(Expr):
    """Unary operation; op in ! -."""

    op: str = "!"
    operand: Expr = field(default_factory=Expr)


@dataclass
class EnvRead(Expr):
    """Environment read: one of
    msg.sender, msg.value, tx.origin, block.timestamp, block.number,
    block.coinbase, block.difficulty, this (address), this.balance.
    """

    what: str = "msg.sender"


@dataclass
class BalanceOf(Expr):
    """``<address-expr>.balance``."""

    target: Expr = field(default_factory=Expr)


@dataclass
class Keccak(Expr):
    """``keccak256(a, b, ...)`` over word-packed arguments."""

    args: list = field(default_factory=list)


@dataclass
class InternalCall(Expr):
    """Call to another function of the same contract."""

    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class Send(Expr):
    """``target.send(amount)`` — 2300-gas value transfer, returns bool."""

    target: Expr = field(default_factory=Expr)
    amount: Expr = field(default_factory=Expr)


@dataclass
class CallValue(Expr):
    """``target.call.value(amount)()`` — value transfer forwarding gas,
    returns bool.  The reentrancy-capable primitive."""

    target: Expr = field(default_factory=Expr)
    amount: Expr = field(default_factory=Expr)


@dataclass
class Delegatecall(Expr):
    """``target.delegatecall(data)`` — returns bool."""

    target: Expr = field(default_factory=Expr)
    data: Expr = field(default_factory=Expr)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base statement node."""

    line: int = 0


@dataclass
class Block(Stmt):
    """``{ ... }``."""

    statements: list = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Local variable declaration with optional initializer."""

    var_type: Type = None  # type: ignore[assignment]
    name: str = ""
    init: Expr | None = None


@dataclass
class Assign(Stmt):
    """Assignment to an identifier or mapping element; op in = += -= *= /=."""

    target: Expr = field(default_factory=Expr)  # Ident or Index
    op: str = "="
    value: Expr = field(default_factory=Expr)


@dataclass
class If(Stmt):
    """``if (cond) then [else other]``."""

    cond: Expr = field(default_factory=Expr)
    then: Stmt = field(default_factory=Stmt)
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    """``while (cond) body``."""

    cond: Expr = field(default_factory=Expr)
    body: Stmt = field(default_factory=Stmt)


@dataclass
class For(Stmt):
    """``for (init; cond; update) body``."""

    init: Stmt | None = None
    cond: Expr | None = None
    update: Stmt | None = None
    body: Stmt = field(default_factory=Stmt)


@dataclass
class Require(Stmt):
    """``require(cond[, message])`` — reverts when cond is false."""

    cond: Expr = field(default_factory=Expr)
    message: str = ""


@dataclass
class AssertStmt(Stmt):
    """``assert(cond)`` — INVALID when cond is false (distinct from require,
    which reverts; the unhandled-exception oracle keys off INVALID)."""

    cond: Expr = field(default_factory=Expr)


@dataclass
class RevertStmt(Stmt):
    """``revert([message])``."""

    message: str = ""


@dataclass
class Return(Stmt):
    """``return [expr]``."""

    value: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect; result discarded."""

    expr: Expr = field(default_factory=Expr)


@dataclass
class Transfer(Stmt):
    """``target.transfer(amount)`` — reverts on failure."""

    target: Expr = field(default_factory=Expr)
    amount: Expr = field(default_factory=Expr)


@dataclass
class SelfDestructStmt(Stmt):
    """``selfdestruct(beneficiary)``."""

    beneficiary: Expr = field(default_factory=Expr)


@dataclass
class Emit(Stmt):
    """``emit EventName(args...)``."""

    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class Placeholder(Stmt):
    """The ``_;`` inside a modifier body where the function body is spliced."""


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """One function parameter."""

    param_type: Type
    name: str
    line: int = 0


@dataclass
class StateVarDecl:
    """A contract storage variable."""

    var_type: Type
    name: str
    init: Expr | None = None
    line: int = 0
    visibility: str = "internal"


@dataclass
class ModifierDef:
    """A modifier declaration; body contains exactly one Placeholder."""

    name: str
    params: list = field(default_factory=list)
    body: Block = field(default_factory=Block)
    line: int = 0


@dataclass
class EventDef:
    """An event declaration (metadata only; emits compile to LOG)."""

    name: str
    params: list = field(default_factory=list)
    line: int = 0


@dataclass
class FunctionDef:
    """A function or constructor."""

    name: str
    params: list = field(default_factory=list)
    returns: Type | None = None
    visibility: str = "public"
    payable: bool = False
    mutability: str = ""  # '', 'view', 'pure'
    modifiers: list = field(default_factory=list)  # modifier names
    body: Block = field(default_factory=Block)
    is_constructor: bool = False
    line: int = 0

    @property
    def is_external(self) -> bool:
        """Dispatched from calldata (public/external, not constructor)."""
        return (not self.is_constructor
                and self.visibility in ("public", "external"))


@dataclass
class ContractDef:
    """A full contract."""

    name: str
    state_vars: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    modifiers: list = field(default_factory=list)
    events: list = field(default_factory=list)
    line: int = 0

    @property
    def constructor(self) -> FunctionDef | None:
        for fn in self.functions:
            if fn.is_constructor:
                return fn
        return None

    @property
    def external_functions(self) -> list:
        return [fn for fn in self.functions if fn.is_external]

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in contract {self.name}")


@dataclass
class SourceUnit:
    """Top level: one or more contracts from one source text."""

    contracts: list = field(default_factory=list)

    def contract(self, name: str) -> ContractDef:
        for c in self.contracts:
            if c.name == name:
                return c
        raise KeyError(f"no contract {name!r}")
