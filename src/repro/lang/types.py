"""MiniSol's type lattice.

Every runtime value occupies one 256-bit EVM word, so types mostly matter for
the front end (name resolution, ABI descriptions, fuzzer input generation)
and for signedness of comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """A MiniSol type: elementary or a mapping."""

    kind: str  # 'uint' | 'int' | 'bool' | 'address' | 'bytes32' | 'mapping'
    key: "Type | None" = None
    value: "Type | None" = None

    @property
    def is_mapping(self) -> bool:
        return self.kind == "mapping"

    def __str__(self) -> str:
        if self.is_mapping:
            return f"mapping({self.key} => {self.value})"
        return {"uint": "uint256", "int": "int256"}.get(self.kind, self.kind)


UINT = Type("uint")
INT = Type("int")
BOOL = Type("bool")
ADDRESS = Type("address")
BYTES32 = Type("bytes32")

_ELEMENTARY = {
    "uint": UINT,
    "uint256": UINT,
    "int": INT,
    "int256": INT,
    "bool": BOOL,
    "address": ADDRESS,
    "bytes32": BYTES32,
}


def elementary(name: str) -> Type:
    """Resolve an elementary type keyword to its :class:`Type`."""
    try:
        return _ELEMENTARY[name]
    except KeyError:
        raise KeyError(f"not an elementary type: {name}") from None


def is_type_keyword(name: str) -> bool:
    """True if ``name`` begins a type (elementary keyword or ``mapping``)."""
    return name in _ELEMENTARY or name == "mapping"


def mapping_of(key: Type, value: Type) -> Type:
    """Construct ``mapping(key => value)``."""
    return Type("mapping", key=key, value=value)
