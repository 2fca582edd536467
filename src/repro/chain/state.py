"""World state: accounts, balances, storage, and journaled rollback.

The journal is an undo log: every mutation appends its inverse.  A snapshot
is just a journal length; reverting truncates back to it.  This gives the
machine cheap nested-call rollback without copying storage dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evm.errors import InsufficientBalance
from repro.evm.trace import EMPTY_SHADOW, Shadow


@dataclass
class Account:
    """One account: contract or externally-owned."""

    address: int
    balance: int = 0
    code: bytes = b""
    storage: dict = field(default_factory=dict)
    storage_shadow: dict = field(default_factory=dict)
    nonce: int = 0
    destroyed: bool = False


class WorldState:
    """Mutable chain state with snapshot/revert semantics."""

    def __init__(self) -> None:
        self._accounts: dict[int, Account] = {}
        self._agents: dict[int, object] = {}
        self._journal: list[tuple] = []

    # -- account management ---------------------------------------------------

    def account(self, address: int) -> Account:
        """Fetch-or-create the account at ``address``."""
        acct = self._accounts.get(address)
        if acct is None:
            acct = Account(address=address)
            self._accounts[address] = acct
            self._journal.append(("create", address))
        return acct

    def exists(self, address: int) -> bool:
        """True if the account has been touched before."""
        return address in self._accounts

    def accounts(self) -> list[Account]:
        """All known accounts (stable order by address)."""
        return [self._accounts[a] for a in sorted(self._accounts)]

    # -- agents -----------------------------------------------------------------

    def register_agent(self, address: int, agent: object) -> None:
        """Install a programmable agent behind ``address`` (see chain.agents)."""
        self.account(address)
        self._agents[address] = agent

    def get_agent(self, address: int):
        """The agent registered at ``address``, or None."""
        return self._agents.get(address)

    # -- balances ----------------------------------------------------------------

    def get_balance(self, address: int) -> int:
        acct = self._accounts.get(address)
        return acct.balance if acct else 0

    def set_balance(self, address: int, value: int) -> None:
        acct = self.account(address)
        self._journal.append(("balance", address, acct.balance))
        acct.balance = value

    def transfer(self, sender: int, recipient: int, amount: int) -> None:
        """Move ``amount`` wei; raises :class:`InsufficientBalance` if short."""
        if amount == 0:
            return
        if self.get_balance(sender) < amount:
            raise InsufficientBalance(
                f"account {sender:#x} holds {self.get_balance(sender)}, "
                f"needs {amount}")
        self.set_balance(sender, self.get_balance(sender) - amount)
        self.set_balance(recipient, self.get_balance(recipient) + amount)

    # -- code ---------------------------------------------------------------------

    def get_code(self, address: int) -> bytes:
        acct = self._accounts.get(address)
        if acct is None or acct.destroyed:
            return b""
        return acct.code

    def set_code(self, address: int, code: bytes) -> None:
        acct = self.account(address)
        self._journal.append(("code", address, acct.code))
        acct.code = code

    # -- storage --------------------------------------------------------------------

    def get_storage(self, address: int, slot: int) -> tuple[int, Shadow]:
        acct = self._accounts.get(address)
        if acct is None:
            return 0, EMPTY_SHADOW
        return (acct.storage.get(slot, 0),
                acct.storage_shadow.get(slot, EMPTY_SHADOW))

    def set_storage(self, address: int, slot: int, value: int,
                    shadow: Shadow = EMPTY_SHADOW) -> None:
        acct = self.account(address)
        old_val = acct.storage.get(slot, 0)
        old_shadow = acct.storage_shadow.get(slot, EMPTY_SHADOW)
        self._journal.append(("storage", address, slot, old_val, old_shadow))
        acct.storage[slot] = value
        if shadow.taints:
            acct.storage_shadow[slot] = shadow
        else:
            acct.storage_shadow.pop(slot, None)

    # -- destruction -----------------------------------------------------------------

    def mark_destroyed(self, address: int) -> None:
        acct = self.account(address)
        self._journal.append(("destroyed", address, acct.destroyed))
        acct.destroyed = True

    def is_destroyed(self, address: int) -> bool:
        acct = self._accounts.get(address)
        return bool(acct and acct.destroyed)

    # -- snapshot / revert ---------------------------------------------------------------

    def snapshot(self) -> int:
        """Return a snapshot token (journal position)."""
        return len(self._journal)

    def revert_to(self, token: int) -> None:
        """Undo every mutation made since ``token``."""
        while len(self._journal) > token:
            entry = self._journal.pop()
            kind = entry[0]
            if kind == "balance":
                _, address, old = entry
                self._accounts[address].balance = old
            elif kind == "storage":
                _, address, slot, old_val, old_shadow = entry
                acct = self._accounts[address]
                acct.storage[slot] = old_val
                if old_shadow.taints:
                    acct.storage_shadow[slot] = old_shadow
                else:
                    acct.storage_shadow.pop(slot, None)
            elif kind == "code":
                _, address, old = entry
                self._accounts[address].code = old
            elif kind == "destroyed":
                _, address, old = entry
                self._accounts[address].destroyed = old
            elif kind == "create":
                _, address = entry
                self._accounts.pop(address, None)
                self._agents.pop(address, None)

    def commit(self, token: int) -> None:
        """Accept mutations since ``token`` (journal retained for outer frames)."""
        # Nothing to do: the undo log stays so an *enclosing* frame can still
        # revert past this point.  The outermost committer may clear it.

    def clear_journal(self) -> None:
        """Drop the undo log (call between transactions)."""
        self._journal.clear()

    # -- redo deltas (prefix-state snapshot tree) -------------------------------

    def journal_mark(self) -> int:
        """Current journal length — the watermark :meth:`capture_redo`
        measures a transaction's committed mutations from."""
        return len(self._journal)

    def capture_redo(self, mark: int) -> tuple:
        """The *forward* delta of every mutation committed since ``mark``.

        The journal is an undo log: each entry names a touched key and its
        pre-image.  Reverted frames already popped their entries, so the
        segment past ``mark`` lists exactly the keys a committed
        transaction changed — in first-touch order, which puts an
        account's ``create`` before any write to it.  For each key the
        *current* (post-transaction) value is read once, so the returned
        ops replay the transaction's net state effect without executing
        it.  Size is O(slots the transaction touched), not O(world).
        """
        seen: set = set()
        ops = []
        for entry in self._journal[mark:]:
            kind = entry[0]
            if kind == "storage":
                key = (kind, entry[1], entry[2])
            else:
                key = (kind, entry[1])
            if key in seen:
                continue
            seen.add(key)
            if kind == "create":
                ops.append(entry[:2])
                continue
            acct = self._accounts[entry[1]]
            if kind == "balance":
                ops.append((kind, entry[1], acct.balance))
            elif kind == "storage":
                slot = entry[2]
                ops.append((kind, entry[1], slot,
                            acct.storage.get(slot, 0),
                            acct.storage_shadow.get(slot, EMPTY_SHADOW)))
            elif kind == "code":
                ops.append((kind, entry[1], acct.code))
            elif kind == "destroyed":
                ops.append((kind, entry[1], acct.destroyed))
        return tuple(ops)

    def apply_redo(self, ops: tuple) -> None:
        """Replay a :meth:`capture_redo` delta through the journaled
        setters, so an enclosing ``revert_to``/``reset_to_base`` still
        undoes the fast-forwarded state."""
        for op in ops:
            kind = op[0]
            if kind == "balance":
                self.set_balance(op[1], op[2])
            elif kind == "storage":
                self.set_storage(op[1], op[2], op[3], op[4])
            elif kind == "create":
                self.account(op[1])
            elif kind == "code":
                self.set_code(op[1], op[2])
            elif kind == "destroyed":
                acct = self.account(op[1])
                self._journal.append(("destroyed", op[1], acct.destroyed))
                acct.destroyed = op[2]

    # -- deep snapshot for campaign-level save/restore ------------------------------------

    def fork(self) -> "WorldState":
        """A deep, independent copy (used to reset state between fuzz runs)."""
        clone = WorldState()
        for address, acct in self._accounts.items():
            clone._accounts[address] = Account(
                address=address,
                balance=acct.balance,
                code=acct.code,
                storage=dict(acct.storage),
                storage_shadow=dict(acct.storage_shadow),
                nonce=acct.nonce,
                destroyed=acct.destroyed,
            )
        clone._agents = dict(self._agents)
        return clone
