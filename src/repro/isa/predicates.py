"""Declarative spin predicates for ``WaitUntil`` / ``BmWaitUntil`` / tone waits.

Historically every suspension point allocated a fresh closure
(``lambda v: v == sense``), which made per-thread progress impossible to
serialize: a parked waiter's wake condition lived only in a code object.
These records carry the same condition as plain data — a comparison kind
plus an integer operand — so they are checkpointable (the snapshot codec
encodes them by their ``operand`` slot), shared (no per-suspension
allocation on the hot path), and still directly callable exactly like the
closures they replace.

The comparison vocabulary is closed on purpose: everything the library's
synchronization primitives spin on is a comparison against a constant.
Workload code may still pass an arbitrary callable where a predicate is
expected — it runs, but a checkpoint taken while a thread waits on it fails
with :class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations


class Predicate:
    """A checkpointable wait condition: ``value <kind> operand``."""

    __slots__ = ("operand",)

    #: Comparison kind tag, unique per subclass (``eq``/``ne``/``ge``/``lt``).
    kind: str = ""

    def __init__(self, operand: int) -> None:
        self.operand = operand

    def __call__(self, value: int) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and other.kind == self.kind
            and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.operand))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Predicate(value {self.kind} {self.operand})"


class Eq(Predicate):
    """True when the observed value equals the operand."""

    __slots__ = ()
    kind = "eq"

    def __call__(self, value: int) -> bool:
        return value == self.operand


class Ne(Predicate):
    """True when the observed value differs from the operand."""

    __slots__ = ()
    kind = "ne"

    def __call__(self, value: int) -> bool:
        return value != self.operand


class Ge(Predicate):
    """True when the observed value is >= the operand."""

    __slots__ = ()
    kind = "ge"

    def __call__(self, value: int) -> bool:
        return value >= self.operand


class Lt(Predicate):
    """True when the observed value is < the operand."""

    __slots__ = ()
    kind = "lt"

    def __call__(self, value: int) -> bool:
        return value < self.operand
