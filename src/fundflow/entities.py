"""Entity naming and propagation-tuple extraction from parsed behaviors.

Data entities are scoped: storage variables, transaction fields, and dotted
member references are contract-level, everything else belongs to the function
that mentions it. Operation entities (call and transfer sinks) are always
per-instance; their occurrence number is assigned while walking a function in
document order so repeated calls to the same target stay distinct.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from . import behavior as bh

VARIABLE = "variable"
OPERATION = "operation"

# the lifter's names for transaction fields: contract-level in every
# function, and aliases of the predefined ingress names they stand for
LIFTER_ALIASES = {"caller": "msg.sender", "call value": "msg.value"}

_DECIMAL_RE = re.compile(r"[+-]?\d+(?:\.\d+)?")
_HEX_RE = re.compile(r"0x[0-9a-fA-F]*(?:\.\.\.[0-9a-fA-F]*)?")


def is_constant(raw: str) -> bool:
    """True for literals: numbers, hex (possibly elided), strings, booleans."""
    s = raw.strip()
    if not s:
        return True
    if _DECIMAL_RE.fullmatch(s) or _HEX_RE.fullmatch(s):
        return True
    if len(s) >= 2 and s[0] == s[-1] and s[0] in {"'", '"'}:
        return True
    return s.lower() in {"true", "false"}


def _escape(text: str) -> str:
    """``text`` with each ``\\``, ``:`` and ``#`` escaped by a backslash."""
    return text.replace("\\", "\\\\").replace(":", "\\:").replace("#", "\\#")


@dataclass(slots=True)
class EntityId:
    """One flow-graph node. Its ``key``, computed once at construction, is
    its identity after ``transform``: the escapes make two entities share a
    key only if they are equal. An id is never changed once built."""

    scope: str  # "" for contract-level entities
    name: str
    flavor: str = VARIABLE
    occurrence: int = 0  # instance number for operation entities, 0 for variables
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = _escape(self.name)
        base = f"{_escape(self.scope)}:{name}" if self.scope else name
        self.key = f"{base}#{self.occurrence}" if self.flavor == OPERATION else base

    @property
    def display(self) -> str:
        """Human-facing label, unescaped: operations show their call label,
        local variables show ``function:name``, globals show the bare name."""
        if self.flavor == OPERATION or not self.scope:
            return self.name
        return f"{self.scope}:{self.name}"


def is_global_name(name: str) -> bool:
    return name.startswith("stor_") or "." in name or name in LIFTER_ALIASES


_UNSEEN = object()


def _resolve(raw: str, scope: str, resolved: dict) -> EntityId | None:
    """The data entity a mention names, or None for a literal.

    ``resolved`` memoizes ``raw -> EntityId | None`` across functions:
    whether a mention is a literal, a global or a local is decided once,
    and a local is rebuilt once for each new scope. Every function has a
    name, so a local's scope is never empty.
    """
    entity = resolved.get(raw, _UNSEEN)
    if entity is _UNSEEN:
        name = raw.strip()
        if is_constant(name):
            entity = None
        elif is_global_name(name):
            entity = EntityId("", name)
        else:
            entity = EntityId(scope, name)
    elif entity is None or not entity.scope or entity.scope == scope:
        return entity
    else:  # a local of the last function that mentioned it
        entity = EntityId(scope, entity.name)
    resolved[raw] = entity
    return entity


def resolve_sources(raws: Sequence[str], scope: str, resolved: dict) -> tuple[EntityId, ...]:
    """Data entities of the mentions in ``raws``, in order and without
    repeats; literals drop out. ``resolved`` is the mention memo of one
    ``transform``."""
    if len(raws) == 1:  # most behaviors mention one source
        entity = _resolve(raws[0], scope, resolved)
        return () if entity is None else (entity,)
    found = [_resolve(raw, scope, resolved) for raw in raws]
    return tuple({e.key: e for e in found if e is not None}.values())


class PropagationTuple(NamedTuple):
    """Sources feeding a destination; dst is None for dataflow-free behaviors."""

    sources: tuple[EntityId, ...]
    dst: EntityId | None


_NO_FLOW = PropagationTuple((), None)
_new_tuple = tuple.__new__  # as PropagationTuple(...), without its Python-level __new__


def extract_tuple(
    parsed: bh.ParsedBehavior, scope: str, op_counts: dict[str, int], resolved: dict
) -> PropagationTuple:
    """Map a parsed behavior to its propagation tuple.

    ``op_counts`` tracks per-function operation occurrences in place; pass the
    same dict for every behavior of one function so instances stay numbered in
    document order. ``resolved`` is the mention memo ``resolve_sources``
    takes. An assignment or a creation whose destination is a literal
    carries no flow, as a behavior without a destination does.
    """
    kind = parsed.kind
    f = parsed.fields
    if kind == bh.ASSIGNMENT or kind == bh.CONTRACT_CREATION:
        if kind == bh.ASSIGNMENT:
            raws, dst = (f["rhs"],), f["lhs"]
        else:
            raws, dst = ((f["salt"],) if "salt" in f else ()), f["address"]
        entity = _resolve(dst, scope, resolved)
        if entity is None:
            return _NO_FLOW
        sources = resolve_sources(raws, scope, resolved)
        return _new_tuple(PropagationTuple, (sources, entity))
    if kind == bh.EXTERNAL_CALL:
        raws, label = f["args"], f["callee"]
    elif kind == bh.DELEGATE_CALL:
        raws, label = f["args"], "delegatecall"
    elif kind == bh.TRANSFER:
        # recipient receives funds but does not feed data into the sink
        raws, label = (f["value"],), "transfer"
    else:
        return _NO_FLOW
    sources = resolve_sources(raws, scope, resolved)
    occurrence = op_counts[label] = op_counts.get(label, 0) + 1
    return _new_tuple(PropagationTuple, (sources, EntityId(scope, label, OPERATION, occurrence)))
