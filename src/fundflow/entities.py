"""Entity naming and propagation-tuple extraction from parsed behaviors.

Data entities are scoped: storage variables, transaction fields, and dotted
member references are contract-level, everything else belongs to the function
that mentions it. Operation entities (call and transfer sinks) are always
per-instance; their occurrence number is assigned while walking a function in
document order so repeated calls to the same target stay distinct.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import behavior as bh
from .errors import ConstantEntity

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


@dataclass(frozen=True, order=True)
class EntityId:
    """Canonical node identity; equal ids are the same graph node.

    The key and the hash are computed once, at construction: graph building,
    reachability and serialization ask for them many times per entity.
    """

    scope: str  # "" for contract-level entities
    name: str
    flavor: str = VARIABLE
    occurrence: int = 0  # instance number for operation entities, 0 for variables
    _key: str = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        base = self.name if not self.scope else f"{self.scope}:{self.name}"
        key = f"{base}#{self.occurrence}" if self.flavor == OPERATION else base
        object.__setattr__(self, "_key", key)
        fields = (self.scope, self.name, self.flavor, self.occurrence)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @property
    def display(self) -> str:
        """Human-facing label: operations show their call label, local
        variables show ``function:name``, globals show the bare name."""
        if self.flavor == OPERATION or not self.scope:
            return self.name
        return f"{self.scope}:{self.name}"

    def key(self) -> str:
        return self._key


def is_global_name(name: str, extra_globals: frozenset[str] = frozenset()) -> bool:
    return (
        name.startswith("stor_")
        or "." in name
        or name in LIFTER_ALIASES
        or name in extra_globals
    )


def normalize_entity(
    raw: str, scope: str, extra_globals: frozenset[str] = frozenset()
) -> EntityId:
    """Resolve a mention to a canonical data entity; literals are rejected."""
    name = raw.strip()
    if is_constant(name):
        raise ConstantEntity(f"{raw!r} is a literal, not an entity")
    return _variable(name, scope, extra_globals)


def _variable(name: str, scope: str, extra_globals: frozenset[str]) -> EntityId:
    """Data entity for a stripped name already known not to be a literal."""
    if is_global_name(name, extra_globals):
        return EntityId(scope="", name=name, flavor=VARIABLE)
    return EntityId(scope=scope, name=name, flavor=VARIABLE)


def resolve_sources(
    raws: Iterable[str], scope: str, extra_globals: frozenset[str] = frozenset()
) -> tuple[EntityId, ...]:
    """Data entities of the mentions in ``raws``, in order and without
    repeats; literals drop out."""
    out: list[EntityId] = []
    seen: set[EntityId] = set()
    for raw in raws:
        name = raw.strip()
        if is_constant(name):
            continue
        ent = _variable(name, scope, extra_globals)
        if ent not in seen:
            seen.add(ent)
            out.append(ent)
    return tuple(out)


@dataclass(frozen=True)
class PropagationTuple:
    """Sources feeding a destination; dst is None for dataflow-free behaviors."""

    sources: tuple[EntityId, ...]
    dst: EntityId | None


def extract_tuple(
    parsed: bh.ParsedBehavior,
    scope: str,
    extra_globals: frozenset[str] = frozenset(),
    op_counts: dict[str, int] | None = None,
) -> PropagationTuple:
    """Map a parsed behavior to its propagation tuple.

    ``op_counts`` tracks per-function operation occurrences in place; pass the
    same dict for every behavior of one function so instances stay numbered in
    document order.
    """
    if op_counts is None:
        op_counts = {}

    def op_entity(label: str) -> EntityId:
        op_counts[label] = op_counts.get(label, 0) + 1
        return EntityId(
            scope=scope, name=label, flavor=OPERATION, occurrence=op_counts[label]
        )

    kind = parsed.kind
    f = parsed.fields
    if kind == bh.ASSIGNMENT:
        return PropagationTuple(
            sources=resolve_sources([f["rhs"]], scope, extra_globals),
            dst=normalize_entity(f["lhs"], scope, extra_globals),
        )
    if kind == bh.EXTERNAL_CALL:
        return PropagationTuple(
            sources=resolve_sources(f["args"], scope, extra_globals),
            dst=op_entity(f["callee"]),
        )
    if kind == bh.DELEGATE_CALL:
        return PropagationTuple(
            sources=resolve_sources(f["args"], scope, extra_globals),
            dst=op_entity("delegatecall"),
        )
    if kind == bh.CONTRACT_CREATION:
        salt = [f["salt"]] if "salt" in f else []
        return PropagationTuple(
            sources=resolve_sources(salt, scope, extra_globals),
            dst=normalize_entity(f["address"], scope, extra_globals),
        )
    if kind == bh.TRANSFER:
        # recipient receives funds but does not feed data into the sink
        return PropagationTuple(
            sources=resolve_sources([f["value"]], scope, extra_globals),
            dst=op_entity("transfer"),
        )
    return PropagationTuple(sources=(), dst=None)
