"""Sentence classification and template parsing for behavior sentences.

The lifter emits sentences from a fixed template grammar, so behaviors are
recognized by anchored patterns with free capture slots. Ties are broken by
table order: the specific templates are tried first and the action catch-all
(kind ``other``) last.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# sentence kinds assigned by parse_sentence
CONDITION = "condition"
BEHAVIOR = "behavior"
UNKNOWN = "unknown"

CONDITION_PREFIXES = (
    "it is required that",
    "when",
    "if",
    "while",
    "otherwise",
    "for each",
)

_CONDITION_RE = re.compile(
    r"^(?:%s)\b" % "|".join(re.escape(p) for p in CONDITION_PREFIXES),
    re.IGNORECASE,
)

ASSIGNMENT = "assignment"
EXTERNAL_CALL = "external_call"
DELEGATE_CALL = "delegate_call"
CONTRACT_CREATION = "contract_creation"
TRANSFER = "transfer"
RETURN = "return"
LOG_EMISSION = "log_emission"
BUILTIN_CALL = "builtin_call"
OTHER = "other"


class ParsedBehavior(NamedTuple):
    """A behavior sentence reduced to its kind and template capture slots."""

    kind: str
    fields: dict


_CALL = r"\s+(?P<callee>[A-Za-z_][\w.]*)\s*\((?P<args>[^)]*)\)"

# (kind, template, capture slots in artifact order), tried in this order
# against the whole stripped sentence
_TEMPLATES = [
    (kind, re.compile(template, re.IGNORECASE), slots)
    for kind, template, slots in (
        (ASSIGNMENT, r"it updates the state variable\s+(?P<lhs>\S+)\s+to\s+(?P<rhs>.+?)",
         ("lhs", "rhs")),
        (EXTERNAL_CALL, r"it triggers the external call to" + _CALL, ("callee", "args")),
        (DELEGATE_CALL, r"it delegates a call to" + _CALL, ("callee", "args")),
        (CONTRACT_CREATION, r"it creates a new smart contract with creation code\s+(?P<code>\S+?)"
         r"(?:\s+and\s+(?:optional\s+)?salt\s+(?P<salt>\S+?))?"
         r"\s*,\s*and gets a new address\s+(?P<address>\S+)", ("code", "address", "salt")),
        (TRANSFER, r"it transfers\s+(?P<value>.+?)\s+wei to\s+(?P<recipient>.+?)"
         r"(?:\s+with gas\s+(?P<gas>\S+))?", ("value", "recipient", "gas")),
        (RETURN, r"it returns\s+(?P<args>.+?)", ("args",)),
        (LOG_EMISSION, r"it emits the log event with parameter(?:\(s\)|s)?\s+(?P<args>.+?)",
         ("args",)),
        (BUILTIN_CALL, r"it calls a built-in function\s+(?P<name>.+?)", ("name",)),
        (OTHER, r"it\s+\w+(?s:.*)", ()),  # the catch-all, so last
    )
]


def _match_behavior(text: str) -> ParsedBehavior | None:
    """The first template that matches all of ``text``, already stripped:
    its named groups are the fields, a group that took no part is left out,
    and ``args`` is split on commas."""
    for kind, template, slots in _TEMPLATES:
        m = template.fullmatch(text)
        if m:
            fields = {slot: m[slot] for slot in slots if m[slot] is not None}
            if "args" in fields:
                fields["args"] = [a.strip() for a in fields["args"].split(",") if a.strip()]
            return ParsedBehavior(kind, fields)
    return None


def parse_sentence(text: str) -> tuple[str, ParsedBehavior | None]:
    """Classify a sentence as ``condition``, ``behavior``, or ``unknown`` and,
    for a behavior, parse it in the same pass.

    Total: every sentence maps to exactly one kind, with ``unknown`` as the
    fallback for anything outside the template grammar. The parse is set iff
    the kind is ``behavior``.
    """
    stripped = text.strip()
    if _CONDITION_RE.match(stripped):
        return CONDITION, None
    parsed = _match_behavior(stripped)
    if parsed is None:
        return UNKNOWN, None
    return BEHAVIOR, parsed


def classify_sentence(text: str) -> str:
    """The kind ``parse_sentence`` assigns to ``text``."""
    return parse_sentence(text)[0]


def parse_behavior(text: str) -> ParsedBehavior:
    """Parse a behavior sentence; requires classify_sentence(text) == 'behavior'."""
    parsed = parse_sentence(text)[1]
    if parsed is None:
        raise ValueError(f"not a behavior sentence: {text!r}")
    return parsed
