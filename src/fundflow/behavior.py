"""Sentence classification and template parsing for behavior sentences.

The lifter emits sentences from a fixed template grammar, so behaviors are
recognized by anchored patterns with free capture slots. Ties are broken by
table order: the specific templates are tried first and the action catch-all
(kind ``other``) last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

@dataclass(frozen=True)
class ParsedBehavior:
    """A behavior sentence reduced to its kind and template capture slots."""

    kind: str
    fields: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "fields": dict(self.fields)}


def _split_args(raw: str) -> list[str]:
    return [a.strip() for a in raw.split(",") if a.strip()]


_ASSIGNMENT_RE = re.compile(
    r"^it updates the state variable\s+(\S+)\s+to\s+(.+?)\s*$", re.IGNORECASE
)
_EXTERNAL_CALL_RE = re.compile(
    r"^it triggers the external call to\s+([A-Za-z_][\w.]*)\s*\(([^)]*)\)\s*$",
    re.IGNORECASE,
)
_DELEGATE_CALL_RE = re.compile(
    r"^it delegates a call to\s+([A-Za-z_][\w.]*)\s*\(([^)]*)\)\s*$", re.IGNORECASE
)
_CONTRACT_CREATION_RE = re.compile(
    r"^it creates a new smart contract with creation code\s+(\S+?)"
    r"(?:\s+and\s+(?:optional\s+)?salt\s+(\S+?))?"
    r"\s*,\s*and gets a new address\s+(\S+)\s*$",
    re.IGNORECASE,
)
_TRANSFER_RE = re.compile(
    r"^it transfers\s+(.+?)\s+wei to\s+(.+?)(?:\s+with gas\s+(\S+))?\s*$",
    re.IGNORECASE,
)
_RETURN_RE = re.compile(r"^it returns\s+(.+?)\s*$", re.IGNORECASE)
_LOG_EMISSION_RE = re.compile(
    r"^it emits the log event with parameter(?:\(s\)|s)?\s+(.+?)\s*$", re.IGNORECASE
)
_BUILTIN_CALL_RE = re.compile(r"^it calls a built-in function\s+(.+?)\s*$", re.IGNORECASE)
_ACTION_RE = re.compile(r"^it\s+\w+", re.IGNORECASE)


def _match_behavior(text: str) -> ParsedBehavior | None:
    text = text.strip()
    m = _ASSIGNMENT_RE.match(text)
    if m:
        return ParsedBehavior(ASSIGNMENT, {"lhs": m.group(1), "rhs": m.group(2)})
    m = _EXTERNAL_CALL_RE.match(text)
    if m:
        return ParsedBehavior(
            EXTERNAL_CALL, {"callee": m.group(1), "args": _split_args(m.group(2))}
        )
    m = _DELEGATE_CALL_RE.match(text)
    if m:
        return ParsedBehavior(
            DELEGATE_CALL, {"callee": m.group(1), "args": _split_args(m.group(2))}
        )
    m = _CONTRACT_CREATION_RE.match(text)
    if m:
        fields = {"code": m.group(1), "address": m.group(3)}
        if m.group(2) is not None:
            fields["salt"] = m.group(2)
        return ParsedBehavior(CONTRACT_CREATION, fields)
    m = _TRANSFER_RE.match(text)
    if m:
        fields = {"value": m.group(1), "recipient": m.group(2)}
        if m.group(3) is not None:
            fields["gas"] = m.group(3)
        return ParsedBehavior(TRANSFER, fields)
    m = _RETURN_RE.match(text)
    if m:
        return ParsedBehavior(RETURN, {"args": _split_args(m.group(1))})
    m = _LOG_EMISSION_RE.match(text)
    if m:
        return ParsedBehavior(LOG_EMISSION, {"args": _split_args(m.group(1))})
    m = _BUILTIN_CALL_RE.match(text)
    if m:
        return ParsedBehavior(BUILTIN_CALL, {"name": m.group(1)})
    if _ACTION_RE.match(text):
        return ParsedBehavior(OTHER, {})
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
