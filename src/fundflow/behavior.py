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


# The specific templates open with "it <verb> ", a verb no other template
# shares, so a sentence can match only the template its verb names, or the
# catch-all. A case-insensitive pattern picks that template by the group
# named after its kind: it folds case as the templates do, so "ıt" and "İT"
# open a template as "it" does.
_BY_KIND = {row[0]: row for row in _TEMPLATES}
_VERB_RE = re.compile(
    "it (?:%s)"
    % "|".join(
        "(?P<%s>%s)" % (kind, verb[1])
        for kind, template, _ in _TEMPLATES
        if (verb := re.match(r"it (\w+)", template.pattern))
    ),
    re.IGNORECASE,
)
_CATCH_ALL = _TEMPLATES[-1][1]


def _match_behavior(text: str) -> ParsedBehavior | None:
    """The first template that matches all of ``text``, already stripped:
    its named groups are the fields, a group that took no part is left out,
    and ``args`` is split on commas."""
    verb = _VERB_RE.match(text)
    if verb:
        kind, template, slots = _BY_KIND[verb.lastgroup]
        m = template.fullmatch(text)
        if m:
            fields = {slot: m[slot] for slot in slots if m[slot] is not None}
            if "args" in fields:
                fields["args"] = [a for a in map(str.strip, fields["args"].split(",")) if a]
            return ParsedBehavior(kind, fields)
    if _CATCH_ALL.fullmatch(text):
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

