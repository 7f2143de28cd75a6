"""Prompt assembly for both analysis stages.

Stage-I prompts ask for free-text contract and function summaries. Stage-II
prompts prepend one of two context blocks (contract-level with structural
indicators, or function-level with fund-flow paths) to a fixed ranked-guess
question, optionally followed by a misleading hint line. The block and
question texts live in package assets so they stay byte-stable.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field
from importlib import resources

from .description import ContractDescription, render_function
from .indicators import Indicators

G_NORMAL = "g_normal"
S_NORMAL = "s_normal"
G_MISLEAD_ADV = "g_mislead_adv"
G_MISLEAD_BE = "g_mislead_be"
S_MISLEAD_ADV = "s_mislead_adv"
S_MISLEAD_BE = "s_mislead_be"

PROBE_KINDS = (
    G_NORMAL,
    S_NORMAL,
    G_MISLEAD_ADV,
    G_MISLEAD_BE,
    S_MISLEAD_ADV,
    S_MISLEAD_BE,
)

HINT_ADVERSARIAL = "Hint: I think the answer should be (A) adversarial."
HINT_BENIGN = "Hint: I think the answer should be (D) benign."

_HINTS = {
    G_MISLEAD_ADV: HINT_ADVERSARIAL,
    S_MISLEAD_ADV: HINT_ADVERSARIAL,
    G_MISLEAD_BE: HINT_BENIGN,
    S_MISLEAD_BE: HINT_BENIGN,
}


@functools.cache  # package files: a handful, fixed for the life of the process
def _asset(name: str) -> str:
    return (
        resources.files("fundflow").joinpath("assets", name).read_text(encoding="utf-8")
    )


@dataclass
class FunctionSummary:
    name: str
    purpose: str
    suspicious: bool
    reason: str


@dataclass
class UnknownFunction:
    name: str
    parameters: str
    description: str
    reason: str


@dataclass
class AnalysisBundle:
    """Everything the ranked-guess prompts interpolate."""

    contract_summary: str
    indicators: Indicators
    functions: list[FunctionSummary] = field(default_factory=list)
    unknown_functions: list[UnknownFunction] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)  # rendered fund-flow paths

    def to_json(self) -> dict:
        # what dataclasses.asdict gives, without deep-copying every string
        return {
            "contract_summary": self.contract_summary,
            "functions": [dict(vars(f)) for f in self.functions],
            "unknown_functions": [dict(vars(u)) for u in self.unknown_functions],
            "indicators": self.indicators.to_json(),
            "paths": list(self.paths),
        }


def build_stage1_prompts(desc: ContractDescription) -> tuple[str, list[str]]:
    """One contract-level prompt plus one prompt per function. Each
    function is rendered once: the contract's text is theirs joined, as
    ``render_flat_text`` gives it."""
    rendered = [render_function(chunk) for chunk in desc.functions]
    general = _asset("stage1_general.txt").format(description="".join(rendered) or "\n")
    template = _asset("stage1_function.txt")
    return general, [template.format(function_description=text) for text in rendered]


def ordinal(n: int) -> str:
    if 10 <= n % 100 <= 13:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def _yes_no(flag: bool) -> str:
    return "Yes" if flag else "No"


def _ratio(value: float) -> str:
    return f"{value:.4f}"


def _numbered_functions(lines: Iterable[str]) -> str:
    """``- (1st function) <line>``, one a line, or ``(none)`` for no lines."""
    numbered = (f"- ({ordinal(i)} function) {line}" for i, line in enumerate(lines, start=1))
    return "\n".join(numbered) or "(none)"


def build_stage2_context(kind: str, bundle: AnalysisBundle) -> str:
    if kind.startswith("g_"):
        ind = bundle.indicators
        return _asset("stage2_context_general.txt").format(
            contract_summary=bundle.contract_summary,
            external_call_count=ind.external_call_count,
            external_call_ratio=_ratio(ind.external_call_ratio),
            unknown_fn_count=ind.unknown_fn_count,
            unknown_fn_ratio=_ratio(ind.unknown_fn_ratio),
            transfers_in_unknown_fns=_yes_no(ind.transfers_in_unknown_fns),
            bot_fn_count=ind.bot_fn_count,
            bot_fn_ratio=_ratio(ind.bot_fn_ratio),
        )
    return _asset("stage2_context_specific.txt").format(
        function_summaries=_numbered_functions(
            f"{f.name}: {f.purpose}, Suspicious: {_yes_no(f.suspicious)}, Reason: {f.reason}"
            for f in bundle.functions
        ),
        unknown_function_descriptions=_numbered_functions(
            f"{u.name}: {u.parameters}, Description: {u.description}, Reason: {u.reason}"
            for u in bundle.unknown_functions
        ),
        fund_flow_paths="\n".join(bundle.paths) if bundle.paths else "(none)",
    )


def build_stage2_prompt(kind: str, bundle: AnalysisBundle, heads: dict | None = None) -> str:
    """Context block, then the ranked-guess question, then an optional hint.
    ``heads`` keeps each level's context and question, under ``g`` or ``s``,
    for the next probe of the same bundle, so a level's context is built
    once."""
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe kind: {kind!r}")
    heads = {} if heads is None else heads
    if kind[0] not in heads:
        heads[kind[0]] = "%s\n\n%s" % (
            build_stage2_context(kind, bundle).rstrip("\n"),
            _asset("stage2_question.txt").rstrip("\n"),
        )
    hint = _HINTS.get(kind)
    return "%s\n\n%s\n" % (heads[kind[0]], hint) if hint else heads[kind[0]] + "\n"
