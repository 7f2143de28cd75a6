"""Two-stage model querying and ranked-confidence parsing.

Stage I collects free-text summaries (one contract-level, one per function).
Stage II sends six ranked-guess probes built from the analysis bundle and
parses each response into a confidence distribution over the four labels.
Each stage maps its queries on the query pool it is given, or in the calling
thread when it is given none; ``pipeline.open_model`` builds the transport
and its pool. Stage II starts only after Stage I finished because
its prompts embed Stage-I output.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from .description import ContractDescription, function_scopes
from .errors import MalformedResponse, ReplayMiss, RetryExhausted
from .prompts import (
    PROBE_KINDS,
    AnalysisBundle,
    FunctionSummary,
    build_stage1_prompts,
    build_stage2_prompt,
)

LETTER_TO_LABEL = {
    "A": "adversarial",
    "B": "suspicion",
    "C": "uncertain",
    "D": "benign",
}
LABELS = tuple(LETTER_TO_LABEL.values())

_SUM_LOW, _SUM_HIGH = 90.0, 110.0
_SLACK = 1e-9  # rescaling may round a confidence, or the sum, past 100


def _check_ranking(ranked) -> None:
    """Raise ValueError unless fusion can weigh ``ranked``, (label,
    confidence) pairs in rank order: each of the four labels exactly once,
    confidences in [0, 100] that sum to 100 and never rise down the ranking."""
    labels = [label for label, _ in ranked]
    confs = [conf for _, conf in ranked]
    if len(labels) != len(LABELS) or not all(label in labels for label in LABELS):
        raise ValueError(f"expected each of {LABELS} ranked once: {labels}")
    # none of four confidences of at least 0 exceeds their sum: the sum bounds each
    if not all(0.0 <= c for c in confs) or abs(sum(confs) - 100.0) > _SLACK:
        raise ValueError(f"expected confidences in [0, 100] that sum to 100: {confs}")
    if any(a < b for a, b in zip(confs, confs[1:])):
        raise ValueError(f"confidences increase down the ranking: {confs}")


@dataclass(frozen=True)
class ProbeDistribution:
    """One probe's ranked labels with confidences normalized to sum 100."""

    probe: str
    ranked: tuple[tuple[str, float], ...]  # (label, confidence), rank order

    def to_json(self) -> dict:
        return {
            "probe": self.probe,
            "ranked": [[label, conf] for label, conf in self.ranked],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProbeDistribution":
        """A distribution as ``to_json`` wrote it, if ``_check_ranking`` passes."""
        ranked = tuple((label, conf) for label, conf in data["ranked"])
        # a JSON true is a bool, an int in Python, but not a confidence
        numeric = all(type(conf) in (int, float) for _, conf in ranked)
        if not isinstance(data["probe"], str) or not numeric:
            raise ValueError(f"expected a string probe and numeric confidences: {ranked}")
        _check_ranking(ranked)
        return cls(probe=data["probe"], ranked=ranked)


# the answer slots the prompts ask for, each found by a pattern compiled once
_NAMED_SLOTS = ("contract summary", "purpose", "suspicious", "reason")
_SLOTS = (*_NAMED_SLOTS, *(f"{letter}{i}" for letter in "GP" for i in range(1, 5)))
# A value is the rest of its slot's line or, when that is blank, the next
# line that is not blank, unless that line opens a named slot or any G<n> or
# P<n> label: a blank P4 does not read the 5 of a following "P5: 30%".
_SLOT_RE = {
    slot: re.compile(
        rf"^[^\S\n]*{slot}\s*[:.]"
        rf"(?:[^\S\n]*|\s*\n[^\S\n]*(?!(?:{'|'.join(_NAMED_SLOTS)}|[GP]\d+)\s*[:.]))"
        r"(\S.*?)\s*$",
        re.MULTILINE | re.IGNORECASE,
    )
    for slot in _SLOTS
}


def _find_slot(text: str, slot: str) -> str | None:
    m = _SLOT_RE[slot].search(text)
    return m.group(1) if m else None


_LETTER_RE = re.compile(r"\(?\s*([A-Da-d])\b")
_NUMBER_RE = re.compile(r"(\d+(?:\.\d+)?)\s*%?")


def parse_ranked_response(text: str, probe: str = "") -> ProbeDistribution:
    """Extract G1..G4 / P1..P4 from free text around the answer block.

    Accepts sums in [90, 110] and rescales them to exactly 100; anything
    else, a missing slot, or a rescaled ranking that ``_check_ranking``
    rejects is a MalformedResponse.
    """
    letters: list[str] = []
    numbers: list[float] = []
    for i in range(1, 5):
        g_raw = _find_slot(text, f"G{i}")
        p_raw = _find_slot(text, f"P{i}")
        if g_raw is None or p_raw is None:
            raise MalformedResponse(f"missing G{i} or P{i} line")
        g_match = _LETTER_RE.match(g_raw)
        if not g_match:
            raise MalformedResponse(f"G{i} does not name an option letter: {g_raw!r}")
        p_match = _NUMBER_RE.search(p_raw)
        if not p_match:
            raise MalformedResponse(f"P{i} does not carry a number: {p_raw!r}")
        letters.append(g_match.group(1).upper())
        numbers.append(float(p_match.group(1)))

    total = sum(numbers)
    if not (_SUM_LOW <= total <= _SUM_HIGH):
        raise MalformedResponse(f"confidences sum to {total}, outside [90, 110]")
    if total != 100.0:
        numbers = [n * 100.0 / total for n in numbers]
    ranked = tuple(
        (LETTER_TO_LABEL[letter], conf) for letter, conf in zip(letters, numbers)
    )
    try:
        _check_ranking(ranked)
    except ValueError as exc:
        raise MalformedResponse(str(exc)) from None
    return ProbeDistribution(probe=probe, ranked=ranked)


@dataclass
class Stage1Result:
    contract_summary: str
    functions: list[FunctionSummary] = field(default_factory=list)


def _parse_stage1_general(text: str) -> str:
    summary = _find_slot(text, "contract summary")
    return summary if summary is not None else text.strip()


def _parse_stage1_function(name: str, text: str) -> FunctionSummary:
    purpose = _find_slot(text, "purpose")
    suspicious_raw = _find_slot(text, "suspicious") or ""
    reason = _find_slot(text, "reason")
    return FunctionSummary(
        name=name,
        purpose=purpose if purpose is not None else text.strip(),
        suspicious=suspicious_raw.strip().lower().startswith("yes"),
        reason=reason if reason is not None else "",
    )


def query_pool(threads: int):
    """A context giving a new pool of ``threads`` to map queries on, shut
    down when the context ends, or None, to map them in the caller's thread,
    when ``threads <= 1``."""
    if threads <= 1:
        return nullcontext()
    return ThreadPoolExecutor(max_workers=threads)


def _map_queries(fn, items, pool) -> list:
    """``[fn(item) for item in items]``, overlapped on ``pool`` unless it is
    None."""
    if pool is None:
        return [fn(item) for item in items]
    return list(pool.map(fn, items))


def run_stage1(desc: ContractDescription, transport, pool=None) -> Stage1Result:
    """Query the contract summary and all function summaries, on ``pool``
    or, when it is None, in the calling thread. A ``ReplayMiss`` names the
    summary that missed, a function as ``function_scopes`` names it."""
    general_prompt, function_prompts = build_stage1_prompts(desc)
    names = ["contract summary"] + function_scopes(desc.functions)

    def ask(query: tuple[str, str]) -> str:
        name, prompt = query
        try:
            return transport.query(prompt)
        except ReplayMiss as exc:
            raise exc.within(f"stage I, {name}") from exc

    responses = _map_queries(ask, list(zip(names, [general_prompt] + function_prompts)), pool)
    functions = [
        _parse_stage1_function(chunk.name, response)
        for chunk, response in zip(desc.functions, responses[1:])
    ]
    return Stage1Result(
        contract_summary=_parse_stage1_general(responses[0]), functions=functions
    )


@dataclass
class Stage2Result:
    distributions: list[ProbeDistribution] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)  # probe kinds dropped

    def to_json(self) -> dict:
        return {
            "distributions": [d.to_json() for d in self.distributions],
            "failed": list(self.failed),
        }


def _run_probe(kind: str, prompt: str, transport, retries: int) -> ProbeDistribution:
    attempt = 0
    while True:
        try:
            text = transport.query(prompt, attempt)
        except ReplayMiss as exc:
            raise exc.within(f"probe {kind}") from exc
        try:
            return parse_ranked_response(text, probe=kind)
        except MalformedResponse as exc:
            if attempt >= retries:
                raise RetryExhausted(
                    f"probe {kind}: {retries} retries, last error: {exc}"
                ) from exc
            attempt += 1


def run_stage2(bundle: AnalysisBundle, transport, retries: int, pool=None) -> Stage2Result:
    """Run all six probes, each asked at most ``retries + 1`` times, on
    ``pool`` or, when it is None, in the calling thread; probes that stay
    malformed are dropped from the result rather than failing the stage."""
    heads: dict[str, str] = {}  # each level's context, built by its first probe
    prompts = {kind: build_stage2_prompt(kind, bundle, heads) for kind in PROBE_KINDS}

    def worker(kind: str) -> ProbeDistribution | RetryExhausted:
        try:
            return _run_probe(kind, prompts[kind], transport, retries)
        except RetryExhausted as exc:
            return exc

    outcomes = _map_queries(worker, PROBE_KINDS, pool)
    result = Stage2Result()
    for kind, outcome in zip(PROBE_KINDS, outcomes):
        if isinstance(outcome, RetryExhausted):
            result.failed.append(kind)
        else:
            result.distributions.append(outcome)
    return result
