"""Two-stage model querying and ranked-confidence parsing.

Stage I collects free-text summaries (one contract-level, one per function).
Stage II sends six ranked-guess probes built from the analysis bundle and
parses each response into a confidence distribution over the four labels.
Queries to a live or recording transport run concurrently on a query pool,
which the two stages, and in a batch all contracts, may share, while a replay
store answers them inline; Stage II starts only after Stage I finished
because its prompts embed Stage-I output.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from .description import ContractDescription
from .errors import MalformedResponse, ReplayMiss, RetryExhausted
from .prompts import (
    PROBE_KINDS,
    AnalysisBundle,
    FunctionSummary,
    build_stage1_prompts,
    build_stage2_prompt,
)
from .transport import RecordTransport, ReplayTransport

LETTER_TO_LABEL = {
    "A": "adversarial",
    "B": "suspicion",
    "C": "uncertain",
    "D": "benign",
}
LABELS = tuple(LETTER_TO_LABEL.values())

_SUM_LOW, _SUM_HIGH = 90.0, 110.0


@dataclass(frozen=True)
class ProbeDistribution:
    """One probe's ranked labels with confidences normalized to sum 100."""

    probe: str
    ranked: tuple[tuple[str, float], ...]  # (label, confidence), rank order

    def confidence(self, label: str) -> float:
        for entry_label, conf in self.ranked:
            if entry_label == label:
                return conf
        raise KeyError(label)

    def to_json(self) -> dict:
        return {
            "probe": self.probe,
            "ranked": [[label, conf] for label, conf in self.ranked],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProbeDistribution":
        ranked = tuple((label, float(conf)) for label, conf in data["ranked"])
        if not isinstance(data["probe"], str) or any(l not in LABELS for l, _ in ranked):
            raise ValueError(f"expected a string probe and ranked labels among {LABELS}")
        return cls(probe=data["probe"], ranked=ranked)


def _find_slot(text: str, slot: str) -> str | None:
    pattern = re.compile(
        rf"^[^\S\n]*{slot}\s*[:.]\s*(.+?)\s*$", re.MULTILINE | re.IGNORECASE
    )
    m = pattern.search(text)
    return m.group(1) if m else None


_LETTER_RE = re.compile(r"\(?\s*([A-Da-d])\b")
_NUMBER_RE = re.compile(r"(\d+(?:\.\d+)?)\s*%?")


def parse_ranked_response(text: str, probe: str = "") -> ProbeDistribution:
    """Extract G1..G4 / P1..P4 from free text around the answer block.

    Accepts sums in [90, 110] and rescales them to exactly 100; anything
    else, a missing slot, a repeated letter, or confidences that increase
    down the ranking is a MalformedResponse.
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

    if len(set(letters)) != 4:
        raise MalformedResponse(f"repeated option letters: {letters}")
    total = sum(numbers)
    if not (_SUM_LOW <= total <= _SUM_HIGH):
        raise MalformedResponse(f"confidences sum to {total}, outside [90, 110]")
    if total != 100.0:
        numbers = [n * 100.0 / total for n in numbers]
    if any(numbers[i] < numbers[i + 1] for i in range(3)):
        raise MalformedResponse(f"confidences increase down the ranking: {numbers}")

    ranked = tuple(
        (LETTER_TO_LABEL[letter], conf) for letter, conf in zip(letters, numbers)
    )
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


def query_pool(transport, threads: int, shared=None):
    """A context giving the pool to run ``transport``'s queries on, or None
    to run them in the caller's thread.

    ``shared`` is given back as is and left open. A replay store answers
    from memory and never waits, so a pool would only add thread hand-offs:
    its queries, like any with ``threads <= 1``, run inline. Other
    transports, record included, wait on the model and get a new pool of
    ``threads``, shut down when the context ends.
    """
    if shared is not None:
        return nullcontext(shared)
    inline = isinstance(transport, ReplayTransport) and not isinstance(
        transport, RecordTransport
    )
    if threads <= 1 or inline:
        return nullcontext()
    return ThreadPoolExecutor(max_workers=threads)


def _map_queries(fn, items, pool) -> list:
    """``[fn(item) for item in items]``, overlapped on ``pool`` unless it is
    None."""
    if pool is None:
        return [fn(item) for item in items]
    return list(pool.map(fn, items))


def run_stage1(
    desc: ContractDescription, transport, concurrency: int = 4, pool=None
) -> Stage1Result:
    """Query the contract summary and all function summaries, on ``pool``
    or on a ``query_pool`` of ``concurrency`` threads."""
    general_prompt, function_prompts = build_stage1_prompts(desc)
    prompts = [general_prompt] + function_prompts
    with query_pool(transport, concurrency, pool) as pool:
        responses = _map_queries(transport.query, prompts, pool)
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
            raise ReplayMiss(key=exc.key, context=f"probe {kind}") from exc
        try:
            return parse_ranked_response(text, probe=kind)
        except MalformedResponse as exc:
            if attempt >= retries:
                raise RetryExhausted(
                    f"probe {kind}: {retries} retries, last error: {exc}"
                ) from exc
            attempt += 1


def run_stage2(
    bundle: AnalysisBundle,
    transport,
    concurrency: int = 4,
    retries: int = 2,
    pool=None,
) -> Stage2Result:
    """Run all six probes, on ``pool`` or on a ``query_pool`` of
    ``concurrency`` threads; probes that stay malformed are dropped from the
    result rather than failing the stage."""
    prompts = {kind: build_stage2_prompt(kind, bundle) for kind in PROBE_KINDS}

    def worker(kind: str) -> ProbeDistribution | RetryExhausted:
        try:
            return _run_probe(kind, prompts[kind], transport, retries)
        except RetryExhausted as exc:
            return exc

    with query_pool(transport, concurrency, pool) as pool:
        outcomes = _map_queries(worker, PROBE_KINDS, pool)

    result = Stage2Result()
    for kind, outcome in zip(PROBE_KINDS, outcomes):
        if isinstance(outcome, RetryExhausted):
            result.failed.append(kind)
        else:
            result.distributions.append(outcome)
    return result
