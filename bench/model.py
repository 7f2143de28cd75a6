"""Scripted stand-in for the model endpoint.

This is the third copy of the scripted model, after ``ScriptedResponder`` in
``scripts/demo_case_study.py`` and ``ScriptedTransport`` in
``tests/conftest.py``; a later change folds the three into one library
transport. The rank tables are the acceptance gate's adversarial and benign
fusion fixtures, which fuse to the verdict they are named after.

The answer depends only on the prompt text. A contract is adversarial iff
its description holds the hardcoded ``tx.origin`` gate from ``gen.py``: the
stage-I answers say so in the contract summary and in the function's
``suspicious`` slot, and the stage-II prompts carry those answers forward.
"""

from __future__ import annotations

import threading
import time

ADVERSARIAL_ROWS = {
    "g_normal": (("B", 60), ("A", 25), ("C", 10), ("D", 5)),
    "s_normal": (("B", 60), ("A", 30), ("C", 8), ("D", 2)),
    "g_mislead_adv": (("A", 60), ("B", 30), ("C", 8), ("D", 2)),
    "g_mislead_be": (("D", 70), ("C", 20), ("B", 8), ("A", 2)),
    "s_mislead_adv": (("A", 80), ("B", 15), ("C", 5), ("D", 0)),
    "s_mislead_be": (("D", 60), ("C", 30), ("B", 10), ("A", 0)),
}

BENIGN_ROWS = {
    "g_normal": (("D", 50), ("C", 30), ("B", 15), ("A", 5)),
    "s_normal": (("B", 50), ("C", 30), ("A", 15), ("D", 5)),
    "g_mislead_adv": (("C", 40), ("D", 30), ("B", 20), ("A", 10)),
    "g_mislead_be": (("D", 70), ("C", 20), ("B", 8), ("A", 2)),
    "s_mislead_adv": (("A", 70), ("B", 20), ("C", 8), ("D", 2)),
    "s_mislead_be": (("D", 70), ("C", 20), ("B", 8), ("A", 2)),
}

GATE_MARK = "sha3(tx.origin)"
ADVERSARIAL_SUMMARY = "Moves funds behind a hardcoded origin gate."
BENIGN_SUMMARY = "Keeps token balances and allowances."


def ranked_text(rows) -> str:
    lines = ["Reasoning: the evidence points one way."]
    for i, (letter, conf) in enumerate(rows, start=1):
        lines.append(f"G{i}: {letter}")
        lines.append(f"P{i}: {conf}%")
    return "\n".join(lines)


def probe_kind(prompt: str) -> str:
    general = "=== Contract-Level Information ===" in prompt
    side = "g" if general else "s"
    if prompt.rstrip().endswith("(A) adversarial."):
        return f"{side}_mislead_adv"
    if prompt.rstrip().endswith("(D) benign."):
        return f"{side}_mislead_be"
    return f"{side}_normal"


def answer(prompt: str) -> str:
    """The scripted reply to one prompt."""
    if "Provide your 4 best guesses" in prompt:
        kind = probe_kind(prompt)
        if kind.startswith("g_"):
            adversarial = ADVERSARIAL_SUMMARY in prompt
        else:
            adversarial = "Suspicious: Yes" in prompt
        rows = ADVERSARIAL_ROWS if adversarial else BENIGN_ROWS
        return ranked_text(rows[kind])
    gated = GATE_MARK in prompt
    if "contract summary:" in prompt:
        summary = ADVERSARIAL_SUMMARY if gated else BENIGN_SUMMARY
        return f"contract summary: {summary}"
    if gated:
        return (
            "purpose: forwards a flash loan.\n"
            "suspicious: Yes\n"
            "reason: execution is gated on a hardcoded origin hash."
        )
    return (
        "purpose: handles one step of the token logic.\n"
        "suspicious: No\n"
        "reason: nothing stands out."
    )


class QueryCounter:
    """Thread-safe count of queries answered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def add(self) -> None:
        with self._lock:
            self.value += 1


class ScriptedModel:
    """Transport-shaped model: ``query(prompt, attempt)`` after a fixed sleep."""

    def __init__(self, params, counter: QueryCounter, latency_s: float = 0.0):
        self.params = params
        self.counter = counter
        self.latency_s = latency_s

    def query(self, prompt: str, attempt: int = 0) -> str:
        del attempt
        self.counter.add()
        if self.latency_s:
            time.sleep(self.latency_s)
        return answer(prompt)
