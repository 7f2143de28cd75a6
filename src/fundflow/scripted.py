"""A scripted offline model: fixed answers keyed on prompt content.

It stands in for the model endpoint in the demo and the tests. Stage-I
prompts get one fixed contract summary or function summary; each stage-II
probe gets its row of a rank table, rendered as a ranked-guess answer.
"""

from __future__ import annotations

from .prompts import HINT_ADVERSARIAL, HINT_BENIGN

# ranked rows (letter, confidence) per probe kind: an adversarial contract
ADVERSARIAL_ROWS = {
    "g_normal": (("B", 60), ("A", 25), ("C", 10), ("D", 5)),
    "s_normal": (("B", 60), ("A", 30), ("C", 8), ("D", 2)),
    "g_mislead_adv": (("A", 60), ("B", 30), ("C", 8), ("D", 2)),
    "g_mislead_be": (("D", 70), ("C", 20), ("B", 8), ("A", 2)),
    "s_mislead_adv": (("A", 80), ("B", 15), ("C", 5), ("D", 0)),
    "s_mislead_be": (("D", 60), ("C", 30), ("B", 10), ("A", 0)),
}

# a benign contract
BENIGN_ROWS = {
    "g_normal": (("D", 50), ("C", 30), ("B", 15), ("A", 5)),
    "s_normal": (("B", 50), ("C", 30), ("A", 15), ("D", 5)),
    "g_mislead_adv": (("C", 40), ("D", 30), ("B", 20), ("A", 10)),
    "g_mislead_be": (("D", 70), ("C", 20), ("B", 8), ("A", 2)),
    "s_mislead_adv": (("A", 70), ("B", 20), ("C", 8), ("D", 2)),
    "s_mislead_be": (("D", 70), ("C", 20), ("B", 8), ("A", 2)),
}


def ranked_text(rows) -> str:
    """Render a table row as a model answer in the expected format."""
    lines = ["Reasoning: the evidence points one way."]
    for i, (letter, conf) in enumerate(rows, start=1):
        lines.append(f"G{i}: {letter}")
        lines.append(f"P{i}: {conf}%")
    return "\n".join(lines)


class ScriptedTransport:
    """Offline stand-in for a model endpoint, keyed on prompt content."""

    def __init__(self, params, probe_rows: dict):
        self.params = params
        self.probe_rows = probe_rows

    def query(self, prompt: str, attempt: int = 0) -> str:
        del attempt
        if "Provide your 4 best guesses" in prompt:
            return ranked_text(self.probe_rows[self._probe_kind(prompt)])
        if "contract summary:" in prompt:
            return "contract summary: Moves funds through guarded external calls."
        return (
            "purpose: handles one step of the flow.\n"
            "suspicious: Yes\n"
            "reason: execution is gated on a hardcoded origin hash."
        )

    @staticmethod
    def _probe_kind(prompt: str) -> str:
        general = "=== Contract-Level Information ===" in prompt
        side = "g" if general else "s"
        if prompt.rstrip().endswith(HINT_ADVERSARIAL):
            return f"{side}_mislead_adv"
        if prompt.rstrip().endswith(HINT_BENIGN):
            return f"{side}_mislead_be"
        return f"{side}_normal"
