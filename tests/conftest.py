"""Shared fixtures: the two-function toy forest, probe distributions built
from the scripted model's rank tables, and the fixture contract text."""

from __future__ import annotations

import os
import socket
import subprocess
import sys

import pytest

from fundflow.behavior import parse_behavior
from fundflow.forest import ContractForest, DepNode
from fundflow.probing import LETTER_TO_LABEL, ProbeDistribution
from fundflow.scripted import (  # noqa: F401  (shared with the test modules)
    ADVERSARIAL_ROWS,
    BENIGN_ROWS,
    ScriptedTransport,
)

# test modules import the brute-force reachability oracles from
# scripts/audit_reachability.py
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "scripts"))


LOOPBACK = {"localhost", "127.0.0.1", "::1"}
HTTP_STACK = ("requests", "urllib3")


def run_fresh(*args, cwd=None):
    """``python -X importtime *args`` in a fresh interpreter on the sources in
    src/. Returns the finished process and the name of every module it
    imported, with each package above it (``concurrent.futures.process``
    adds ``concurrent`` and ``concurrent.futures`` too)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    imported = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.rsplit("|", 1)[1].strip().split(".")
            imported.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    return proc, imported


@pytest.fixture(autouse=True)
def loopback_only(monkeypatch):
    """Tests stay off the network: resolving any host but the loopback
    fails, before a connection could be tried."""
    resolve = socket.getaddrinfo

    def guarded(host, *args, **kwargs):
        if host not in LOOPBACK:
            raise OSError(f"tests do not resolve {host!r}")
        return resolve(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", guarded)


def distribution(kind: str, rows) -> ProbeDistribution:
    return ProbeDistribution(
        probe=kind,
        ranked=tuple((LETTER_TO_LABEL[letter], float(conf)) for letter, conf in rows),
    )


def distributions(table: dict) -> list[ProbeDistribution]:
    return [distribution(kind, rows) for kind, rows in table.items()]


def make_toy_forest() -> ContractForest:
    """Two functions sharing the global v3.

    F1(v1, v2): under c2, call op1(v1); under c3, v3 := v2.
    F2(): under c1, call op2(v3).
    Condition labels are bare tokens, so nodes are built directly.
    """
    forest = ContractForest(contract_id="toy")

    def add(kind: str, text: str, parent: int | None) -> int:
        node = DepNode(id=len(forest.nodes), kind=kind, text=text)
        if kind == "behavior":
            node.behavior = parse_behavior(text)
        forest.nodes.append(node)
        if parent is None:
            forest.roots.append(node.id)
        else:
            forest.nodes[parent].children.append(node.id)
        return node.id

    f1 = add("function", "F1(v1, v2)", None)
    c2 = add("condition", "c2", f1)
    add("behavior", "it triggers the external call to op1(v1)", c2)
    c3 = add("condition", "c3", f1)
    add("behavior", "it updates the state variable v3 to v2", c3)

    f2 = add("function", "F2()", None)
    c1 = add("condition", "c1", f2)
    add("behavior", "it triggers the external call to op2(v3)", c1)
    return forest


TOY_GLOBALS = frozenset({"v1", "v2", "v3"})


def make_bundle_rows():
    """Minimal bundle that satisfies both prompt context variants."""
    from fundflow.indicators import Indicators
    from fundflow.prompts import AnalysisBundle, FunctionSummary

    return AnalysisBundle(
        contract_summary="Moves funds through guarded external calls.",
        functions=[FunctionSummary("f", "forwards funds", True, "gated on origin")],
        unknown_functions=[],
        indicators=Indicators(
            external_call_count=1,
            external_call_ratio=1 / 3,
            unknown_fn_count=1,
            unknown_fn_ratio=0.5,
            bot_fn_count=0,
            bot_fn_ratio=0.0,
            transfers_in_unknown_fns=False,
        ),
        paths=["f:param1 --[]--> transfer"],
    )


FIXTURE_TEXT = """\
function unknownfffcf3a1(param1):
it is required that (0x268d...4080 == sha3(tx.origin))
  it is required that the 1st external call succeeds
    it triggers the external call to stor_5.flashLoan(param1)
function withdrawAll(param1):
it updates the state variable stor_3 to param1
it transfers stor_3 wei to caller
"""


@pytest.fixture
def fixture_text() -> str:
    return FIXTURE_TEXT
