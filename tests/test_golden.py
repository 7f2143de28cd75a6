"""The artifacts of one large description, pinned by sha256: the five static
ones, and the four of the model half with the record store's lines.

The demo contract has two functions, too few for a slip in iteration order,
occurrence numbering, name resolution or edge annotation to show. The
description built here has 60 functions, sentences under up to 5 nested
conditions, some nested in their own text, storage and local names shared
across functions, repeated calls to one target in one function, literals of
every kind, and a path enumeration that the default limits truncate. It is
built by arithmetic alone, so it is the same in every process. The static
digests were recorded from the static half before its records were reworked
for speed, the model-half ones with the scripted model before a batch's
static halves and model halves had one result shape, and none may change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from contextlib import closing

from fundflow.description import chunk_flat_text
from fundflow.pipeline import RunConfig, run_detect, run_static
from fundflow.transport import RecordTransport

from conftest import ADVERSARIAL_ROWS, ScriptedTransport

ARTIFACTS = ("description.json", "forest.json", "graph.json", "paths.json", "indicators.json")

GOLDEN = {
    "description.json": "db08e2c10cb6c6101b9e8800313969c65c93e92579bf8333a414abd18d319c91",
    "forest.json": "381e2719310374e43668ae9c53fb21947646337c3daf8d542d002533ecf68a6a",
    "graph.json": "5677f4f6c8502c8ac4cf27e98b4115d7f9430bac88385de8c733290f9011965e",
    "paths.json": "bd406cffdef0d551fe18877d7b56979ee0297bfa9f6dc5ec91fbcfcf1a771642",
    "indicators.json": "e7d2764b98be121557c815a770626174a6df8c771ba787f55bc8828134b0ba52",
}

# the store's lines are hashed sorted, so the digest does not depend on the
# order in which the queries were asked
MODEL_GOLDEN = {
    "bundle.json": "1b41de2014018fcbe004e62137ef59e21dec891981e7c9c072a9b186da0fad14",
    "probes.json": "2faaf63f7da775d42361b259655f12b42c6d9775c7cd6be8b1b6ec127960ff0f",
    "fusion.json": "946ac47e5d40a8f7fb854cd424a2fe29c127ddece56d3f7f7f0f38d3b55f7294",
    "verdict.json": "590e8cb679254a083c2d649d6f2d5262d49d949e47dea8fe93ff3e01c0bd7a38",
    "store lines": "90ec621fda0b0871b7aacb62a3e8459722c5f79da6903b4f3ae6f559e49b0ba9",
}

FUNCTIONS = 60
TARGETS = ("transfer", "getReserves", "withdraw", "sync", "approve", "flashLoan")
SOURCES = ("caller", "call value", "tx.origin", "address(this).balance", "msg.sender")
LITERALS = ("0", "1.5", "0x12ab", "0x268d...4080", "'memo'", '"tag"', "true", "False")


def golden_text() -> str:
    """The flat-text description the digests were recorded from."""
    lines: list[str] = []
    for i in range(FUNCTIONS):
        name = ("unknown%04x" % (i * 2654435761 % 65536)) if i % 7 == 3 else f"fn{i}"
        if i % 11 == 5:
            name = f"botManage{i}"
        params = [f"param{k}" for k in range(1, 1 + i % 4)]
        lines.append(f"function {name}({', '.join(params)}):")
        arg = params[0] if params else SOURCES[i % len(SOURCES)]
        stor = [f"stor_{(i * 3 + k) % 12}" for k in range(4)]
        local = f"amount{i % 5}"
        depth = 0
        for step in range(14 + i % 6):
            kind = (i + step * 5) % 9
            if kind == 0 and depth < 5:
                lines.append("  " * depth + f"when ({stor[step % 4]} > {arg})")
                depth += 1
                # a condition nested in its own text counts once on an edge
                if i % 5 == 2 and depth < 5:
                    lines.append("  " * depth + f"when ({stor[step % 4]} > {arg})")
                    depth += 1
                continue
            if kind == 1 and depth < 5:
                lines.append("  " * depth + f"it is required that ({local} != {SOURCES[step % 5]})")
                depth += 1
                continue
            if kind == 2:
                value = LITERALS[(i + step) % len(LITERALS)]
                text = f"it updates the state variable {stor[(step + 1) % 4]} to {value}"
            elif kind == 3:
                text = f"it updates the state variable {local} to {arg}"
            elif kind == 4:
                target = TARGETS[i % len(TARGETS)]
                text = f"it triggers the external call to {stor[0]}.{target}({local}, {arg})"
            elif kind == 5:
                text = f"it transfers {local} wei to caller"
            elif kind == 6:
                text = f"it updates the state variable {stor[step % 4]} to {local}"
            elif kind == 7:
                text = f"it delegates a call to {stor[2]}.execute({arg}, 0)"
            else:
                text = f"it emits the log event with parameter(s) {arg}, {stor[3]}"
            lines.append("  " * depth + text)
            # the same target called twice in a row numbers its occurrences
            if kind == 4:
                lines.append("  " * depth + text)
            if step % 7 == 6 and depth:
                depth -= 1 + (step % 14 == 13 and depth > 1)
        lines.append(f"it creates a new smart contract with creation code 0x60 "
                     f"and salt {arg}, and gets a new address stor_{i % 12}")
        lines.append(f"it returns {local}")
        lines.append("something the lifter never says")
    return "\n".join(lines) + "\n"


def file_digests(out_dir: str, names) -> dict[str, str]:
    digests = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def static_digests(out_dir: str) -> dict[str, str]:
    desc = chunk_flat_text(golden_text(), "golden")
    static = run_static(desc, RunConfig(out_dir=out_dir))
    assert static.truncated
    return file_digests(out_dir, ARTIFACTS)


def model_digests(out_dir: str) -> dict[str, str]:
    """Detect the golden description with the scripted model behind a record
    store; the digests of the model half's artifacts and the store's lines."""
    desc = chunk_flat_text(golden_text(), "golden")
    config = RunConfig(out_dir=out_dir)
    store = os.path.join(out_dir, "store.jsonl")
    inner = ScriptedTransport(config.params(), ADVERSARIAL_ROWS)
    with closing(RecordTransport(inner, store)) as transport:
        run_detect(desc, config, transport)
    digests = file_digests(out_dir, [name for name in MODEL_GOLDEN if name.endswith(".json")])
    with open(store, "rb") as fh:
        lines = sorted(fh.read().splitlines(keepends=True))
    digests["store lines"] = hashlib.sha256(b"".join(lines)).hexdigest()
    return digests


def test_golden_description_has_the_shape_it_claims():
    desc = chunk_flat_text(golden_text(), "golden")
    assert len(desc.functions) >= 50
    assert max(s.depth for c in desc.functions for s in c.sentences) >= 4
    assert any(
        a.text == b.text and "external call" in a.text
        for c in desc.functions
        for a, b in zip(c.sentences, c.sentences[1:])
    )


def test_static_artifacts_match_the_recorded_digests(tmp_path):
    assert static_digests(str(tmp_path)) == GOLDEN


def test_model_half_matches_the_recorded_digests(tmp_path):
    assert model_digests(str(tmp_path)) == MODEL_GOLDEN


def test_static_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """Sets of entities are iterated somewhere in the static half; their
    order must never reach an artifact."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
    code = (
        "import sys, json; sys.path.insert(0, sys.argv[1]); import test_golden; "
        "print(json.dumps(test_golden.static_digests(sys.argv[2])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(root, "tests"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(proc.stdout) == GOLDEN
