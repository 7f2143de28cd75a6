"""End-to-end demo over two bundled mock descriptions.

Runs the full detector offline: a scripted transport stands in for the
model endpoint, its answers are recorded to a JSONL store, and the same
run is then replayed from the store to show the hermetic path.

Usage: python3 scripts/demo_case_study.py [-o DIR]
"""

import argparse
import json
import os

from fundflow.description import chunk_flat_text
from fundflow.pipeline import RunConfig, run_detect
from fundflow.scripted import ADVERSARIAL_ROWS, BENIGN_ROWS, ScriptedTransport
from fundflow.transport import RecordTransport

ADVERSARIAL_TEXT = """\
function unknownfffcf3a1(param1):
it is required that (0x268d...4080 == sha3(tx.origin))
  it is required that the 1st external call succeeds
    it triggers the external call to stor_5.flashLoan(param1)
function withdrawAll(param1):
it updates the state variable stor_3 to param1
it transfers stor_3 wei to caller
"""

BENIGN_TEXT = """\
function balanceOf(param1):
it returns stor_2
function setApproval(param1, param2):
when (param1 > 0)
  it updates the state variable stor_4 to param2
"""

ARTIFACTS = (
    "description.json",
    "forest.json",
    "graph.json",
    "paths.json",
    "indicators.json",
    "bundle.json",
    "probes.json",
    "fusion.json",
    "verdict.json",
)


def read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(out_dir: str, name: str) -> bytes:
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def run_one(name: str, text: str, rows: dict, base_dir: str) -> None:
    contract_dir = os.path.join(base_dir, name)
    record_dir = os.path.join(contract_dir, "record")
    replay_dir = os.path.join(contract_dir, "replay")
    store = os.path.join(contract_dir, "store.jsonl")
    os.makedirs(contract_dir, exist_ok=True)
    if os.path.exists(store):
        os.remove(store)
    desc = chunk_flat_text(text, name)

    config = RunConfig(out_dir=record_dir)
    scripted = ScriptedTransport(config.params(), rows)
    verdict, _ = run_detect(desc, config, RecordTransport(scripted, store))

    replay_config = RunConfig(transport="replay", store=store, out_dir=replay_dir)
    run_detect(desc, replay_config)
    identical = all(
        read_bytes(record_dir, a) == read_bytes(replay_dir, a) for a in ARTIFACTS
    )

    paths = read_json(record_dir, "paths.json")["paths"]
    ind = read_json(record_dir, "indicators.json")
    fusion = read_json(record_dir, "fusion.json")

    print(f"== {name} ==")
    print("fund-flow paths:")
    for p in paths:
        print(f"  {p['rendered']}")
    if not paths:
        print("  (none)")
    print(
        "indicators: external calls {0}, unknown-fn ratio {1:.2f}, "
        "transfers in unknown fns {2}".format(
            ind["external_call_count"],
            ind["unknown_fn_ratio"],
            "yes" if ind["transfers_in_unknown_fns"] else "no",
        )
    )
    print("probes (entropy -> weight):")
    for stat in fusion["per_probe"]:
        print(
            f"  {stat['probe']:<14} H={stat['entropy']:.4f}  w={stat['weight']:.4f}"
        )
    norm = fusion["normalized"]
    print(
        "normalized scores: adversarial {adversarial:.4f} suspicion "
        "{suspicion:.4f} uncertain {uncertain:.4f} benign {benign:.4f}".format(**norm)
    )
    print(
        f"verdict: {verdict.label} "
        f"(adv {verdict.adv_score:.4f} vs benign {verdict.be_score:.4f})"
    )
    print(
        "replay from store reproduced all artifacts byte for byte"
        if identical
        else "replay DIVERGED from the recorded run"
    )
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out-dir", default="demo_out")
    args = parser.parse_args()
    run_one("c_adv", ADVERSARIAL_TEXT, ADVERSARIAL_ROWS, args.out_dir)
    run_one("c_ben", BENIGN_TEXT, BENIGN_ROWS, args.out_dir)
    print(f"artifacts under {args.out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
