"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line (run with -s to see them on success)."""

import os
import random
import time
from pathlib import Path

import pytest
import requests

from fundflow.description import chunk_flat_text
from fundflow.fusion import decide, fuse
from fundflow.graph import transform
from fundflow.metrics import compute_metrics
from fundflow.pipeline import RunConfig, run_detect
from fundflow.reachability import (
    AnchorSets,
    ReachLimits,
    forward_reach,
    identify_egress,
    identify_ingress,
    prune_and_enumerate,
    render_path,
)
from fundflow.transport import RecordTransport

from audit_reachability import all_simple_paths, closure, random_graph
from conftest import (
    ADVERSARIAL_ROWS,
    BENIGN_ROWS,
    FIXTURE_TEXT,
    HTTP_STACK,
    ScriptedTransport,
    distributions,
    make_toy_forest,
    run_fresh,
)
from table_rows import ROW_KINDS, check_row

PATH_3 = (
    "unknownfffcf3a1:param1 --[it is required that (0x268d...4080 == sha3(tx.origin)), "
    "it is required that the 1st external call succeeds]--> stor_5.flashLoan"
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")


def check(criterion, detail, body):
    try:
        body()
    except BaseException:
        report(criterion, False, detail)
        raise
    report(criterion, True, detail)


def test_criterion_1_adversarial_fusion():
    def body():
        result = fuse(distributions(ADVERSARIAL_ROWS))
        expected = {
            "adversarial": 0.288,
            "suspicion": 0.327,
            "uncertain": 0.221,
            "benign": 0.163,
        }
        for label, want in expected.items():
            assert abs(result.normalized[label] - want) <= 0.0015, label
        assert abs(result.adv_score - 0.615) <= 0.001
        assert decide(result).label == "adversarial"

    check(1, "adversarial case fusion scores and verdict", body)


def test_criterion_2_benign_fusion():
    def body():
        result = fuse(distributions(BENIGN_ROWS))
        expected = {
            "adversarial": 0.1211,
            "suspicion": 0.2472,
            "uncertain": 0.3225,
            "benign": 0.3092,
        }
        for label, want in expected.items():
            assert abs(result.normalized[label] - want) <= 0.001, label
        assert abs(result.adv_score - 0.368) <= 0.001
        assert decide(result).label == "benign"

    check(2, "benign case fusion scores and verdict", body)


def test_criterion_3_toy_reachability():
    def body():
        graph = transform(make_toy_forest())
        anchors = AnchorSets(ingress={"F1:v1", "F1:v2"}, egress={"F2:op2#1"})
        reach = forward_reach(graph, anchors.ingress)
        result = prune_and_enumerate(graph, reach, anchors)
        rendered = [render_path(p) for p in result.paths]
        assert rendered == ["F1:v2 --[c3]--> stor_v3 --[c1]--> op2"]
        assert "F1:op1#1" not in result.retained_nodes and "F1:v1" not in result.retained_nodes

    check(3, "toy graph path produced, op1 branch pruned", body)


def test_criterion_4_path_format():
    def body():
        desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
        from fundflow.forest import build_forest

        forest = build_forest(desc)
        graph = transform(forest)
        anchors = AnchorSets(
            ingress=identify_ingress(graph), egress=identify_egress(graph)
        )
        result = prune_and_enumerate(
            graph, forward_reach(graph, anchors.ingress), anchors
        )
        assert render_path(result.paths[0]) == PATH_3

    check(4, "golden fixture path rendered byte-for-byte", body)


def test_criterion_5_metrics_identity():
    def body():
        predictions, truth = [], []
        for i in range(200):
            truth.append((f"a{i}", "adversarial"))
            predictions.append((f"a{i}", "adversarial" if i < 179 else "benign"))
        for i in range(10000):
            truth.append((f"b{i}", "benign"))
            predictions.append((f"b{i}", "benign" if i < 9517 else "adversarial"))
        m = compute_metrics(predictions, truth)
        assert m.tpr == pytest.approx(0.8950, abs=1e-12)
        assert m.tnr == pytest.approx(0.9517, abs=1e-12)
        assert abs(m.bac - 0.92335) <= 0.0005
        assert abs(m.bac - 0.9233) <= 0.0005

    check(5, "TPR 0.8950 / TNR 0.9517 reproduce BAC 0.92335", body)


def test_criterion_6_reachability_oracle():
    def body():
        rng = random.Random(20260819)
        started = time.monotonic()
        for round_no in range(1000):
            graph, ingress_names, egress_names = random_graph(rng, 20)
            got_reach = forward_reach(graph, ingress_names)
            assert got_reach == closure(graph, ingress_names), round_no

            anchors = AnchorSets(ingress=ingress_names, egress=egress_names)
            result = prune_and_enumerate(
                graph,
                forward_reach(graph, ingress_names),
                anchors,
                ReachLimits(max_depth=10_000, max_paths=10_000_000),
            )
            got = [tuple(h.key for h in p.hops) for p in result.paths]
            assert got == all_simple_paths(graph, ingress_names, egress_names), round_no
            assert not result.truncated
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"

    check(6, "1000 random graphs match brute-force closures exactly", body)


def test_criterion_7_behavior_table():
    def body():
        passed = 0
        for kind in ROW_KINDS:
            check_row(kind)
            passed += 1
        assert passed == 9

    check(7, "behavior-table conformance 9/9 rows", body)


def test_criterion_8_hermetic_detect(tmp_path, monkeypatch):
    def body():
        desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
        store = str(tmp_path / "store.jsonl")
        seed_config = RunConfig(out_dir=str(tmp_path / "seed"))
        scripted = ScriptedTransport(seed_config.params(), ADVERSARIAL_ROWS)
        run_detect(desc, seed_config, transport=RecordTransport(scripted, store))

        def refuse_network(*args, **kwargs):
            raise AssertionError("network call attempted during replay")

        # every request of every requests.Session passes through send
        monkeypatch.setattr(requests.Session, "send", refuse_network)

        artifact_names = (
            "description.json", "forest.json", "graph.json", "paths.json",
            "indicators.json", "bundle.json", "probes.json", "fusion.json",
            "verdict.json",
        )
        snapshots = []
        for run_no in range(3):
            out = str(tmp_path / f"run{run_no}")
            config = RunConfig(transport="replay", store=store, out_dir=out)
            verdict, _ = run_detect(desc, config)
            assert verdict.label == "adversarial"
            snapshots.append(
                {
                    name: Path(out, name).read_bytes()
                    for name in artifact_names
                }
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]

        # a fourth run from the command line, in a fresh interpreter, never
        # loads the HTTP stack at all
        text = tmp_path / "fixture.txt"
        text.write_text(FIXTURE_TEXT, encoding="utf-8")
        out = tmp_path / "fresh"
        proc, imported = run_fresh(
            "-m", "fundflow.cli", "detect", "-i", str(text), "-o", str(out),
            "--transport", "replay", "--store", store,
        )
        assert proc.returncode == 3, proc.stderr
        assert imported.isdisjoint(HTTP_STACK), imported & set(HTTP_STACK)
        assert {name: (out / name).read_bytes() for name in artifact_names} == snapshots[0]

    check(8, "replayed detect: 4 runs, byte-identical artifacts, no network", body)


def test_criterion_9_scope_documented():
    def body():
        here = os.path.dirname(__file__)
        readme = os.path.join(here, os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        assert "Scope of validation" in text
        assert "dataset-scale" in text
        # the replacement evidence: invariant suites for every module
        for name in (
            "test_description.py", "test_behavior.py", "test_forest.py",
            "test_entities.py", "test_graph.py", "test_reachability.py",
            "test_indicators.py", "test_prompts.py", "test_probing.py",
            "test_transport.py", "test_fusion.py", "test_metrics.py",
            "test_pipeline.py", "test_cli.py",
        ):
            assert os.path.exists(os.path.join(here, name)), name

    check(9, "dataset-scale results out of scope, replacement documented", body)
