import json
import os
from contextlib import closing
from pathlib import Path

import pytest

from fundflow import pipeline
from fundflow.cli import build_config, build_parser, main, read_config_file
from fundflow.description import chunk_flat_text, description_to_json
from fundflow.pipeline import RunConfig, run_detect
from fundflow.prompts import build_stage1_prompts
from fundflow.reachability import prune_and_enumerate
from fundflow.transport import RecordTransport, query_key

from conftest import (
    ADVERSARIAL_ROWS,
    BENIGN_ROWS,
    FIXTURE_TEXT,
    HTTP_STACK,
    ScriptedTransport,
    run_fresh,
)
from test_pipeline import (
    BENIGN_TEXT,
    MODEL_NAMES,
    STATIC_NAMES,
    CountingScripted,
    read_json,
    use_model,
)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "c_adv.txt"
    path.write_text(FIXTURE_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def benign_file(tmp_path):
    path = tmp_path / "c_ben.txt"
    path.write_text(BENIGN_TEXT, encoding="utf-8")
    return str(path)


def record_store(tmp_path, specs):
    """Seed a replay store by running the pipeline against scripted answers."""
    store = str(tmp_path / "store.jsonl")
    for contract_id, text, rows in specs:
        config = RunConfig(out_dir=str(tmp_path / "seed" / contract_id))
        scripted = ScriptedTransport(config.params(), rows)
        run_detect(
            chunk_flat_text(text, contract_id),
            config,
            transport=RecordTransport(scripted, store),
        )
    return store


@pytest.fixture
def adv_store(tmp_path):
    return record_store(tmp_path, [("c_adv", FIXTURE_TEXT, ADVERSARIAL_ROWS)])


def test_parse_command(tmp_path, fixture_file, capsys):
    out = str(tmp_path / "out")
    assert main(["parse", "-i", fixture_file, "-o", out]) == 0
    assert os.path.exists(os.path.join(out, "forest.json"))
    stdout = capsys.readouterr().out
    assert "c_adv: 2 function(s)" in stdout


def test_flow_command(tmp_path, fixture_file, capsys):
    assert main(["flow", "-i", fixture_file, "-o", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "unknownfffcf3a1:param1 --[it is required that (0x268d...4080 == sha3(tx.origin)), "
        "it is required that the 1st external call succeeds]--> stor_5.flashLoan",
    ]


def test_flow_command_deep_nesting(tmp_path, capsys):
    depth = 1200
    lines = ["function f(a):"]
    lines += [f"{'  ' * d}when (c{d})" for d in range(depth)]
    lines.append(f"{'  ' * depth}it transfers a wei to caller")
    path = tmp_path / "deep.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["flow", "-i", str(path), "-o", str(tmp_path / "out")]) == 0
    conditions = ", ".join(f"when (c{d})" for d in range(depth))
    assert capsys.readouterr().out == f"f:a --[{conditions}]--> transfer\n"


def test_flow_command_long_chain(tmp_path, capsys):
    hops = 1500
    lines = ["function f(a):", "it updates the state variable t1 to a"]
    lines += [
        f"it updates the state variable t{i + 1} to t{i}" for i in range(1, hops - 1)
    ]
    lines.append(f"it transfers t{hops - 1} wei to caller")
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["flow", "-i", str(path), "-o", out, "--max-depth", "5000"]) == 0
    printed = capsys.readouterr()
    assert printed.out.count("\n") == 1 and "truncated" not in printed.err
    (only,) = read_json(out, "paths.json")["paths"]
    assert len(only["hops"]) == hops + 1
    assert only["hops"][-1]["display"] == "transfer"


@pytest.mark.parametrize(
    "sentence",
    [
        "it updates the state variable 0 to param1",
        "it creates a new smart contract with creation code c and salt param1, "
        "and gets a new address 0x1234",
    ],
    ids=["assignment", "creation"],
)
def test_flow_command_passes_over_a_literal_destination(tmp_path, capsys, sentence):
    """A behavior whose destination is a literal carries no flow; the rest of
    the function still reaches egress."""
    path = tmp_path / "literal.txt"
    path.write_text(
        f"function f(param1):\n{sentence}\nit transfers param1 wei to caller\n",
        encoding="utf-8",
    )
    assert main(["flow", "-i", str(path), "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "f:param1 --[]--> transfer\n"


def diamond_ladder(width, stages):
    """``param1`` flows through ``stages`` diamonds of ``width`` branches,
    each a function of its own, then ten copies to a transfer: width**stages
    paths of 2 x stages + 12 edges."""
    lines = ["function f(param1):", "it updates the state variable stor_s0 to param1"]
    for i in range(stages):
        lines.append(f"function g{i}():")
        for j in range(width):
            lines.append(f"it updates the state variable stor_b{i}x{j} to stor_s{i}")
        for j in range(width):
            lines.append(f"function h{i}x{j}():")
            lines.append(f"it updates the state variable stor_s{i + 1} to stor_b{i}x{j}")
    source = f"stor_s{stages}"
    for k in range(10):
        lines += [f"function t{k}():", f"it updates the state variable stor_t{k} to {source}"]
        source = f"stor_t{k}"
    lines += ["function pay():", f"it transfers {source} wei to caller"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("width, stages", [(3, 16), (4, 16)])
def test_flow_ends_on_a_diamond_ladder(tmp_path, capsys, monkeypatch, width, stages):
    """No path fits in the default depth of 32, so the distance to egress
    prunes every branch at once, however many paths the ladder holds."""
    results = []

    def enumerate_and_keep(*args):
        results.append(prune_and_enumerate(*args))
        return results[-1]

    monkeypatch.setattr(pipeline, "prune_and_enumerate", enumerate_and_keep)
    path = tmp_path / "ladder.txt"
    path.write_text(diamond_ladder(width, stages), encoding="utf-8")
    assert main(["flow", "-i", str(path), "-o", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "warning: enumeration truncated by limits\n"
    (result,) = results
    assert result.truncated and result.expansions <= 32


@pytest.mark.parametrize(
    "flag, field, value, code",
    [
        ("--max-paths", "max_paths", "-1", 2),
        ("--max-depth", "max_depth", "-3", 2),
        ("--max-paths", "max_paths", "0", 0),
    ],
)
def test_reach_limit_flags_reject_negatives(
    tmp_path, fixture_file, capsys, flag, field, value, code
):
    out = tmp_path / "out"
    assert main(["flow", "-i", fixture_file, "-o", str(out), flag, value]) == code
    if code:
        usage = f"usage error: {field} must be 0 or more, got {value}\n"
        assert capsys.readouterr().err == usage
        assert not out.exists()


def test_config_file_rejects_a_negative_reach_limit(tmp_path, fixture_file, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("max_depth = -3\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["flow", "-i", fixture_file, "-o", str(out), "--config", str(config_path)])
    assert code == 2
    assert capsys.readouterr().err == "usage error: max_depth must be 0 or more, got -3\n"
    assert not out.exists()


def test_indicators_command(tmp_path, fixture_file, capsys):
    assert main(["indicators", "-i", fixture_file, "-o", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["external_call_count"] == 1
    assert payload["unknown_fn_ratio"] == 0.5


def test_detect_single_adversarial(tmp_path, fixture_file, adv_store, capsys):
    out = str(tmp_path / "out")
    code = main(
        ["detect", "-i", fixture_file, "-o", out, "--transport", "replay", "--store", adv_store]
    )
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "adversarial"
    assert os.path.exists(os.path.join(out, "verdict.json"))


def test_detect_single_benign(tmp_path, benign_file, capsys):
    store = record_store(tmp_path, [("c_ben", BENIGN_TEXT, BENIGN_ROWS)])
    code = main(
        [
            "detect", "-i", benign_file, "-o", str(tmp_path / "out"),
            "--transport", "replay", "--store", store,
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["label"] == "benign"


def test_detect_batch(tmp_path, capsys):
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    (batch_dir / "c_adv.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    (batch_dir / "c_ben.txt").write_text(BENIGN_TEXT, encoding="utf-8")
    store = record_store(
        tmp_path,
        [("c_adv", FIXTURE_TEXT, ADVERSARIAL_ROWS), ("c_ben", BENIGN_TEXT, BENIGN_ROWS)],
    )
    out = str(tmp_path / "out")
    code = main(
        ["detect", "-i", str(batch_dir), "-o", out, "--transport", "replay", "--store", store]
    )
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("c_adv\tadversarial\t0.615")
    assert lines[1].startswith("c_ben\tbenign\t0.368")
    assert os.path.exists(os.path.join(out, "c_adv", "verdict.json"))
    assert os.path.exists(os.path.join(out, "c_ben", "verdict.json"))


def test_detect_on_a_one_file_directory_is_a_batch(tmp_path, adv_store, capsys):
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    (batch_dir / "c_adv.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    out = str(tmp_path / "out")
    code = main(
        ["detect", "-i", str(batch_dir), "-o", out, "--transport", "replay", "--store", adv_store]
    )
    assert code == 3
    assert capsys.readouterr().out.startswith("c_adv\tadversarial\t0.615")
    assert os.listdir(out) == ["c_adv"]
    assert os.path.exists(os.path.join(out, "c_adv", "verdict.json"))


def test_detect_on_a_directory_without_descriptions_is_an_error(tmp_path, capsys):
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    (batch_dir / "notes.md").write_text(FIXTURE_TEXT, encoding="utf-8")
    (batch_dir / "sub.txt").mkdir()  # a directory, not a description
    out = tmp_path / "out"
    code = main(
        [
            "detect", "-i", str(batch_dir), "-o", str(out),
            "--transport", "replay", "--store", str(tmp_path / "s.jsonl"),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no .txt or .json descriptions in {batch_dir}\n"
    assert not out.exists()


def test_batch_with_a_repeated_contract_id_is_an_error(tmp_path, adv_store, capsys):
    """Two files that describe one contract id would share one output
    directory; the batch stops before any contract runs."""
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    (batch_dir / "a.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    same_id = description_to_json(chunk_flat_text(BENIGN_TEXT, "a"))
    (batch_dir / "b.json").write_text(same_id, encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["detect", "-i", str(batch_dir), "-o", str(out), "--transport", "replay", "--store", adv_store]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(batch_dir / "a.txt") in captured.err
    assert str(batch_dir / "b.json") in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, content, contract_id",
    [
        ("...txt", FIXTURE_TEXT, ".."),  # Path.stem of "...txt"
        (
            "c.json",
            json.dumps(
                {
                    **json.loads(description_to_json(chunk_flat_text(FIXTURE_TEXT))),
                    "contract": "../escaped",
                }
            ),
            "../escaped",
        ),
    ],
    ids=["dot_dot_stem", "json_id_with_slash"],
)
def test_batch_rejects_an_id_that_leaves_the_output_directory(
    tmp_path, monkeypatch, capsys, name, content, contract_id
):
    """Each contract id names a directory under -o; one that is not a plain
    name is an error before any contract runs, and nothing is written."""
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    (batch_dir / name).write_text(content, encoding="utf-8")
    model = use_model(monkeypatch, CountingScripted(RunConfig().params(), ADVERSARIAL_ROWS))
    work = tmp_path / "work"
    store = tmp_path / "store.jsonl"
    code = main(
        [
            "detect", "-i", str(batch_dir), "-o", str(work / "out"),
            "--transport", "record", "--store", str(store),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"contract id {contract_id!r}" in captured.err
    assert model.calls == 0
    assert not work.exists() and not store.exists()


class LiveStandIn(CountingScripted):
    """The counting scripted model, closed like ``LiveTransport``."""

    def close(self):
        pass


def test_detect_checks_the_threshold_before_any_model_work(
    tmp_path, fixture_file, monkeypatch, capsys
):
    model = use_model(monkeypatch, LiveStandIn(RunConfig().params(), ADVERSARIAL_ROWS))
    out = tmp_path / "out"
    code = main(
        ["detect", "-i", fixture_file, "-o", str(out), "--transport", "live", "--threshold", "1.5"]
    )
    assert code == 1
    assert "error: threshold 1.5 outside [0, 1]" in capsys.readouterr().err
    assert model.calls == 0
    assert not out.exists()


def test_probe_command(tmp_path, fixture_file, adv_store, capsys):
    out = str(tmp_path / "out")
    code = main(
        ["probe", "-i", fixture_file, "-o", out, "--transport", "replay", "--store", adv_store]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["distributions"]) == 6
    assert payload["failed"] == []
    assert os.path.exists(os.path.join(out, "probes.json"))
    assert os.path.exists(os.path.join(out, "bundle.json"))


def test_probe_then_fuse_matches_detect(tmp_path, fixture_file, adv_store):
    staged, direct = str(tmp_path / "staged"), str(tmp_path / "direct")
    replay = ["--transport", "replay", "--store", adv_store]
    assert main(["probe", "-i", fixture_file, "-o", staged, *replay]) == 0
    probes = os.path.join(staged, "probes.json")
    assert main(["fuse", "-i", probes, "-o", staged]) == 3
    assert main(["detect", "-i", fixture_file, "-o", direct, *replay]) == 3
    names = sorted(STATIC_NAMES + MODEL_NAMES)
    assert sorted(os.listdir(staged)) == sorted(os.listdir(direct)) == names
    for name in names:
        with open(os.path.join(staged, name), "rb") as a, open(
            os.path.join(direct, name), "rb"
        ) as b:
            assert a.read() == b.read(), name


def probes_file(tmp_path, rows_table):
    from conftest import distributions

    payload = {
        "distributions": [d.to_json() for d in distributions(rows_table)],
        "failed": [],
    }
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_fuse_command_adversarial(tmp_path, capsys):
    path = probes_file(tmp_path, ADVERSARIAL_ROWS)
    code = main(["fuse", "-i", path, "-o", str(tmp_path / "out")])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["label"] == "adversarial"
    assert abs(payload["adv_score"] - 0.6153745352) < 1e-9
    assert os.path.exists(str(tmp_path / "out" / "fusion.json"))
    assert os.path.exists(str(tmp_path / "out" / "verdict.json"))


def test_fuse_command_threshold(tmp_path, capsys):
    path = probes_file(tmp_path, ADVERSARIAL_ROWS)
    code = main(["fuse", "-i", path, "-o", str(tmp_path / "out"), "--threshold", "0.7"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["label"] == "benign"


def test_fuse_command_invalid_threshold(tmp_path, capsys):
    path = probes_file(tmp_path, ADVERSARIAL_ROWS)
    code = main(["fuse", "-i", path, "-o", str(tmp_path / "out"), "--threshold", "1.5"])
    assert code == 1  # InvalidThreshold is a runtime error, not a usage error
    assert "threshold" in capsys.readouterr().err


def test_fuse_rejects_a_payload_without_distributions(tmp_path, capsys):
    path = tmp_path / "probes.json"
    path.write_text('{"nope": 1}', encoding="utf-8")
    assert main(["fuse", "-i", str(path), "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: expected probes.json's" in capsys.readouterr().err


def test_fuse_rejects_an_unknown_label(tmp_path, capsys):
    path = tmp_path / "probes.json"
    ranked = [["adversarial", 70], ["harmless", 30]]
    path.write_text(json.dumps({"distributions": [{"probe": "g", "ranked": ranked}]}))
    assert main(["fuse", "-i", str(path), "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "ranked",
    [
        "[]",
        '[["adversarial", 1e400]]',
        '[["adversarial", NaN], ["benign", 50]]',
        '[["adversarial", -50], ["benign", 150]]',
        '[["adversarial", 1e308]]',
        '[["adversarial", 50], ["adversarial", 50]]',
        '[["adversarial", 60], ["suspicion", 40]]',
        '[["adversarial", 50], ["suspicion", 30], ["uncertain", 10], ["benign", 5]]',
        '[["adversarial", 40], ["suspicion", 50], ["uncertain", 10], ["benign", 0]]',
        '[["adversarial", 50], ["suspicion", 30], ["uncertain", 10], ["benign", 10], '
        '["benign", 0]]',
        '[["adversarial", "60"], ["suspicion", 39], ["uncertain", true], ["benign", 0]]',
        '[["adversarial", NaN], ["suspicion", 100], ["uncertain", 0], ["benign", 0]]',
        '[["adversarial", Infinity], ["suspicion", 0], ["uncertain", 0], ["benign", 0]]',
    ],
)
def test_fuse_rejects_a_ranking_fusion_cannot_weigh(tmp_path, capsys, ranked):
    path = tmp_path / "probes.json"
    path.write_text('{"distributions": [{"probe": "g", "ranked": %s}]}' % ranked)
    assert main(["fuse", "-i", str(path), "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: expected probes.json's" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# deeper than the JSON decoder recurses: a RecursionError, not a ValueError
DEEP = "[" * 100_000


def test_fuse_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "probes.json"
    path.write_text(DEEP, encoding="utf-8")
    assert main(["fuse", "-i", str(path), "-o", str(tmp_path / "out")]) == 1
    assert f"error: {path}: expected probes.json's" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_deep_nesting_in_either_file(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text('{"id": "a", "label": "benign"}\n', encoding="utf-8")
    deep = tmp_path / "deep.jsonl"
    deep.write_text('{"id": "a", "label": "benign"}\n' + DEEP + "\n", encoding="utf-8")
    for files in ([deep, good], [good, deep]):
        assert main(["eval", *map(str, files)]) == 1
        assert f"error: {deep}:2: not JSON" in capsys.readouterr().err


def test_sweep_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "scores.jsonl"
    path.write_text(DEEP + "\n", encoding="utf-8")
    assert main(["sweep", "-i", str(path)]) == 1
    assert f"error: {path}:1: not JSON" in capsys.readouterr().err


def test_eval_rejects_a_row_without_label(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"id": "a", "label": "benign"}\n{"id": "b"}\n', encoding="utf-8")
    assert main(["eval", str(preds), str(preds)]) == 1
    assert f"error: {preds}:2: expected an object with" in capsys.readouterr().err
    # a label is "adversarial" or "benign", in the predictions and the truth
    good = tmp_path / "good.jsonl"
    good.write_text('{"id": "a", "label": "benign"}\n{"id": "b", "label": "adversarial"}\n')
    for label in ('"Adversarial"', '"maybe"', '"suspicion"', "1", "null"):
        preds.write_text('{"id": "a", "label": "benign"}\n{"id": "b", "label": %s}\n' % label)
        for files in ([preds, good], [good, preds]):
            assert main(["eval", *map(str, files)]) == 1
            assert f"error: {preds}:2: expected an object with" in capsys.readouterr().err


def test_sweep_rejects_a_row_without_score(tmp_path, capsys):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id": "a", "adv_score": "high", "label": "benign"}\n', encoding="utf-8")
    assert main(["sweep", "-i", str(path)]) == 1
    assert f"error: {path}:1: expected an object with" in capsys.readouterr().err
    # a score is a number in [0, 1], and a label "adversarial" or "benign"
    head = '{"id": "a", "adv_score": 0, "label": "benign"}\n'
    rows = [(s, "benign") for s in ("NaN", "Infinity", "-Infinity", "-0.1", "1.5", "null")]
    for score, label in [*rows, ("0.5", "Benign"), ("0.5", "maybe")]:
        path.write_text(head + '{"id": "b", "adv_score": %s, "label": "%s"}\n' % (score, label))
        assert main(["sweep", "-i", str(path)]) == 1
        assert f"error: {path}:2: expected an object with" in capsys.readouterr().err
    path.write_text(head + '{"id": "b", "adv_score": 1.0, "label": "adversarial"}\n')
    assert main(["sweep", "-i", str(path), "--grid", "0.5"]) == 0


@pytest.mark.parametrize(
    "command, shape",
    [
        ("fuse", "probes.json"),
        ("sweep", "scores JSONL"),
        ("detect", "description file, or a directory"),
        ("parse", "description file"),
    ],
)
def test_input_help_names_each_command_input(command, shape, capsys):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"-i INPUT, --input INPUT {shape}" in help_text


def test_eval_command(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    truth = tmp_path / "truth.jsonl"
    preds.write_text(
        '{"id": "a", "label": "adversarial"}\n{"id": "b", "label": "benign"}\n',
        encoding="utf-8",
    )
    truth.write_text(
        '{"id": "a", "label": "adversarial"}\n{"id": "b", "label": "adversarial"}\n',
        encoding="utf-8",
    )
    assert main(["eval", str(preds), str(truth)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tp"] == 1 and payload["fn"] == 1
    assert payload["tpr"] == 0.5 and payload["tnr"] is None


def test_eval_mismatch_exits_1(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    truth = tmp_path / "truth.jsonl"
    preds.write_text('{"id": "a", "label": "benign"}\n', encoding="utf-8")
    truth.write_text('{"id": "zz", "label": "benign"}\n', encoding="utf-8")
    assert main(["eval", str(preds), str(truth)]) == 1
    assert "error:" in capsys.readouterr().err


def scores_file(tmp_path):
    rows = [
        {"id": "a", "adv_score": 0.6154, "label": "adversarial"},
        {"id": "b", "adv_score": 0.3682, "label": "benign"},
    ]
    path = tmp_path / "scores.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


def test_sweep_rejects_a_boolean_score(tmp_path, capsys):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"id": "a", "adv_score": 0.5, "label": "benign"}\n'
        '{"id": "b", "adv_score": true, "label": "adversarial"}\n',
        encoding="utf-8",
    )
    assert main(["sweep", "-i", str(path)]) == 1
    assert f"error: {path}:2: expected an object with" in capsys.readouterr().err


def test_sweep_to_stdout(tmp_path, capsys):
    assert main(["sweep", "-i", scores_file(tmp_path), "--grid", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "threshold,fpr,fnr,tpr,tnr,bac"
    assert lines[1] == "0.500000,0.000000,0.000000,1.000000,1.000000,1.000000"


def test_sweep_default_grid_size(tmp_path, capsys):
    assert main(["sweep", "-i", scores_file(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21  # header plus thresholds 0.00 .. 0.95


def test_sweep_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sweep", "-i", scores_file(tmp_path), "-o", out, "--grid", "0.5"]) == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path == os.path.join(out, "sweep.csv")
    assert Path(out_path).read_text(encoding="utf-8").startswith("threshold,")


def test_sweep_takes_no_config_file(tmp_path, capsys):
    """A sweep reads no run-config field, so it has no --config to ignore."""
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "-i", scores_file(tmp_path), "--config", str(tmp_path / "absent.cfg")])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_sweep_rejects_out_of_range_grid(tmp_path, capsys):
    assert main(["sweep", "-i", scores_file(tmp_path), "--grid", "0.5,1.5"]) == 1


@pytest.mark.parametrize(
    "tail",
    [
        b'{"key": "0f3a", "model": "gpt-4o", "resp',  # torn by a crash mid-write
        '{"key": "0f3a", "response": "zw\u00f6'.encode()[:-1],  # torn inside a UTF-8 sequence
        b'{"key": "0f3a", "model": "gpt-4o"}\n',
        b'["0f3a", "an answer"]\n',
        b"[" * 100_000 + b"\n",  # nested deeper than the JSON decoder recurses
    ],
    ids=["torn", "torn_utf8", "no_response", "list", "deep"],
)
def test_corrupt_store_is_runtime_error(tmp_path, fixture_file, adv_store, capsys, tail):
    with open(adv_store, "ab") as fh:
        fh.write(tail)
    with open(adv_store, "rb") as fh:
        bad_line = len(fh.read().splitlines())
    code = main(
        [
            "detect", "-i", fixture_file, "-o", str(tmp_path / "out"),
            "--transport", "replay", "--store", adv_store,
        ]
    )
    assert code == 1
    assert f"store.jsonl:{bad_line}:" in capsys.readouterr().err


@pytest.mark.parametrize("as_directory", [False, True], ids=["file", "directory"])
@pytest.mark.parametrize("answered", [0, 1], ids=["summary", "function"])
def test_a_stage_one_replay_miss_names_its_contract_and_query(
    tmp_path, fixture_file, capsys, answered, as_directory
):
    """The store answers the first ``answered`` stage-I queries, so the next
    one misses: the error line says which contract asked which query, and
    at which attempt."""
    params = RunConfig().params()
    general, functions = build_stage1_prompts(chunk_flat_text(FIXTURE_TEXT, "c_adv"))
    prompts = [general, *functions]
    store = tmp_path / "store.jsonl"
    store.touch()
    with closing(RecordTransport(ScriptedTransport(params, ADVERSARIAL_ROWS), str(store))) as t:
        for prompt in prompts[:answered]:
            t.query(prompt)
    source = fixture_file
    if as_directory:
        source = tmp_path / "contracts"
        source.mkdir()
        os.replace(fixture_file, source / "c_adv.txt")
    code = main(
        [
            "detect", "-i", str(source), "-o", str(tmp_path / "out"),
            "--transport", "replay", "--store", str(store),
        ]
    )
    assert code == 1
    key = query_key(prompts[answered], params, 0)
    where = ("contract summary", "unknownfffcf3a1")[answered]
    assert capsys.readouterr().err == (
        f"error: no stored response for key {key} (contract c_adv, stage I, {where}, attempt 0)\n"
    )


def test_replay_without_store_is_usage_error(tmp_path, fixture_file, capsys):
    code = main(["detect", "-i", fixture_file, "-o", str(tmp_path / "out")])
    assert code == 2
    assert "store" in capsys.readouterr().err


def test_missing_input_is_runtime_error(tmp_path, capsys):
    code = main(["parse", "-i", str(tmp_path / "nope.txt"), "-o", str(tmp_path / "o")])
    assert code == 1


def test_empty_description_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("no headers here\n", encoding="utf-8")
    assert main(["parse", "-i", str(path), "-o", str(tmp_path / "o")]) == 1


def test_description_not_utf8_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"function f(a):\nit returns \xff\n")
    assert main(["parse", "-i", str(path), "-o", str(tmp_path / "o")]) == 1
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


def test_config_file_bad_number_is_usage_error(tmp_path, fixture_file, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("max_paths = many\n", encoding="utf-8")
    code = main(
        ["parse", "-i", fixture_file, "-o", str(tmp_path / "o"), "--config", str(config_path)]
    )
    assert code == 2
    assert "usage error:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_config_file_and_flag_precedence(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "model = file-model   # comment\n"
        "\n"
        "retries = 5\n"
        "threshold = 0.25\n",
        encoding="utf-8",
    )
    parser = build_parser()
    args = parser.parse_args(
        ["detect", "-i", "x", "--config", str(config_path), "--model", "flag-model"]
    )
    config = build_config(args)
    assert config.model == "flag-model"  # flag beats file
    assert config.retries == 5  # file beats default
    assert config.threshold == 0.25
    assert config.transport == "replay"  # untouched default


def test_config_file_skips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text("model = m\nretries = 3\n", encoding="utf-8")
    marked.write_text("model = m\nretries = 3\n", encoding="utf-8-sig")
    assert read_config_file(str(marked)) == read_config_file(str(plain)) == {
        "model": "m",
        "retries": 3,
    }


@pytest.mark.parametrize(
    "flags, config_text",
    [
        (["--retries", "-1"], ""),
        (["--concurrency", "0"], ""),
        ([], "transport = teleport\n"),
        (["--transport", "record", "--store", "s.jsonl"], "max_tokens = -5\n"),
        (["--transport", "record", "--store", "s.jsonl"], "max_tokens = 0\n"),
        (["--transport", "record", "--store", "s.jsonl"], "temperature = nan\n"),
        (["--transport", "record", "--store", "s.jsonl"], "temperature = inf\n"),
        (["--transport", "record", "--store", "s.jsonl"], "temperature = -0.5\n"),
    ],
)
def test_bad_run_config_fails_before_any_artifact(
    tmp_path, fixture_file, capsys, flags, config_text
):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["detect", "-i", fixture_file, "-o", str(out), "--config", str(config_path), *flags]
    )
    assert code == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, expect_http",
    [
        (["-c", "import fundflow.cli"], False),
        (["-m", "fundflow.cli", "flow", "-i", "c_adv.txt", "-o", "flow"], False),
        (
            ["-m", "fundflow.cli", "detect", "-i", "c_adv.txt", "-o", "replay",
             "--transport", "replay", "--store", "store.jsonl"],
            False,
        ),
        # the check itself sees the stack once a live transport is built
        (
            ["-c", "from fundflow.pipeline import RunConfig, open_model\n"
             "with open_model(RunConfig(transport='live'), 2): pass"],
            True,
        ),
    ],
)
def test_only_a_live_transport_loads_the_http_stack(tmp_path, adv_store, args, expect_http):
    (tmp_path / "c_adv.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    proc, imported = run_fresh(*args, cwd=tmp_path)
    assert proc.returncode in (0, 3), proc.stderr
    assert {name: name in imported for name in HTTP_STACK} == dict.fromkeys(
        HTTP_STACK, expect_http
    )


PROCESS_POOL = ("multiprocessing", "concurrent.futures.process")


@pytest.mark.parametrize(
    "args, expect_pool",
    [
        (["-c", "import fundflow.cli"], False),
        (["-m", "fundflow.cli", "flow", "-i", "c_adv.txt", "-o", "flow"], False),
        (
            ["-m", "fundflow.cli", "detect", "-i", "c_adv.txt", "-o", "replay",
             "--transport", "replay", "--store", "store.jsonl"],
            False,
        ),
        # the check itself sees the pool once a batch starts one
        (
            ["-m", "fundflow.cli", "detect", "-i", "batch", "-o", "batch_out",
             "--transport", "replay", "--store", "store.jsonl"],
            True,
        ),
    ],
)
def test_only_a_batch_loads_the_process_pool(tmp_path, adv_store, args, expect_pool):
    (tmp_path / "c_adv.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    (tmp_path / "batch").mkdir()
    (tmp_path / "batch" / "c_adv.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    proc, imported = run_fresh(*args, cwd=tmp_path)
    assert proc.returncode in (0, 3), proc.stderr
    assert {name: name in imported for name in PROCESS_POOL} == dict.fromkeys(
        PROCESS_POOL, expect_pool
    )


def test_config_file_unknown_key(tmp_path):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("api_key = secret\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_config_file(str(config_path))


def test_config_file_bad_line(tmp_path, fixture_file, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("just words\n", encoding="utf-8")
    code = main(
        ["parse", "-i", fixture_file, "-o", str(tmp_path / "o"), "--config", str(config_path)]
    )
    assert code == 2


def test_config_file_typing(tmp_path):
    config_path = tmp_path / "typed.cfg"
    config_path.write_text("max_paths = 7\ntemperature = 0.5\n", encoding="utf-8")
    values = read_config_file(str(config_path))
    assert values == {"max_paths": 7, "temperature": 0.5}
    assert isinstance(values["max_paths"], int)


@pytest.mark.parametrize("command", ["parse", "flow"])
def test_lone_surrogate_in_json_description_is_runtime_error(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    path.write_text(
        '{"contract": "c", "functions": [{"signature": "f(a)", '
        '"sentences": [{"text": "it returns \\ud800", "depth": 0}]}]}',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main([command, "-i", str(path), "-o", str(out)]) == 1
    assert "functions[0].sentences[0].text" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_unencodable_model_answer_is_runtime_error(tmp_path, fixture_file, adv_store, capsys):
    with open(adv_store, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for record in records:
        if record["response"].startswith("contract summary:"):
            record["response"] = "contract summary: \ud800"
    with open(adv_store, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)
    out = tmp_path / "out"
    code = main(
        [
            "detect", "-i", fixture_file, "-o", str(out),
            "--transport", "replay", "--store", adv_store,
        ]
    )
    assert code == 1
    assert "usage error" not in capsys.readouterr().err
    assert (out / "paths.json").exists()
    assert not (out / "bundle.json").exists()


def test_unparsable_grid_is_usage_error(tmp_path, capsys):
    assert main(["sweep", "-i", scores_file(tmp_path), "--grid", "0.5,half"]) == 2
    assert "usage error: --grid" in capsys.readouterr().err
