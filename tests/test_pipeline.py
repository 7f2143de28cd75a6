import gc
import itertools
import json
import os
import sys
import threading
import time
import weakref
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest

from fundflow.description import chunk_flat_text
from fundflow import pipeline
from fundflow.errors import InvalidDescription, ReplayMiss, TransportError, UsageError
from fundflow.forest import build_forest
from fundflow.graph import transform
from fundflow.pipeline import (
    RunConfig,
    assemble_bundle,
    open_model,
    run_batch,
    run_detect,
    run_static,
    write_json,
)
from fundflow.probing import run_stage1
from fundflow.prompts import build_stage1_prompts
from fundflow.reachability import (
    AnchorSets,
    forward_reach,
    identify_egress,
    identify_ingress,
    prune_and_enumerate,
    render_path,
)
from fundflow.transport import LiveTransport, RecordTransport, ReplayTransport

from conftest import ADVERSARIAL_ROWS, BENIGN_ROWS, FIXTURE_TEXT, ScriptedTransport

BENIGN_TEXT = """\
function balanceOf(param1):
it returns stor_2
function setApproval(param1, param2):
when (param1 > 0)
  it updates the state variable stor_4 to param2
"""


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


STATIC_NAMES = (
    "description.json",
    "forest.json",
    "graph.json",
    "paths.json",
    "indicators.json",
)
MODEL_NAMES = ("bundle.json", "probes.json", "fusion.json", "verdict.json")


def test_run_static_writes_every_artifact(tmp_path):
    out = str(tmp_path / "run")
    config = RunConfig(out_dir=out)
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    static = run_static(desc, config)
    for name in STATIC_NAMES:
        assert os.path.exists(os.path.join(out, name)), name
    paths = read_json(out, "paths.json")
    assert [p["rendered"] for p in paths["paths"]] == [
        "unknownfffcf3a1:param1 --[it is required that (0x268d...4080 == sha3(tx.origin)), "
        "it is required that the 1st external call succeeds]--> stor_5.flashLoan",
    ]
    assert read_json(out, "indicators.json") == static.indicators.to_json()
    assert read_json(out, "description.json")["contract"] == "fixture"


def _gc_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_leave_the_collector_as_found(tmp_path, enabled):
    """A library call may not disable, tune or freeze the caller's
    collector."""
    found = _gc_state()
    try:
        gc.set_threshold(555, 7, 3)
        if not enabled:
            gc.disable()
        before = _gc_state()
        desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
        config = RunConfig(out_dir=str(tmp_path / "static"))
        run_static(desc, config)
        assert _gc_state() == before
        config = RunConfig(out_dir=str(tmp_path / "detect"))
        run_detect(desc, config, transport=ScriptedTransport(config.params(), ADVERSARIAL_ROWS))
        assert _gc_state() == before
    finally:
        gc.set_threshold(*found[1])
        if found[0]:
            gc.enable()
    assert _gc_state() == found


def test_artifacts_end_with_newline(tmp_path):
    path = write_json(str(tmp_path), "x.json", {"a": "ü"})
    raw = Path(path).read_bytes()
    assert raw.endswith(b"\n")
    assert "ü".encode("utf-8") in raw  # not ascii-escaped

    # one compact line, newlines inside strings stay escaped
    payload = {"text": "zwölf\nlines", "nested": [{"a": 1.5, "b": None}, []]}
    raw = Path(write_json(str(tmp_path), "y.json", payload)).read_bytes()
    assert raw.count(b"\n") == 1 and raw.endswith(b"\n")
    assert b" " not in raw
    assert json.loads(raw.decode("utf-8")) == payload


def test_every_artifact_round_trips(tmp_path, monkeypatch):
    written = {}
    real_write_json = pipeline.write_json

    def spy(out_dir, name, payload):
        written[name] = payload
        return real_write_json(out_dir, name, payload)

    monkeypatch.setattr(pipeline, "write_json", spy)
    out = str(tmp_path / "run")
    config = RunConfig(out_dir=out)
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    run_detect(desc, config, transport=ScriptedTransport(config.params(), ADVERSARIAL_ROWS))

    assert sorted(written) == sorted(STATIC_NAMES + MODEL_NAMES)
    texts = {"description.json", "forest.json", "graph.json", "paths.json"}
    assert {name for name, payload in written.items() if isinstance(payload, str)} == texts
    for name, payload in written.items():
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            assert fh.read().count("\n") == 1, name
        if isinstance(payload, str):
            payload = json.loads(payload)
        assert read_json(out, name) == payload, name


def test_paths_rendered_once_for_both_consumers(tmp_path):
    out = str(tmp_path / "run")
    config = RunConfig(out_dir=out)
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    static = run_static(desc, config)
    forest = build_forest(desc)
    graph = transform(forest)
    anchors = AnchorSets(ingress=identify_ingress(graph), egress=identify_egress(graph))
    reach = forward_reach(graph, anchors.ingress)
    enumeration = prune_and_enumerate(graph, reach, anchors, config.limits())
    assert static.rendered_paths == [render_path(p) for p in enumeration.paths]
    assert static.truncated == enumeration.truncated
    assert [p["rendered"] for p in read_json(out, "paths.json")["paths"]] == (
        static.rendered_paths
    )
    stage1 = run_stage1(desc, ScriptedTransport(config.params(), ADVERSARIAL_ROWS))
    assert assemble_bundle(desc, static, stage1).paths == static.rendered_paths


def test_run_detect_with_injected_transport(tmp_path):
    out = str(tmp_path / "run")
    config = RunConfig(out_dir=out)
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    transport = ScriptedTransport(config.params(), ADVERSARIAL_ROWS)
    verdict, bundle = run_detect(desc, config, transport=transport)

    assert verdict.label == "adversarial"
    assert verdict.adv_score == pytest.approx(0.6153745352, abs=1e-9)
    for name in STATIC_NAMES + MODEL_NAMES:
        assert os.path.exists(os.path.join(out, name)), name

    probes = read_json(out, "probes.json")
    assert len(probes["distributions"]) == 6 and probes["failed"] == []
    assert read_json(out, "verdict.json")["label"] == "adversarial"

    saved = read_json(out, "bundle.json")
    assert saved == bundle.to_json()
    assert [u["name"] for u in saved["unknown_functions"]] == ["unknownfffcf3a1"]
    assert saved["unknown_functions"][0]["parameters"] == "param1"
    assert (
        saved["unknown_functions"][0]["description"]
        == "it is required that (0x268d...4080 == sha3(tx.origin)); "
        "it is required that the 1st external call succeeds; "
        "it triggers the external call to stor_5.flashLoan(param1)"
    )
    assert saved["unknown_functions"][0]["reason"].startswith("execution is gated")


def test_run_detect_benign_rows(tmp_path):
    config = RunConfig(out_dir=str(tmp_path / "run"))
    desc = chunk_flat_text(BENIGN_TEXT, "benign")
    transport = ScriptedTransport(config.params(), BENIGN_ROWS)
    verdict, _ = run_detect(desc, config, transport=transport)
    assert verdict.label == "benign"
    assert verdict.adv_score == pytest.approx(0.3682439027, abs=1e-9)


def test_record_then_replay_identical_artifacts(tmp_path):
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    store = str(tmp_path / "store.jsonl")

    rec_out = str(tmp_path / "rec")
    rec_config = RunConfig(out_dir=rec_out)
    scripted = ScriptedTransport(rec_config.params(), ADVERSARIAL_ROWS)
    rec_verdict, _ = run_detect(
        desc, rec_config, transport=RecordTransport(scripted, store)
    )

    rep_out = str(tmp_path / "rep")
    rep_config = RunConfig(transport="replay", store=store, out_dir=rep_out)
    rep_verdict, _ = run_detect(desc, rep_config)

    assert rep_verdict == rec_verdict
    for name in STATIC_NAMES + MODEL_NAMES:
        rec_bytes = Path(rec_out, name).read_bytes()
        rep_bytes = Path(rep_out, name).read_bytes()
        assert rec_bytes == rep_bytes, name


def test_record_resumes_after_a_torn_last_line(tmp_path, caplog):
    """A crash mid-write may cut the last store line at any byte. A record
    rerun cuts the torn line off, asks the model only for its key, and the
    store then replays the recorded artifacts."""
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    store = tmp_path / "store.jsonl"
    config = RunConfig(out_dir=str(tmp_path / "rec"))
    scripted = ScriptedTransport(config.params(), ADVERSARIAL_ROWS)
    recorder = RecordTransport(scripted, str(store))
    run_detect(desc, config, transport=recorder)
    recorder.close()
    whole = store.read_bytes()
    names = STATIC_NAMES + MODEL_NAMES
    recorded = {name: Path(config.out_dir, name).read_bytes() for name in names}
    last_line = whole.rindex(b"\n", 0, -1) + 1
    rerun_config = RunConfig(out_dir=str(tmp_path / "rerun"))
    replay_config = RunConfig(
        transport="replay", store=str(store), out_dir=str(tmp_path / "rep")
    )
    for cut in range(last_line, len(whole)):
        store.write_bytes(whole[:cut])
        caplog.clear()
        model = CountingScripted(config.params(), ADVERSARIAL_ROWS)
        rerun = RecordTransport(model, str(store))
        run_detect(desc, rerun_config, transport=rerun)
        rerun.close()
        assert model.calls == 1, cut
        assert store.read_bytes() == whole, cut
        torn = cut - last_line
        warned = [f"{store}: cut a torn last line of {torn} bytes"] if torn else []
        assert [r.getMessage() for r in caplog.records] == warned
        run_detect(desc, replay_config)
        for name, data in recorded.items():
            assert Path(replay_config.out_dir, name).read_bytes() == data, (cut, name)


def test_static_artifacts_survive_model_failure(tmp_path):
    out = str(tmp_path / "run")
    store = str(tmp_path / "empty.jsonl")
    open(store, "w").close()
    config = RunConfig(transport="replay", store=store, out_dir=out)
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    with pytest.raises(ReplayMiss):
        run_detect(desc, config)
    for name in STATIC_NAMES:
        assert os.path.exists(os.path.join(out, name)), name
    for name in MODEL_NAMES:
        assert not os.path.exists(os.path.join(out, name)), name


def test_a_stage_two_replay_miss_names_its_contract_and_probe(tmp_path):
    """The store answers every stage-I query and no probe, so the first
    probe misses."""
    store = str(tmp_path / "store.jsonl")
    config = RunConfig(transport="replay", store=store, out_dir=str(tmp_path / "out"))
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    scripted = ScriptedTransport(config.params(), ADVERSARIAL_ROWS)
    with closing(RecordTransport(scripted, store)) as recorder:
        run_stage1(desc, recorder)
    with pytest.raises(ReplayMiss) as caught:
        run_detect(desc, config)
    miss = caught.value
    assert str(miss) == (
        f"no stored response for key {miss.key} (contract fixture, probe g_normal, attempt 0)"
    )


OVERLOADS_TEXT = """\
function unknownab(p):
it reverts
function unknownab(a, b):
it reverts
function g():
it reverts
"""


class StageOne:
    """Stage-I answers whose reason is the function's header line; the
    query for ``missing`` misses instead."""

    def __init__(self, missing=None):
        self.missing = missing

    def query(self, prompt, attempt=0):
        if prompt == self.missing:
            raise ReplayMiss("k", f"attempt {attempt}")
        header = [line for line in prompt.splitlines() if line.startswith("function ")]
        if len(header) == 1:  # one function's prompt, not the contract's
            return f"purpose: p\nsuspicious: Yes\nreason: {header[0]}"
        return "contract summary: s"


def test_overloads_keep_their_own_stage_one_reasons(tmp_path):
    desc = chunk_flat_text(OVERLOADS_TEXT, "c")
    static = run_static(desc, RunConfig(out_dir=str(tmp_path)))
    bundle = assemble_bundle(desc, static, run_stage1(desc, StageOne()))
    assert [(u.parameters, u.reason) for u in bundle.unknown_functions] == [
        ("p", "function unknownab(p):"),
        ("a, b", "function unknownab(a, b):"),
    ]


@pytest.mark.parametrize(
    "index, where", [(0, "unknownab(p)"), (1, "unknownab(a, b)"), (2, "g")]
)
def test_a_stage_one_replay_miss_names_an_overload_by_its_signature(index, where):
    desc = chunk_flat_text(OVERLOADS_TEXT, "c")
    missing = build_stage1_prompts(desc)[1][index]
    with pytest.raises(ReplayMiss) as caught:
        run_stage1(desc, StageOne(missing))
    assert caught.value.context == f"stage I, {where}, attempt 0"


# -- rewriting artifacts in place ---------------------------------------


def test_a_shorter_artifact_leaves_no_stale_tail(tmp_path):
    path = Path(write_json(str(tmp_path), "a.json", {"text": "x" * 5000}))
    write_json(str(tmp_path), "a.json", {"text": "y"})
    assert path.read_bytes() == b'{"text":"y"}\n'


def test_an_artifact_is_rewritten_in_its_own_inode(tmp_path):
    """In place: the file and every hard link to it get the new bytes, as
    with ``open(path, "wb")``; a temporary file renamed over it would not."""
    path = Path(write_json(str(tmp_path), "a.json", {"n": 1}))
    link = tmp_path / "link.json"
    os.link(path, link)
    inode = path.stat().st_ino
    write_json(str(tmp_path), "a.json", {"n": 22})
    assert path.stat().st_ino == inode
    assert link.read_bytes() == path.read_bytes() == b'{"n":22}\n'


def test_a_new_artifact_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        path = Path(write_json(str(tmp_path), "a.json", {}))
        with open(tmp_path / "reference", "wb"):
            pass
    finally:
        os.umask(old)
    assert path.stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_a_lone_surrogate_leaves_an_existing_artifact_as_it_was(tmp_path):
    path = Path(write_json(str(tmp_path), "a.json", {"text": "kept"}))
    before = path.stat()
    with pytest.raises(UnicodeEncodeError):
        write_json(str(tmp_path), "a.json", '{"text":"\ud800"}')
    assert path.read_bytes() == b'{"text":"kept"}\n'
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("size", [10, 100_000])  # buffered, and written through
def test_a_failed_write_closes_its_descriptor(tmp_path, monkeypatch, size):
    """The file is opened read-only behind ``write_json``'s back, so the
    write fails after the open: in the buffer's flush for a small artifact,
    in the write itself for a large one."""
    opened = []

    def read_only(path, flags):
        opened.append(os.open(path, os.O_RDONLY | os.O_CREAT, 0o666))
        return opened[-1]

    monkeypatch.setattr(pipeline, "_open_untruncated", read_only)
    with pytest.raises(OSError):
        write_json(str(tmp_path), "a.json", "x" * size)
    assert len(opened) == 1
    with pytest.raises(OSError):
        os.fstat(opened[0])


def big_contract():
    """The fixture contract and 40 more functions: its static artifacts and
    its bundle are longer than the benign contract's."""
    extra = "".join(
        f"function extra{i}(param1, param2):\n"
        f"it updates the state variable stor_{i + 10} to param2\n"
        f"when (param1 > {i})\n  it transfers param1 wei to caller\n"
        for i in range(40)
    )
    return chunk_flat_text(FIXTURE_TEXT + extra, "big")


def detect(desc, out_dir, rows):
    config = RunConfig(out_dir=str(out_dir))
    return run_detect(desc, config, ScriptedTransport(config.params(), rows))


def artifact_bytes(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def test_a_small_contract_over_a_large_one_writes_what_it_writes_alone(tmp_path):
    detect(big_contract(), tmp_path / "out", ADVERSARIAL_ROWS)
    big = artifact_bytes(tmp_path / "out")
    small = chunk_flat_text(BENIGN_TEXT, "small")
    detect(small, tmp_path / "out", BENIGN_ROWS)
    detect(small, tmp_path / "alone", BENIGN_ROWS)
    alone = artifact_bytes(tmp_path / "alone")
    assert sorted(alone) == sorted(STATIC_NAMES + MODEL_NAMES)
    assert all(len(big[name]) > len(alone[name]) for name in STATIC_NAMES + ("bundle.json",))
    assert artifact_bytes(tmp_path / "out") == alone


# -- what a failed run leaves ---------------------------------------------

RUN_ORDER = STATIC_NAMES + MODEL_NAMES  # the order run_detect writes them in


@pytest.mark.parametrize("failing", RUN_ORDER)
def test_a_failed_rerun_leaves_only_the_artifacts_it_finished(tmp_path, monkeypatch, failing):
    """A rerun into the directory of an earlier contract fails part-way
    through writing ``failing``: the artifacts before it are the rerun's
    own, and neither the cut-off file nor any later one of the earlier
    contract is left."""
    small = chunk_flat_text(BENIGN_TEXT, "small")
    detect(small, tmp_path / "alone", BENIGN_ROWS)
    alone = artifact_bytes(tmp_path / "alone")
    detect(big_contract(), tmp_path / "out", ADVERSARIAL_ROWS)
    real_write_json = pipeline.write_json

    def cut_off(out_dir, name, payload):
        if name != failing:
            return real_write_json(out_dir, name, payload)
        with open(os.path.join(out_dir, name), "r+b") as fh:
            fh.write(b"{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, "write_json", cut_off)
    with pytest.raises(OSError, match="No space left"):
        detect(small, tmp_path / "out", BENIGN_ROWS)
    finished = RUN_ORDER[: RUN_ORDER.index(failing)]
    assert artifact_bytes(tmp_path / "out") == {name: alone[name] for name in finished}


def test_a_replay_miss_leaves_no_verdict_of_the_earlier_contract(tmp_path):
    """``detect`` of a contract, then of another one that the same store
    cannot answer, into one output directory."""
    store = str(tmp_path / "store.jsonl")
    config = RunConfig(out_dir=str(tmp_path / "out"))
    scripted = ScriptedTransport(config.params(), ADVERSARIAL_ROWS)
    with closing(RecordTransport(scripted, store)) as recorder:
        run_detect(chunk_flat_text(FIXTURE_TEXT, "adv"), config, recorder)
    other = chunk_flat_text(BENIGN_TEXT, "other")
    with pytest.raises(ReplayMiss):
        run_detect(other, replace(config, transport="replay", store=store))
    run_static(other, RunConfig(out_dir=str(tmp_path / "static")))
    assert artifact_bytes(tmp_path / "out") == artifact_bytes(tmp_path / "static")


def test_a_failed_batch_contract_leaves_no_verdict_of_an_earlier_batch(tmp_path):
    """A rerun of a batch in which one contract's model half fails: its
    directory keeps the new static artifacts and nothing of the earlier
    contract of that id; the other contract's directory is whole."""
    store = str(tmp_path / "store.jsonl")
    descs = [chunk_flat_text(FIXTURE_TEXT, "a"), chunk_flat_text(BENIGN_TEXT, "b")]
    for desc, rows in zip(descs, (ADVERSARIAL_ROWS, BENIGN_ROWS)):
        config = RunConfig(out_dir=str(tmp_path / "seed" / desc.contract_id))
        with closing(RecordTransport(ScriptedTransport(config.params(), rows), store)) as t:
            run_detect(desc, config, t)
    config = RunConfig(
        transport="replay", store=store, out_dir=str(tmp_path / "batch"), concurrency=2
    )
    run_batch(descs, config)
    unanswered = chunk_flat_text(BENIGN_TEXT.replace("balanceOf", "balanceOf2"), "a")
    with pytest.raises(ReplayMiss):
        run_batch([unanswered, descs[1]], config)
    run_static(unanswered, RunConfig(out_dir=str(tmp_path / "static")))
    assert artifact_bytes(tmp_path / "batch" / "a") == artifact_bytes(tmp_path / "static")
    assert artifact_bytes(tmp_path / "batch" / "b") == artifact_bytes(tmp_path / "seed" / "b")


def test_assemble_bundle_uses_stage1_reasons(tmp_path):
    config = RunConfig(out_dir=str(tmp_path / "x"))
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    static = run_static(desc, config)
    stage1 = run_stage1(desc, ScriptedTransport(config.params(), ADVERSARIAL_ROWS))
    bundle = assemble_bundle(desc, static, stage1)
    assert bundle.contract_summary == "Moves funds through guarded external calls."
    assert [f.name for f in bundle.functions] == ["unknownfffcf3a1", "withdrawAll"]
    assert bundle.indicators == static.indicators
    assert len(bundle.paths) == 1


def test_no_parameter_unknown_function_placeholder(tmp_path):
    text = "function unknownaa():\nit transfers stor_1 wei to caller\n"
    config = RunConfig(out_dir=str(tmp_path / "x"))
    desc = chunk_flat_text(text, "c")
    static = run_static(desc, config)
    stage1 = run_stage1(desc, ScriptedTransport(config.params(), ADVERSARIAL_ROWS))
    bundle = assemble_bundle(desc, static, stage1)
    assert bundle.unknown_functions[0].parameters == "(no parameters)"


def test_run_batch_per_contract_directories(tmp_path):
    store = str(tmp_path / "store.jsonl")
    descs = [
        chunk_flat_text(FIXTURE_TEXT, "c_adv"),
        chunk_flat_text(BENIGN_TEXT, "c_ben"),
    ]
    # record both contracts into one store, then replay them as a batch
    for desc, rows in zip(descs, (ADVERSARIAL_ROWS, BENIGN_ROWS)):
        config = RunConfig(out_dir=str(tmp_path / "seed" / desc.contract_id))
        scripted = ScriptedTransport(config.params(), rows)
        run_detect(desc, config, transport=RecordTransport(scripted, store))

    batch_config = RunConfig(
        transport="replay", store=store, out_dir=str(tmp_path / "batch"), concurrency=2
    )
    verdicts = run_batch(descs, batch_config)
    assert verdicts["c_adv"].label == "adversarial"
    assert verdicts["c_ben"].label == "benign"
    for cid in ("c_adv", "c_ben"):
        assert os.path.exists(str(tmp_path / "batch" / cid / "verdict.json"))


def test_run_batch_rejects_a_repeated_contract_id(tmp_path, monkeypatch):
    """Two contracts with one id would write one output directory; the batch
    stops before any static half or query runs."""
    model = use_model(monkeypatch, CountingScripted(RunConfig().params(), ADVERSARIAL_ROWS))
    descs = [chunk_flat_text(FIXTURE_TEXT, "x"), chunk_flat_text(BENIGN_TEXT, "x")]
    config = record_config(tmp_path, concurrency=2)
    with pytest.raises(InvalidDescription, match="^contract id 'x' is given to more than one"):
        run_batch(descs, config)
    assert model.calls == 0
    assert not os.path.exists(config.out_dir) and not os.path.exists(config.store)


def test_open_model_validation(tmp_path):
    with pytest.raises(ValueError), open_model(RunConfig(transport="replay"), 1):
        pass
    with pytest.raises(ValueError), open_model(RunConfig(transport="record"), 1):
        pass
    with pytest.raises(ValueError):
        RunConfig(transport="teleport")
    with open_model(RunConfig(transport="live"), 3) as (live, _):
        assert isinstance(live, RecordTransport) and live.store_path is None
        assert isinstance(live.inner, LiveTransport) and live.inner.connections == 3
    store = tmp_path / "s.jsonl"
    store.write_text("")
    with open_model(RunConfig(transport="replay", store=str(store)), 4) as (replay, pool):
        assert isinstance(replay, RecordTransport) and replay.store_path is None
        assert isinstance(replay.inner, ReplayTransport) and pool is None
    with open_model(RunConfig(transport="record", store=str(store)), 1) as (record, _):
        assert isinstance(record, RecordTransport) and record.store_path == str(store)
        assert isinstance(record.inner, LiveTransport)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_tokens", 0),
        ("max_tokens", -5),
        ("max_tokens", 2.0),
        ("temperature", -0.5),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
    ],
)
def test_run_config_rejects_bad_sampling_parameters(field, value):
    with pytest.raises(UsageError, match=field):
        RunConfig(transport="record", store="s.jsonl", **{field: value})


def test_default_config_values():
    config = RunConfig()
    assert config.transport == "replay"
    assert config.model == "gpt-4o"
    assert config.endpoint == "https://api.openai.com/v1/chat/completions"
    assert config.api_key_env == "OPENAI_API_KEY"
    assert config.temperature == 0.0
    assert config.max_tokens == 1024
    assert config.concurrency == 4
    assert config.retries == 2
    assert config.limits().max_depth == 32
    assert config.limits().max_paths == 256


def _recorded_batch(tmp_path):
    """Four contracts, two of them repeats under other ids, recorded into one
    store; returns the descriptions and the store path."""
    store = str(tmp_path / "store.jsonl")
    specs = [
        ("c_adv", FIXTURE_TEXT, ADVERSARIAL_ROWS),
        ("c_ben", BENIGN_TEXT, BENIGN_ROWS),
        ("c_adv2", FIXTURE_TEXT, ADVERSARIAL_ROWS),
        ("c_ben2", BENIGN_TEXT, BENIGN_ROWS),
    ]
    descs = []
    for cid, text, rows in specs:
        desc = chunk_flat_text(text, cid)
        config = RunConfig(out_dir=str(tmp_path / "seed" / cid))
        scripted = ScriptedTransport(config.params(), rows)
        run_detect(desc, config, transport=RecordTransport(scripted, store))
        descs.append(desc)
    return descs, store


def test_run_batch_loads_the_replay_store_once(tmp_path, monkeypatch):
    descs, store = _recorded_batch(tmp_path)
    built = []

    class CountingReplay(ReplayTransport):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ReplayTransport", CountingReplay)
    config = RunConfig(
        transport="replay", store=store, out_dir=str(tmp_path / "batch"), concurrency=2
    )
    verdicts = run_batch(descs, config)
    assert len(built) == 1
    assert sorted(verdicts) == ["c_adv", "c_adv2", "c_ben", "c_ben2"]


def test_replay_batch_creates_only_the_batch_pool(tmp_path, monkeypatch):
    descs, store = _recorded_batch(tmp_path)
    created = count_pools(monkeypatch)
    config = RunConfig(
        transport="replay", store=store, out_dir=str(tmp_path / "batch"), concurrency=4
    )
    run_batch(descs, config)
    assert created == {"pipeline": 1, "probing": 0}


def test_batch_replay_artifacts_match_single_replays(tmp_path):
    descs, store = _recorded_batch(tmp_path)
    batch_out = tmp_path / "batch"
    run_batch(
        descs,
        RunConfig(transport="replay", store=store, out_dir=str(batch_out), concurrency=2),
    )
    for desc in descs:
        alone_out = tmp_path / "alone" / desc.contract_id
        config = RunConfig(transport="replay", store=store, out_dir=str(alone_out))
        run_detect(desc, config)
        for name in STATIC_NAMES + MODEL_NAMES:
            batch_bytes = (batch_out / desc.contract_id / name).read_bytes()
            assert batch_bytes == (alone_out / name).read_bytes(), (desc.contract_id, name)


class CountingScripted(ScriptedTransport):
    """The scripted model, counting the queries it answers."""

    def __init__(self, params, probe_rows):
        super().__init__(params, probe_rows)
        self.calls = 0
        self._lock = threading.Lock()

    def query(self, prompt, attempt=0):
        with self._lock:
            self.calls += 1
        return super().query(prompt, attempt)


def test_shared_record_transport_keeps_one_line_per_query(tmp_path, monkeypatch):
    """Many batch workers and stage threads ask through one RecordTransport;
    each distinct query is asked once and lands as one whole store line."""
    models = []

    def live(params, **_):
        models.append(CountingScripted(params, ADVERSARIAL_ROWS))
        return models[-1]

    monkeypatch.setattr(pipeline, "LiveTransport", live)
    descs = [chunk_flat_text(FIXTURE_TEXT, f"c{i:02d}") for i in range(12)]
    store = tmp_path / "store.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        recorded = run_batch(
            descs,
            RunConfig(
                transport="record",
                store=str(store),
                out_dir=str(tmp_path / "rec"),
                concurrency=6,
            ),
        )
    finally:
        sys.setswitchinterval(interval)
    # the twelve contracts are identical: one general and two function
    # summaries, then six probes, asked once for all of them
    lines = store.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 9
    assert [m.calls for m in models] == [9]
    assert all(json.loads(line)["response"] for line in lines)
    replayed = run_batch(
        descs,
        RunConfig(transport="replay", store=str(store), out_dir=str(tmp_path / "rep")),
    )
    assert replayed == recorded


class DriftingScripted(ScriptedTransport):
    """The scripted model, with stage-I summaries that differ on every call."""

    def __init__(self, params, probe_rows):
        super().__init__(params, probe_rows)
        self._calls = itertools.count(1)

    def query(self, prompt, attempt=0):
        text = super().query(prompt, attempt)
        if "Provide your 4 best guesses" in prompt:
            return text
        return f"{text} (draft {next(self._calls)})"


def test_record_batch_with_drifting_model_replays_byte_identically(tmp_path, monkeypatch):
    """Contracts that repeat a prompt get the answer the store keeps for it,
    so replaying a record batch reproduces every contract's artifacts."""
    monkeypatch.setattr(
        pipeline,
        "LiveTransport",
        lambda params, **_: DriftingScripted(params, ADVERSARIAL_ROWS),
    )
    descs = [chunk_flat_text(FIXTURE_TEXT, f"c{i}") for i in range(4)]
    store = str(tmp_path / "store.jsonl")
    rec, rep = tmp_path / "rec", tmp_path / "rep"
    run_batch(
        descs, RunConfig(transport="record", store=store, out_dir=str(rec), concurrency=4)
    )
    run_batch(
        descs, RunConfig(transport="replay", store=store, out_dir=str(rep), concurrency=4)
    )
    for desc in descs:
        for name in STATIC_NAMES + MODEL_NAMES:
            recorded = (rec / desc.contract_id / name).read_bytes()
            assert recorded == (rep / desc.contract_id / name).read_bytes(), (
                desc.contract_id,
                name,
            )


class SleepingModel(ScriptedTransport):
    """The scripted model after a sleep, counting the queries it answers and
    the most it had in flight at once. From call ``fail_from`` on, it raises."""

    def __init__(self, params, delay=0.05, fail_from=None):
        super().__init__(params, ADVERSARIAL_ROWS)
        self.delay = delay
        self.fail_from = fail_from
        self.calls = self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    def query(self, prompt, attempt=0):
        with self._lock:
            self.calls += 1
            call = self.calls
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay)
            if self.fail_from is not None and call >= self.fail_from:
                raise TransportError(f"call {call} refused")
            return super().query(prompt, attempt)
        finally:
            with self._lock:
                self.in_flight -= 1


def use_model(monkeypatch, model):
    """Make every transport the pipeline builds ask ``model``."""
    monkeypatch.setattr(pipeline, "LiveTransport", lambda params, **_: model)
    return model


def distinct_contracts(count):
    """Contracts that share no prompt: each has a function of its own."""
    return [
        chunk_flat_text(
            FIXTURE_TEXT + f"function extra{i}(param1):\nit returns stor_{i + 10}\n", f"c{i}"
        )
        for i in range(count)
    ]


def record_config(tmp_path, **overrides):
    return RunConfig(
        transport="record",
        store=str(tmp_path / "store.jsonl"),
        out_dir=str(tmp_path / "rec"),
        **overrides,
    )


def test_one_contract_batch_uses_the_whole_query_pool(tmp_path, monkeypatch):
    """A batch's N workers share N×N query threads, so a lone contract has
    more than N queries in flight."""
    model = use_model(monkeypatch, SleepingModel(RunConfig().params()))
    run_batch(distinct_contracts(1), record_config(tmp_path, concurrency=2))
    assert model.peak > 2


def test_batch_never_exceeds_n_times_n_queries_in_flight(tmp_path, monkeypatch):
    model = use_model(monkeypatch, SleepingModel(RunConfig().params(), delay=0.01))
    run_batch(distinct_contracts(6), record_config(tmp_path, concurrency=2))
    assert model.peak <= 4


def test_a_batch_frees_each_bundle_once_its_verdict_is_read(tmp_path, monkeypatch):
    """A batch keeps each contract's verdict, not its bundle: when a
    contract's bundle is assembled, at most the few before it that are still
    running or not yet read are alive."""
    use_model(monkeypatch, SleepingModel(RunConfig().params(), delay=0))
    refs, alive = [], []
    assemble = pipeline.assemble_bundle

    def watched(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        bundle = assemble(*args)
        refs.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(pipeline, "assemble_bundle", watched)
    run_batch(distinct_contracts(16), record_config(tmp_path, concurrency=2))
    assert len(alive) == 16 and max(alive) <= 6, alive


@pytest.mark.parametrize("contracts", [1, 6])
def test_record_batch_creates_two_pools_whatever_its_size(tmp_path, monkeypatch, contracts):
    """The batch's worker pool and its query pool, and no pool per stage."""
    created = count_pools(monkeypatch)
    use_model(monkeypatch, SleepingModel(RunConfig().params(), delay=0))
    run_batch(distinct_contracts(contracts), record_config(tmp_path, concurrency=2))
    assert created == {"pipeline": 1, "probing": 1}


@pytest.mark.parametrize("batch", [True, False])
def test_record_store_is_opened_once_and_closed_after_the_run(tmp_path, monkeypatch, batch):
    from fundflow import transport

    config = record_config(tmp_path, concurrency=2)
    handles = []

    def counting_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        if path == config.store:
            handles.append(handle)
        return handle

    monkeypatch.setattr(transport, "open", counting_open, raising=False)
    built = []  # keeps each transport alive, so only close() closes its store

    class Kept(RecordTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(pipeline, "RecordTransport", Kept)
    model = use_model(monkeypatch, SleepingModel(config.params(), delay=0))
    if batch:
        run_batch(distinct_contracts(3), config)
    else:
        run_detect(distinct_contracts(1)[0], config)
    assert len(Path(config.store).read_text(encoding="utf-8").splitlines()) == model.calls
    assert len(built) == len(handles) == 1
    assert handles[0].closed


def test_record_batch_failing_mid_way_leaves_whole_lines_and_resumes(tmp_path, monkeypatch):
    """A model that fails mid-batch leaves only whole store lines; a rerun
    asks only for the keys still missing, and the store then replays."""
    config = record_config(tmp_path, concurrency=2)
    descs = distinct_contracts(4)
    failing = use_model(monkeypatch, SleepingModel(config.params(), delay=0.001, fail_from=12))
    with pytest.raises(TransportError):
        run_batch(descs, config)
    ReplayTransport(config.store, config.params())  # CorruptStore on a torn line
    kept = len(Path(config.store).read_text(encoding="utf-8").splitlines())
    assert 0 < kept < failing.calls

    model = use_model(monkeypatch, SleepingModel(config.params(), delay=0))
    recorded = run_batch(descs, config)
    keys = [
        json.loads(line)["key"]
        for line in Path(config.store).read_text(encoding="utf-8").splitlines()
    ]
    assert len(keys) == len(set(keys)) == kept + model.calls
    replayed = run_batch(
        descs,
        RunConfig(transport="replay", store=config.store, out_dir=str(tmp_path / "rep")),
    )
    assert replayed == recorded


def count_pools(monkeypatch):
    """Count the thread pools ``pipeline`` and ``probing`` create, by module."""
    from concurrent.futures import ThreadPoolExecutor

    from fundflow import probing

    created = {"pipeline": 0, "probing": 0}

    def counting_pool(module):
        class Pool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created[module] += 1
                super().__init__(*args, **kwargs)

        return Pool

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", counting_pool("pipeline"))
    monkeypatch.setattr(probing, "ThreadPoolExecutor", counting_pool("probing"))
    return created


def test_run_detect_builds_one_pool_to_record_and_none_to_replay(tmp_path, monkeypatch):
    """The pool comes with the transport ``run_detect`` builds: one for both
    stages when it records, none when it replays."""
    created = count_pools(monkeypatch)
    use_model(monkeypatch, SleepingModel(RunConfig().params(), delay=0))
    desc = distinct_contracts(1)[0]
    config = record_config(tmp_path, concurrency=2)
    run_detect(desc, config)
    assert created == {"pipeline": 0, "probing": 1}

    created.update(pipeline=0, probing=0)
    run_detect(
        desc, RunConfig(transport="replay", store=config.store, out_dir=str(tmp_path / "rep"))
    )
    assert created == {"pipeline": 0, "probing": 0}


class ThreadWatchingScripted(ScriptedTransport):
    """The scripted model, noting every thread that queries it."""

    def __init__(self, params, probe_rows):
        super().__init__(params, probe_rows)
        self.threads = set()

    def query(self, prompt, attempt=0):
        self.threads.add(threading.current_thread())
        return super().query(prompt, attempt)


def test_passed_transport_without_a_pool_is_queried_inline(tmp_path):
    config = RunConfig(out_dir=str(tmp_path / "run"), concurrency=4)
    transport = ThreadWatchingScripted(config.params(), ADVERSARIAL_ROWS)
    verdict, _ = run_detect(chunk_flat_text(FIXTURE_TEXT, "c"), config, transport)
    assert verdict.label == "adversarial"
    assert transport.threads == {threading.current_thread()}


def test_passed_transport_overlaps_its_queries_on_the_passed_pool(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    from test_probing import OverlapTransport

    config = RunConfig(out_dir=str(tmp_path / "run"))
    transport = OverlapTransport(config.params(), ADVERSARIAL_ROWS)
    with ThreadPoolExecutor(max_workers=2) as pool:
        verdict, _ = run_detect(chunk_flat_text(FIXTURE_TEXT, "c"), config, transport, pool)
    assert verdict.label == "adversarial"
    assert transport.max_in_flight == 2
