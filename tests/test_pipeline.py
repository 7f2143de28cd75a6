import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from fundflow.description import chunk_flat_text
from fundflow import pipeline
from fundflow.errors import ReplayMiss, TransportError
from fundflow.pipeline import (
    RunConfig,
    assemble_bundle,
    make_transport,
    run_batch,
    run_detect,
    run_static,
    write_json,
)
from fundflow.probing import run_stage1
from fundflow.reachability import render_path
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
    for name, payload in written.items():
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            assert fh.read().count("\n") == 1, name
        assert read_json(out, name) == payload, name


def test_paths_rendered_once_for_both_consumers(tmp_path):
    out = str(tmp_path / "run")
    config = RunConfig(out_dir=out)
    desc = chunk_flat_text(FIXTURE_TEXT, "fixture")
    static = run_static(desc, config)
    assert static.rendered_paths == [render_path(p) for p in static.enumeration.paths]
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


def test_make_transport_validation(tmp_path):
    with pytest.raises(ValueError):
        make_transport(RunConfig(transport="replay", store=None))
    with pytest.raises(ValueError):
        make_transport(RunConfig(transport="record", store=None))
    with pytest.raises(ValueError):
        make_transport(RunConfig(transport="teleport"))
    assert isinstance(make_transport(RunConfig(transport="live")), LiveTransport)
    store = tmp_path / "s.jsonl"
    store.write_text("")
    replay = make_transport(RunConfig(transport="replay", store=str(store)))
    assert isinstance(replay, ReplayTransport)
    record = make_transport(RunConfig(transport="record", store=str(store)))
    assert isinstance(record, RecordTransport)


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
    from concurrent.futures import ThreadPoolExecutor

    from fundflow import probing

    descs, store = _recorded_batch(tmp_path)
    created = {"pipeline": 0, "probing": 0}

    def counting_pool(module):
        class Pool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created[module] += 1
                super().__init__(*args, **kwargs)

        return Pool

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", counting_pool("pipeline"))
    monkeypatch.setattr(probing, "ThreadPoolExecutor", counting_pool("probing"))
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


@pytest.mark.parametrize("contracts", [1, 6])
def test_record_batch_creates_two_pools_whatever_its_size(tmp_path, monkeypatch, contracts):
    """The batch's worker pool and its query pool, and no pool per stage."""
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
