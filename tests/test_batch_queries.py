"""A batch asks each distinct query key once, whatever its transport."""

import functools
import json
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundflow import pipeline
from fundflow.description import chunk_flat_text
from fundflow.errors import TransportError
from fundflow.pipeline import RunConfig, run_batch, run_detect
from fundflow.scripted import ranked_text
from fundflow.transport import ReplayTransport, query_key

from conftest import ADVERSARIAL_ROWS, BENIGN_ROWS, FIXTURE_TEXT, ScriptedTransport
from test_pipeline import BENIGN_TEXT

# contracts to draw batches from: the third shares every prompt of the
# first but one, and adds one of its own
POOL = (
    FIXTURE_TEXT,
    BENIGN_TEXT,
    FIXTURE_TEXT + "function extra(param1):\nit returns stor_9\n",
)


def batch_of(picks):
    return [chunk_flat_text(POOL[i], f"c{n}") for n, i in enumerate(picks)]


class PromptKeyedModel(ScriptedTransport):
    """The scripted model, answering a probe with the adversarial rows when
    its prompt mentions the fixture's flash loan and with the benign rows
    otherwise, so that contracts which differ get different verdicts. It
    counts its calls and the distinct keys asked; the first time it is
    asked a prompt holding ``fail``, it raises."""

    def __init__(self, params, fail=None):
        super().__init__(params, BENIGN_ROWS)
        self.fail = fail
        self.calls = 0
        self.keys = set()
        self._lock = threading.Lock()

    def query(self, prompt, attempt=0):
        with self._lock:
            self.calls += 1
            self.keys.add(query_key(prompt, self.params, attempt))
            failing = self.fail is not None and self.fail in prompt
            if failing:
                self.fail = None
        if failing:
            raise TransportError("no answer this time")
        if "Provide your 4 best guesses" in prompt:
            rows = ADVERSARIAL_ROWS if "flashLoan" in prompt else BENIGN_ROWS
            return ranked_text(rows[self._probe_kind(prompt)])
        return super().query(prompt, attempt)


@functools.cache
def alone(index):
    """The verdict and the query keys of ``POOL[index]`` run by itself,
    with the model passed in as the transport."""
    with tempfile.TemporaryDirectory() as out:
        config = RunConfig(out_dir=out)
        model = PromptKeyedModel(config.params())
        verdict, _ = run_detect(chunk_flat_text(POOL[index], "alone"), config, model)
    return verdict, frozenset(model.keys)


def live_batch(descs, out_dir, concurrency, model):
    with mock.patch.object(pipeline, "LiveTransport", lambda params, **_: model):
        return run_batch(
            descs, RunConfig(transport="live", out_dir=out_dir, concurrency=concurrency)
        )


def test_live_batch_asks_as_often_as_a_record_batch_writes_lines(tmp_path):
    descs = batch_of([0, 1, 2, 0, 1, 2, 2, 0, 1, 0, 2, 1])
    params = RunConfig().params()
    recorder = PromptKeyedModel(params)
    store = tmp_path / "store.jsonl"
    with mock.patch.object(pipeline, "LiveTransport", lambda params, **_: recorder):
        recorded = run_batch(
            descs,
            RunConfig(
                transport="record",
                store=str(store),
                out_dir=str(tmp_path / "rec"),
                concurrency=6,
            ),
        )
    model = PromptKeyedModel(params)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        verdicts = live_batch(descs, str(tmp_path / "live"), 6, model)
    finally:
        sys.setswitchinterval(interval)
    lines = store.read_text(encoding="utf-8").splitlines()
    assert model.calls == recorder.calls == len(lines) == len(model.keys)
    assert model.keys == {json.loads(line)["key"] for line in lines}
    assert verdicts == recorded


def test_replay_batch_looks_up_each_distinct_key_once(tmp_path):
    descs = batch_of([2, 0, 0, 1, 2, 1])
    store = str(tmp_path / "store.jsonl")
    model = PromptKeyedModel(RunConfig().params())
    with mock.patch.object(pipeline, "LiveTransport", lambda params, **_: model):
        recorded = run_batch(
            descs,
            RunConfig(transport="record", store=store, out_dir=str(tmp_path / "rec")),
        )
    looked_up = []

    class CountingReplay(ReplayTransport):
        def query(self, prompt, attempt=0):
            looked_up.append(query_key(prompt, self.params, attempt))
            return super().query(prompt, attempt)

    with mock.patch.object(pipeline, "ReplayTransport", CountingReplay):
        replayed = run_batch(
            descs,
            RunConfig(transport="replay", store=store, out_dir=str(tmp_path / "rep")),
        )
    assert sorted(looked_up) == sorted(model.keys)
    assert replayed == recorded


@settings(deadline=None, max_examples=25)
@given(
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6),
    concurrency=st.integers(1, 3),
)
def test_live_batch_calls_equal_distinct_keys_and_verdicts_equal_single_runs(
    picks, concurrency
):
    model = PromptKeyedModel(RunConfig().params())
    with tempfile.TemporaryDirectory() as out:
        verdicts = live_batch(batch_of(picks), out, concurrency, model)
    assert model.calls == len(frozenset().union(*(alone(i)[1] for i in picks)))
    assert verdicts == {f"c{n}": alone(i)[0] for n, i in enumerate(picks)}


def test_a_failed_query_is_asked_again_by_the_next_contract(tmp_path):
    """The first contract's general summary fails; the second contract,
    which sends the same prompt, asks it again and completes."""
    model = PromptKeyedModel(RunConfig().params(), fail="contract summary:")
    out = tmp_path / "live"
    with pytest.raises(TransportError):
        live_batch(batch_of([0, 0]), str(out), 1, model)
    assert not (out / "c0" / "verdict.json").exists()
    assert (out / "c1" / "verdict.json").exists()
    assert model.calls == len(alone(0)[1]) + 1


def test_a_failed_contract_cancels_none_queued_behind_it(tmp_path):
    """With threads switching as often as they can, the batch worker may
    not have taken the next contract yet when the first one fails."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(5):
            model = PromptKeyedModel(RunConfig().params(), fail="contract summary:")
            out = tmp_path / f"live{attempt}"
            with pytest.raises(TransportError):
                live_batch(batch_of([0, 1, 2]), str(out), 1, model)
            assert (out / "c1" / "verdict.json").exists()
            assert (out / "c2" / "verdict.json").exists()
    finally:
        sys.setswitchinterval(interval)
