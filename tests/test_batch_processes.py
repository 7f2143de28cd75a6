"""A batch's static halves run in forked worker processes, and the process
boundary changes nothing a caller can see: the same artifacts, the same
errors, and workers that fork before the model is opened or any thread of
the batch starts. ``conftest.no_process_left`` checks after every test that
no worker outlives it."""

import multiprocessing
import os
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from fundflow import pipeline
from fundflow.cli import main
from fundflow.description import ContractDescription, chunk_flat_text
from fundflow.errors import MalformedNesting
from fundflow.pipeline import RunConfig, run_batch, run_detect, run_static

from conftest import ADVERSARIAL_ROWS, FIXTURE_TEXT, ScriptedTransport
from test_pipeline import MODEL_NAMES, STATIC_NAMES, record_config, use_model

# a sentence two levels deeper than the one before it
BAD_NESTING = "function f(param1):\nit returns stor_1\n    it returns stor_2\n"


@pytest.fixture
def model(monkeypatch):
    return use_model(monkeypatch, ScriptedTransport(RunConfig().params(), ADVERSARIAL_ROWS))


def contracts():
    return [
        chunk_flat_text(FIXTURE_TEXT, "a"),
        chunk_flat_text(BAD_NESTING, "b"),
        chunk_flat_text(FIXTURE_TEXT, "c"),
    ]


def test_a_failing_static_half_leaves_every_other_contract_whole(tmp_path, model):
    descs = contracts()
    with pytest.raises(MalformedNesting) as alone:
        run_detect(descs[1], record_config(tmp_path / "alone"))
    config = record_config(tmp_path, concurrency=2)
    with pytest.raises(MalformedNesting) as batch:
        run_batch(descs, config)
    assert str(batch.value) == str(alone.value)
    for cid in ("a", "c"):
        for name in STATIC_NAMES + MODEL_NAMES:
            assert (tmp_path / "rec" / cid / name).is_file(), (cid, name)
    assert os.listdir(tmp_path / "rec" / "b") == ["description.json"]


def test_a_static_half_that_fails_in_its_worker_leaves_no_earlier_artifact(tmp_path, model):
    """Contract ``b`` first ran whole; a rerun of the batch in which its
    static half fails in a worker process leaves only its new
    ``description.json`` in its directory."""
    descs = contracts()
    whole = [descs[0], chunk_flat_text(FIXTURE_TEXT, "b"), descs[2]]
    config = record_config(tmp_path, concurrency=2)
    run_batch(whole, config)
    assert sorted(os.listdir(tmp_path / "rec" / "b")) == sorted(STATIC_NAMES + MODEL_NAMES)
    with pytest.raises(MalformedNesting):
        run_batch(descs, config)
    assert os.listdir(tmp_path / "rec" / "b") == ["description.json"]
    with pytest.raises(MalformedNesting):
        run_detect(descs[1], record_config(tmp_path / "alone"))
    alone = tmp_path / "alone" / "rec" / "description.json"
    assert (tmp_path / "rec" / "b" / "description.json").read_bytes() == alone.read_bytes()


def only_this_batch(out, descs):
    """Each contract's directory under ``out`` holds only static artifacts,
    each byte for byte the one ``run_static`` writes for that contract."""
    for desc in descs:
        alone = out.parent / "alone" / desc.contract_id
        run_static(desc, RunConfig(out_dir=str(alone)))
        for name in os.listdir(out / desc.contract_id):
            assert name in STATIC_NAMES, (desc.contract_id, name)
            kept = (out / desc.contract_id / name).read_bytes()
            assert kept == (alone / name).read_bytes(), (desc.contract_id, name)


def test_a_batch_whose_model_fails_to_open_keeps_no_earlier_verdict(tmp_path, model):
    """``a`` and ``b`` first ran whole; a rerun with a different ``a`` and a
    store that is missing raises, and leaves no artifact of the first run."""
    a, b = chunk_flat_text(FIXTURE_TEXT, "a"), chunk_flat_text(FIXTURE_TEXT, "b")
    store = record_config(tmp_path).store
    run_batch([a, b], record_config(tmp_path))
    outb = tmp_path / "outb"
    run_batch([a, b], RunConfig(transport="replay", store=store, out_dir=str(outb)))
    for cid in "ab":
        assert sorted(os.listdir(outb / cid)) == sorted(STATIC_NAMES + MODEL_NAMES)
    a2 = chunk_flat_text("function g(param1):\nit returns stor_1\n", "a")
    missing = str(tmp_path / "missing.jsonl")
    with pytest.raises(FileNotFoundError):
        run_batch([a2, b], RunConfig(transport="replay", store=missing, out_dir=str(outb)))
    only_this_batch(outb, [a2, b])


def test_a_failed_open_leaves_nothing_of_a_dropped_static_half(tmp_path, model):
    """With one worker, the static halves still queued when the model fails
    to open are dropped; their directories keep no earlier artifact."""
    first = [chunk_flat_text(FIXTURE_TEXT, f"c{i}") for i in range(6)]
    run_batch(first, record_config(tmp_path))
    out = tmp_path / "rec"
    again = [chunk_flat_text(f"function g(param{i}):\nit returns 0\n", f"c{i}") for i in range(6)]
    missing = str(tmp_path / "missing.jsonl")
    with pytest.raises(FileNotFoundError):
        run_batch(again, RunConfig(store=missing, out_dir=str(out), concurrency=1))
    only_this_batch(out, again)


def test_detect_of_a_directory_keeps_its_exit_code_and_message(tmp_path, model, capsys):
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    for desc, text in zip(contracts(), (FIXTURE_TEXT, BAD_NESTING, FIXTURE_TEXT)):
        (batch_dir / f"{desc.contract_id}.txt").write_text(text, encoding="utf-8")
    common = ["--transport", "record", "--store", str(tmp_path / "s.jsonl")]
    alone = main(["detect", "-i", str(batch_dir / "b.txt"), "-o", str(tmp_path / "o1"), *common])
    alone_err = capsys.readouterr().err
    code = main(["detect", "-i", str(batch_dir), "-o", str(tmp_path / "o2"), *common])
    assert (code, capsys.readouterr().err) == (alone, alone_err) == (1, alone_err)
    assert alone_err.startswith("error: in f(param1): sentence")


def before_static_half(monkeypatch, hook):
    """Make ``hook(desc, config)`` run first in each contract's static half."""
    static = pipeline.run_static

    def patched(desc, config):
        hook(desc, config)
        return static(desc, config)

    monkeypatch.setattr(pipeline, "run_static", patched)


def write_pid(desc, config):
    """Leave the id of the process that runs the static half, as ``pid``."""
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "pid"), "w") as fh:
        fh.write(str(os.getpid()))


def exit_on(contract_id):
    """A hook that ends the worker process running ``contract_id``'s static
    half; run in the test's own process, it raises instead."""
    test_process = os.getpid()

    def hook(desc, config):
        if desc.contract_id == contract_id:
            if os.getpid() == test_process:
                raise RuntimeError("the static half ran in the calling process")
            os._exit(1)

    return hook


def test_static_halves_run_in_worker_processes(tmp_path, model, monkeypatch):
    before_static_half(monkeypatch, write_pid)
    descs = [chunk_flat_text(FIXTURE_TEXT, f"c{i}") for i in range(4)]
    run_batch(descs, record_config(tmp_path, concurrency=2))
    pids = {(tmp_path / "rec" / d.contract_id / "pid").read_text() for d in descs}
    assert str(os.getpid()) not in pids and 1 <= len(pids) <= 2


def test_without_fork_the_threads_run_the_static_halves(tmp_path, model, monkeypatch):
    descs = [chunk_flat_text(FIXTURE_TEXT, f"c{i}") for i in range(3)]
    forked = run_batch(descs, record_config(tmp_path / "forked", concurrency=2))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    before_static_half(monkeypatch, write_pid)
    inline = run_batch(descs, record_config(tmp_path / "inline", concurrency=2))
    assert inline == forked
    for desc in descs:
        out = tmp_path / "inline" / "rec" / desc.contract_id
        assert (out / "pid").read_text() == str(os.getpid())
        for name in STATIC_NAMES + MODEL_NAMES:
            a = tmp_path / "forked" / "rec" / desc.contract_id / name
            assert a.read_bytes() == (out / name).read_bytes(), (desc.contract_id, name)


def test_a_worker_that_dies_fails_the_batch(tmp_path, model, monkeypatch):
    before_static_half(monkeypatch, exit_on("b"))
    descs = [chunk_flat_text(FIXTURE_TEXT, cid) for cid in "abc"]
    raised = []

    def batch():
        try:
            run_batch(descs, record_config(tmp_path, concurrency=2))
        except BrokenProcessPool as exc:
            raised.append(exc)

    caller = threading.Thread(target=batch, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "run_batch hangs on a dead worker"
    assert len(raised) == 1


def test_detect_of_a_directory_reports_a_dead_worker_in_one_line(
    tmp_path, model, monkeypatch, capsys
):
    before_static_half(monkeypatch, exit_on("a"))
    batch_dir = tmp_path / "contracts"
    batch_dir.mkdir()
    for cid in "ab":
        (batch_dir / f"{cid}.txt").write_text(FIXTURE_TEXT, encoding="utf-8")
    code = main(
        [
            "detect", "-i", str(batch_dir), "-o", str(tmp_path / "out"),
            "--transport", "record", "--store", str(tmp_path / "s.jsonl"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


# (threads alive, model opened) at each fork, while a test watches
_FORKS: list[list] = []


def _before_fork():
    if _FORKS:
        _FORKS[0].append((set(threading.enumerate()), _FORKS[1][0]))


os.register_at_fork(before=_before_fork)


def test_workers_fork_before_the_model_opens_or_a_thread_starts(tmp_path, model, monkeypatch):
    opened = [False]
    open_model = pipeline.open_model

    def watched(*args):
        opened[0] = True
        return open_model(*args)

    monkeypatch.setattr(pipeline, "open_model", watched)
    before = set(threading.enumerate())
    forks = []
    _FORKS[:] = [forks, opened]
    try:
        run_batch(
            [chunk_flat_text(FIXTURE_TEXT, f"c{i}") for i in range(4)],
            record_config(tmp_path, concurrency=2),
        )
    finally:
        _FORKS.clear()
    assert opened[0]
    assert forks == [(before, False)] * 2


class RefusesPickle(ContractDescription):
    """A description that cannot be sent to a worker process."""

    def __reduce__(self):
        raise TypeError("this description refuses to pickle")


def test_forked_workers_inherit_descriptions_that_refuse_to_pickle(tmp_path, model):
    """The workers take their jobs from the table they forked with, so a
    batch of descriptions that cannot be pickled gives the same verdicts
    and the same nine artifacts of each contract."""
    descs = [chunk_flat_text(FIXTURE_TEXT, f"c{i}") for i in range(3)]
    refusing = [RefusesPickle(d.contract_id, d.functions) for d in descs]
    with pytest.raises(TypeError):
        pickle.dumps(refusing[0])
    plain = run_batch(descs, record_config(tmp_path / "plain", concurrency=2))
    assert run_batch(refusing, record_config(tmp_path / "refusing", concurrency=2)) == plain
    for desc in descs:
        for name in STATIC_NAMES + MODEL_NAMES:
            a = tmp_path / "plain" / "rec" / desc.contract_id / name
            b = tmp_path / "refusing" / "rec" / desc.contract_id / name
            assert a.read_bytes() == b.read_bytes(), (desc.contract_id, name)
