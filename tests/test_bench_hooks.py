"""The benchmark's seams in the library must keep working.

``bench/spans.py`` wraps functions and classes by name in
``fundflow.pipeline``, ``fundflow.probing``, ``fundflow.description`` and
``fundflow.reachability``, and ``bench/run.py`` swaps the transports in
``fundflow.pipeline`` and drives ``chunk_flat_text``, ``run_detect`` and
``run_batch``. A refactor that drops or renames one of them would break the
benchmark, not the program; these tests catch that in the suite instead.
"""

import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module; its ``Runner`` replaces the transports
    in ``fundflow.pipeline``, which are put back after the test."""
    from fundflow import pipeline

    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.setattr(pipeline, "LiveTransport", pipeline.LiveTransport)
    monkeypatch.setattr(pipeline, "ReplayTransport", pipeline.ReplayTransport)
    import run

    return run


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import spans

    return spans


@pytest.mark.parametrize("batch", [True, False])
def test_tracer_installs_and_uninstalls_cleanly(spans, batch):
    tracer = spans.Tracer()
    try:
        tracer.install(batch=batch)
    finally:
        patched = list(tracer._patched)
        tracer.uninstall()
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_bench_runs_a_replayed_batch(bench_run, tmp_path):
    runner = bench_run.Runner(bench_run.WORKLOADS["batch_replay"], 1, str(tmp_path))
    runner.setup(0)
    runner.counter.value = 0
    runner.batch(None)
    assert (runner.attempted, runner.failed, runner.errors) == (64, 0, [])
    assert runner.counter.value > 0


def test_an_untraced_batch_phase_times_every_contract(bench_run, tmp_path):
    """The bench times a batch's contracts by wrapping ``pipeline.run_detect``,
    so ``run_batch`` must call it once per contract."""
    runner = bench_run.Runner(bench_run.WORKLOADS["batch_replay"], 1, str(tmp_path))
    runner.setup(0)
    contracts, _ = runner.phase(units=1)
    assert contracts == len(runner.samples) == 64
    assert (runner.failed, runner.errors) == (0, [])


def test_bench_runs_a_static_large_contract(bench_run, tmp_path):
    runner = bench_run.Runner(bench_run.WORKLOADS["static_large"], 1, str(tmp_path))
    runner.single(None)
    assert (runner.attempted, runner.failed, runner.errors) == (1, 0, [])
    assert runner.counter.value > 0


def test_a_traced_static_large_contract_reports_its_graph_and_paths(bench_run, spans, tmp_path):
    """``--trace 1`` reports the sizes of what ``transform``, the anchor,
    reach and enumeration functions return; one traced unit must give a
    positive figure for each."""
    runner = bench_run.Runner(bench_run.WORKLOADS["static_large"], 1, str(tmp_path))
    tracer = spans.Tracer()
    assert runner.phase(tracer, units=1)[0] == 1
    assert (runner.failed, runner.errors) == (0, [])
    metrics = spans.layer_metrics(tracer.spans, 1)
    for name in ("graph.nodes", "reachability.paths", "reachability.retained_ratio"):
        assert metrics[name] > 0, name
