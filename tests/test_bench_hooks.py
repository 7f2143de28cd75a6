"""The benchmark's tracer patches names in the library; they must all exist.

``bench/spans.py`` wraps functions and classes by name in
``fundflow.pipeline``, ``fundflow.probing``, ``fundflow.description`` and
``fundflow.reachability``. A refactor that drops or renames one of them
would break ``bench/run.py --trace 1`` with an AttributeError at install
time; this test catches that in the suite instead.
"""

import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


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
