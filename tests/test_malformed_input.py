"""Malformed input ends in a FundflowError and never in any other exception."""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from fundflow import pipeline
from fundflow.cli import main
from fundflow.description import chunk_flat_text, description_from_json
from fundflow.errors import FundflowError
from fundflow.pipeline import RunConfig, run_static

from conftest import ADVERSARIAL_ROWS, ScriptedTransport

# Words of the sentence templates, so that generated text reaches the
# header, condition and behavior parsers and not only their fallbacks.
_TEMPLATE_WORDS = (
    "it", "updates", "the", "state", "variable", "to", "triggers", "external",
    "call", "delegates", "a", "creates", "new", "smart", "contract", "with",
    "creation", "code", "and", "optional", "salt", ", and gets a new address",
    "transfers", "wei", "gas", "returns", "emits", "log", "event",
    "parameter(s)", "calls", "built-in", "function", "when", "if", "while",
    "otherwise", "for each", "it is required that", "stor_1", "stor_2.flashLoan(a)",
    "caller", "call value", "msg.value", "tx.origin", "0x1f", "0x26...80", "42",
    "'s'", "true", "a", "b", "param1", ",", "(", ")", ":",
)

_word = st.one_of(st.sampled_from(_TEMPLATE_WORDS), st.text(max_size=6))
_sentence = st.builds(
    lambda depth, words: "  " * depth + " ".join(words),
    st.integers(0, 4),
    st.lists(_word, max_size=9),
)
_header = st.builds(
    lambda name, params: f"function {name}({', '.join(params)}):",
    st.sampled_from(["f", "g", "unknownab", "setBot"]),
    st.lists(st.sampled_from(["a", "b", "param1", "0x1", "caller", " "]), max_size=3),
)
_soup = st.lists(st.one_of(_header, _sentence, st.text(max_size=30)), max_size=25).map(
    "\n".join
)


@settings(deadline=None)
@given(st.one_of(st.text(), _soup))
def test_text_through_static_half_raises_only_fundflow_errors(text):
    with tempfile.TemporaryDirectory() as out:
        try:
            run_static(chunk_flat_text(text, "c"), RunConfig(out_dir=out))
        except FundflowError:
            pass


def _scripted_live(params, **_):
    return ScriptedTransport(params, ADVERSARIAL_ROWS)


@settings(deadline=None, max_examples=50)
@given(st.one_of(st.text(), _soup))
def test_text_through_detect_ends_in_an_exit_code(text):
    """The whole pipeline, from the command line, recording from the
    scripted model: a verdict (0 or 3) or a typed error (1), never a raise."""
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "LiveTransport", _scripted_live)
        path = os.path.join(work, "c.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = ["detect", "-i", path, "-o", os.path.join(work, "out")]
        store = os.path.join(work, "store.jsonl")
        assert main(args + ["--transport", "record", "--store", store]) in (0, 1, 3)


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=10),
)
_json = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)
# text that may hold lone surrogates (category Cs), which UTF-8 cannot encode
_odd_text = st.text(st.characters(categories=["Cs"]) | st.characters(), min_size=1, max_size=10)
# documents close to the schema, so the checks past the first few are reached
_sentence_obj = st.fixed_dictionaries(
    {},
    optional={
        "text": st.one_of(st.just("it returns a"), _odd_text.map("it returns {}".format), _scalar),
        "depth": st.one_of(st.integers(-1, 3), _scalar),
    },
)
_function = st.fixed_dictionaries(
    {},
    optional={
        "signature": st.one_of(
            st.sampled_from(["f()", "g(a, b)", "h(", "x"]), _odd_text.map("f({})".format), _scalar
        ),
        "sentences": st.one_of(st.lists(st.one_of(_sentence_obj, _json), max_size=3), _json),
    },
)
_document = st.fixed_dictionaries(
    {},
    optional={
        "contract": st.one_of(st.just("c"), _odd_text, _scalar),
        "functions": st.one_of(st.lists(st.one_of(_function, _json), max_size=3), _json),
    },
)
_values = st.one_of(_json, _document)


@example({"contract": "c", "functions": [{"signature": "f()", "sentences": 5}]})
@example({"contract": "c", "functions": [{"signature": "f(\ud800)", "sentences": []}]})
@example("[" * 100_000)
@settings(deadline=None)
@given(st.one_of(_values, _values.map(json.dumps), st.text()))
def test_json_values_raise_only_fundflow_errors(value):
    """An accepted document also goes through the static half, which
    writes every string of it into the artifacts."""
    with tempfile.TemporaryDirectory() as out:
        try:
            run_static(description_from_json(value), RunConfig(out_dir=out))
        except FundflowError:
            pass
