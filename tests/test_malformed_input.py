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

from conftest import ADVERSARIAL_ROWS, FIXTURE_TEXT, ScriptedTransport

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


@example(json.dumps({"contract": "c", "functions": [{"signature": "f()", "sentences": 5}]}))
@example(json.dumps({"contract": "c", "functions": [{"signature": "f(\ud800)", "sentences": []}]}))
@example("[" * 100_000)
@settings(deadline=None)
@given(st.one_of(_values.map(json.dumps), st.text()))
def test_json_values_raise_only_fundflow_errors(value):
    """An accepted document also goes through the static half, which
    writes every string of it into the artifacts."""
    with tempfile.TemporaryDirectory() as out:
        try:
            run_static(description_from_json(value), RunConfig(out_dir=out))
        except FundflowError:
            pass


# -- inputs that re-enter the pipeline, through the command line -------------

# nested deeper than the JSON decoder recurses, or not, closed or not
_deep = st.builds(
    lambda depth, opener, closed: opener * depth + ("]" * depth if closed else ""),
    st.sampled_from([3, 1_000, 100_000]),
    st.sampled_from(["[", '{"a":', '{"distributions":[']),
    st.booleans(),
)
_label = st.one_of(
    st.sampled_from(["adversarial", "suspicion", "uncertain", "benign", "Benign"]), _scalar
)
_number = st.one_of(st.floats(), st.integers(-5, 200), _scalar)
_ranked = st.lists(st.one_of(st.tuples(_label, _number).map(list), _json), max_size=5)
_probes = st.fixed_dictionaries(
    {},
    optional={
        "distributions": st.one_of(
            st.lists(
                st.one_of(
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "probe": st.one_of(st.text(max_size=8), _scalar),
                            "ranked": _ranked,
                        },
                    ),
                    _json,
                ),
                max_size=6,
            ),
            _json,
        ),
        "failed": _json,
    },
)
# one JSONL row close to eval's or sweep's schema, or anything else
_row = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(st.sampled_from(["a", "b", "c"]), _scalar),
        "label": _label,
        "adv_score": _number,
    },
)
_line = st.one_of(_row.map(json.dumps), _json.map(json.dumps), _deep, st.text(max_size=30))
_jsonl = st.lists(_line, max_size=6).map("\n".join)
_config_line = st.one_of(
    st.builds(
        "{} = {}".format,
        st.sampled_from(
            [
                "max_depth", "max_paths", "threshold", "temperature", "max_tokens",
                "concurrency", "retries", "transport", "model", "unknown",
            ]
        ),
        st.one_of(
            st.text(max_size=12),
            st.integers(-3, 10**6).map(str),
            _deep,
            st.sampled_from(["nan", "inf", "-0", "1e400", "replay", "live"]),
        ),
    ),
    st.text(max_size=30),
)
_config = st.lists(_config_line, max_size=6).map("\n".join)


def _exit_code(args: list[str]) -> int:
    """``main``'s exit code; argparse ends in SystemExit, anything else fails."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def _write(work: str, name: str, content: str | bytes) -> str:
    path = os.path.join(work, name)
    with open(path, "wb") as fh:
        fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


@example(json.dumps({"distributions": [{"probe": "g", "ranked": [["benign", 1e308]] * 2}]}))
@example("[" * 100_000)
@settings(deadline=None, max_examples=60)
@given(st.one_of(_probes.map(json.dumps), _json.map(json.dumps), _deep, st.text(), st.binary()))
def test_probes_json_through_fuse_ends_in_an_exit_code(content):
    with tempfile.TemporaryDirectory() as work:
        path = _write(work, "probes.json", content)
        assert _exit_code(["fuse", "-i", path, "-o", os.path.join(work, "out")]) in (0, 1, 2, 3)


@example('{"id": "a", "label": "benign"}', "[" * 100_000)
@settings(deadline=None, max_examples=60)
@given(st.one_of(_jsonl, st.binary()), st.one_of(_jsonl, st.binary()))
def test_predictions_and_truth_through_eval_end_in_an_exit_code(predictions, truth):
    with tempfile.TemporaryDirectory() as work:
        preds = _write(work, "preds.jsonl", predictions)
        assert _exit_code(["eval", preds, _write(work, "truth.jsonl", truth)]) in (0, 1, 2, 3)


@example("[" * 100_000)
@settings(deadline=None, max_examples=60)
@given(st.one_of(_jsonl, st.binary()))
def test_scores_through_sweep_end_in_an_exit_code(scores):
    with tempfile.TemporaryDirectory() as work:
        path = _write(work, "scores.jsonl", scores)
        assert _exit_code(["sweep", "-i", path, "-o", os.path.join(work, "out")]) in (0, 1, 2, 3)


@example("max_paths = " + "[" * 100_000)
@settings(deadline=None, max_examples=60)
@given(st.one_of(_config, st.text(), st.binary()))
def test_config_file_through_flow_ends_in_an_exit_code(config):
    """``flow`` reads every config key and never opens a model, so no value
    in the file can reach an endpoint."""
    with tempfile.TemporaryDirectory() as work:
        description = _write(work, "c.txt", FIXTURE_TEXT)
        path = _write(work, "run.cfg", config)
        args = ["flow", "-i", description, "-o", os.path.join(work, "out"), "--config", path]
        assert _exit_code(args) in (0, 1, 2, 3)
