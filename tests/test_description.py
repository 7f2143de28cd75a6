import json

import pytest
from hypothesis import example, given, strategies as st

from fundflow.description import (
    INDENT_WIDTH,
    ContractDescription,
    FunctionChunk,
    Sentence,
    chunk_flat_text,
    description_from_json,
    description_to_json,
    load_description,
    render_flat_text,
)
from fundflow.errors import InvalidDescription, NoFunctionsFound


def test_two_function_split():
    text = "function f1(a):\nit returns a\nfunction f2():\nit returns 0\n"
    desc = chunk_flat_text(text)
    assert [c.signature for c in desc.functions] == ["f1(a)", "f2()"]


def test_depths_from_indentation():
    text = (
        "function transfer(param1, param2):\n"
        "when (param1 > 0)\n"
        "  it updates the state variable stor_1 to param1\n"
        "    it returns param2\n"
    )
    desc = chunk_flat_text(text)
    chunk = desc.functions[0]
    assert chunk.signature == "transfer(param1, param2)"
    assert [s.depth for s in chunk.sentences] == [0, 1, 2]


def test_verbatim_sentence_preserved():
    text = (
        "function unknownfffcf3a1(param1):\n"
        "it is required that (0x268d...4080 == sha3(tx.origin))\n"
    )
    desc = chunk_flat_text(text)
    assert desc.functions[0].sentences[0].text == (
        "it is required that (0x268d...4080 == sha3(tx.origin))"
    )


def test_leading_lines_ignored():
    text = "contract 0xabc\nsome preamble\nfunction f():\nit returns 0\n"
    assert chunk_flat_text(text) == chunk_flat_text("function f():\nit returns 0\n")


def test_no_functions_found():
    with pytest.raises(NoFunctionsFound):
        chunk_flat_text("no headers here\njust prose\n")
    with pytest.raises(NoFunctionsFound):
        chunk_flat_text("   \n\n")


def test_duplicate_signature_rejected():
    text = "function f(a):\nit returns a\nfunction f(a):\nit returns a\n"
    with pytest.raises(InvalidDescription):
        chunk_flat_text(text)


def test_duplicate_signature_rejected_when_built_directly():
    chunk = FunctionChunk("f(a)", (Sentence("it returns a", 0),))
    with pytest.raises(InvalidDescription, match="duplicate function signature"):
        ContractDescription("c", [chunk, chunk])


@pytest.mark.parametrize("signature", ["(x)", "f( a )", "a b(c)", "f(a)\n"])
def test_a_signature_built_directly_must_be_normalised(signature):
    """A function without a name would scope its locals as globals."""
    chunk = FunctionChunk(signature, (Sentence("it updates the state variable t to x", 0),))
    with pytest.raises(InvalidDescription, match="is not 'name"):
        ContractDescription("c", [chunk])


@pytest.mark.parametrize(
    "line, error",
    [
        ("\tit transfers param1 wei to caller", "line 3: indentation must be spaces"),
        ("  \tit transfers param1 wei to caller", "line 3: indentation must be spaces"),
        ("   it transfers param1 wei to caller", "line 3: indentation of 3 spaces"),
    ],
)
def test_indentation_that_is_not_whole_levels_is_rejected(line, error):
    text = f"function f(param1):\nwhen (param1 > 0)\n{line}\n"
    with pytest.raises(InvalidDescription, match=error):
        chunk_flat_text(text)


@given(st.text(alphabet=" \t\u00a0\u3000", max_size=12))
def test_indentation_gives_its_exact_depth_or_invalid_description(prefix):
    text = f"function f(a):\nit returns a\n{prefix}it returns b\n"
    whole_levels = set(prefix) <= {" "} and len(prefix) % INDENT_WIDTH == 0
    try:
        desc = chunk_flat_text(text)
    except InvalidDescription as exc:
        assert not whole_levels
        assert "line 3: " in str(exc)
        return
    assert whole_levels
    assert desc.functions[0].sentences[1] == Sentence(
        "it returns b", len(prefix) // INDENT_WIDTH
    )


def test_signature_normalization():
    desc = chunk_flat_text("function f( a ,b ):\nit returns a\n")
    assert desc.functions[0].signature == "f(a, b)"
    assert desc.functions[0].parameters == ("a", "b")


def test_parameters_empty():
    desc = chunk_flat_text("function f():\nit returns 0\n")
    assert desc.functions[0].parameters == ()


def test_json_round_trip():
    desc = chunk_flat_text(
        "function f(a):\nwhen (a > 0)\n  it returns a\nfunction g():\nit returns 1\n",
        contract_id="c1",
    )
    again = description_from_json(description_to_json(desc))
    assert again == desc


def test_json_unknown_keys_rejected():
    doc = {"contract": "c", "functions": [], "extra": 1}
    with pytest.raises(InvalidDescription):
        description_from_json(json.dumps(doc))
    doc = {
        "contract": "c",
        "functions": [{"signature": "f()", "sentences": [], "bogus": True}],
    }
    with pytest.raises(InvalidDescription):
        description_from_json(json.dumps(doc))


def test_json_depth_validation():
    doc = {
        "contract": "c",
        "functions": [
            {"signature": "f()", "sentences": [{"text": "it returns 0", "depth": -1}]}
        ],
    }
    with pytest.raises(InvalidDescription):
        description_from_json(json.dumps(doc))
    doc = {"contract": "c", "functions": [{"signature": "f()", "sentences": 5}]}
    with pytest.raises(InvalidDescription, match="sentences must be a list"):
        description_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "function, error",
    [
        (5, "functions[0] must be an object"),
        (
            {"signature": "f()", "sentences": [{"text": "", "depth": 0}]},
            "functions[0].sentences[0].text must be a non-empty string",
        ),
        (
            {"signature": "f()", "sentences": ["it returns 0"]},
            "functions[0].sentences[0] must be an object",
        ),
    ],
    ids=["function_not_an_object", "empty_sentence_text", "sentence_not_an_object"],
)
def test_json_value_of_the_wrong_kind_rejected(function, error):
    with pytest.raises(InvalidDescription) as raised:
        description_from_json(json.dumps({"contract": "c", "functions": [function]}))
    assert str(raised.value) == error


def test_load_description_sniffs_json(tmp_path):
    desc = chunk_flat_text("function f():\nit returns 0\n", contract_id="c9")
    json_path = tmp_path / "c9.json"
    json_path.write_text(description_to_json(desc))
    text_path = tmp_path / "c9.txt"
    text_path.write_text("function f():\nit returns 0\n")
    assert load_description(str(json_path)) == desc
    loaded = load_description(str(text_path))
    assert loaded.contract_id == "c9"
    assert loaded.functions == desc.functions


@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_load_description_skips_a_byte_order_mark(tmp_path, suffix):
    desc = chunk_flat_text(
        "function f(a):\nit transfers a to the caller\nfunction g():\nit returns 0\n",
        contract_id="c",
    )
    text = render_flat_text(desc) if suffix == ".txt" else description_to_json(desc)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for folder, prefix in ((plain, b""), (marked, b"\xef\xbb\xbf")):
        folder.mkdir()
        (folder / f"c{suffix}").write_bytes(prefix + text.encode("utf-8"))
    loaded = load_description(str(marked / f"c{suffix}"))
    assert loaded == load_description(str(plain / f"c{suffix}")) == desc
    assert [f.name for f in loaded.functions] == ["f", "g"]


_word = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F),
    min_size=1,
    max_size=8,
)


@st.composite
def descriptions(draw):
    n_functions = draw(st.integers(min_value=1, max_value=4))
    chunks = []
    seen = set()
    for i in range(n_functions):
        name = f"fn{i}_{draw(_word)}"
        params = draw(st.lists(_word, max_size=3))
        sig = f"{name}({', '.join(dict.fromkeys(params))})"
        if sig in seen:
            continue
        seen.add(sig)
        sentences = []
        depth = 0
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            depth = draw(st.integers(min_value=0, max_value=min(depth + 1, 4)))
            sentences.append(Sentence(f"it returns {draw(_word)}", depth))
        chunks.append(FunctionChunk(sig, tuple(sentences)))
    return ContractDescription("c", chunks)


@given(descriptions())
def test_flat_text_round_trip(desc):
    rendered = render_flat_text(desc)
    again = chunk_flat_text(rendered, contract_id=desc.contract_id)
    assert again == desc


# Characters that decide whether a signature reads: identifier characters,
# parentheses, separators, and whitespace that does or does not end a line.
# Flat text is decoded UTF-8, so it holds no lone surrogate.
_SIGNATURE_CHARS = "fa_1\u00e9(),: \t\n\r\x0b\x1c\x1f\x85\xa0\u2028\u3000"
_signature_texts = st.one_of(
    st.text(_SIGNATURE_CHARS, max_size=12),
    st.text(st.characters(exclude_categories=["Cs"]), max_size=12),
    st.builds(
        "{}{}{}({}){}".format,
        st.text(" \t\n\xa0", max_size=2),
        st.sampled_from(["f", "_f1", "\u00e9", "1f", ""]),
        st.text(" \t\n\xa0", max_size=2),
        st.text(_SIGNATURE_CHARS, max_size=6),
        st.text(" \t\n)(", max_size=2),
    ),
)


@example("a b(c)")
@example("f(a)(b)")
@example("f(x))")
@example("(x)")
@example(" f (a)")
@example("g(x):\nfunction f(a)")
@example("x\nfunction f(a)")
@given(_signature_texts)
def test_both_encodings_accept_the_same_signatures(sig):
    """JSON accepts a signature iff flat text reads ``function <sig>:`` as
    one header; then both give the same description, which reads back from
    its flat text unchanged."""
    try:
        from_json = description_from_json(
            json.dumps({"contract": "c", "functions": [{"signature": sig, "sentences": []}]})
        )
    except InvalidDescription:
        from_json = None
    text = f"function {sig}:\n"
    try:
        from_text = chunk_flat_text(text, "c")
    except (InvalidDescription, NoFunctionsFound):
        from_text = None
    else:
        # only the header written above: a text read without error and of
        # one non-blank line is one function, with no sentence and no line
        # skipped before its header
        if sum(1 for line in text.splitlines() if line.strip()) != 1:
            from_text = None
    assert (from_json is None) == (from_text is None)
    if from_json is not None:
        assert from_json == from_text
        assert from_json.functions[0].name
        assert chunk_flat_text(render_flat_text(from_json), "c") == from_json
