from hypothesis import given, strategies as st

from fundflow import behavior as bh


def test_condition_prefixes():
    assert bh.parse_sentence("When (param1 > 0)")[0] == "condition"
    assert bh.parse_sentence("it is required that caller == stor_0")[0] == "condition"
    assert bh.parse_sentence("if stor_1 > 0")[0] == "condition"
    assert bh.parse_sentence("while stor_2 < 10")[0] == "condition"
    assert bh.parse_sentence("otherwise")[0] == "condition"
    assert bh.parse_sentence("for each item in stor_5")[0] == "condition"


def test_condition_prefix_is_word_bounded():
    # "iffy" must not look like an "if" condition
    assert bh.parse_sentence("iffy heuristics apply")[0] == "unknown"
    assert bh.parse_sentence("whenever possible")[0] == "unknown"


def test_behavior_examples():
    assert bh.parse_sentence("it transfers 100 wei to caller")[0] == "behavior"
    assert bh.parse_sentence("qwzx blorp")[0] == "unknown"


def test_parse_assignment():
    parsed = bh.parse_sentence("it updates the state variable stor_3 to param1")[1]
    assert parsed.kind == bh.ASSIGNMENT
    assert parsed.fields == {"lhs": "stor_3", "rhs": "param1"}


def test_parse_external_call():
    parsed = bh.parse_sentence(
        "it triggers the external call to stor_2.swap(param1, stor_4)"
    )[1]
    assert parsed.kind == bh.EXTERNAL_CALL
    assert parsed.fields["callee"] == "stor_2.swap"
    assert parsed.fields["args"] == ["param1", "stor_4"]


def test_parse_external_call_no_args():
    parsed = bh.parse_sentence("it triggers the external call to stor_2.sync()")[1]
    assert parsed.fields["args"] == []


def test_parse_delegate_call():
    parsed = bh.parse_sentence("it delegates a call to stor_2.run(param1)")[1]
    assert parsed.kind == bh.DELEGATE_CALL
    assert parsed.fields == {"callee": "stor_2.run", "args": ["param1"]}


def test_parse_contract_creation_without_salt():
    parsed = bh.parse_sentence(
        "it creates a new smart contract with creation code 0x6080, "
        "and gets a new address addr1"
    )[1]
    assert parsed.kind == bh.CONTRACT_CREATION
    assert parsed.fields == {"code": "0x6080", "address": "addr1"}
    assert list(parsed.fields) == ["code", "address"]


def test_parse_contract_creation_with_salt():
    parsed = bh.parse_sentence(
        "it creates a new smart contract with creation code 0x6080 and salt s1, "
        "and gets a new address addr2"
    )[1]
    assert parsed.fields["salt"] == "s1"
    parsed = bh.parse_sentence(
        "it creates a new smart contract with creation code 0x6080 and optional "
        "salt s2, and gets a new address addr3"
    )[1]
    assert parsed.fields["salt"] == "s2"
    # artifact order, not the template's: the salt is captured before the address
    assert list(parsed.fields.items()) == [
        ("code", "0x6080"),
        ("address", "addr3"),
        ("salt", "s2"),
    ]


def test_parse_transfer():
    parsed = bh.parse_sentence("it transfers param2 wei to caller")[1]
    assert parsed.kind == bh.TRANSFER
    assert parsed.fields == {"value": "param2", "recipient": "caller"}


def test_parse_transfer_with_gas():
    parsed = bh.parse_sentence("it transfers param2 wei to caller with gas 2300")[1]
    assert parsed.fields == {"value": "param2", "recipient": "caller", "gas": "2300"}
    assert list(parsed.fields) == ["value", "recipient", "gas"]


def test_parse_return():
    parsed = bh.parse_sentence("it returns param1, stor_2")[1]
    assert parsed.kind == bh.RETURN
    assert parsed.fields == {"args": ["param1", "stor_2"]}


def test_parse_log_emission():
    parsed = bh.parse_sentence("it emits the log event with parameter(s) v1, v2")[1]
    assert parsed.kind == bh.LOG_EMISSION
    assert parsed.fields == {"args": ["v1", "v2"]}
    parsed = bh.parse_sentence("it emits the log event with parameters v1")[1]
    assert parsed.fields == {"args": ["v1"]}
    parsed = bh.parse_sentence("it emits the log event with parameter v1 , v2,")[1]
    assert parsed.fields == {"args": ["v1", "v2"]}


def test_parse_builtin_call():
    parsed = bh.parse_sentence("it calls a built-in function sha3")[1]
    assert parsed.kind == bh.BUILTIN_CALL
    assert parsed.fields == {"name": "sha3"}


def test_catch_all_other():
    parsed = bh.parse_sentence("it reverts the whole transaction")[1]
    assert parsed.kind == bh.OTHER
    assert parsed.fields == {}
    for text in (
        "it reverts the whole\ntransaction",
        "it returns a\nb",  # the return template does not cross a line break
        "it updates the state variable x to  ",  # nothing after "to"
        "it updates the state variable x to\t",
    ):
        parsed = bh.parse_sentence(text)[1]
        assert (parsed.kind, parsed.fields) == (bh.OTHER, {}), repr(text)


def test_condition_beats_catch_all():
    # "it is required that ..." starts with "it" but is a condition
    assert bh.parse_sentence("it is required that stor_0 == caller")[0] == "condition"


def test_parse_behavior_rejects_non_behavior():
    assert bh.parse_sentence("completely free-form prose") == ("unknown", None)


@given(st.text(max_size=200))
def test_classify_total(text):
    if not text.strip():
        return
    assert bh.parse_sentence(text)[0] in {"behavior", "condition", "unknown"}


@given(st.sampled_from(bh.CONDITION_PREFIXES), st.text(max_size=40))
def test_condition_prefix_always_wins(prefix, rest):
    assert bh.parse_sentence(f"{prefix} {rest}")[0] == "condition"


def _ordered_scan(stripped):
    """The reference grammar: the first row of ``_TEMPLATES`` whose template
    matches all of ``stripped``, tried in table order."""
    for kind, template, slots in bh._TEMPLATES:
        m = template.fullmatch(stripped)
        if m:
            fields = {slot: m[slot] for slot in slots if m[slot] is not None}
            if "args" in fields:
                fields["args"] = [a.strip() for a in fields["args"].split(",") if a.strip()]
            return bh.ParsedBehavior(kind, fields)
    return None


def _two_pass(text):
    """The classify-then-parse pair as the forest ran it before
    ``parse_sentence``, with the behavior table scanned in order."""
    stripped = text.strip()
    if bh._CONDITION_RE.match(stripped):
        return "condition", None
    if _ordered_scan(stripped) is None:
        return "unknown", None
    return "behavior", _ordered_scan(stripped)


_TEMPLATE_HEADS = bh.CONDITION_PREFIXES + (
    "it updates the state variable stor_1 to",
    "it triggers the external call to stor_2.f(",
    "it delegates a call to g(",
    "it creates a new smart contract with creation code c",
    "it transfers",
    "it returns",
    "it emits the log event with parameter(s)",
    "it calls a built-in function",
    "it",
    " It",
)


@given(
    st.one_of(
        st.text(max_size=200),
        st.builds(
            "{} {}".format, st.sampled_from(_TEMPLATE_HEADS), st.text(max_size=60)
        ),
    )
)
def test_parse_sentence_matches_two_pass(text):
    assert bh.parse_sentence(text) == _two_pass(text)


# one sentence of each template, whose words are recombined with the
# characters the templates' case folding maps onto ASCII letters: dotless
# and dotted I, long s and the Kelvin sign
_TEMPLATE_SENTENCES = (
    "it updates the state variable stor_1 to param1",
    "it triggers the external call to stor_2.f(a, b)",
    "it delegates a call to g()",
    "it creates a new smart contract with creation code c and optional salt s, "
    "and gets a new address a",
    "it transfers v wei to r with gas 2300",
    "it returns x, y",
    "it emits the log event with parameter(s) p",
    "it calls a built-in function sha3(x)",
    "it seeks the kelvin sign",
    "when it is required that its sit",
)


def _refold(word, draw_bits):
    """``word`` with each letter in a random case, and some letters swapped
    for a character that folds to it."""
    out = []
    for ch, bits in zip(word, draw_bits):
        if ch == "i" and bits % 5 == 0:
            ch = "ı" if bits % 2 else "İ"
        elif ch == "s" and bits % 5 == 0:
            ch = "ſ"
        elif ch == "k" and bits % 5 == 0:
            ch = "\u212a"
        elif bits % 2:
            ch = ch.upper()
        out.append(ch)
    return "".join(out)


_gap = st.sampled_from((" ",) * 12 + ("  ", "\t", " \n ", "\u00a0"))


@st.composite
def _refolded_sentences(draw):
    """A template sentence, or a shuffle of all their words, refolded word
    by word and joined by random whitespace, after a random opening."""
    words = draw(st.sampled_from(_TEMPLATE_SENTENCES)).split()
    if draw(st.booleans()):
        words = draw(st.permutations(" ".join(_TEMPLATE_SENTENCES).split()))[:12]
    text = draw(st.sampled_from(("", "", " ", "\t", "It ", "ıt ", "the ", "ſo ", "it  ")))
    for word in words:
        bits = draw(st.lists(st.integers(0, 9), min_size=len(word), max_size=len(word)))
        text += _refold(word, bits) + draw(_gap)
    return text


@given(_refolded_sentences())
def test_verb_dispatch_matches_ordered_scan(text):
    assert bh.parse_sentence(text) == _two_pass(text)


def test_verb_dispatch_folds_case_as_the_templates_do():
    assert bh.parse_sentence("ıt updates the state variable stor_1 to param1") == (
        "behavior",
        bh.ParsedBehavior(bh.ASSIGNMENT, {"lhs": "stor_1", "rhs": "param1"}),
    )
    parsed = bh.parse_sentence("İT TRANſFERS v WEI TO r")[1]
    assert parsed == bh.ParsedBehavior(bh.TRANSFER, {"value": "v", "recipient": "r"})
    assert bh.parse_sentence("it  updates the state variable a to b")[1].kind == bh.OTHER
