import pytest
from hypothesis import given, strategies as st

from fundflow import behavior as bh


def test_condition_prefixes():
    assert bh.classify_sentence("When (param1 > 0)") == "condition"
    assert bh.classify_sentence("it is required that caller == stor_0") == "condition"
    assert bh.classify_sentence("if stor_1 > 0") == "condition"
    assert bh.classify_sentence("while stor_2 < 10") == "condition"
    assert bh.classify_sentence("otherwise") == "condition"
    assert bh.classify_sentence("for each item in stor_5") == "condition"


def test_condition_prefix_is_word_bounded():
    # "iffy" must not look like an "if" condition
    assert bh.classify_sentence("iffy heuristics apply") == "unknown"
    assert bh.classify_sentence("whenever possible") == "unknown"


def test_behavior_examples():
    assert bh.classify_sentence("it transfers 100 wei to caller") == "behavior"
    assert bh.classify_sentence("qwzx blorp") == "unknown"


def test_parse_assignment():
    parsed = bh.parse_behavior("it updates the state variable stor_3 to param1")
    assert parsed.kind == bh.ASSIGNMENT
    assert parsed.fields == {"lhs": "stor_3", "rhs": "param1"}


def test_parse_external_call():
    parsed = bh.parse_behavior(
        "it triggers the external call to stor_2.swap(param1, stor_4)"
    )
    assert parsed.kind == bh.EXTERNAL_CALL
    assert parsed.fields["callee"] == "stor_2.swap"
    assert parsed.fields["args"] == ["param1", "stor_4"]


def test_parse_external_call_no_args():
    parsed = bh.parse_behavior("it triggers the external call to stor_2.sync()")
    assert parsed.fields["args"] == []


def test_parse_delegate_call():
    parsed = bh.parse_behavior("it delegates a call to stor_2.run(param1)")
    assert parsed.kind == bh.DELEGATE_CALL
    assert parsed.fields == {"callee": "stor_2.run", "args": ["param1"]}


def test_parse_contract_creation_without_salt():
    parsed = bh.parse_behavior(
        "it creates a new smart contract with creation code 0x6080, "
        "and gets a new address addr1"
    )
    assert parsed.kind == bh.CONTRACT_CREATION
    assert parsed.fields == {"code": "0x6080", "address": "addr1"}
    assert list(parsed.fields) == ["code", "address"]


def test_parse_contract_creation_with_salt():
    parsed = bh.parse_behavior(
        "it creates a new smart contract with creation code 0x6080 and salt s1, "
        "and gets a new address addr2"
    )
    assert parsed.fields["salt"] == "s1"
    parsed = bh.parse_behavior(
        "it creates a new smart contract with creation code 0x6080 and optional "
        "salt s2, and gets a new address addr3"
    )
    assert parsed.fields["salt"] == "s2"
    # artifact order, not the template's: the salt is captured before the address
    assert list(parsed.fields.items()) == [
        ("code", "0x6080"),
        ("address", "addr3"),
        ("salt", "s2"),
    ]


def test_parse_transfer():
    parsed = bh.parse_behavior("it transfers param2 wei to caller")
    assert parsed.kind == bh.TRANSFER
    assert parsed.fields == {"value": "param2", "recipient": "caller"}


def test_parse_transfer_with_gas():
    parsed = bh.parse_behavior("it transfers param2 wei to caller with gas 2300")
    assert parsed.fields == {"value": "param2", "recipient": "caller", "gas": "2300"}
    assert list(parsed.fields) == ["value", "recipient", "gas"]


def test_parse_return():
    parsed = bh.parse_behavior("it returns param1, stor_2")
    assert parsed.kind == bh.RETURN
    assert parsed.fields == {"args": ["param1", "stor_2"]}


def test_parse_log_emission():
    parsed = bh.parse_behavior("it emits the log event with parameter(s) v1, v2")
    assert parsed.kind == bh.LOG_EMISSION
    assert parsed.fields == {"args": ["v1", "v2"]}
    parsed = bh.parse_behavior("it emits the log event with parameters v1")
    assert parsed.fields == {"args": ["v1"]}
    parsed = bh.parse_behavior("it emits the log event with parameter v1 , v2,")
    assert parsed.fields == {"args": ["v1", "v2"]}


def test_parse_builtin_call():
    parsed = bh.parse_behavior("it calls a built-in function sha3")
    assert parsed.kind == bh.BUILTIN_CALL
    assert parsed.fields == {"name": "sha3"}


def test_catch_all_other():
    parsed = bh.parse_behavior("it reverts the whole transaction")
    assert parsed.kind == bh.OTHER
    assert parsed.fields == {}
    for text in (
        "it reverts the whole\ntransaction",
        "it returns a\nb",  # the return template does not cross a line break
        "it updates the state variable x to  ",  # nothing after "to"
        "it updates the state variable x to\t",
    ):
        parsed = bh.parse_behavior(text)
        assert (parsed.kind, parsed.fields) == (bh.OTHER, {}), repr(text)


def test_condition_beats_catch_all():
    # "it is required that ..." starts with "it" but is a condition
    assert bh.classify_sentence("it is required that stor_0 == caller") == "condition"


def test_parse_behavior_rejects_non_behavior():
    with pytest.raises(ValueError):
        bh.parse_behavior("completely free-form prose")


@given(st.text(max_size=200))
def test_classify_total(text):
    if not text.strip():
        return
    assert bh.classify_sentence(text) in {"behavior", "condition", "unknown"}


@given(st.sampled_from(bh.CONDITION_PREFIXES), st.text(max_size=40))
def test_condition_prefix_always_wins(prefix, rest):
    assert bh.classify_sentence(f"{prefix} {rest}") == "condition"


def _two_pass(text):
    """The classify-then-parse pair as the forest ran it before
    ``parse_sentence``: the behavior table is matched once per call."""
    stripped = text.strip()
    if bh._CONDITION_RE.match(stripped):
        return "condition", None
    if bh._match_behavior(stripped) is None:
        return "unknown", None
    return "behavior", bh._match_behavior(stripped)


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
    kind, parsed = bh.parse_sentence(text)
    assert bh.classify_sentence(text) == kind
    if kind == "behavior":
        assert bh.parse_behavior(text) == parsed
