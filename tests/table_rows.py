"""One check per behavior kind: sentence in, expected propagation tuple out.

Shared by the unit suite and the acceptance suite so the per-kind conformance
count comes from a single source of truth.
"""

from fundflow.behavior import parse_sentence
from fundflow.entities import EntityId, OPERATION, extract_tuple

SCOPE = "f"


def _var(name, scope=SCOPE):
    return EntityId(scope=scope, name=name)


def _op(label, occurrence=1):
    return EntityId(scope=SCOPE, name=label, flavor=OPERATION, occurrence=occurrence)


ROW_SENTENCES = {
    "assignment": "it updates the state variable stor_1 to x",
    "external_call": "it triggers the external call to stor_5.flashLoan(param1, 0x0)",
    "delegate_call": "it delegates a call to stor_2.impl(data)",
    "contract_creation": (
        "it creates a new smart contract with creation code 0x6080 and salt s1, "
        "and gets a new address addr"
    ),
    "transfer": "it transfers amount wei to caller",
    "return": "it returns x",
    "log_emission": "it emits the log event with parameter(s) x, y",
    "builtin_call": "it calls a built-in function sha3(x)",
    "other": "it reverts",
}

ROW_EXPECTED = {
    "assignment": ((_var("x"),), EntityId(scope="", name="stor_1")),
    "external_call": ((_var("param1"),), _op("stor_5.flashLoan")),
    "delegate_call": ((_var("data"),), _op("delegatecall")),
    "contract_creation": ((_var("s1"),), _var("addr")),
    "transfer": ((_var("amount"),), _op("transfer")),
    "return": ((), None),
    "log_emission": ((), None),
    "builtin_call": ((), None),
    "other": ((), None),
}

ROW_KINDS = tuple(ROW_SENTENCES)


def check_row(kind):
    """Parse the row's sentence and assert kind, sources, and destination."""
    parsed = parse_sentence(ROW_SENTENCES[kind])[1]
    assert parsed.kind == kind, f"{kind}: parsed as {parsed.kind}"
    got = extract_tuple(parsed, SCOPE, {}, {})
    want_sources, want_dst = ROW_EXPECTED[kind]
    assert got.sources == want_sources, f"{kind}: sources {got.sources}"
    assert got.dst == want_dst, f"{kind}: dst {got.dst}"
