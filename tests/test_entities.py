import pytest
from hypothesis import given, settings, strategies as st

from fundflow.behavior import parse_sentence
from fundflow.description import chunk_flat_text, function_scopes
from fundflow.entities import (
    EntityId,
    OPERATION,
    VARIABLE,
    extract_tuple,
    is_constant,
    is_global_name,
    resolve_sources,
)
from fundflow.forest import build_forest

from contracts import contracts, flat_text
from table_rows import ROW_KINDS, check_row


@pytest.mark.parametrize(
    "raw",
    ["0", "42", "-3.5", "+7", "0xdeadBEEF", "0x268d...4080", "0x", "'sig'", "''", '""', '"x"', "true", "FALSE", "", "   "],
)
def test_is_constant_true(raw):
    assert is_constant(raw)


@pytest.mark.parametrize(
    "raw",
    ["x", "param1", "stor_1", "msg.sender", "caller", "0xzz", "truely", "a'b"],
)
def test_is_constant_false(raw):
    assert not is_constant(raw)


@pytest.mark.parametrize(
    "name", ["stor_0", "stor_15", "msg.sender", "tx.origin", "address(this).balance", "stor_5.flashLoan", "caller", "call value"]
)
def test_global_names(name):
    assert is_global_name(name)


@pytest.mark.parametrize("name", ["param1", "x", "amount", "storage", "callerx"])
def test_local_names(name):
    assert not is_global_name(name)


def normalize_entity(raw, scope):
    """The one entity a mention names."""
    (entity,) = resolve_sources((raw,), scope, {})
    return entity


def test_normalize_local():
    ent = normalize_entity("param1", "transfer")
    assert ent == EntityId(scope="transfer", name="param1", flavor=VARIABLE)
    assert ent.key == "transfer:param1"
    assert ent.display == "transfer:param1"


def test_normalize_global():
    ent = normalize_entity("stor_3", "withdrawAll")
    assert ent.scope == ""
    assert ent.key == "stor_3"
    assert ent.display == "stor_3"


def test_normalize_rejects_literal():
    """A literal names no entity, so a behavior whose destination is one
    carries no flow, sources included."""
    assert resolve_sources(("42",), "f", {}) == ()
    for text in (
        "it updates the state variable 0 to param1",
        "it creates a new smart contract with creation code c and salt s, "
        "and gets a new address 0x1234",
    ):
        assert extract_tuple(parse_sentence(text)[1], "f", {}, {}) == ((), None)


def test_same_name_different_scope_distinct():
    a = normalize_entity("x", "f")
    b = normalize_entity("x", "g")
    assert a != b and a.key != b.key


def test_operation_display_is_bare_label():
    op = EntityId(scope="f", name="stor_5.flashLoan", flavor=OPERATION, occurrence=1)
    assert op.display == "stor_5.flashLoan"
    assert op.key == "f:stor_5.flashLoan#1"


@pytest.mark.parametrize("kind", ROW_KINDS)
def test_table_row(kind):
    check_row(kind)


def test_sources_skip_constants_and_dedup():
    parsed = parse_sentence(
        "it triggers the external call to stor_5.flashLoan(param1, 0x0, param1, amt)"
    )[1]
    got = extract_tuple(parsed, "f", {}, {})
    assert got.sources == (EntityId("f", "param1"), EntityId("f", "amt"))


def test_transfer_recipient_not_a_source():
    parsed = parse_sentence("it transfers 100 wei to caller")[1]
    got = extract_tuple(parsed, "f", {}, {})
    assert got.sources == ()
    assert got.dst == EntityId("f", "transfer", OPERATION, 1)


def test_creation_code_not_a_source():
    parsed = parse_sentence(
        "it creates a new smart contract with creation code codevar, and gets a new address addr"
    )[1]
    got = extract_tuple(parsed, "f", {}, {})
    assert got.sources == ()  # no salt given; code never feeds the address
    assert got.dst == EntityId("f", "addr")


def test_occurrence_numbering_per_label():
    counts, resolved = {}, {}
    first = extract_tuple(
        parse_sentence("it triggers the external call to stor_5.flashLoan(x)")[1],
        "f",
        counts,
        resolved,
    )
    second = extract_tuple(
        parse_sentence("it triggers the external call to stor_5.flashLoan(y)")[1],
        "f",
        counts,
        resolved,
    )
    third = extract_tuple(parse_sentence("it transfers v wei to caller")[1], "f", counts, resolved)
    assert first.dst.occurrence == 1
    assert second.dst.occurrence == 2
    assert third.dst.occurrence == 1  # separate label, separate counter


def test_occurrence_resets_per_function():
    resolved = {}
    a = extract_tuple(parse_sentence("it transfers v wei to caller")[1], "f", {}, resolved)
    b = extract_tuple(parse_sentence("it transfers v wei to caller")[1], "g", {}, resolved)
    assert a.dst.occurrence == b.dst.occurrence == 1
    assert a.dst != b.dst  # scope keeps them distinct nodes


_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: not is_constant(s)
)
_SCOPES = st.from_regex(r"[a-zA-Z_]\w{0,8}", fullmatch=True)


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_integers_are_constants(n):
    assert is_constant(str(n))


@given(_NAMES)
def test_generated_names_normalize(name):
    ent = normalize_entity(name, "f")
    assert ent.name == name
    assert ent.scope in ("", "f")


def _formatted_key(ent: EntityId) -> str:
    """The key as formatted before its scope and name were escaped."""
    base = ent.name if not ent.scope else f"{ent.scope}:{ent.name}"
    return f"{base}#{ent.occurrence}" if ent.flavor == OPERATION else base


@st.composite
def _entities(draw):
    flavor = draw(st.sampled_from([VARIABLE, OPERATION]))
    occurrence = draw(st.integers(1, 99)) if flavor == OPERATION else 0
    dotted = st.from_regex(r"[a-z_]\w{0,6}\.[a-z_]\w{0,6}", fullmatch=True)
    name = draw(st.one_of(_NAMES, dotted))
    return EntityId(draw(st.one_of(st.just(""), _SCOPES)), name, flavor, occurrence)


@given(_entities(), _entities())
def test_cached_key_matches_formatting(ent, other):
    """A name that holds no escaped character keeps its unescaped key."""
    assert ent.key == _formatted_key(ent)
    fields = (ent.scope, ent.name, ent.flavor, ent.occurrence)
    other_fields = (other.scope, other.name, other.flavor, other.occurrence)
    assert (ent == other) == (fields == other_fields)


# scopes and names over the characters a key escapes
_KEY_TEXT = st.text(alphabet="ft1\\:#", max_size=4)


@st.composite
def _escaped_entities(draw):
    flavor = draw(st.sampled_from([VARIABLE, OPERATION]))
    occurrence = draw(st.integers(1, 2)) if flavor == OPERATION else 0
    return EntityId(draw(_KEY_TEXT), draw(_KEY_TEXT), flavor, occurrence)


@st.composite
def _entity_pairs(draw):
    """Two entities: the second drawn on its own, or read back from the
    first's key, escaped or not, split at any of its colons and maybe at
    its last "#". Unescaped, "" and "f:t" collide with "f" and "t", and the
    variable "f", "t#1" with the operation "f", "t", 1; with ":" escaped
    but not "\\", "" and "f:t" collide with "f\\" and "t"."""
    first = draw(_escaped_entities())
    if draw(st.booleans()):
        return first, draw(_escaped_entities())
    text = draw(st.sampled_from([_formatted_key(first), first.key]))
    flavor, occurrence = VARIABLE, 0
    head, mark, tail = text.rpartition("#")
    if mark and tail.isdigit() and draw(st.booleans()):
        text, flavor, occurrence = head, OPERATION, int(tail)
    cut = draw(st.sampled_from([-1] + [i for i, c in enumerate(text) if c == ":"]))
    scope, name = ("", text) if cut < 0 else (text[:cut], text[cut + 1 :])
    return first, EntityId(scope, name, flavor, occurrence)


@settings(max_examples=500)
@given(_entity_pairs())
def test_equal_keys_iff_equal_entities(pair):
    a, b = pair
    assert (a.key == b.key) == (a == b)


@settings(deadline=None)
@given(contracts())
def test_no_operation_is_a_source(functions):
    """What lets ``transform`` keep a destination's first edge's conditions
    as its own: an operation never feeds a flow, and only a call, whose
    destination is an operation, has several sources."""
    forest = build_forest(chunk_flat_text(flat_text(functions), "c"))
    resolved = {}
    for root_id, scope in zip(forest.roots, function_scopes(forest.functions)):
        op_counts = {}
        for node in forest.iter_tree(root_id):
            if node.behavior is None:
                continue
            sources, dst = extract_tuple(node.behavior, scope, op_counts, resolved)
            assert all(source.flavor == VARIABLE for source in sources)
            if len(sources) > 1:
                assert dst.flavor == OPERATION
