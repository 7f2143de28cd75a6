"""The four large static artifacts are built as JSON text; that text must be
byte for byte what ``json.dumps`` makes of the dicts they used to be.

The dict builders below are the reference: each is the converter as it was
before it built text, and ``dumps`` encodes with ``write_json``'s settings.
Text in the generated inputs holds quotes, backslashes, control characters,
DEL, line and paragraph separators, non-ASCII and astral characters, in
sentences of every kind the grammar parses.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fundflow.behavior import CONDITION_PREFIXES
from fundflow.description import (
    ContractDescription,
    FunctionChunk,
    Sentence,
    chunk_flat_text,
    description_to_json,
)
from fundflow.entities import OPERATION, VARIABLE, EntityId
from fundflow.forest import build_forest, forest_to_json
from fundflow.graph import FlowEdge, FlowGraph, graph_to_json, transform
from fundflow.pipeline import RunConfig, run_static, write_json
from fundflow.reachability import (
    AnchorSets,
    ReachLimits,
    forward_reach,
    identify_egress,
    identify_ingress,
    paths_to_json,
    prune_and_enumerate,
    render_path,
)

from conftest import FIXTURE_TEXT
from test_golden import golden_text


def dumps(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def ref_description(desc: ContractDescription) -> dict:
    return {
        "contract": desc.contract_id,
        "functions": [
            {
                "signature": chunk.signature,
                "sentences": [{"text": text, "depth": depth} for text, depth in chunk.sentences],
            }
            for chunk in desc.functions
        ],
    }


def ref_forest(forest) -> dict:
    return {
        "contract": forest.contract_id,
        "roots": list(forest.roots),
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "text": n.text,
                "children": list(n.children),
                **(
                    {"behavior": {"kind": n.behavior.kind, "fields": dict(n.behavior.fields)}}
                    if n.behavior
                    else {}
                ),
            }
            for n in forest.nodes
        ],
    }


def ref_graph(graph: FlowGraph) -> dict:
    return {
        "nodes": [
            {"id": key, "label": ent.display, "flavor": ent.flavor}
            for key, ent in graph.nodes.items()
        ],
        "edges": [
            {
                "from": e.src,
                "to": e.dst,
                "conditions": list(e.conditions),
                "function": e.function,
            }
            for e in graph.edges
        ],
    }


def ref_paths(result, rendered: list[str]) -> dict:
    return {
        "truncated": result.truncated,
        "paths": [
            {
                "rendered": text,
                "hops": [{"id": h.key, "display": h.display} for h in p.hops],
                "conditions": [list(c) for c in p.conditions],
            }
            for p, text in zip(result.paths, rendered, strict=True)
        ],
    }


def assert_static_text_matches(desc: ContractDescription, limits) -> None:
    assert description_to_json(desc) == dumps(ref_description(desc))
    forest = build_forest(desc)
    assert forest_to_json(forest) == dumps(ref_forest(forest))
    graph = transform(forest)
    assert graph_to_json(graph) == dumps(ref_graph(graph))
    anchors = AnchorSets(identify_ingress(graph), identify_egress(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    rendered = [render_path(p) for p in result.paths]
    assert paths_to_json(result) == dumps(ref_paths(result, rendered))


# characters JSON escapes or that a careless encoder gets wrong; none of
# them is whitespace, so they stay inside the grammar's \S+ slots
_ODD = ['"', "\\", "\x00", "\x01", "\x1b", "\x7f", "é", "ß", "中", "\U0001d518", "\U0001f4b8"]
# whitespace the grammar's free slots accept, and str.strip removes at the ends
_SPACES = [" ", "\t", "\u2028", "\u2029", "\x1f", "\x85"]
_token = st.text(st.sampled_from(_ODD + list("ab_.1")), min_size=1, max_size=5)
_phrase = st.lists(st.tuples(_token, st.sampled_from(_SPACES)), min_size=1, max_size=3).map(
    lambda parts: "".join(t + s for t, s in parts).rstrip("".join(_SPACES)) or "x"
)
# mentions that make entities, anchors and literals, and odd ones
_mention = st.one_of(
    st.sampled_from(["caller", "call value", "msg.value", "stor_1", "stor_2", "p1", "0", "'s'"]),
    _token,
)
# an assignment's or creation's destination, which may not be a literal
_target = st.one_of(st.sampled_from(["stor_1", "p1", "caller"]), _token.map("v{}".format))
_args = st.lists(_mention, max_size=3).map(", ".join)
_callee = st.sampled_from(["stor_1.transfer", "withdraw", "flashLoan", "getReserves", "pool.sync"])
_sentence = st.one_of(
    st.builds("{} ({})".format, st.sampled_from(CONDITION_PREFIXES), _phrase),
    st.builds("it updates the state variable {} to {}".format, _target, _mention),
    st.builds("it triggers the external call to {}({})".format, _callee, _args),
    st.builds("it delegates a call to {}({})".format, _callee, _args),
    st.builds(
        "it creates a new smart contract with creation code {}{}, and gets a new address {}".format,
        _token,
        st.one_of(st.just(""), _mention.map(" and salt {}".format)),
        _target,
    ),
    st.builds(
        "it transfers {} wei to {}{}".format,
        _mention,
        _phrase,
        st.one_of(st.just(""), _token.map(" with gas {}".format)),
    ),
    st.builds("it returns {}".format, _args.filter(bool)),
    st.builds("it emits the log event with parameter(s) {}".format, _args.filter(bool)),
    st.builds("it calls a built-in function {}".format, _phrase),
    st.builds("it {} {}".format, st.sampled_from(["pauses", "mints"]), _phrase),
    st.text(min_size=1, max_size=12),  # unknown, mostly
    st.text(st.sampled_from(_ODD + _SPACES), min_size=1, max_size=6),
)


@st.composite
def descriptions(draw) -> ContractDescription:
    functions = []
    for i in range(draw(st.integers(1, 4))):
        params = draw(st.lists(st.one_of(st.just("p1"), _token), max_size=3, unique=True))
        name = draw(st.sampled_from(["f", "unknown0a", "botSet"])) + str(i)
        sentences, depth = [], -1
        for want, text in draw(st.lists(st.tuples(st.integers(0, 4), _sentence), max_size=10)):
            depth = min(want, depth + 1)
            sentences.append(Sentence(text, depth))
        functions.append(FunctionChunk(f"{name}({', '.join(params)})", tuple(sentences)))
    contract = draw(st.text(st.sampled_from(_ODD + _SPACES + ["c"]), min_size=1, max_size=6))
    return ContractDescription(contract, functions)


_limits = st.one_of(
    st.just(ReachLimits()),
    st.builds(ReachLimits, max_depth=st.integers(0, 4), max_paths=st.integers(0, 3)),
)


@settings(deadline=None, max_examples=200)
@given(descriptions(), _limits)
def test_static_text_matches_json_dumps_of_the_dicts(desc, limits):
    assert_static_text_matches(desc, limits)


@settings(deadline=None, max_examples=100)
@given(descriptions(), _limits)
def test_run_static_keeps_the_texts_of_render_path_and_paths_to_json(desc, limits):
    """The enumeration builds each path's text along its search; what
    ``run_static`` returns and writes is still ``render_path`` of each path,
    and ``paths_to_json`` of the enumeration."""
    with tempfile.TemporaryDirectory() as out:
        config = RunConfig(out_dir=out, max_depth=limits.max_depth, max_paths=limits.max_paths)
        static = run_static(desc, config)
        written = Path(out, "paths.json").read_text(encoding="utf-8")
    graph = transform(build_forest(desc))
    anchors = AnchorSets(identify_ingress(graph), identify_egress(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    rendered = [render_path(p) for p in result.paths]
    assert result.rendered == rendered
    assert static.rendered_paths == rendered
    assert written == paths_to_json(result) + "\n"
    assert written == dumps(ref_paths(result, rendered)) + "\n"


@st.composite
def graphs(draw) -> tuple[FlowGraph, AnchorSets]:
    """A graph over odd names whose edges share a few condition tuples."""
    entities = [
        EntityId(scope, name, flavor, 1 if flavor == OPERATION else 0)
        for scope, name, flavor in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["", "f", "g\u2028"]),
                    _token,
                    st.sampled_from([VARIABLE, OPERATION]),
                ),
                min_size=2,
                max_size=8,
                unique=True,
            )
        )
    ]
    pool = draw(st.lists(st.lists(_phrase, max_size=3).map(tuple), min_size=1, max_size=3))
    graph = FlowGraph()
    for entity in entities:
        graph.add_node(entity)
    index = st.integers(0, len(entities) - 1)
    for src, dst, cond in draw(
        st.lists(st.tuples(index, index, st.sampled_from(pool)), max_size=20)
    ):
        if src != dst:
            graph.add_edge(FlowEdge(entities[src].key, entities[dst].key, cond, draw(_phrase)))
    keys = [entity.key for entity in entities]
    ingress = set(draw(st.lists(st.sampled_from(keys), max_size=3)))
    egress = set(draw(st.lists(st.sampled_from(keys), max_size=3)))
    return graph, AnchorSets(ingress, egress)


@settings(deadline=None, max_examples=200)
@given(graphs(), _limits)
def test_graph_and_paths_text_match_json_dumps_of_the_dicts(case, limits):
    graph, anchors = case
    assert graph_to_json(graph) == dumps(ref_graph(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    rendered = [render_path(p) for p in result.paths]
    assert paths_to_json(result) == dumps(ref_paths(result, rendered))


@settings(deadline=None, max_examples=200)
@given(graphs(), _limits)
def test_enumeration_texts_are_render_path_of_each_path(case, limits):
    """Over odd names and condition lists of any length."""
    graph, anchors = case
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    assert result.rendered == [render_path(p) for p in result.paths]


@pytest.mark.parametrize(
    "text, truncated", [(FIXTURE_TEXT, False), (golden_text(), True)], ids=["fixture", "golden"]
)
def test_enumerations_cut_or_not_match_the_reference(text, truncated):
    desc = chunk_flat_text(text, "c")
    forest = build_forest(desc)
    graph = transform(forest)
    anchors = AnchorSets(identify_ingress(graph), identify_egress(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    assert result.truncated is truncated and result.paths
    assert_static_text_matches(desc, ReachLimits())


@pytest.mark.parametrize("artifact", ["description", "forest", "graph", "paths"])
def test_a_lone_surrogate_leaves_no_artifact(tmp_path, artifact):
    """``chunk_flat_text`` takes any str, a lone surrogate included. Each
    converter passes it through as JSON text, and ``write_json`` fails to
    encode it before it opens the file."""
    desc = chunk_flat_text("function f(p\ud800):\nit transfers p\ud800 wei to caller\n", "c")
    forest = build_forest(desc)
    graph = transform(forest)
    anchors = AnchorSets(identify_ingress(graph), identify_egress(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    assert result.paths
    text = {
        "description": lambda: description_to_json(desc),
        "forest": lambda: forest_to_json(forest),
        "graph": lambda: graph_to_json(graph),
        "paths": lambda: paths_to_json(result),
    }[artifact]()
    out = tmp_path / "out"
    with pytest.raises(UnicodeEncodeError):
        write_json(str(out), f"{artifact}.json", text)
    assert not out.exists()
    with pytest.raises(UnicodeEncodeError):
        run_static(desc, RunConfig(out_dir=str(out)))
    assert not out.exists()
