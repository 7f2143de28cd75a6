import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fundflow.description import chunk_flat_text
from fundflow.entities import EntityId, OPERATION
from fundflow.forest import build_forest
from fundflow.graph import FlowEdge, FlowGraph, transform
from fundflow.reachability import (
    AnchorSets,
    FundFlowPath,
    ReachLimits,
    egress_label,
    forward_reach,
    identify_egress,
    identify_ingress,
    paths_to_json,
    prune_and_enumerate,
    render_path,
)

from audit_reachability import all_simple_paths, closure, limit_problem
from conftest import FIXTURE_TEXT, TOY_GLOBALS, make_toy_forest


def pipeline(text, extra_globals=frozenset()):
    forest = build_forest(chunk_flat_text(text))
    graph = transform(forest, extra_globals)
    return forest, graph


def anchors_for(graph):
    return AnchorSets(
        ingress=identify_ingress(graph),
        egress=identify_egress(graph),
    )


def rendered(result):
    return [render_path(p) for p in result.paths]


def test_ingress_includes_aliased_caller():
    forest, graph = pipeline("function f():\nit updates the state variable stor_1 to caller\n")
    ingress = identify_ingress(graph)
    assert {e.key() for e in ingress} == {"caller"}


def test_ingress_includes_parameters():
    forest, graph = pipeline(FIXTURE_TEXT)
    ingress = identify_ingress(graph)
    assert {e.key() for e in ingress} == {
        "unknownfffcf3a1:param1",
        "withdrawAll:param1",
    }


def test_ingress_includes_direct_transaction_fields():
    forest, graph = pipeline("function f():\nit transfers msg.value wei to caller\n")
    assert {e.key() for e in identify_ingress(graph)} == {"msg.value"}


def test_plain_storage_is_not_ingress():
    forest, graph = pipeline("function f():\nit updates the state variable out to stor_7\n")
    assert identify_ingress(graph) == set()


def test_egress_label_normalization():
    assert egress_label("stor_5.flashLoan") == "flashloan"
    assert egress_label("a.b.Transfer(x)") == "transfer"
    assert egress_label("transfer") == "transfer"
    assert egress_label("stor_2.balanceOf") == "balanceof"


def test_identify_egress_on_fixture():
    _, graph = pipeline(FIXTURE_TEXT)
    assert {e.key() for e in identify_egress(graph)} == {
        "unknownfffcf3a1:stor_5.flashLoan#1",
        "withdrawAll:transfer#1",
    }


def test_non_fund_call_is_not_egress():
    _, graph = pipeline("function f(a):\nit triggers the external call to stor_2.balanceOf(a)\n")
    assert identify_egress(graph) == set()


def test_variables_never_egress():
    _, graph = pipeline("function f(a):\nit updates the state variable transfer to a\n")
    assert identify_egress(graph) == set()


def toy_setup():
    graph = transform(make_toy_forest(), TOY_GLOBALS)
    ingress = {graph.nodes["v1"], graph.nodes["v2"]}
    egress = {graph.nodes["F2:op2#1"]}
    return graph, AnchorSets(ingress=ingress, egress=egress)


def test_toy_forward_reach():
    graph, anchors = toy_setup()
    reach = forward_reach(graph, anchors.ingress)
    assert {e.key() for e in reach} == {"v1", "v2", "F1:op1#1", "v3", "F2:op2#1"}


def test_toy_prune_and_enumerate():
    graph, anchors = toy_setup()
    reach = forward_reach(graph, anchors.ingress)
    result = prune_and_enumerate(graph, reach, anchors)
    assert {e.key() for e in result.retained_nodes} == {"v2", "v3", "F2:op2#1"}
    assert not result.truncated
    assert rendered(result) == ["v2 --[c3]--> v3 --[c1]--> op2"]


def test_fixture_paths_exact():
    # withdrawAll writes stor_3 before the transfer reads it, so stor_3 is
    # live on entry and the write edge is suppressed: only one path survives.
    forest, graph = pipeline(FIXTURE_TEXT)
    anchors = anchors_for(graph)
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    assert rendered(result) == [
        "unknownfffcf3a1:param1 --[it is required that (0x268d...4080 == sha3(tx.origin)), "
        "it is required that the 1st external call succeeds]--> stor_5.flashLoan",
    ]


def test_empty_egress_yields_nothing():
    graph, anchors = toy_setup()
    anchors.egress = set()
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    assert result.paths == [] and result.retained_nodes == set()


def test_render_empty_conditions():
    path = FundFlowPath(
        hops=(
            EntityId("", "msg.value"),
            EntityId("f", "transfer", OPERATION, 1),
        ),
        conditions=((),),
    )
    assert render_path(path) == "msg.value --[]--> transfer"


def test_render_joins_conditions_with_comma_space():
    path = FundFlowPath(
        hops=(EntityId("f", "a"), EntityId("", "stor_1"), EntityId("f", "b")),
        conditions=(("c1", "c2"), ()),
    )
    assert render_path(path) == "f:a --[c1, c2]--> stor_1 --[]--> f:b"


def test_paths_json_shape():
    graph, anchors = toy_setup()
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    data = json.loads(paths_to_json(result, [render_path(p) for p in result.paths]))
    assert data["truncated"] is False
    assert data["paths"][0]["rendered"] == "v2 --[c3]--> v3 --[c1]--> op2"
    assert data["paths"][0]["hops"] == [
        {"id": "v2", "display": "v2"},
        {"id": "v3", "display": "v3"},
        {"id": "F2:op2#1", "display": "op2"},
    ]
    assert data["paths"][0]["conditions"] == [["c3"], ["c1"]]


def chain_graph(n_edges):
    graph = FlowGraph()
    names = [f"n{i:03d}" for i in range(n_edges + 1)]
    for name in names:
        graph.add_node(EntityId("", name))
    for a, b in zip(names, names[1:]):
        graph.add_edge(FlowEdge(EntityId("", a), EntityId("", b), (), "f"))
    anchors = AnchorSets(
        ingress={graph.nodes[names[0]]}, egress={graph.nodes[names[-1]]}
    )
    return graph, anchors


def test_depth_limit_exact_fit_not_truncated():
    graph, anchors = chain_graph(32)
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    assert len(result.paths) == 1 and not result.truncated


def test_depth_limit_truncates_longer_chain():
    graph, anchors = chain_graph(33)
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    assert result.paths == [] and result.truncated


def diamond_graph(n_diamonds):
    """Chain of diamonds: 2**n_diamonds distinct simple paths."""
    graph = FlowGraph()

    def node(name):
        ent = EntityId("", name)
        graph.add_node(ent)
        return ent

    prev = node("a000")
    for i in range(n_diamonds):
        top = node(f"t{i:03d}")
        bot = node(f"u{i:03d}")
        nxt = node(f"a{i + 1:03d}")
        for mid in (top, bot):
            graph.add_edge(FlowEdge(prev, mid, (), "f"))
            graph.add_edge(FlowEdge(mid, nxt, (), "f"))
        prev = nxt
    anchors = AnchorSets(ingress={graph.nodes["a000"]}, egress={prev})
    return graph, anchors


def test_path_limit_truncates_fanout():
    graph, anchors = diamond_graph(5)  # 32 simple paths
    reach = forward_reach(graph, anchors.ingress)
    full = prune_and_enumerate(graph, reach, anchors)
    assert len(full.paths) == 32 and not full.truncated
    capped = prune_and_enumerate(graph, reach, anchors, ReachLimits(max_paths=10))
    assert len(capped.paths) == 10 and capped.truncated
    assert rendered(capped) == rendered(full)[:10]


def test_enumeration_insensitive_to_edge_insertion_order():
    specs = [("s", "m1", ("c1",)), ("s", "m2", ()), ("m1", "e", ()), ("m2", "e", ("c2",))]
    outputs = []
    for order in (specs, list(reversed(specs))):
        graph = FlowGraph()
        for a, b, conds in order:
            graph.add_edge(FlowEdge(EntityId("", a), EntityId("", b), conds, "f"))
        anchors = AnchorSets(
            ingress={graph.nodes["s"]}, egress={graph.nodes["e"]}
        )
        result = prune_and_enumerate(
            graph, forward_reach(graph, anchors.ingress), anchors
        )
        outputs.append(rendered(result))
    assert outputs[0] == outputs[1]
    assert outputs[0] == ["s --[c1]--> m1 --[]--> e", "s --[]--> m2 --[c2]--> e"]


def random_graph(rng, n_nodes, edge_prob):
    graph = FlowGraph()
    names = [f"n{i:03d}" for i in range(n_nodes)]
    for name in names:
        graph.add_node(EntityId("", name))
    counter = 0
    for a in names:
        for b in names:
            if a != b and rng.random() < edge_prob:
                conds = (f"c{counter}",) if rng.random() < 0.4 else ()
                counter += 1
                graph.add_edge(FlowEdge(EntityId("", a), EntityId("", b), conds, "f"))
    return graph, names


def test_forward_reach_matches_bfs_oracle():
    rng = random.Random(7)
    graph, names = random_graph(rng, 200, 0.02)
    ingress = {graph.nodes[n] for n in rng.sample(names, 5)}
    got = {e.key() for e in forward_reach(graph, ingress)}
    assert got == closure(graph, {e.key() for e in ingress})


def test_enumeration_matches_exhaustive_oracle():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(4, 10)
        graph, names = random_graph(rng, n, 0.25)
        ingress_names = set(rng.sample(names, rng.randint(1, 2)))
        egress_pool = [x for x in names if x not in ingress_names]
        egress_names = set(rng.sample(egress_pool, rng.randint(1, 2)))
        anchors = AnchorSets(
            ingress={graph.nodes[x] for x in ingress_names},
            egress={graph.nodes[x] for x in egress_names},
        )
        result = prune_and_enumerate(
            graph,
            forward_reach(graph, anchors.ingress),
            anchors,
            ReachLimits(max_depth=10_000, max_paths=1_000_000),
        )
        got = [tuple(h.key() for h in p.hops) for p in result.paths]
        assert got == all_simple_paths(graph, ingress_names, egress_names)
        assert not result.truncated


def test_adding_edges_never_removes_paths():
    rng = random.Random(29)
    graph, names = random_graph(rng, 8, 0.2)
    anchors = AnchorSets(
        ingress={graph.nodes[names[0]]}, egress={graph.nodes[names[-1]]}
    )
    limits = ReachLimits(max_depth=10_000, max_paths=1_000_000)
    before = set(
        rendered(
            prune_and_enumerate(
                graph, forward_reach(graph, anchors.ingress), anchors, limits
            )
        )
    )
    graph.add_edge(FlowEdge(graph.nodes[names[0]], graph.nodes[names[3]], ("cx",), "f"))
    after = set(
        rendered(
            prune_and_enumerate(
                graph, forward_reach(graph, anchors.ingress), anchors, limits
            )
        )
    )
    assert before <= after


@st.composite
def limited_graphs(draw):
    """A small graph, cyclic or not, its anchors and small limits."""
    n = draw(st.integers(2, 7))
    names = [f"n{i}" for i in range(n)]
    acyclic = draw(st.booleans())
    pairs = [(a, b) for i, a in enumerate(names) for j, b in enumerate(names) if i != j]
    if acyclic:
        pairs = [(a, b) for a, b in pairs if a < b]
    graph = FlowGraph()
    for name in names:
        graph.add_node(EntityId("", name))
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
        graph.add_edge(FlowEdge(EntityId("", a), EntityId("", b), (f"{a}{b}",), "f"))
    ingress = draw(st.sets(st.sampled_from(names[:-1]), min_size=1))
    rest = [x for x in names if x not in ingress]
    egress = draw(st.sets(st.sampled_from(rest), min_size=1))
    limits = ReachLimits(max_depth=draw(st.integers(0, 6)), max_paths=draw(st.integers(0, 6)))
    return graph, ingress, egress, limits


@settings(deadline=None)
@given(limited_graphs())
def test_limited_enumeration_is_the_oracle_cut_to_the_limits(case):
    graph, ingress, egress, limits = case
    anchors = AnchorSets(
        ingress={graph.nodes[x] for x in ingress}, egress={graph.nodes[x] for x in egress}
    )
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    want = all_simple_paths(graph, ingress, egress)
    assert limit_problem(graph, want, limits, result) is None


@settings(deadline=None)
@given(limited_graphs())
def test_enumeration_texts_are_render_path_of_each_path(case):
    graph, ingress, egress, limits = case
    anchors = AnchorSets(
        ingress={graph.nodes[x] for x in ingress}, egress={graph.nodes[x] for x in egress}
    )
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    assert result.rendered == rendered(result)
    assert len(result.encoded) == len(result.paths)


def looping_graph(n):
    """``i -> x -> z`` with ``x <-> a_k`` for n nodes ``a_k`` that form a
    complete digraph, which the search tries before ``z``: one path, found
    after every simple path through the ``a_k`` has dead-ended on ``x``."""
    graph = FlowGraph()
    loop = [EntityId("", f"a{k:02d}") for k in range(n)]
    x = EntityId("", "x")
    graph.add_edge(FlowEdge(EntityId("", "i"), x, (), "f"))
    for a in loop:
        graph.add_edge(FlowEdge(x, a, (), "f"))
        graph.add_edge(FlowEdge(a, x, (), "f"))
        for b in loop:
            if a != b:
                graph.add_edge(FlowEdge(a, b, (), "f"))
    graph.add_edge(FlowEdge(x, EntityId("", "z"), (), "f"))
    return graph, AnchorSets(ingress={graph.nodes["i"]}, egress={graph.nodes["z"]})


@pytest.mark.parametrize("n, expansions", [(8, 109_602), (9, None), (12, None)])
def test_work_budget_ends_enumeration_on_cycles(n, expansions):
    """Distance pruning cannot cut the loops, so the budget does: 8 looping
    nodes still give the path, 9 or more run out, truncated."""
    graph, anchors = looping_graph(n)
    limits = ReachLimits()
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors, limits)
    if expansions is None:
        assert result.paths == [] and result.truncated
        assert result.expansions == limits.budget == 135_696
    else:
        assert rendered(result) == ["i --[]--> x --[]--> z"] and not result.truncated
        assert result.expansions == expansions
