"""Metamorphic properties of the static core: fund-flow paths belong to the
contract, not to how its description is laid out or what its names are."""

from hypothesis import assume, given, settings, strategies as st

from fundflow.description import chunk_flat_text
from fundflow.forest import build_forest
from fundflow.graph import transform
from fundflow.reachability import (
    AnchorSets,
    forward_reach,
    identify_egress,
    identify_ingress,
    prune_and_enumerate,
)

from contracts import GLOBALS, LOCALS, contracts, flat_text, inert_function

FRESH = "renamed"  # a local-looking name no generated contract uses
STORAGE = [name for name in GLOBALS if name.startswith("stor_")]
FRESH_STORAGE = "stor_9"  # a storage variable no generated contract uses


def static_core(text):
    """The flow graph, its ingress set and its path enumeration."""
    graph = transform(build_forest(chunk_flat_text(text, "c")))
    anchors = AnchorSets(identify_ingress(graph), identify_egress(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    return graph, anchors.ingress, result


def path_set(result):
    return {(tuple(h.key() for h in p.hops), p.conditions) for p in result.paths}


@settings(deadline=None)
@given(st.data())
def test_permuting_functions_keeps_edges_and_paths(data):
    functions = data.draw(contracts())
    shuffled = data.draw(st.permutations(functions))
    graph, ingress, result = static_core(flat_text(functions))
    graph2, ingress2, result2 = static_core(flat_text(shuffled))

    def edges(g):
        return {(e.src.key(), e.dst.key(), e.conditions, e.function) for e in g.edges}

    assert edges(graph2) == edges(graph)
    assert graph2.nodes.keys() == graph.nodes.keys()
    assert {e.key() for e in ingress2} == {e.key() for e in ingress}
    if not (result.truncated or result2.truncated):
        assert path_set(result2) == path_set(result)


def check_renaming(functions, old, new, renamed_in=None):
    """Renaming ``old`` to ``new`` in the function named ``renamed_in``, or
    in every function when that is None, maps the node keys, the edges with
    their conditions, the ingress set and the untruncated path set under
    that renaming."""
    graph, ingress, result = static_core(flat_text(functions))
    graph2, ingress2, result2 = static_core(flat_text(functions, renamed_in, {old: new}))

    scope = "" if renamed_in is None else f"{renamed_in}:"

    def key(k):
        return f"{scope}{new}" if k == f"{scope}{old}" else k

    # the renamed functions' conditions, as they read after the renaming
    renamed_conditions = {
        template.format(*names): template.format(*(new if n == old else n for n in names))
        for f in functions
        if renamed_in in (None, f.name)
        for _, template, names in f.sentences
    }

    def conditions(edge):
        if renamed_in not in (None, edge.function):
            return edge.conditions
        return tuple(renamed_conditions.get(c, c) for c in edge.conditions)

    assert list(graph2.nodes) == [key(k) for k in graph.nodes]
    assert [e.display for e in graph2.nodes.values()] == [
        key(e.display) for e in graph.nodes.values()
    ]
    assert [(e.src.key(), e.dst.key(), e.conditions, e.function) for e in graph2.edges] == [
        (key(e.src.key()), key(e.dst.key()), conditions(e), e.function) for e in graph.edges
    ]
    assert {e.key() for e in ingress2} == {key(e.key()) for e in ingress}

    if result.truncated or result2.truncated:
        return  # which paths a cut keeps follows key order, which renaming changes
    # A path's hops do not name the function of each edge, so each edge's
    # renamed conditions are read off the edge of the graph it runs along.
    image = {}
    for e, e2 in zip(graph.edges, graph2.edges):
        image.setdefault((e.src.key(), e.dst.key(), e.conditions), set()).add(e2.conditions)
    # two functions may hold the same edge under the same condition text
    assume(all(len(renamed) == 1 for renamed in image.values()))
    expected = set()
    for hops, conds in path_set(result):
        steps = zip(hops, hops[1:], conds)
        expected.add(
            (tuple(map(key, hops)), tuple(next(iter(image[step])) for step in steps))
        )
    assert path_set(result2) == expected


def mentioned(function, name):
    return any(name in names for _, _, names in function.sentences)


@settings(deadline=None)
@given(st.data())
def test_renaming_a_parameter_maps_graph_ingress_and_paths(data):
    functions = data.draw(contracts())
    candidates = [(f, p) for f in functions for p in f.parameters]
    assume(candidates)
    function, old = data.draw(st.sampled_from(candidates))
    check_renaming(functions, old, FRESH, function.name)


@settings(deadline=None)
@given(st.data())
def test_renaming_a_local_maps_graph_ingress_and_paths(data):
    functions = data.draw(contracts())
    candidates = [(f, n) for f in functions for n in LOCALS if mentioned(f, n)]
    assume(candidates)
    function, old = data.draw(st.sampled_from(candidates))
    check_renaming(functions, old, FRESH, function.name)


@settings(deadline=None)
@given(st.data())
def test_renaming_a_storage_variable_everywhere_maps_graph_ingress_and_paths(data):
    functions = data.draw(contracts())
    candidates = [n for n in STORAGE if any(mentioned(f, n) for f in functions)]
    assume(candidates)
    check_renaming(functions, data.draw(st.sampled_from(candidates)), FRESH_STORAGE)


@settings(deadline=None)
@given(st.data())
def test_adding_a_function_with_no_route_to_egress_adds_no_path(data):
    functions = data.draw(contracts())
    added = data.draw(inert_function(f"f{len(functions)}"))
    at = data.draw(st.integers(0, len(functions)))
    graph, _, result = static_core(flat_text(functions))
    graph2, _, result2 = static_core(flat_text(functions[:at] + (added,) + functions[at:]))

    def edges(g, skipped=None):
        return [
            (e.src.key(), e.dst.key(), e.conditions, e.function)
            for e in g.edges
            if e.function != skipped
        ]

    assert edges(graph2, added.name) == edges(graph)
    if not (result.truncated or result2.truncated):
        assert path_set(result2) == path_set(result)
