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

from contracts import (
    LOCALS,
    STORAGE,
    Sentence,
    contracts,
    flat_text,
    inert_function,
    no_ingress_function,
    overload,
)

FRESH = "renamed"  # a local-looking name no generated contract uses
FRESH_STORAGE = "stor_9"  # a storage variable no generated contract uses
NESTED = "when (nested > 0)"  # a condition no generated contract uses


def static_core(text):
    """The flow graph, its ingress set and its path enumeration."""
    graph = transform(build_forest(chunk_flat_text(text, "c")))
    anchors = AnchorSets(identify_ingress(graph), identify_egress(graph))
    result = prune_and_enumerate(graph, forward_reach(graph, anchors.ingress), anchors)
    return graph, anchors.ingress, result


def path_set(result):
    return {(tuple(h.key for h in p.hops), p.conditions) for p in result.paths}


@settings(deadline=None)
@given(st.data())
def test_permuting_functions_keeps_edges_and_paths(data):
    functions = data.draw(contracts())
    shuffled = data.draw(st.permutations(functions))
    graph, ingress, result = static_core(flat_text(functions))
    graph2, ingress2, result2 = static_core(flat_text(shuffled))

    def edges(g):
        return {(e.src, e.dst, e.conditions, e.function) for e in g.edges}

    assert edges(graph2) == edges(graph)
    assert graph2.nodes.keys() == graph.nodes.keys()
    assert ingress2 == ingress
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
    assert [(e.src, e.dst, e.conditions, e.function) for e in graph2.edges] == [
        (key(e.src), key(e.dst), conditions(e), e.function) for e in graph.edges
    ]
    assert ingress2 == {key(k) for k in ingress}

    if result.truncated or result2.truncated:
        return  # which paths a cut keeps follows key order, which renaming changes
    # A path's hops do not name the function of each edge, so each edge's
    # renamed conditions are read off the edge of the graph it runs along.
    image = {}
    for e, e2 in zip(graph.edges, graph2.edges):
        image.setdefault((e.src, e.dst, e.conditions), set()).add(e2.conditions)
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
            (e.src, e.dst, e.conditions, e.function)
            for e in g.edges
            if e.function != skipped
        ]

    assert edges(graph2, added.name) == edges(graph)
    if not (result.truncated or result2.truncated):
        assert path_set(result2) == path_set(result)


def edge_rows(graph):
    return [(e.src, e.dst, e.conditions, e.function) for e in graph.edges]


@settings(deadline=None)
@given(st.data())
def test_adding_a_function_with_no_ingress_adds_no_path_of_its_own(data):
    """It adds no ingress and removes no path. A path it adds runs along one
    of its own edges: storage merges into one node across functions, so the
    function may carry a flow from another function's ingress, through
    storage it reads or writes, to an egress. A function that shares no
    storage with the others therefore adds no path at all."""
    functions = data.draw(contracts())
    added = data.draw(no_ingress_function(f"f{len(functions)}"))
    at = data.draw(st.integers(0, len(functions)))
    graph, ingress, result = static_core(flat_text(functions))
    graph2, ingress2, result2 = static_core(flat_text(functions[:at] + (added,) + functions[at:]))

    assert ingress2 == ingress
    assert [row for row in edge_rows(graph2) if row[3] != added.name] == edge_rows(graph)
    if result.truncated or result2.truncated:
        return
    paths, paths2 = path_set(result), path_set(result2)
    assert paths <= paths2
    own = {row[:3] for row in edge_rows(graph2) if row[3] == added.name}
    for hops, conditions in paths2 - paths:
        assert own.intersection(zip(hops, hops[1:], conditions)), hops


@settings(deadline=None)
@given(st.data())
def test_adding_an_overload_adds_the_paths_of_a_function_of_its_own(data):
    """Both overloads scope their locals and operations by their signatures.
    Adding one removes no path and adds none that joins the two overloads'
    locals: the paths are those of the same contract with the overload
    under a fresh name, each of the two functions' keys scoped by its
    signature."""
    functions = data.draw(contracts())
    original = data.draw(st.sampled_from(functions))
    added = data.draw(overload(original))
    at = data.draw(st.integers(0, len(functions)))
    fresh = f"f{len(functions)}"
    _, _, result = static_core(flat_text(functions))
    _, _, result2 = static_core(flat_text(functions[:at] + (added,) + functions[at:]))
    separate = added._replace(name=fresh)
    _, _, result3 = static_core(flat_text(functions[:at] + (separate,) + functions[at:]))
    if result.truncated or result2.truncated or result3.truncated:
        return
    scopes = {
        name: f"{original.name}({', '.join(f.parameters)})"
        for name, f in ((original.name, original), (fresh, added))
    }

    def key(k):
        scope, colon, rest = k.partition(":")
        return f"{scopes[scope]}:{rest}" if colon and scope in scopes else k

    def scoped(paths):
        return {(tuple(map(key, hops)), conditions) for hops, conditions in paths}

    assert scoped(path_set(result)) <= path_set(result2)
    assert path_set(result2) == scoped(path_set(result3))


def operation(function, index):
    """The key of the operation node that the sentence at ``index`` of
    ``function`` makes, or None when it makes none. Calls and transfers each
    make one, numbered per label in document order."""
    def label(template):
        if template.startswith("it triggers the external call to "):
            return template.split(" to ", 1)[1].split("(", 1)[0]
        return "transfer" if template.startswith("it transfers ") else None

    own = label(function.sentences[index].template)
    if own is None:
        return None
    occurrence = sum(label(s.template) == own for s in function.sentences[: index + 1])
    return f"{function.name}:{own}#{occurrence}"


def nest(function, index):
    """``function`` with the sentence at ``index``, and those nested under
    it, one level deeper, under a new NESTED condition."""
    sentences = function.sentences
    depth = sentences[index].depth
    end = index + 1
    while end < len(sentences) and sentences[end].depth > depth:
        end += 1
    moved = tuple(s._replace(depth=s.depth + 1) for s in sentences[index:end])
    nested = sentences[:index] + (Sentence(depth, NESTED, ()),) + moved + sentences[end:]
    return function._replace(sentences=nested)


@settings(deadline=None)
@given(st.data())
def test_nesting_a_behavior_under_one_more_when_adds_it_to_every_path_edge_through_it(data):
    """A call or a transfer makes an operation node of its own. Nested under
    one more condition, every edge into that node carries the condition.
    Without it, the edges and the paths are those of the original contract,
    in the same order, so no path is removed, truncated or not."""
    functions = data.draw(contracts())
    candidates = [
        (i, j)
        for i, f in enumerate(functions)
        for j in range(len(f.sentences))
        if operation(f, j) is not None
    ]
    assume(candidates)
    i, j = data.draw(st.sampled_from(candidates))
    op = operation(functions[i], j)
    graph, _, result = static_core(flat_text(functions))
    changed = functions[:i] + (nest(functions[i], j),) + functions[i + 1 :]
    graph2, _, result2 = static_core(flat_text(changed))

    def without(conditions):
        return tuple(c for c in conditions if c != NESTED)

    assert [(s, d, without(c), f) for s, d, c, f in edge_rows(graph2)] == edge_rows(graph)
    assert all(NESTED in e.conditions for e in graph2.edges if e.dst == op)
    assert result2.truncated == result.truncated
    assert [tuple(h.key for h in p.hops) for p in result2.paths] == [
        tuple(h.key for h in p.hops) for p in result.paths
    ]
    assert [tuple(map(without, p.conditions)) for p in result2.paths] == [
        p.conditions for p in result.paths
    ]
    for path in result2.paths:
        for hop, conditions in zip(path.hops[1:], path.conditions):
            assert hop.key != op or NESTED in conditions
