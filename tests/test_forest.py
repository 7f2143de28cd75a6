import pytest
from hypothesis import given, strategies as st

from fundflow.description import ContractDescription, FunctionChunk, Sentence, chunk_flat_text
from fundflow.errors import MalformedNesting
from fundflow.forest import build_forest


def desc_of(*sentences, sig="f(a)"):
    return ContractDescription("c", [FunctionChunk(sig, tuple(sentences))])


def test_root_is_function_node():
    forest = build_forest(desc_of(Sentence("it returns a", 0)))
    root = forest.nodes[forest.roots[0]]
    assert root.kind == "function"
    assert root.text == "f(a)"


def test_nesting_rule():
    forest = build_forest(
        desc_of(
            Sentence("when (a > 0)", 0),
            Sentence("it returns a", 1),
            Sentence("it returns 0", 1),
            Sentence("it returns 1", 0),
        )
    )
    root = forest.nodes[forest.roots[0]]
    assert len(root.children) == 2
    first = forest.nodes[root.children[0]]
    assert len(first.children) == 2


def test_condition_parents_behavior():
    forest = build_forest(
        desc_of(Sentence("when (a > 0)", 0), Sentence("it returns a", 1))
    )
    root = forest.nodes[forest.roots[0]]
    condition = forest.nodes[root.children[0]]
    assert condition.kind == "condition"
    child = forest.nodes[condition.children[0]]
    assert child.kind == "behavior"
    assert child.behavior is not None


def test_malformed_nesting_depth_jump():
    with pytest.raises(MalformedNesting):
        build_forest(
            desc_of(Sentence("when (a > 0)", 0), Sentence("it returns a", 2))
        )


def test_malformed_nesting_first_sentence_deep():
    with pytest.raises(MalformedNesting):
        build_forest(desc_of(Sentence("it returns a", 1)))


def test_sibling_after_pop():
    forest = build_forest(
        desc_of(
            Sentence("when (a > 0)", 0),
            Sentence("when (a > 1)", 1),
            Sentence("it returns a", 2),
            Sentence("it returns 0", 1),
        )
    )
    root = forest.nodes[forest.roots[0]]
    outer = forest.nodes[root.children[0]]
    assert len(outer.children) == 2  # inner condition and the depth-1 return


def test_three_trees():
    text = (
        "function f():\nit returns 0\n"
        "function g():\nit returns 1\n"
        "function h():\nit returns 2\n"
    )
    forest = build_forest(chunk_flat_text(text))
    assert len(forest.roots) == 3
    assert all(forest.nodes[r].kind == "function" for r in forest.roots)


def test_unknown_kind_assigned():
    forest = build_forest(desc_of(Sentence("qwzx blorp", 0)))
    root = forest.nodes[forest.roots[0]]
    assert forest.nodes[root.children[0]].kind == "unknown"


def test_preorder_ids():
    forest = build_forest(
        desc_of(
            Sentence("when (a > 0)", 0),
            Sentence("it returns a", 1),
            Sentence("it returns 0", 0),
        )
    )
    assert [n.id for n in forest.nodes] == list(range(len(forest.nodes)))
    texts = [n.text for n in forest.iter_tree(forest.roots[0])]
    assert texts == ["f(a)", "when (a > 0)", "it returns a", "it returns 0"]


def test_function_accessors():
    forest = build_forest(desc_of(Sentence("it returns a", 0), sig="pay(a, b)"))
    (chunk,) = forest.functions
    assert (chunk.name, chunk.parameters) == ("pay", ("a", "b"))
    assert forest.nodes[forest.roots[0]].text == chunk.signature




@st.composite
def depth_sequences(draw):
    # First sentence must sit at depth 0; later ones may rise by at most one.
    depths = []
    depth = -1
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        depth = draw(st.integers(min_value=0, max_value=min(depth + 1, 5)))
        depths.append(depth)
    return depths


@given(depth_sequences())
def test_forest_shape(depths):
    sentences = [Sentence(f"it returns r{i}", d) for i, d in enumerate(depths)]
    forest = build_forest(desc_of(*sentences))
    # every input sentence becomes exactly one non-root node
    assert len(forest.nodes) == len(depths) + 1
    reachable = sum(1 for _ in forest.iter_tree(forest.roots[0]))
    assert reachable == len(forest.nodes)
