"""Control-dependency forest: one tree per function, typed sentence nodes.

Each sentence becomes a node whose parent is the nearest preceding sentence
one depth level up (the function root for depth 0), so the tree edges encode
the control nesting expressed by the description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring

from .behavior import BEHAVIOR, ParsedBehavior, parse_sentence
from .description import ContractDescription, FunctionChunk
from .errors import MalformedNesting

FUNCTION = "function"


@dataclass(slots=True)
class DepNode:
    """One forest node; ``behavior`` is set iff kind == 'behavior'.
    ``build_forest`` gives a leaf the empty tuple as its children."""

    id: int
    kind: str
    text: str
    children: list[int] | tuple[()] = field(default_factory=list)
    behavior: ParsedBehavior | None = None


@dataclass
class ContractForest:
    """Flat node store with preorder ids; roots are the function nodes, and
    ``functions`` holds each root's chunk, in the same order."""

    contract_id: str
    nodes: list[DepNode] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)
    functions: list[FunctionChunk] = field(default_factory=list)

    def iter_tree(self, root_id: int):
        """Yield the tree's nodes in preorder, root included."""
        stack = [root_id]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children))

    def behavior_nodes(self) -> list[DepNode]:
        return [n for n in self.nodes if n.kind == BEHAVIOR]


def _build_tree(
    forest: ContractForest,
    chunk: FunctionChunk,
    first: dict[str, DepNode],
) -> int:
    """Append one function's nodes in preorder. A leaf shares the empty
    tuple as its children, and a node gets a list with its first child: most
    nodes are leaves, and a list is one more object for the collector."""
    nodes = forest.nodes
    root_id = len(nodes)
    nodes.append(DepNode(root_id, FUNCTION, chunk.signature, ()))
    forest.roots.append(root_id)
    forest.functions.append(chunk)

    # parent candidates per depth: parents[d] is the most recent node at depth d-1
    parents: list[DepNode] = [nodes[root_id]]
    prev_depth = -1
    for text, depth in chunk.sentences:
        if depth > prev_depth + 1:
            raise MalformedNesting(
                f"in {chunk.signature}: sentence {text!r} at depth "
                f"{depth} after depth {prev_depth}"
            )
        node_id = len(nodes)
        same = first.get(text)
        if same is None:
            kind, behavior = parse_sentence(text)
            node = first[text] = DepNode(node_id, kind, text, (), behavior)
        else:
            node = DepNode(node_id, same.kind, text, (), same.behavior)
        nodes.append(node)
        parent = parents[depth]
        if parent.children:
            parent.children.append(node_id)
        else:
            parent.children = [node_id]
        del parents[depth + 1 :]
        parents.append(node)
        prev_depth = depth
    return root_id


def build_forest(desc: ContractDescription) -> ContractForest:
    """Build the control-dependency forest for a whole contract description.

    Each distinct sentence text is parsed once; nodes with the same text
    share the parse of its first node, which nothing mutates.
    """
    forest = ContractForest(contract_id=desc.contract_id)
    first: dict[str, DepNode] = {}  # the first node of each sentence text
    for chunk in desc.functions:
        _build_tree(forest, chunk, first)
    return forest


def _behavior_json(parsed: ParsedBehavior) -> str:
    """A parse as ``{"kind", "fields"}``; a field is a string or, for
    ``args``, a list of strings. Slot names are ASCII identifiers, written
    as they are."""
    fields = []
    for slot, value in parsed.fields.items():
        if slot == "args":
            fields.append('"args":[%s]' % ",".join(map(encode_basestring, value)))
        else:
            fields.append('"%s":%s' % (slot, encode_basestring(value)))
    return '{"kind":"%s","fields":{%s}}' % (parsed.kind, ",".join(fields))


def forest_to_json(forest: ContractForest) -> str:
    """``forest.json`` as compact JSON text (see ``pipeline.write_json``).
    A parse shared by nodes of the same text is encoded once. Node kinds,
    like parse kinds and slot names, are ASCII words, written as they are."""
    behaviors: dict[int, str] = {}  # id of a parse -> its ',"behavior":...' member
    nodes = []
    for n in forest.nodes:
        if n.behavior is None:
            member = ""
        else:
            member = behaviors.get(id(n.behavior))
            if member is None:
                member = behaviors[id(n.behavior)] = ',"behavior":' + _behavior_json(n.behavior)
        children = ",".join(map(str, n.children)) if n.children else ""
        nodes.append(
            f'{{"id":{n.id},"kind":"{n.kind}","text":{encode_basestring(n.text)},'
            f'"children":[{children}]{member}}}'
        )
    return '{"contract":%s,"roots":[%s],"nodes":[%s]}' % (
        encode_basestring(forest.contract_id),
        ",".join(map(str, forest.roots)),
        ",".join(nodes),
    )
