"""Control-dependency forest: one tree per function, typed sentence nodes.

Each sentence becomes a node whose parent is the nearest preceding sentence
one depth level up (the function root for depth 0), so the tree edges encode
the control nesting expressed by the description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring

from .behavior import BEHAVIOR, ParsedBehavior, parse_sentence
from .description import ContractDescription, FunctionChunk, split_signature
from .errors import MalformedNesting

FUNCTION = "function"


@dataclass(slots=True)
class DepNode:
    """One forest node; ``behavior`` is set iff kind == 'behavior'."""

    id: int
    kind: str
    text: str
    children: list[int] = field(default_factory=list)
    behavior: ParsedBehavior | None = None


@dataclass
class ContractForest:
    """Flat node store with preorder ids; roots are the function nodes."""

    contract_id: str
    nodes: list[DepNode] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)

    def function_signature(self, root_id: int) -> tuple[str, tuple[str, ...]]:
        """A function root's name and parameters (``split_signature``)."""
        return split_signature(self.nodes[root_id].text)

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
    parsed: dict[str, tuple[str, ParsedBehavior | None]],
) -> int:
    root = DepNode(id=len(forest.nodes), kind=FUNCTION, text=chunk.signature)
    forest.nodes.append(root)
    forest.roots.append(root.id)

    # parent candidates per depth: parents[d] is the most recent node at depth d-1
    parents: list[int] = [root.id]
    prev_depth = -1
    nodes = forest.nodes
    for text, depth in chunk.sentences:
        if depth > prev_depth + 1:
            raise MalformedNesting(
                f"in {chunk.signature}: sentence {text!r} at depth "
                f"{depth} after depth {prev_depth}"
            )
        parse = parsed.get(text)
        if parse is None:
            parse = parsed[text] = parse_sentence(text)
        node = DepNode(len(nodes), parse[0], text, behavior=parse[1])
        nodes.append(node)
        nodes[parents[depth]].children.append(node.id)
        del parents[depth + 1 :]
        parents.append(node.id)
        prev_depth = depth
    return root.id


def build_forest(desc: ContractDescription) -> ContractForest:
    """Build the control-dependency forest for a whole contract description.

    Each distinct sentence text is parsed once; nodes with the same text
    share its parse, which nothing mutates.
    """
    forest = ContractForest(contract_id=desc.contract_id)
    parsed: dict[str, tuple[str, ParsedBehavior | None]] = {}
    for chunk in desc.functions:
        _build_tree(forest, chunk, parsed)
    return forest


def _behavior_json(parsed: ParsedBehavior) -> str:
    """A parse as ``{"kind", "fields"}``; a field is a string or, for
    ``args``, a list of strings."""
    fields = ",".join(
        "%s:%s"
        % (
            encode_basestring(slot),
            encode_basestring(value)
            if isinstance(value, str)
            else "[%s]" % ",".join(map(encode_basestring, value)),
        )
        for slot, value in parsed.fields.items()
    )
    return '{"kind":%s,"fields":{%s}}' % (encode_basestring(parsed.kind), fields)


def forest_to_json(forest: ContractForest) -> str:
    """``forest.json`` as compact JSON text (see ``pipeline.write_json``).
    A parse shared by nodes of the same text is encoded once."""
    behaviors: dict[int, str] = {}  # id of a parse -> its ',"behavior":...' member
    nodes = []
    for n in forest.nodes:
        if n.behavior is None:
            member = ""
        else:
            member = behaviors.get(id(n.behavior))
            if member is None:
                member = behaviors[id(n.behavior)] = ',"behavior":' + _behavior_json(n.behavior)
        nodes.append(
            '{"id":%d,"kind":%s,"text":%s,"children":[%s]%s}'
            % (
                n.id,
                encode_basestring(n.kind),
                encode_basestring(n.text),
                ",".join(map(str, n.children)),
                member,
            )
        )
    return '{"contract":%s,"roots":[%s],"nodes":[%s]}' % (
        encode_basestring(forest.contract_id),
        ",".join(map(str, forest.roots)),
        ",".join(nodes),
    )
