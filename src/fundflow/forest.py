"""Control-dependency forest: one tree per function, typed sentence nodes.

Each sentence becomes a node whose parent is the nearest preceding sentence
one depth level up (the function root for depth 0), so the tree edges encode
the control nesting expressed by the description.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .behavior import BEHAVIOR, ParsedBehavior, parse_sentence
from .description import ContractDescription, FunctionChunk, split_signature
from .errors import MalformedNesting

FUNCTION = "function"


@dataclass
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

    def function_name(self, root_id: int) -> str:
        return split_signature(self.nodes[root_id].text)[0]

    def function_parameters(self, root_id: int) -> tuple[str, ...]:
        return split_signature(self.nodes[root_id].text)[1]

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
    for sentence in chunk.sentences:
        if sentence.depth > prev_depth + 1:
            raise MalformedNesting(
                f"in {chunk.signature}: sentence {sentence.text!r} at depth "
                f"{sentence.depth} after depth {prev_depth}"
            )
        parse = parsed.get(sentence.text)
        if parse is None:
            parse = parsed[sentence.text] = parse_sentence(sentence.text)
        kind, behavior = parse
        node = DepNode(
            id=len(forest.nodes), kind=kind, text=sentence.text, behavior=behavior
        )
        forest.nodes.append(node)
        forest.nodes[parents[sentence.depth]].children.append(node.id)
        del parents[sentence.depth + 1 :]
        parents.append(node.id)
        prev_depth = sentence.depth
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


def forest_to_json(forest: ContractForest) -> dict:
    return {
        "contract": forest.contract_id,
        "roots": list(forest.roots),
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "text": n.text,
                "children": list(n.children),
                **({"behavior": n.behavior.to_json()} if n.behavior else {}),
            }
            for n in forest.nodes
        ],
    }
