"""Entity-level flow graph built from the control-dependency forest.

Each function's tree is walked once, depth-first, and every node carries the
chain of condition sentences that enclose it. Behavior nodes propagate taint
from already-visited sources to their destination, and every edge carries the
source's inherited conditions plus the conditions pushed since the source was
recorded. After all per-function passes, same-named global entities collapse
into one node, which is what links flows across functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .behavior import CONDITION
from .entities import EntityId, PropagationTuple, extract_tuple, resolve_sources
from .forest import ContractForest


@dataclass(frozen=True)
class FlowEdge:
    src: EntityId
    dst: EntityId
    conditions: tuple[str, ...]
    function: str


@dataclass
class FlowGraph:
    """Immutable after construction; nodes keyed by canonical entity key."""

    nodes: dict[str, EntityId] = field(default_factory=dict)
    edges: list[FlowEdge] = field(default_factory=list)
    _out: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _in: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def add_node(self, entity: EntityId) -> None:
        self.nodes.setdefault(entity.key(), entity)

    def add_edge(self, edge: FlowEdge) -> None:
        self.add_node(edge.src)
        self.add_node(edge.dst)
        self.edges.append(edge)
        self._out.setdefault(edge.src.key(), []).append(len(self.edges) - 1)
        self._in.setdefault(edge.dst.key(), []).append(len(self.edges) - 1)

    def out_edges(self, key: str) -> list[FlowEdge]:
        return [self.edges[i] for i in self._out.get(key, [])]

    def in_edges(self, key: str) -> list[FlowEdge]:
        return [self.edges[i] for i in self._in.get(key, [])]


def _ordered_union(*sequences: tuple[str, ...] | list[str]) -> tuple[str, ...]:
    """Items of all sequences in first-occurrence order, without repeats."""
    return tuple(dict.fromkeys(chain.from_iterable(sequences)))


def transform(
    forest: ContractForest, extra_globals: frozenset[str] = frozenset()
) -> FlowGraph:
    """Build the flow graph: per-function traversals, then a global merge.

    The visited set starts with the function's parameters and the globals the
    function reads (source position), all carrying empty condition sets. A
    destination acquires in-edges only at the step that first visits it.
    """
    graph = FlowGraph()
    for root_id in forest.roots:
        _transform_function(graph, forest, root_id, extra_globals)
    return graph


def _transform_function(
    graph: FlowGraph,
    forest: ContractForest,
    root_id: int,
    extra_globals: frozenset[str],
) -> None:
    scope = forest.function_name(root_id)
    # first-visit conditions of each entity the function has reached
    visited: dict[EntityId, tuple[str, ...]] = {}

    def seed(entity: EntityId) -> None:
        if entity not in visited:
            visited[entity] = ()
            graph.add_node(entity)

    # each distinct mention is resolved once per function
    resolved: dict[str, EntityId | None] = {}
    params = forest.function_parameters(root_id)
    for entity in resolve_sources(params, scope, extra_globals, resolved):
        seed(entity)

    # One preorder walk. Each work item carries its enclosing conditions as a
    # linked chain ``(text, enclosing chain)``, innermost first. The walk
    # extracts the propagation tuples, so operation occurrence numbers follow
    # document order, and seeds the globals the function reads: they are
    # live on entry, so edges wait until the walk is done.
    op_counts: dict[str, int] = {}
    steps: list[tuple[PropagationTuple, tuple | None]] = []
    work: list[tuple[int, tuple | None]] = [(root_id, None)]
    while work:
        node_id, enclosing = work.pop()
        node = forest.nodes[node_id]
        if node.kind == CONDITION:
            enclosing = (node.text, enclosing)
        elif node.behavior is not None:
            prop = extract_tuple(
                node.behavior, scope, extra_globals, op_counts, resolved
            )
            for source in prop.sources:
                if not source.scope:
                    seed(source)
            steps.append((prop, enclosing))
        work.extend((child, enclosing) for child in reversed(node.children))

    # An edge carries its source's conditions plus the enclosing ones pushed
    # since the source was visited. Every visited entity already carries all
    # the conditions enclosing its first visit, so adding every enclosing
    # condition, outermost first, gives the same ordered union.
    for prop, enclosing in steps:
        dst = prop.dst
        if dst is None or dst in visited:
            continue
        sources = [s for s in prop.sources if s in visited]
        if not sources:
            continue
        texts: list[str] = []
        while enclosing is not None:
            texts.append(enclosing[0])
            enclosing = enclosing[1]
        texts.reverse()
        annotations = [_ordered_union(visited[s], texts) for s in sources]
        for source, annotation in zip(sources, annotations):
            graph.add_edge(FlowEdge(source, dst, annotation, function=scope))
        visited[dst] = _ordered_union(*annotations)


def graph_to_json(graph: FlowGraph) -> dict:
    return {
        "nodes": [
            {"id": key, "label": ent.display, "flavor": ent.flavor}
            for key, ent in graph.nodes.items()
        ],
        "edges": [
            {
                "from": e.src.key(),
                "to": e.dst.key(),
                "conditions": list(e.conditions),
                "function": e.function,
            }
            for e in graph.edges
        ],
    }
