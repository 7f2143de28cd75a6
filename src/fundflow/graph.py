"""Entity-level flow graph built from the control-dependency forest.

Each function's tree is traversed depth-first with a stack of enclosing
condition sentences. Behavior nodes propagate taint from already-visited
sources to their destination, and every edge carries the source's inherited
conditions plus the conditions pushed since the source was recorded. After
all per-function passes, same-named global entities collapse into one node,
which is what links flows across functions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

from .entities import EntityId, PropagationTuple, extract_tuple, resolve_sources
from .forest import BEHAVIOR, CONDITION, ContractForest


@dataclass
class VisitRecord:
    """First-visit state of an entity within one function traversal:
    ``condition_snapshot`` is the number of conditions pushed before it."""

    entity: EntityId
    conditions: tuple[str, ...]
    condition_snapshot: int


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


_POP = -1  # work-stack marker: leave the innermost condition (node ids are >= 0)


def _transform_function(
    graph: FlowGraph,
    forest: ContractForest,
    root_id: int,
    extra_globals: frozenset[str],
) -> None:
    scope = forest.function_name(root_id)
    visited: dict[EntityId, VisitRecord] = {}

    def seed(entity: EntityId) -> None:
        if entity not in visited:
            visited[entity] = VisitRecord(entity, (), 0)
            graph.add_node(entity)

    params = forest.function_parameters(root_id)
    for entity in resolve_sources(params, scope, extra_globals):
        seed(entity)

    # One preorder pass extracts the propagation tuples, so operation
    # occurrence numbers follow document order, and seeds the globals the
    # function reads: they are live on entry.
    op_counts: dict[str, int] = {}
    tuples: dict[int, PropagationTuple] = {}
    for node in forest.iter_tree(root_id):
        if node.kind == BEHAVIOR and node.behavior is not None:
            prop = extract_tuple(node.behavior, scope, extra_globals, op_counts)
            tuples[node.id] = prop
            for source in prop.sources:
                if not source.scope:
                    seed(source)

    # Depth-first walk with an explicit stack. ``held`` holds the texts of
    # the enclosing conditions, outermost first, and ``pushed`` the push
    # number of each. Push numbers only grow, so the conditions pushed after
    # a record's snapshot are a suffix of ``held``, even across pops.
    held: list[str] = []
    pushed: list[int] = []
    pushes = 0

    def process_behavior(node_id: int) -> None:
        prop = tuples.get(node_id)
        if prop is None or prop.dst is None:
            return
        if prop.dst in visited:
            return
        contributing = [visited[s] for s in prop.sources if s in visited]
        if not contributing:
            return
        annotations: list[tuple[str, ...]] = []
        for record in contributing:
            delta = held[bisect_right(pushed, record.condition_snapshot) :]
            annotation = _ordered_union(record.conditions, delta)
            graph.add_edge(
                FlowEdge(record.entity, prop.dst, annotation, function=scope)
            )
            annotations.append(annotation)
        visited[prop.dst] = VisitRecord(prop.dst, _ordered_union(*annotations), pushes)

    work = list(reversed(forest.node(root_id).children))
    while work:
        node_id = work.pop()
        if node_id == _POP:
            held.pop()
            pushed.pop()
            continue
        node = forest.node(node_id)
        if node.kind == CONDITION:
            pushes += 1
            held.append(node.text)
            pushed.append(pushes)
            work.append(_POP)
        elif node.kind == BEHAVIOR:
            process_behavior(node_id)
        work.extend(reversed(node.children))


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
