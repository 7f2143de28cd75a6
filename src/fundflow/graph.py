"""Entity-level flow graph built from the control-dependency forest.

Each function's tree is walked once, depth-first, and every node carries the
chain of condition sentences that enclose it. Behavior nodes propagate taint
from already-visited sources to their destination, and every edge carries the
source's inherited conditions plus the conditions pushed since the source was
recorded. After all per-function passes, same-named global entities collapse
into one node, which is what links flows across functions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import NamedTuple

from .behavior import CONDITION
from .description import function_scopes
from .entities import EntityId, extract_tuple, resolve_sources
from .forest import ContractForest


class FlowEdge(NamedTuple):
    src: str  # node keys
    dst: str
    conditions: tuple[str, ...]
    function: str


@dataclass
class FlowGraph:
    """Immutable after construction; each node key maps to its entity."""

    nodes: dict[str, EntityId] = field(default_factory=dict)
    edges: list[FlowEdge] = field(default_factory=list)
    # node keys of every function's parameters, as ``transform`` seeds them
    parameters: set[str] = field(default_factory=set)
    # The table reachability walks, kept by ``add_edge``: each node key's
    # out-edges and in-edges, in the order they were added. Read it with
    # ``.get``, so that a missing key adds no entry.
    outgoing: dict[str, list[FlowEdge]] = field(
        default_factory=lambda: defaultdict(list), repr=False
    )
    incoming: dict[str, list[FlowEdge]] = field(
        default_factory=lambda: defaultdict(list), repr=False
    )

    def add_node(self, entity: EntityId) -> None:
        self.nodes.setdefault(entity.key, entity)

    def add_edge(self, edge: FlowEdge) -> None:
        """Add an edge between two nodes already added."""
        self.outgoing[edge.src].append(edge)
        self.incoming[edge.dst].append(edge)
        self.edges.append(edge)


def transform(forest: ContractForest) -> FlowGraph:
    """Build the flow graph: per-function traversals, then a global merge.

    The visited set starts with the function's parameters and the globals the
    function reads (source position), all carrying empty condition sets. A
    destination acquires in-edges only at the step that first visits it.
    """
    graph = FlowGraph()
    # each distinct mention is classified once per call, not once per function
    resolved: dict[str, EntityId | None] = {}
    scopes = function_scopes(forest.functions)
    for root_id, chunk, scope in zip(forest.roots, forest.functions, scopes):
        _transform_function(graph, forest, root_id, chunk.parameters, scope, resolved)
    return graph


def _transform_function(
    graph: FlowGraph,
    forest: ContractForest,
    root_id: int,
    params: tuple[str, ...],
    scope: str,
    resolved: dict[str, EntityId | None],
) -> None:
    # first-visit conditions of each node key the function has reached
    visited: dict[str, tuple[str, ...]] = {}
    for entity in resolve_sources(params, scope, resolved):
        visited[entity.key] = ()
        graph.add_node(entity)
        graph.parameters.add(entity.key)

    # One preorder walk, on a stack of child iterators, each with the
    # conditions enclosing those children, outermost first and without
    # repeats. The walk extracts the propagation tuples, so operation
    # occurrence numbers follow document order, and seeds the globals the
    # function reads: they are live on entry, so edges wait until the walk
    # is done. A tuple without a destination adds no edge and is not kept.
    nodes = forest.nodes
    op_counts: dict[str, int] = {}
    steps: list[tuple[tuple[EntityId, ...], EntityId, tuple[str, ...]]] = []
    stack = [(iter(nodes[root_id].children), ())]
    while stack:
        children, enclosing = stack[-1]
        for child in children:
            node = nodes[child]
            if node.kind == CONDITION:
                if node.children:
                    inner = enclosing if node.text in enclosing else enclosing + (node.text,)
                    stack.append((iter(node.children), inner))
                    break
                continue
            if node.behavior is not None:
                sources, dst = extract_tuple(node.behavior, scope, op_counts, resolved)
                for source in sources:
                    if not source.scope and source.key not in visited:
                        visited[source.key] = ()
                        graph.add_node(source)
                if dst is not None:
                    steps.append((sources, dst, enclosing))
            if node.children:
                stack.append((iter(node.children), enclosing))
                break
        else:
            stack.pop()

    # An edge carries its source's conditions plus the enclosing ones pushed
    # since the source was visited. Every visited entity already carries all
    # the conditions enclosing its first visit, so adding every enclosing
    # condition gives the same ordered union. A destination keeps its first
    # edge's: only calls have several sources, and no operation is a source.
    new_edge = tuple.__new__  # as FlowEdge(...), without its Python-level __new__
    for sources, dst, enclosing in steps:
        if dst.key in visited:
            continue
        for source in sources:
            held = visited.get(source.key)
            if held is not None:
                annotation = tuple(dict.fromkeys(held + enclosing)) if held else enclosing
                if dst.key not in visited:  # a source is a node already
                    visited[dst.key] = annotation
                    graph.add_node(dst)
                graph.add_edge(new_edge(FlowEdge, (source.key, dst.key, annotation, scope)))


def conditions_json(conditions: tuple[str, ...]) -> str:
    """An edge's condition list as JSON text."""
    return "[%s]" % ",".join(map(encode_basestring, conditions))


def graph_to_json(graph: FlowGraph) -> str:
    """``graph.json`` as compact JSON text (see ``pipeline.write_json``).
    Each node key, and each condition tuple that edges share, is encoded
    once."""
    ids = {key: encode_basestring(key) for key in graph.nodes}
    nodes = ",".join(
        f'{{"id":{ids[key]},"label":{encode_basestring(ent.display)},'
        f'"flavor":{encode_basestring(ent.flavor)}}}'
        for key, ent in graph.nodes.items()
    )
    conditions: dict[tuple[str, ...], str] = {}
    edges = []
    for e in graph.edges:
        cond = conditions.get(e.conditions)
        if cond is None:
            cond = conditions[e.conditions] = conditions_json(e.conditions)
        edges.append(
            f'{{"from":{ids[e.src]},"to":{ids[e.dst]},"conditions":{cond},'
            f'"function":{encode_basestring(e.function)}}}'
        )
    return '{"nodes":[%s],"edges":[%s]}' % (nodes, ",".join(edges))
