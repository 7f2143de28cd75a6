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
from itertools import chain
from json.encoder import encode_basestring
from typing import NamedTuple

from .behavior import CONDITION
from .entities import EntityId, PropagationTuple, extract_tuple, resolve_sources
from .forest import ContractForest


class FlowEdge(NamedTuple):
    src: EntityId
    dst: EntityId
    conditions: tuple[str, ...]
    function: str


@dataclass
class FlowGraph:
    """Immutable after construction; nodes keyed by canonical entity key."""

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
        self.nodes.setdefault(entity.key(), entity)

    def add_edge(self, edge: FlowEdge) -> None:
        src, dst = edge.src, edge.dst
        src_key, dst_key = src.key(), dst.key()
        self.nodes.setdefault(src_key, src)
        self.nodes.setdefault(dst_key, dst)
        self.outgoing[src_key].append(edge)
        self.incoming[dst_key].append(edge)
        self.edges.append(edge)

    def out_edges(self, key: str) -> list[FlowEdge]:
        return list(self.outgoing.get(key, ()))

    def in_edges(self, key: str) -> list[FlowEdge]:
        return list(self.incoming.get(key, ()))


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
    # each distinct mention is classified once per call, not once per function
    resolved: dict[str, EntityId | None] = {}
    for root_id in forest.roots:
        _transform_function(graph, forest, root_id, extra_globals, resolved)
    return graph


def _transform_function(
    graph: FlowGraph,
    forest: ContractForest,
    root_id: int,
    extra_globals: frozenset[str],
    resolved: dict[str, EntityId | None],
) -> None:
    scope, params = forest.function_signature(root_id)
    # first-visit conditions of each entity the function has reached
    visited: dict[EntityId, tuple[str, ...]] = {}
    for entity in resolve_sources(params, scope, extra_globals, resolved):
        visited[entity] = ()
        graph.add_node(entity)
        graph.parameters.add(entity.key())

    # One preorder walk, on a stack of child iterators, each with the
    # conditions enclosing those children, outermost first and without
    # repeats. The walk extracts the propagation tuples, so operation
    # occurrence numbers follow document order, and seeds the globals the
    # function reads: they are live on entry, so edges wait until the walk
    # is done. A tuple without a destination adds no edge and is not kept.
    nodes = forest.nodes
    op_counts: dict[str, int] = {}
    steps: list[tuple[PropagationTuple, tuple[str, ...]]] = []
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
                prop = extract_tuple(node.behavior, scope, extra_globals, op_counts, resolved)
                for source in prop.sources:
                    if not source.scope and source not in visited:
                        visited[source] = ()
                        graph.add_node(source)
                if prop.dst is not None:
                    steps.append((prop, enclosing))
            if node.children:
                stack.append((iter(node.children), enclosing))
                break
        else:
            stack.pop()

    # An edge carries its source's conditions plus the enclosing ones pushed
    # since the source was visited. Every visited entity already carries all
    # the conditions enclosing its first visit, so adding every enclosing
    # condition gives the same ordered union.
    for prop, enclosing in steps:
        dst = prop.dst
        if dst in visited:
            continue
        annotations = []
        for source in prop.sources:
            held = visited.get(source)
            if held is not None:
                annotation = _ordered_union(held, enclosing) if held else enclosing
                graph.add_edge(FlowEdge(source, dst, annotation, scope))
                annotations.append(annotation)
        if annotations:
            visited[dst] = (
                annotations[0] if len(annotations) == 1 else _ordered_union(*annotations)
            )


def conditions_json(conditions: tuple[str, ...]) -> str:
    """An edge's condition list as JSON text."""
    return "[%s]" % ",".join(map(encode_basestring, conditions))


def graph_to_json(graph: FlowGraph) -> str:
    """``graph.json`` as compact JSON text (see ``pipeline.write_json``).
    Each node key, and each condition tuple that edges share, is encoded
    once."""
    ids = {key: encode_basestring(key) for key in graph.nodes}
    nodes = ",".join(
        '{"id":%s,"label":%s,"flavor":%s}'
        % (ids[key], encode_basestring(ent.display), encode_basestring(ent.flavor))
        for key, ent in graph.nodes.items()
    )
    conditions: dict[tuple[str, ...], str] = {}
    edges = []
    for e in graph.edges:
        cond = conditions.get(e.conditions)
        if cond is None:
            cond = conditions[e.conditions] = conditions_json(e.conditions)
        edges.append(
            '{"from":%s,"to":%s,"conditions":%s,"function":%s}'
            % (ids[e.src.key()], ids[e.dst.key()], cond, encode_basestring(e.function))
        )
    return '{"nodes":[%s],"edges":[%s]}' % (nodes, ",".join(edges))
