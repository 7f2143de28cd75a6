"""Ingress/egress anchors, fund-flow reachability, and path rendering.

Ingress nodes are where attacker-influenced value enters (transaction fields
plus every function parameter); egress nodes are fund-moving operations.
Reachability runs forward from ingress, prunes against backward reachability
from egress, and enumerates simple ingress-to-egress paths with the edge
conditions carried along verbatim.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .entities import LIFTER_ALIASES, OPERATION, VARIABLE, EntityId, resolve_sources
from .forest import ContractForest
from .graph import FlowGraph

PREDEFINED_INGRESS = (
    "msg.sender",
    "msg.value",
    "tx.origin",
    "address(this).balance",
)

PREDEFINED_EGRESS = (
    "transfer",
    "transferFrom",
    "approve",
    "deposit",
    "withdraw",
    "flashLoan",
    "swapExactTokensForTokens",
    "selfdestruct",
    "delegatecall",
)

_EGRESS_LOWER = frozenset(name.lower() for name in PREDEFINED_EGRESS)


@dataclass
class AnchorSets:
    ingress: set[EntityId] = field(default_factory=set)
    egress: set[EntityId] = field(default_factory=set)


def identify_ingress(
    graph: FlowGraph,
    forest: ContractForest,
    extra_globals: frozenset[str] = frozenset(),
) -> set[EntityId]:
    """Variable nodes named like transaction fields, plus parameter nodes."""
    out: set[EntityId] = set()
    for ent in graph.nodes.values():
        if ent.flavor != VARIABLE or ent.scope:
            continue
        canonical = LIFTER_ALIASES.get(ent.name, ent.name)
        if canonical in PREDEFINED_INGRESS:
            out.add(ent)
    for root_id in forest.roots:
        scope = forest.function_name(root_id)
        params = forest.function_parameters(root_id)
        for ent in resolve_sources(params, scope, extra_globals):
            if ent.key() in graph.nodes:
                out.add(graph.nodes[ent.key()])
    return out


def egress_label(label: str) -> str:
    """Final dot-separated identifier segment, lowercased, parens stripped."""
    segment = label.rsplit(".", 1)[-1]
    return segment.split("(", 1)[0].strip().lower()


def identify_egress(graph: FlowGraph) -> set[EntityId]:
    return {
        ent
        for ent in graph.nodes.values()
        if ent.flavor == OPERATION and egress_label(ent.name) in _EGRESS_LOWER
    }


def forward_reach(graph: FlowGraph, ingress: set[EntityId]) -> set[EntityId]:
    """All nodes reachable from any ingress node along directed edges."""
    return {graph.nodes[key] for key in _closure(graph, ingress, forward=True)}


def _closure(graph: FlowGraph, starts: set[EntityId], forward: bool) -> set[str]:
    """Keys of the nodes reachable from ``starts`` along edges, or against
    them when ``forward`` is false."""
    edges_of = graph.out_edges if forward else graph.in_edges
    end = attrgetter("dst" if forward else "src")
    seen: set[str] = set()
    stack = [ent.key() for ent in starts if ent.key() in graph.nodes]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        for edge in edges_of(key):
            if end(edge).key() not in seen:
                stack.append(end(edge).key())
    return seen


@dataclass(frozen=True)
class FundFlowPath:
    """A simple ingress-to-egress chain with per-edge condition lists."""

    hops: tuple[EntityId, ...]
    conditions: tuple[tuple[str, ...], ...]  # one entry per edge


@dataclass(frozen=True)
class ReachLimits:
    max_depth: int = 32
    max_paths: int = 256


@dataclass
class EnumerationResult:
    paths: list[FundFlowPath]
    truncated: bool = False  # a limit cut the enumeration short
    retained_nodes: set[EntityId] = field(default_factory=set)


def prune_and_enumerate(
    graph: FlowGraph,
    reach: set[EntityId],
    anchors: AnchorSets,
    limits: ReachLimits = ReachLimits(),
) -> EnumerationResult:
    """Keep nodes on some ingress-egress chain, then list simple paths.

    Enumeration is depth-first with successors ordered by node key, so the
    output order is stable. Hitting either limit sets the truncated flag
    instead of raising.
    """
    backward = _closure(graph, anchors.egress, forward=False)
    retained_keys = {e.key() for e in reach} & backward
    result = EnumerationResult(
        paths=[], retained_nodes={graph.nodes[k] for k in retained_keys}
    )
    egress_keys = {e.key() for e in anchors.egress}
    starts = sorted(
        (e.key() for e in anchors.ingress if e.key() in retained_keys),
    )
    # (dst key, conditions) of each retained node's out-edges within the
    # retained set, sorted stably by destination key
    successors: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for key in retained_keys:
        steps = [
            (e.dst.key(), e.conditions)
            for e in graph.out_edges(key)
            if e.dst.key() in retained_keys
        ]
        steps.sort(key=itemgetter(0))
        successors[key] = steps

    # Depth-first with an explicit stack: frames[i] iterates the successors
    # of path_keys[i] still to be tried, and conds[i] is the condition list
    # of the edge into path_keys[i + 1].
    for start in starts:
        path_keys = [start]
        conds: list[tuple[str, ...]] = []
        on_path = {start}
        frames: list[Iterator[tuple[str, tuple[str, ...]]]] = []
        while True:
            current = path_keys[-1]
            if current in egress_keys:
                if len(result.paths) >= limits.max_paths:
                    result.truncated = True
                    return result
                result.paths.append(
                    FundFlowPath(
                        hops=tuple(graph.nodes[k] for k in path_keys),
                        conditions=tuple(conds),
                    )
                )
                steps = []
            else:
                steps = [s for s in successors[current] if s[0] not in on_path]
                if steps and len(path_keys) - 1 >= limits.max_depth:
                    result.truncated = True
                    steps = []
            frames.append(iter(steps))
            # backtrack to the deepest hop with a successor left to try
            while frames:
                step = next(frames[-1], None)
                if step is not None:
                    break
                frames.pop()
                on_path.remove(path_keys.pop())
                if conds:
                    conds.pop()
            if not frames:
                break
            path_keys.append(step[0])
            conds.append(step[1])
            on_path.add(step[0])
    return result


def render_path(path: FundFlowPath) -> str:
    """`a --[c1, c2]--> b` style; an empty condition list renders as --[]-->."""
    parts = [path.hops[0].display]
    for conditions, hop in zip(path.conditions, path.hops[1:]):
        parts.append(f"--[{', '.join(conditions)}]-->")
        parts.append(hop.display)
    return " ".join(parts)


def paths_to_json(result: EnumerationResult, rendered: list[str]) -> dict:
    """``rendered`` holds ``render_path`` of each path, in result order."""
    return {
        "truncated": result.truncated,
        "paths": [
            {
                "rendered": text,
                "hops": [
                    {"id": h.key(), "display": h.display} for h in p.hops
                ],
                "conditions": [list(c) for c in p.conditions],
            }
            for p, text in zip(result.paths, rendered, strict=True)
        ],
    }
