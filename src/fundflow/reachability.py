"""Ingress/egress anchors, fund-flow reachability, and path rendering.

Ingress nodes are where attacker-influenced value enters (transaction fields
plus every function parameter); egress nodes are fund-moving operations.
Reachability runs forward from ingress, prunes to the nodes that reach
egress, and enumerates simple ingress-to-egress paths with the edge
conditions carried along verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring
from operator import itemgetter

from .entities import LIFTER_ALIASES, OPERATION, VARIABLE, EntityId
from .graph import FlowGraph, conditions_json

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


def identify_ingress(graph: FlowGraph) -> set[EntityId]:
    """Variable nodes named like transaction fields, plus the parameter
    nodes ``transform`` recorded."""
    out = {graph.nodes[key] for key in graph.parameters}
    for ent in graph.nodes.values():
        if ent.flavor != VARIABLE or ent.scope:
            continue
        canonical = LIFTER_ALIASES.get(ent.name, ent.name)
        if canonical in PREDEFINED_INGRESS:
            out.add(ent)
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
    seen: set[str] = set()
    stack = [ent.key() for ent in ingress if ent.key() in graph.nodes]
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(e.dst.key() for e in graph.out_edges(key))
    return {graph.nodes[key] for key in seen}


@dataclass(frozen=True)
class FundFlowPath:
    """A simple ingress-to-egress chain with per-edge condition lists."""

    hops: tuple[EntityId, ...]
    conditions: tuple[tuple[str, ...], ...]  # one entry per edge


@dataclass(frozen=True)
class ReachLimits:
    max_depth: int = 32
    max_paths: int = 256

    @property
    def budget(self) -> int:
        """Expansions an enumeration may make before it stops, truncated.

        It bounds graphs with cycles, where a successor can pass the
        distance test and still dead-end on nodes already on the path. On an
        acyclic graph the shortest way to egress never meets the path, so
        every expanded partial path is a proper prefix of one of the at most
        max_paths + 1 paths found before the cut: at most (max_paths + 1) x
        max_depth expansions, and the budget never fires there.
        """
        return 16 * (self.max_paths + 1) * (self.max_depth + 1)


@dataclass
class EnumerationResult:
    paths: list[FundFlowPath]
    truncated: bool = False  # a limit or the work budget cut the enumeration short
    retained_nodes: set[EntityId] = field(default_factory=set)
    expansions: int = 0  # partial paths whose successors were tried


def prune_and_enumerate(
    graph: FlowGraph,
    reach: set[EntityId],
    anchors: AnchorSets,
    limits: ReachLimits = ReachLimits(),
) -> EnumerationResult:
    """Keep nodes on some ingress-egress chain, then list simple paths.

    Enumeration is depth-first with successors ordered by node key, so the
    output order is stable. A successor is skipped when it is already on
    the path, or when its fewest hops to egress do not fit in the depth
    left. Skipping one for depth, finding more than ``max_paths`` paths, or
    running out of the work budget sets the truncated flag instead of
    raising.
    """
    # fewest hops from each node to an egress node, by a breadth-first pass
    # against the edges; its keys are the nodes that can reach egress
    hops = {ent.key(): 0 for ent in anchors.egress if ent.key() in graph.nodes}
    queue = list(hops)
    for key in queue:  # grows while it is walked, so in order of hops
        for edge in graph.in_edges(key):
            if edge.src.key() not in hops:
                hops[edge.src.key()] = hops[key] + 1
                queue.append(edge.src.key())
    retained_keys = {e.key() for e in reach} & hops.keys()
    result = EnumerationResult(
        paths=[], retained_nodes={graph.nodes[k] for k in retained_keys}
    )
    # (dst key, conditions) of an expanded node's out-edges within the
    # retained set, sorted stably by destination key
    successors: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    starts = {e.key() for e in anchors.ingress} & retained_keys
    budget = limits.budget
    # (node keys, condition list of each edge) of the partial paths still to
    # extend; successors go on in reverse so the smallest key comes off first
    stack = [((key,), ()) for key in sorted(starts, reverse=True)]
    while stack:
        path, conds = stack.pop()
        key = path[-1]
        if hops[key] == 0:
            if len(result.paths) >= limits.max_paths:
                result.truncated = True
                return result
            result.paths.append(
                FundFlowPath(hops=tuple(graph.nodes[k] for k in path), conditions=conds)
            )
            continue
        if result.expansions >= budget:
            result.truncated = True
            return result
        result.expansions += 1
        if key not in successors:
            edges = graph.out_edges(key)
            steps = [(e.dst.key(), e.conditions) for e in edges if e.dst.key() in retained_keys]
            successors[key] = sorted(steps, key=itemgetter(0))
        depth_left = limits.max_depth - len(path)  # after one more edge
        for dst, cond in reversed(successors[key]):
            if dst in path:
                continue
            if hops[dst] > depth_left:
                result.truncated = True
                continue
            stack.append((path + (dst,), conds + (cond,)))
    return result


def render_path(path: FundFlowPath) -> str:
    """`a --[c1, c2]--> b` style; an empty condition list renders as --[]-->."""
    hops = path.hops
    parts = [hops[0].display]
    for conditions, hop in zip(path.conditions, hops[1:]):
        parts.append("--[%s]--> %s" % (", ".join(conditions), hop.display))
    return " ".join(parts)


def paths_to_json(result: EnumerationResult, rendered: list[str]) -> str:
    """``paths.json`` as compact JSON text (see ``pipeline.write_json``).
    ``rendered`` holds ``render_path`` of each path, in result order. Each
    entity's hop object, and each condition tuple, is encoded once and
    reused wherever paths share it: the memos are keyed by object identity,
    as paths share the graph's entities and its edges' condition tuples."""
    hops: dict[int, str] = {}
    conditions: dict[int, str] = {}
    paths = []
    for p, text in zip(result.paths, rendered, strict=True):
        hop_json = []
        for h in p.hops:
            member = hops.get(id(h))
            if member is None:
                member = hops[id(h)] = '{"id":%s,"display":%s}' % (
                    encode_basestring(h.key()),
                    encode_basestring(h.display),
                )
            hop_json.append(member)
        conds_json = []
        for c in p.conditions:
            member = conditions.get(id(c))
            if member is None:
                member = conditions[id(c)] = conditions_json(c)
            conds_json.append(member)
        paths.append(
            '{"rendered":%s,"hops":[%s],"conditions":[%s]}'
            % (encode_basestring(text), ",".join(hop_json), ",".join(conds_json))
        )
    return '{"truncated":%s,"paths":[%s]}' % (
        "true" if result.truncated else "false",
        ",".join(paths),
    )
