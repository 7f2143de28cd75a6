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
    outgoing = graph.outgoing
    seen = {ent.key() for ent in ingress} & graph.nodes.keys()
    stack = list(seen)
    while stack:
        for edge in outgoing.get(stack.pop(), ()):
            dst = edge.dst.key()
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
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
    # render_path of each path, and the "hops" and "conditions" members of
    # its paths.json object as JSON text, built along the search
    rendered: list[str] = field(default_factory=list)
    encoded: list[str] = field(default_factory=list)


def _step(ent: EntityId, conditions: tuple[str, ...] | None) -> tuple[str, str, str]:
    """What a path's three texts gain when it reaches ``ent`` over an edge
    with ``conditions``: its ``render_path`` text, and its hop and the
    edge's condition list as paths.json text, each after a comma. A path's
    first node (``conditions`` None) has no edge, and its hop no comma."""
    hop = '{"id":%s,"display":%s}' % (encode_basestring(ent.key()), encode_basestring(ent.display))
    if conditions is None:
        return ent.display, hop, ""
    return (
        " --[%s]--> %s" % (", ".join(conditions), ent.display),
        "," + hop,
        "," + conditions_json(conditions),
    )


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

    Each path's ``rendered`` and ``encoded`` texts are its parent prefix's
    plus the step to its last node, joined when the path is expanded or
    emitted, so paths that share a prefix build it once.
    """
    nodes = graph.nodes
    # fewest hops from each node to an egress node, by a breadth-first pass
    # against the edges; its keys are the nodes that can reach egress
    hops = {ent.key(): 0 for ent in anchors.egress if ent.key() in nodes}
    queue = list(hops)
    for key in queue:  # grows while it is walked, so in order of hops
        for edge in graph.incoming.get(key, ()):
            src = edge.src.key()
            if src not in hops:
                hops[src] = hops[key] + 1
                queue.append(src)
    retained_keys = {e.key() for e in reach} & hops.keys()
    result = EnumerationResult(paths=[], retained_nodes={nodes[k] for k in retained_keys})
    # (dst key, conditions) of an expanded node's out-edges within the
    # retained set, sorted stably by destination key
    steps: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    budget, max_paths = limits.budget, limits.max_paths
    # A frame for each expanded partial path, innermost last: its node keys,
    # the condition list of each edge, its three texts, the most hops to
    # egress that fit after one more edge, and an iterator over the steps
    # still to try from its last node. The bottom frame is the empty path,
    # whose steps are the starts, which any number of hops fits.
    starts = sorted({e.key() for e in anchors.ingress} & retained_keys)
    stack = [((), (), ("", "", ""), len(nodes), iter([(key, None) for key in starts]))]
    while stack:
        path, conds, (text, hop_text, cond_text), depth_left, todo = stack[-1]
        for key, cond in todo:
            if key in path:
                continue
            if hops[key] > depth_left:
                result.truncated = True
                continue
            break
        else:
            stack.pop()
            continue
        # the partial path that ends at key
        if hops[key] == 0:
            if len(result.paths) >= max_paths:
                result.truncated = True
                return result
        elif result.expansions >= budget:
            result.truncated = True
            return result
        step_text, step_hop, step_cond = _step(nodes[key], cond)
        text, hop_text, cond_text = text + step_text, hop_text + step_hop, cond_text + step_cond
        path += (key,)
        if cond is not None:
            conds += (cond,)
        if hops[key] == 0:
            result.paths.append(
                FundFlowPath(hops=tuple(map(nodes.__getitem__, path)), conditions=conds)
            )
            result.rendered.append(text)
            result.encoded.append('"hops":[%s],"conditions":[%s]' % (hop_text, cond_text[1:]))
            continue
        result.expansions += 1
        if key not in steps:
            edges = graph.outgoing.get(key, ())
            out = [(e.dst.key(), e.conditions) for e in edges if e.dst.key() in retained_keys]
            steps[key] = sorted(out, key=itemgetter(0))
        texts = (text, hop_text, cond_text)
        stack.append((path, conds, texts, limits.max_depth - len(path), iter(steps[key])))
    return result


def render_path(path: FundFlowPath) -> str:
    """`a --[c1, c2]--> b` style; an empty condition list renders as --[]-->.

    This defines the format of ``EnumerationResult.rendered``, which the
    enumeration builds one ``_step`` at a time."""
    hops = path.hops
    parts = [hops[0].display]
    for conditions, hop in zip(path.conditions, hops[1:]):
        parts.append("--[%s]--> %s" % (", ".join(conditions), hop.display))
    return " ".join(parts)


def paths_to_json(result: EnumerationResult, rendered: list[str]) -> str:
    """``paths.json`` as compact JSON text (see ``pipeline.write_json``).
    ``result`` is what ``prune_and_enumerate`` returned, and ``rendered``
    holds ``render_path`` of each of its paths, in order: each path's hops
    and conditions are the text the search encoded for it."""
    return '{"truncated":%s,"paths":[%s]}' % (
        "true" if result.truncated else "false",
        ",".join(
            '{"rendered":%s,%s}' % (encode_basestring(text), members)
            for text, members in zip(rendered, result.encoded, strict=True)
        ),
    )
