"""Randomized audit of the reachability engine against brute-force oracles.

Generates random directed graphs, compares forward reachability with a
plain worklist closure and path enumeration with an unbounded DFS, then runs
each graph again under small random limits and checks the result against
the same DFS cut to those limits. Each run's rendered texts, which the
enumeration builds along its search, must be ``render_path`` of its paths.
Reports throughput. Any mismatch aborts with the offending seed.

Usage: python3 scripts/audit_reachability.py [--graphs N] [--max-nodes K] [--seed S]
"""

import argparse
import random
import time

from fundflow.entities import EntityId
from fundflow.graph import FlowEdge, FlowGraph
from fundflow.reachability import (
    AnchorSets,
    ReachLimits,
    forward_reach,
    prune_and_enumerate,
    render_path,
)


def closure(graph: FlowGraph, starts: set) -> set:
    seen = set()
    frontier = list(starts)
    while frontier:
        key = frontier.pop()
        if key in seen:
            continue
        seen.add(key)
        frontier.extend(e.dst for e in graph.outgoing.get(key, ()))
    return seen


def all_simple_paths(graph: FlowGraph, ingress_keys: set, egress_keys: set) -> list:
    found = []

    def dfs(path: list) -> None:
        cur = path[-1]
        if cur in egress_keys:
            found.append(tuple(path))
            return
        for edge in sorted(graph.outgoing.get(cur, ()), key=lambda e: e.dst):
            if edge.dst in path:
                continue
            path.append(edge.dst)
            dfs(path)
            path.pop()

    for start in sorted(ingress_keys):
        dfs([start])
    return found


def is_acyclic(graph: FlowGraph) -> bool:
    """Kahn's algorithm: every node can be removed once its in-edges are."""
    indegree = {key: len(graph.incoming.get(key, ())) for key in graph.nodes}
    ready = [key for key, count in indegree.items() if count == 0]
    for key in ready:
        for edge in graph.outgoing.get(key, ()):
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                ready.append(edge.dst)
    return len(ready) == len(graph.nodes)


def text_problem(result) -> str | None:
    """What is wrong with the texts of ``result``; None when nothing is."""
    if result.rendered != [render_path(p) for p in result.paths]:
        return "rendered texts differ from render_path of the paths"
    return None


def limit_problem(graph, want: list, limits: ReachLimits, result) -> str | None:
    """What is wrong with ``result``, an enumeration under ``limits``, given
    ``want``, the unlimited ``all_simple_paths``; None when nothing is."""
    got = [tuple(h.key for h in p.hops) for p in result.paths]
    cut = [p for p in want if len(p) - 1 <= limits.max_depth][: limits.max_paths]
    if result.expansions > limits.budget:
        return f"{result.expansions} expansions over the budget of {limits.budget}"
    if result.expansions == limits.budget:  # the budget may have cut the list
        cut = cut[: len(got)]
    if got != cut:
        return "paths differ from the unlimited ones cut to the limits"
    if got != want and not result.truncated:
        return "paths differ from the unlimited ones, not truncated"
    if is_acyclic(graph) and result.truncated and got == want:
        return "acyclic graph truncated with every path found"
    return None


def random_graph(rng: random.Random, max_nodes: int):
    n = rng.randint(2, max_nodes)
    p = 1.8 / n
    graph = FlowGraph()
    names = [f"n{i:02d}" for i in range(n)]
    for name in names:
        graph.add_node(EntityId("", name))
    for a in names:
        for b in names:
            if a != b and rng.random() < p:
                conds = (f"c{rng.randint(0, 5)}",) if rng.random() < 0.3 else ()
                graph.add_edge(FlowEdge(a, b, conds, "f"))
    k_in = rng.randint(1, min(3, n - 1))
    ingress_names = set(rng.sample(names, k_in))
    rest = [x for x in names if x not in ingress_names]
    egress_names = set(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
    return graph, ingress_names, egress_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=1000)
    parser.add_argument("--max-nodes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20260819)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    # its own generator, so the graphs stay those of the unlimited audit
    limit_rng = random.Random(args.seed + 1)
    no_limits = ReachLimits(max_depth=10_000, max_paths=10_000_000)
    total_paths = 0
    started = time.monotonic()
    for round_no in range(args.graphs):
        graph, ingress_names, egress_names = random_graph(rng, args.max_nodes)
        reach = forward_reach(graph, ingress_names)
        if reach != closure(graph, ingress_names):
            print(f"REACHABILITY MISMATCH at graph {round_no} (seed {args.seed})")
            return 1

        anchors = AnchorSets(ingress=ingress_names, egress=egress_names)
        result = prune_and_enumerate(graph, reach, anchors, no_limits)
        got = [tuple(h.key for h in p.hops) for p in result.paths]
        want = all_simple_paths(graph, ingress_names, egress_names)
        if got != want or result.truncated:
            print(f"PATH MISMATCH at graph {round_no} (seed {args.seed})")
            return 1
        if problem := text_problem(result):
            print(f"TEXT MISMATCH at graph {round_no} (seed {args.seed}): {problem}")
            return 1
        total_paths += len(got)

        limits = ReachLimits(
            max_depth=limit_rng.randint(0, 6), max_paths=limit_rng.randint(0, 8)
        )
        limited = prune_and_enumerate(graph, reach, anchors, limits)
        problem = limit_problem(graph, want, limits, limited) or text_problem(limited)
        if problem:
            print(f"LIMIT MISMATCH at graph {round_no} (seed {args.seed}): {problem}")
            return 1
    elapsed = time.monotonic() - started

    print(
        f"{args.graphs} graphs (2..{args.max_nodes} nodes, seed {args.seed}): "
        f"all closures, path lists and rendered texts match the oracles, with and without limits"
    )
    print(f"{total_paths} paths cross-checked in {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
