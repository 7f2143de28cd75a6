"""In-memory spans around the public functions of each fundflow layer.

``Tracer.install`` replaces each function in the module namespace where the
pipeline looks it up (``fundflow.pipeline``, ``fundflow.probing``, ...) with a
wrapper that records a span: name, start, end, parent span and contract id.
The parent travels in a ``contextvars`` variable, and the thread pools the
program creates are swapped for a subclass that runs each task in the
submitter's context, so spans on pool threads keep their parent.
``uninstall`` puts every original back.

A span's self time is its duration minus the part of it that its child
spans cover; ``layer_metrics`` turns the spans of a run into per-contract
figures.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (span id, contract id) of the innermost open span
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)

# spans whose self time per contract is reported as "<name>.ms"
TIMED_SPANS = (
    "description.chunk",
    "forest.build",
    "graph.transform",
    "reachability.anchors",
    "reachability.forward",
    "reachability.enumerate",
    "reachability.render",
    "indicators",
    "prompts.build",
    "probing.stage1",
    "probing.stage2",
    "transport.store_load",
    "fusion",
    "pipeline.persist",
)


class Span:
    __slots__ = ("sid", "parent", "name", "contract", "start", "end", "attrs")

    def __init__(self, sid, parent, name, contract):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.contract = contract
        self.start = self.end = 0.0
        self.attrs = None

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "contract": self.contract,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pools_created = 0
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, contract: str | None = None):
        current = _CURRENT.get()
        parent, inherited = current if current else (None, None)
        span = Span(next(self._ids), parent, name, contract or inherited)
        token = _CURRENT.set((span.sid, span.contract))
        span.start = time.perf_counter()
        return span, token

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def call(self, name: str, fn, args, kwargs, attrs=None, contract=None):
        span, token = self.open(name, contract)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result
        finally:
            self.close(span, token)

    # -- patching --------------------------------------------------------

    def _set(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs)

        self._set(module, attr, wrapper)

    def install(self, batch: bool) -> None:
        """Wrap every layer boundary the pipeline crosses. For a batch, each
        worker's run_detect call becomes the contract's root span; a single
        contract's root span is opened by the caller."""
        from fundflow import description, pipeline, probing, reachability

        if batch:
            run_detect = pipeline.run_detect
            tracer = self

            @functools.wraps(run_detect)
            def contract(desc, *args, **kwargs):
                return tracer.call(
                    "contract", run_detect, (desc, *args), kwargs, contract=desc.contract_id
                )

            self._set(pipeline, "run_detect", contract)

        self.wrap(description, "chunk_flat_text", "description.chunk", _sentences)
        self.wrap(pipeline, "build_forest", "forest.build", _forest_nodes)
        self.wrap(pipeline, "transform", "graph.transform", _graph_size)
        self.wrap(pipeline, "identify_ingress", "reachability.anchors")
        self.wrap(pipeline, "identify_egress", "reachability.anchors")
        self.wrap(pipeline, "forward_reach", "reachability.forward", _reached)
        self.wrap(pipeline, "prune_and_enumerate", "reachability.enumerate", _paths)
        self.wrap(pipeline, "render_path", "reachability.render")
        self.wrap(reachability, "render_path", "reachability.render")
        self.wrap(pipeline, "compute_indicators", "indicators")
        self.wrap(probing, "build_stage1_prompts", "prompts.build", _stage1_bytes)
        self.wrap(probing, "build_stage2_prompt", "prompts.build", _stage2_bytes)
        self.wrap(pipeline, "run_stage1", "probing.stage1")
        self.wrap(pipeline, "run_stage2", "probing.stage2", _dropped)
        self.wrap(pipeline, "fuse", "fusion")
        self.wrap(pipeline, "decide", "fusion")
        self.wrap(pipeline, "write_json", "pipeline.persist", _written)
        for attr in ("description_to_json", "forest_to_json", "graph_to_json", "paths_to_json"):
            self.wrap(pipeline, attr, "pipeline.persist")
        self._set(
            pipeline, "ReplayTransport", self.traced_transport(pipeline.ReplayTransport, loads=True)
        )
        self._set(
            pipeline, "RecordTransport", self.traced_transport(pipeline.RecordTransport, writes=True)
        )
        pool = self.traced_pool()
        self._set(pipeline, "ThreadPoolExecutor", pool)
        self._set(probing, "ThreadPoolExecutor", pool)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def traced_transport(self, base, loads: bool = False, writes: bool = False):
        """Subclass of a transport class with a span on its construction and
        on each query. Constructing a store-backed transport (``loads``)
        loads the whole store; ``writes`` marks one that appends each answer."""
        tracer = self

        class Traced(base):
            def __init__(self, *args, **kwargs):
                tracer.call(
                    "transport.store_load",
                    super().__init__,
                    args,
                    kwargs,
                    lambda *_: {"loads": int(loads)},
                )

            def query(self, prompt, attempt=0):
                return tracer.call(
                    "transport.query",
                    super().query,
                    (prompt, attempt),
                    {},
                    lambda args, _: _query_attrs(args, writes),
                )

        return Traced

    def traced_pool(self):
        """ThreadPoolExecutor that counts creations and keeps span context."""
        tracer = self

        class Pool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools_created += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()
                return super().submit(ctx.run, fn, *args, **kwargs)

        return Pool

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# -- span attributes ------------------------------------------------------


def _sentences(args, desc):
    return {"sentences": sum(len(f.sentences) for f in desc.functions)}


def _forest_nodes(args, forest):
    return {"nodes": len(forest.nodes)}


def _graph_size(args, graph):
    return {"nodes": len(graph.nodes), "edges": len(graph.edges)}


def _reached(args, reach):
    return {"reached": len(reach)}


def _paths(args, result):
    return {
        "paths": len(result.paths),
        "truncated": result.truncated,
        "retained": len(result.retained_nodes),
    }


def _stage1_bytes(args, prompts):
    general, per_function = prompts
    return {"bytes": len(general.encode()) + sum(len(p.encode()) for p in per_function)}


def _stage2_bytes(args, prompt):
    return {"bytes": len(prompt.encode())}


def _dropped(args, result):
    return {"dropped": len(result.failed)}


def _written(args, path):
    return {"bytes": os.path.getsize(path)}


def _query_attrs(args, writes):
    prompt, attempt = args
    return {"prompt": hash(prompt), "attempt": attempt, "writes": int(writes)}


# -- analysis -------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover (clipped)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = [
            (max(k.start, span.start), min(k.end, span.end))
            for k in children.get(span.sid, ())
        ]
        kids = [(s, e) for s, e in kids if e > s]
        out[span.sid] = (span.end - span.start) - _covered(kids)
    return out


def layer_metrics(spans: list[Span], contracts: int) -> dict[str, float]:
    """Per-contract layer figures from one traced phase."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_ms(name):
        return sum(own[s.sid] for s in by_name[name]) * 1e3

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name])

    out = {f"{name}.ms": total_ms(name) / contracts for name in TIMED_SPANS}

    enumerations = by_name["reachability.enumerate"]
    reached = attr_sum("reachability.forward", "reached")
    queries = by_name["transport.query"]

    # queries a cache could serve: repeats within one detect invocation,
    # i.e. one contract for single runs, one run_batch call for batches
    roots = {}
    parents = {s.sid: s.parent for s in spans}

    def root_of(sid):
        while parents.get(sid) is not None:
            sid = parents[sid]
        return sid

    for span in queries:
        roots.setdefault(root_of(span.sid), []).append(span.attrs["prompt"])
    unique = sum(len(set(prompts)) for prompts in roots.values())

    per_contract_wait = defaultdict(list)
    for span in queries:
        per_contract_wait[span.contract].append((span.start, span.end))

    out.update(
        {
            "description.sentences": attr_sum("description.chunk", "sentences") / contracts,
            "forest.nodes": attr_sum("forest.build", "nodes") / contracts,
            "graph.nodes": attr_sum("graph.transform", "nodes") / contracts,
            "graph.edges": attr_sum("graph.transform", "edges") / contracts,
            "reachability.paths": attr_sum("reachability.enumerate", "paths") / contracts,
            "reachability.truncated_ratio": (
                sum(1 for s in enumerations if s.attrs["truncated"]) / len(enumerations)
                if enumerations
                else 0.0
            ),
            "reachability.retained_ratio": (
                attr_sum("reachability.enumerate", "retained") / reached if reached else 0.0
            ),
            "prompts.bytes": attr_sum("prompts.build", "bytes") / contracts,
            "probing.retries": sum(1 for s in queries if s.attrs["attempt"] > 0) / contracts,
            "probing.dropped": attr_sum("probing.stage2", "dropped") / contracts,
            "transport.queries": len(queries) / contracts,
            "transport.query.wait_ms": sum(
                _covered(iv) for iv in per_contract_wait.values()
            )
            * 1e3
            / contracts,
            "transport.unique_prompt_ratio": unique / len(queries) if queries else 0.0,
            "transport.store_load.count": attr_sum("transport.store_load", "loads") / contracts,
            "transport.record.writes": attr_sum("transport.query", "writes") / contracts,
            "pipeline.persist.bytes": attr_sum("pipeline.persist", "bytes") / contracts,
        }
    )
    return out
