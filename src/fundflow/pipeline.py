"""End-to-end orchestration: parse, graph, probe, fuse, persist, decide.

Every stage's output is written to the run directory as JSON the moment it
exists, so a failure later in the pipeline still leaves the artifacts
computed so far on disk. Replay mode makes the whole run hermetic.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, replace

from .description import ContractDescription, description_to_json
from .errors import InvalidDescription, UsageError
from .forest import build_forest, forest_to_json
from .fusion import FusionResult, Verdict, check_threshold, decide, fuse
from .graph import transform, graph_to_json
from .indicators import compute_indicators, is_unknown_function
from .probing import ProbeDistribution, Stage2Result, query_pool, run_stage1, run_stage2
from .prompts import AnalysisBundle, UnknownFunction
from .reachability import (
    AnchorSets,
    ReachLimits,
    forward_reach,
    identify_egress,
    identify_ingress,
    paths_to_json,
    prune_and_enumerate,
    render_path,
)
from .transport import LiveTransport, RecordTransport, ReplayTransport, TransportParams

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
_SEPARATORS = ("/", os.sep, os.altsep, "\0")


@dataclass
class RunConfig:
    transport: str = "replay"  # live | record | replay
    store: str | None = None
    model: str = "gpt-4o"
    endpoint: str = DEFAULT_ENDPOINT
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 1024
    concurrency: int = 4
    retries: int = 2
    threshold: float | None = None
    max_depth: int = 32
    max_paths: int = 256
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # checked here, so a bad value fails before any model work
        if self.transport not in ("live", "record", "replay"):
            raise UsageError(f"unknown transport mode: {self.transport!r}")
        if self.concurrency < 1:
            raise UsageError(f"concurrency must be 1 or more, got {self.concurrency}")
        if not isinstance(self.max_tokens, int) or self.max_tokens < 1:
            raise UsageError(f"max_tokens must be an integer, 1 or more, got {self.max_tokens!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise UsageError(
                f"temperature must be a finite number, 0 or more, got {self.temperature!r}"
            )
        if self.threshold is not None:
            check_threshold(self.threshold)
        for name in ("max_depth", "max_paths", "retries"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be 0 or more, got {getattr(self, name)}")

    def limits(self) -> ReachLimits:
        return ReachLimits(max_depth=self.max_depth, max_paths=self.max_paths)

    def params(self) -> TransportParams:
        return TransportParams(
            model=self.model,
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )


@contextmanager
def open_model(config: RunConfig, threads: int):
    """The run's model as ``(transport, pool)``, both closed when the context
    ends: the transport ``config`` names behind a memo that asks each query
    key once, and the pool of ``threads`` to query it on, or None to query it
    in the calling thread.

    ``record`` is the store itself, which already asks each missing key once;
    ``live`` and ``replay`` get an in-memory memo. A replay store answers from
    memory and never waits, so a pool would only add thread hand-offs: its
    queries run inline. A live endpoint keeps a connection open for each of
    the ``threads``; building it is what loads the HTTP stack, so a replay
    run never does.
    """
    if config.transport != "live" and not config.store:
        raise UsageError(f"{config.transport} transport requires --store")
    if config.transport == "replay":
        inner, store, threads = ReplayTransport(config.store, config.params()), None, 1
    else:
        inner = LiveTransport(
            config.params(), endpoint=config.endpoint, api_key_env=config.api_key_env
        )
        # set, not passed, so that a stand-in for LiveTransport needs only the
        # call above
        inner.connections = threads
        store = config.store if config.transport == "record" else None
    with closing(RecordTransport(inner, store)) as transport, query_pool(threads) as pool:
        yield transport, pool


def write_json(out_dir: str, name: str, payload: str | dict) -> str:
    """Write an artifact as one line of compact UTF-8 JSON plus a newline.

    ``payload`` is the artifact's JSON text, as the converters of the four
    large static artifacts build it, or a dict, which ``json.dumps`` encodes
    here to the same form: no ASCII escaping and no spaces after the
    separators. Those dicts are built fresh and hold no cycle, so the
    encoder skips its cycle check. The text is encoded in full before the
    file is opened, so text that UTF-8 cannot encode (a lone surrogate)
    leaves no file; the newline is a second ``write`` so the encoded bytes
    are not copied.
    """
    if not isinstance(payload, str):
        payload = json.dumps(
            payload, ensure_ascii=False, separators=(",", ":"), check_circular=False
        )
    data = payload.encode()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(b"\n")
    return path


@dataclass
class StaticArtifacts:
    enumeration: object  # None when computed in a batch's worker process
    indicators: object
    rendered_paths: list[str]  # render_path of each enumerated path, in order


def run_static(desc: ContractDescription, config: RunConfig) -> StaticArtifacts:
    """The model-free half: forest, graph, anchors, paths, indicators."""
    out = config.out_dir
    write_json(out, "description.json", description_to_json(desc))
    forest = build_forest(desc)
    write_json(out, "forest.json", forest_to_json(forest))
    graph = transform(forest)
    write_json(out, "graph.json", graph_to_json(graph))
    anchors = AnchorSets(
        ingress=identify_ingress(graph, forest), egress=identify_egress(graph)
    )
    reach = forward_reach(graph, anchors.ingress)
    enumeration = prune_and_enumerate(graph, reach, anchors, config.limits())
    rendered_paths = [render_path(p) for p in enumeration.paths]
    write_json(out, "paths.json", paths_to_json(enumeration, rendered_paths))
    indicators = compute_indicators(forest)
    write_json(out, "indicators.json", indicators.to_json())
    return StaticArtifacts(enumeration, indicators, rendered_paths)


def _static_half(desc: ContractDescription, config: RunConfig) -> StaticArtifacts:
    """``run_static`` in a batch's worker process. Only what ``assemble_bundle``
    reads goes back to the parent, not the enumeration."""
    return replace(run_static(desc, config), enumeration=None)


def assemble_bundle(
    desc: ContractDescription, static: StaticArtifacts, stage1
) -> AnalysisBundle:
    reasons = {f.name: f.reason for f in stage1.functions}
    unknown = []
    for chunk in desc.functions:
        if not is_unknown_function(chunk.name):
            continue
        unknown.append(
            UnknownFunction(
                name=chunk.name,
                parameters=", ".join(chunk.parameters) or "(no parameters)",
                description="; ".join(s.text for s in chunk.sentences),
                reason=reasons.get(chunk.name, ""),
            )
        )
    return AnalysisBundle(
        contract_summary=stage1.contract_summary,
        functions=stage1.functions,
        unknown_functions=unknown,
        indicators=static.indicators,
        paths=list(static.rendered_paths),
    )


def run_probes(
    desc: ContractDescription, config: RunConfig, transport=None, pool=None, static=None
) -> tuple[AnalysisBundle, Stage2Result]:
    """The static half, then both model stages: writes the five static
    artifacts, ``bundle.json`` and ``probes.json``.

    The model is opened only after the static artifacts are on disk, so a
    missing or corrupt store still leaves them. Without a ``transport``,
    both stages share what ``open_model`` gives for ``config.concurrency``
    threads. A ``transport`` passed in is queried as it is, on ``pool``, or
    in the calling thread when that is None. ``static`` is the static half
    already under way elsewhere, a future of its ``StaticArtifacts`` that
    this waits on; without it the static half runs here.
    """
    static = run_static(desc, config) if static is None else static.result()
    if transport is None:
        model = open_model(config, config.concurrency)
    else:
        model = nullcontext((transport, pool))
    with model as (transport, pool):
        stage1 = run_stage1(desc, transport, pool)
        bundle = assemble_bundle(desc, static, stage1)
        write_json(config.out_dir, "bundle.json", bundle.to_json())
        stage2 = run_stage2(bundle, transport, config.retries, pool)
    write_json(config.out_dir, "probes.json", stage2.to_json())
    return bundle, stage2


def run_fusion(
    distributions: list[ProbeDistribution], config: RunConfig
) -> tuple[FusionResult, Verdict]:
    """Fuse probe distributions and decide: writes ``fusion.json``, then
    ``verdict.json``."""
    fusion = fuse(distributions)
    write_json(config.out_dir, "fusion.json", fusion.to_json())
    verdict = decide(fusion, config.threshold)
    write_json(config.out_dir, "verdict.json", verdict.to_json())
    return fusion, verdict


def run_detect(
    desc: ContractDescription, config: RunConfig, transport=None, pool=None, static=None
) -> tuple[Verdict, AnalysisBundle]:
    """Full pipeline for one contract; artifacts land in config.out_dir. A
    ``transport`` passed in is queried on ``pool``, or inline when it is None;
    ``static`` is as for ``run_probes``."""
    bundle, stage2 = run_probes(desc, config, transport, pool, static)
    _, verdict = run_fusion(stage2.distributions, config)
    return verdict, bundle


def run_batch(
    descriptions: list[ContractDescription], config: RunConfig
) -> dict[str, Verdict]:
    """Detect over many contracts with a bounded worker pool; each contract
    writes into its own subdirectory of the configured output directory.

    Each contract's static half, which needs no model, runs in one of N
    forked worker processes, and its model half in one of N threads of this
    process, for N = ``config.concurrency``. Every static half is submitted,
    in input order, before the model is opened or any thread is started, so
    the static halves run ahead of the model halves that wait on them. Where
    the platform has no ``fork``, each thread runs its static half itself.

    All contracts share one transport, so a store is loaded once per batch
    and a record store has one writer. Whatever the transport, each distinct
    query key is asked once per batch: a live or replay transport is put
    behind an in-memory memo that keeps every answer until the batch ends,
    and a record store already asks each missing key once (``open_model``).
    A query that fails is asked again by the next contract that needs it.
    A contract that fails cancels none of the others: every contract runs to
    its end, and then the first failure, in input order, is raised.
    Live or recorded queries share one pool of N×N threads for N workers,
    so a contract may use the query slots its neighbours leave idle.

    Each contract id names its output directory, so an id that is not one
    plain path component (empty, ``.``, ``..``, or holding a path separator
    or NUL) raises ``InvalidDescription`` before any contract runs.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    for desc in descriptions:
        cid = desc.contract_id
        if cid in ("", ".", "..") or any(c and c in cid for c in _SEPARATORS):
            raise InvalidDescription(
                f"contract id {cid!r} is not a plain directory name under {config.out_dir}"
            )
    workers = config.concurrency
    jobs = [
        (desc, replace(config, out_dir=os.path.join(config.out_dir, desc.contract_id)))
        for desc in descriptions
    ]
    halves = [None] * len(jobs)
    statics = None
    if "fork" in multiprocessing.get_all_start_methods():
        statics = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        if statics is not None:
            # under fork the first submit starts every worker process: no
            # worker inherits a store handle, a connection or a thread
            halves = [statics.submit(_static_half, *job) for job in jobs]
        with (
            open_model(config, workers * workers) as (transport, queries),
            ThreadPoolExecutor(max_workers=workers) as pool,
        ):

            def worker(desc, sub, half) -> tuple[str, Verdict]:
                verdict, _ = run_detect(desc, sub, transport, queries, half)
                return desc.contract_id, verdict

            # not pool.map, whose first failure cancels the contracts not yet
            # started, or not, as the threads happen to run
            futures = [pool.submit(worker, *job, half) for job, half in zip(jobs, halves)]
            del halves  # each static result is freed with its contract's task
            results = [future.result() for future in futures]
    finally:
        if statics is not None:
            # every half has run unless the model failed to open: then those
            # still queued are dropped
            statics.shutdown(cancel_futures=True)
    return dict(results)
