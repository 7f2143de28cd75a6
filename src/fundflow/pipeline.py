"""End-to-end orchestration: parse, graph, probe, fuse, persist, decide.

Every stage's output is written to the run directory as JSON the moment it
exists, so a failure later in the pipeline still leaves the artifacts
computed so far on disk, and none that the failed run did not finish.
Replay mode makes the whole run hermetic.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass, replace

from .description import ContractDescription, description_to_json
from .errors import InvalidDescription, ReplayMiss, UsageError
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
    render_path,  # not called here; bench/spans.py wraps it by this name
)
from .transport import LiveTransport, RecordTransport, ReplayTransport, TransportParams

DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
# the nine artifacts of run_detect, in the order it writes them, by stage
STATIC_ARTIFACTS = (
    "description.json",
    "forest.json",
    "graph.json",
    "paths.json",
    "indicators.json",
)
PROBE_ARTIFACTS = ("bundle.json", "probes.json")
FUSION_ARTIFACTS = ("fusion.json", "verdict.json")
_SEPARATORS = ("/", os.sep, os.altsep, "\0")


@dataclass
class RunConfig:
    transport: str = "replay"  # live | record | replay
    store: str | None = None
    model: str = "gpt-4o"
    endpoint: str = DEFAULT_ENDPOINT
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = TransportParams.temperature
    max_tokens: int = TransportParams.max_tokens
    concurrency: int = 4
    retries: int = 2
    threshold: float | None = None
    max_depth: int = ReachLimits.max_depth
    max_paths: int = ReachLimits.max_paths
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # checked here, so a bad value fails before any model work
        if self.transport not in ("live", "record", "replay"):
            raise UsageError(f"unknown transport mode: {self.transport!r}")
        # each integer field and its least value
        counts = {"concurrency": 1, "max_tokens": 1, "max_depth": 0, "max_paths": 0, "retries": 0}
        for name in ("temperature", "threshold", *counts):
            value = getattr(self, name)
            # a bool is an int to Python, but never a number a caller means
            if isinstance(value, bool) or (name in counts and not isinstance(value, int)):
                kind = "an integer" if name in counts else "a number"
                raise UsageError(f"{name} must be {kind}, got {value!r}")
        for name, least in counts.items():
            if getattr(self, name) < least:
                raise UsageError(f"{name} must be {least} or more, got {getattr(self, name)}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise UsageError(
                f"temperature must be a finite number, 0 or more, got {self.temperature!r}"
            )
        # a float, as the CLI passes it, so that 0 and 0.0 make the same query keys
        self.temperature = float(self.temperature)
        if self.threshold is not None:
            check_threshold(self.threshold)

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
    leaves no new file and an existing one as it was; the newline is a
    second ``write`` so the encoded bytes are not copied.

    An existing file is rewritten in place: opened without ``O_TRUNC``,
    written from its start, then cut at the end of the new bytes. A run
    rewrites the same nine names into a reused output directory, and
    truncating a file to zero on open makes ext4 (``auto_da_alloc``, on by
    default) force the new data out to disk and allocate new blocks when
    the file is closed; an overwrite in place costs neither. The bytes,
    the file's mode and inode, and how symlinks and hard links behave are
    those of ``open(path, "wb")``. A write that fails part-way leaves the
    file with a new head and an old tail; a pipeline stage removes it
    (``_writing``).
    """
    if not isinstance(payload, str):
        payload = json.dumps(
            payload, ensure_ascii=False, separators=(",", ":"), check_circular=False
        )
    data = payload.encode()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb", opener=_open_untruncated) as fh:
        fh.write(data)
        fh.write(b"\n")
        fh.truncate()
    return path


def _open_untruncated(path: str, flags: int) -> int:
    """``open``'s own flags for ``"wb"`` but ``O_TRUNC``, and its mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _writing(out_dir: str, names: tuple[str, ...]):
    """Yield ``write(name, payload)``, which is ``write_json`` into
    ``out_dir``. If the block raises, each of the artifacts ``names`` that
    it did not finish writing is removed: a file from an earlier run, which
    would sit beside this run's artifacts as if it were one of them, or the
    file a failed write left cut off."""
    written = set()

    def write(name: str, payload: str | dict) -> None:
        write_json(out_dir, name, payload)
        written.add(name)

    try:
        yield write
    except BaseException:
        _remove(out_dir, [name for name in names if name not in written])
        raise


def _remove(out_dir: str, names) -> None:
    for name in names:
        # the error that ended the run is the one to report
        with suppress(OSError):
            os.remove(os.path.join(out_dir, name))


@dataclass
class StaticArtifacts:
    truncated: bool  # whether a limit cut the path enumeration
    indicators: object
    rendered_paths: list[str]  # render_path of each enumerated path, in order


def run_static(desc: ContractDescription, config: RunConfig) -> StaticArtifacts:
    """The model-free half: forest, graph, anchors, paths, indicators. If it
    raises, those of the five static artifacts it did not finish are removed."""
    with _writing(config.out_dir, STATIC_ARTIFACTS) as write:
        write("description.json", description_to_json(desc))
        forest = build_forest(desc)
        write("forest.json", forest_to_json(forest))
        graph = transform(forest)
        write("graph.json", graph_to_json(graph))
        anchors = AnchorSets(ingress=identify_ingress(graph), egress=identify_egress(graph))
        reach = forward_reach(graph, anchors.ingress)
        enumeration = prune_and_enumerate(graph, reach, anchors, config.limits())
        write("paths.json", paths_to_json(enumeration))
        indicators = compute_indicators(forest)
        write("indicators.json", indicators.to_json())
    return StaticArtifacts(enumeration.truncated, indicators, enumeration.rendered)


# a forked static worker's batch, which only ``_take_jobs`` sets, in the worker
_jobs: list[tuple[ContractDescription, RunConfig]] = []


def _take_jobs(jobs: list[tuple[ContractDescription, RunConfig]]) -> None:
    """Start a forked static worker: ``fork`` copied ``jobs`` into it, so
    no description is pickled."""
    global _jobs
    _jobs = jobs


def _static_half(index: int) -> StaticArtifacts:
    """The static half of this worker's job ``index``; it looks
    ``run_static`` up when the half runs."""
    return run_static(*_jobs[index])


def assemble_bundle(
    desc: ContractDescription, static: StaticArtifacts, stage1
) -> AnalysisBundle:
    unknown = []
    # stage I summarises the functions in order, so overloads keep their own reasons
    for chunk, summary in zip(desc.functions, stage1.functions):
        if not is_unknown_function(chunk.name):
            continue
        unknown.append(
            UnknownFunction(
                name=chunk.name,
                parameters=", ".join(chunk.parameters) or "(no parameters)",
                description="; ".join(s.text for s in chunk.sentences),
                reason=summary.reason,
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
    this waits on; without it the static half runs here. If it raises, it
    leaves ``bundle.json`` and ``probes.json`` only if it finished them. A
    ``ReplayMiss`` names the contract, then the query that missed.
    """
    with _writing(config.out_dir, PROBE_ARTIFACTS) as write:
        static = run_static(desc, config) if static is None else static.result()
        if transport is None:
            model = open_model(config, config.concurrency)
        else:
            model = nullcontext((transport, pool))
        with model as (transport, pool):
            try:
                stage1 = run_stage1(desc, transport, pool)
                bundle = assemble_bundle(desc, static, stage1)
                write("bundle.json", bundle.to_json())
                stage2 = run_stage2(bundle, transport, config.retries, pool)
            except ReplayMiss as exc:
                raise exc.within(f"contract {desc.contract_id}") from exc
        write("probes.json", stage2.to_json())
    return bundle, stage2


def run_fusion(
    distributions: list[ProbeDistribution], config: RunConfig
) -> tuple[FusionResult, Verdict]:
    """Fuse probe distributions and decide: writes ``fusion.json``, then
    ``verdict.json``."""
    with _writing(config.out_dir, FUSION_ARTIFACTS) as write:
        fusion = fuse(distributions)
        write("fusion.json", fusion.to_json())
        verdict = decide(fusion, config.threshold)
        write("verdict.json", verdict.to_json())
    return fusion, verdict


def run_detect(
    desc: ContractDescription, config: RunConfig, transport=None, pool=None, static=None
) -> tuple[Verdict, AnalysisBundle]:
    """Full pipeline for one contract; artifacts land in config.out_dir. A
    ``transport`` passed in is queried on ``pool``, or inline when it is None;
    ``static`` is as for ``run_probes``.

    If it raises, the nine artifacts are those it finished, and no others:
    each stage removes its own unfinished ones, and a failed ``run_probes``
    leaves no ``fusion.json`` or ``verdict.json`` of an earlier run.
    """
    try:
        bundle, stage2 = run_probes(desc, config, transport, pool, static)
    except BaseException:
        _remove(config.out_dir, FUSION_ARTIFACTS)
        raise
    _, verdict = run_fusion(stage2.distributions, config)
    return verdict, bundle


def run_batch(
    descriptions: list[ContractDescription], config: RunConfig
) -> dict[str, Verdict]:
    """Detect over many contracts with a bounded worker pool; each contract
    writes into its own subdirectory of the configured output directory.

    Each contract's static half, which needs no model, runs in one of N
    forked worker processes, and its model half in one of N threads of this
    process, for N = ``config.concurrency``. The workers inherit the batch's
    jobs when they fork and are sent only each job's index, so no
    description is pickled. Every static half is submitted, in input order,
    before the model is opened or any thread is started, so the static
    halves run ahead of the model halves that wait on them. Where the
    platform has no ``fork``, N threads run the static halves instead.

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
    or NUL) or that two contracts share raises ``InvalidDescription`` before
    any contract runs.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    jobs = {}  # contract id: (description, its config), in input order
    for desc in descriptions:
        cid = desc.contract_id
        if cid in ("", ".", "..") or any(c and c in cid for c in _SEPARATORS):
            raise InvalidDescription(
                f"contract id {cid!r} is not a plain directory name under {config.out_dir}"
            )
        if cid in jobs:
            raise InvalidDescription(f"contract id {cid!r} is given to more than one contract")
        jobs[cid] = (desc, replace(config, out_dir=os.path.join(config.out_dir, cid)))
    workers, table = config.concurrency, list(jobs.values())
    if "fork" in multiprocessing.get_all_start_methods():
        statics = ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), _take_jobs, (table,)
        )
        calls = [(_static_half, index) for index in range(len(table))]
    else:
        statics = ThreadPoolExecutor(workers)
        calls = [(run_static, *job) for job in table]
    halves, futures = [], None
    try:
        # under fork the first submit starts every worker process: no
        # worker inherits a store handle, a connection or a thread
        halves = [statics.submit(*call) for call in calls]
        with (
            open_model(config, workers * workers) as (transport, queries),
            ThreadPoolExecutor(max_workers=workers) as pool,
        ):
            # not pool.map, whose first failure cancels the contracts not yet
            # started, or not, as the threads happen to run
            futures = [
                pool.submit(run_detect, *job, transport, queries, half)
                for job, half in zip(jobs.values(), halves)
            ]
            halves.clear()  # each static result is freed with its contract's task
            futures.reverse()  # popped as read: each bundle is freed with its verdict
            verdicts = {cid: futures.pop().result()[0] for cid in jobs}
    finally:
        # every half has run unless the model failed to open: then those
        # still queued are dropped
        statics.shutdown(cancel_futures=True)
        if futures is None:  # no model half ran: remove what an earlier run left
            for (_, job_config), half in zip(jobs.values(), halves):
                dropped = STATIC_ARTIFACTS if half.cancelled() else ()
                _remove(job_config.out_dir, dropped + PROBE_ARTIFACTS + FUSION_ARTIFACTS)
    return verdicts
