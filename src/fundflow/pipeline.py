"""End-to-end orchestration: parse, graph, probe, fuse, persist, decide.

Every stage's output is written to the run directory as JSON the moment it
exists, so a failure later in the pipeline still leaves the artifacts
computed so far on disk. Replay mode makes the whole run hermetic.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, replace

from .description import ContractDescription, description_to_json
from .errors import UsageError
from .forest import build_forest, forest_to_json
from .fusion import FusionResult, Verdict, decide, fuse
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

    def limits(self) -> ReachLimits:
        return ReachLimits(max_depth=self.max_depth, max_paths=self.max_paths)

    def params(self) -> TransportParams:
        return TransportParams(
            model=self.model,
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )


def make_transport(config: RunConfig, threads: int | None = None):
    """The transport ``config`` names; the caller closes it. A live endpoint
    keeps a connection open for each of the ``threads`` (by default
    ``config.concurrency``) that query it at once."""
    if config.transport not in ("live", "record", "replay"):
        raise UsageError(f"unknown transport mode: {config.transport!r}")
    if config.transport != "live" and not config.store:
        raise UsageError(f"{config.transport} transport requires --store")
    if config.transport == "replay":
        return ReplayTransport(config.store, config.params())
    live = LiveTransport(
        config.params(), endpoint=config.endpoint, api_key_env=config.api_key_env
    )
    # set, not passed, so that a stand-in for LiveTransport needs only the
    # call above
    live.connections = threads or max(1, config.concurrency)
    return live if config.transport == "live" else RecordTransport(live, config.store)


def write_json(out_dir: str, name: str, payload: dict) -> str:
    """Write ``payload`` as one line of compact UTF-8 JSON plus a newline.

    ``json.dumps`` without ``indent`` runs on the C encoder, which ``indent``
    or ``json.dump`` to a file would leave for the pure-Python one. The
    converters build fresh payloads, which may share an object but hold no
    cycle, so the encoder skips its cycle check. The text is encoded before
    the file is opened, so text that UTF-8 cannot encode (a lone surrogate)
    leaves no file; the newline is a second ``write`` so the encoded bytes
    are not copied.
    """
    data = json.dumps(
        payload, ensure_ascii=False, separators=(",", ":"), check_circular=False
    ).encode()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(b"\n")
    return path


@dataclass
class StaticArtifacts:
    enumeration: object
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
    desc: ContractDescription, config: RunConfig, transport=None, pool=None
) -> tuple[AnalysisBundle, Stage2Result]:
    """The static half, then both model stages: writes the five static
    artifacts, ``bundle.json`` and ``probes.json``.

    The transport is built only after the static artifacts are on disk, so a
    missing or corrupt store still leaves them; one built here is closed
    here. Both stages run their queries on ``pool`` when given, else on one
    ``query_pool`` of ``config.concurrency`` threads.
    """
    static = run_static(desc, config)
    with ExitStack() as stack:
        if transport is None:
            transport = stack.enter_context(closing(make_transport(config)))
        pool = stack.enter_context(query_pool(transport, config.concurrency, pool))
        stage1 = run_stage1(desc, transport, config.concurrency, pool)
        bundle = assemble_bundle(desc, static, stage1)
        write_json(config.out_dir, "bundle.json", bundle.to_json())
        stage2 = run_stage2(bundle, transport, config.concurrency, config.retries, pool)
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
    desc: ContractDescription, config: RunConfig, transport=None, pool=None
) -> tuple[Verdict, AnalysisBundle]:
    """Full pipeline for one contract; artifacts land in config.out_dir."""
    bundle, stage2 = run_probes(desc, config, transport, pool)
    _, verdict = run_fusion(stage2.distributions, config)
    return verdict, bundle


def run_batch(
    descriptions: list[ContractDescription], config: RunConfig
) -> dict[str, Verdict]:
    """Detect over many contracts with a bounded worker pool; each contract
    writes into its own subdirectory of the configured output directory.

    All contracts share one transport, so a store is loaded once per batch,
    a record store has one writer, and a prompt that several contracts share
    is asked once. Their live or recorded queries share one ``query_pool``
    of N×N threads for N workers, so a contract may use the query slots its
    neighbours leave idle while they run their static half.
    """
    workers = max(1, config.concurrency)
    threads = workers * workers
    with (
        closing(make_transport(config, threads)) as transport,
        query_pool(transport, threads) as queries,
        ThreadPoolExecutor(max_workers=workers) as pool,
    ):

        def worker(desc: ContractDescription) -> tuple[str, Verdict]:
            sub = replace(config, out_dir=os.path.join(config.out_dir, desc.contract_id))
            verdict, _ = run_detect(desc, sub, transport, queries)
            return desc.contract_id, verdict

        results = list(pool.map(worker, descriptions))
    return dict(results)
