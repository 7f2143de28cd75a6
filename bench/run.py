"""fundflow benchmark: seeded detect workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload static_large --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory. Inputs come
from ``gen.py`` seeded with ``--seed``; the scripted model in ``model.py``
stands in for the endpoint. ``--trace 0`` measures the end-to-end metrics
with nothing wrapped but the ``run_detect`` timer; ``--trace 1`` runs a
traced phase (spans from ``spans.py``) for the per-layer metrics and an
untraced phase on as many contracts, whose throughput difference is the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
BENCHMARK.json lists. ``--workload all`` runs every workload in turn, each in
its own process. README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")

from calib import NOMINAL_MS, timed_reference  # noqa: E402
from gen import ContractSpec, generate  # noqa: E402
from model import QueryCounter, ScriptedModel  # noqa: E402

CONCURRENCY = 2  # sized for a 2-core machine
SETUP_REPEATS = 3
MIN_SAMPLES = 100  # so that p90 has 10 samples beyond it
MAX_MEASURE_S = 60.0
REFERENCE_SHARE = 0.2  # reference time run after each unit, as a share of the unit
WARMUP_CONTRACTS = 4
ARTIFACTS = (
    "description.json",
    "forest.json",
    "graph.json",
    "paths.json",
    "indicators.json",
    "bundle.json",
    "probes.json",
    "fusion.json",
    "verdict.json",
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ContractSpec
    batch: int  # contracts per run_batch call; 0 means one run_detect per contract
    transport: str  # "direct" (model passed in), "replay" or "record"
    latency_s: float = 0.0
    # CPU-bound: end-to-end times are scaled by the machine's speed (calib.py)
    scaled: bool = True


_SMALL = ContractSpec(functions=10, sentences=34, storage=8, boilerplate=5)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("static_large", ContractSpec(100, 30, 24), 0, "direct"),
        Workload("batch_replay", _SMALL, 64, "replay"),
        Workload("batch_latency", _SMALL, 64, "record", latency_s=0.008, scaled=False),
    )
}


def _fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_fundflow() -> float:
    """Import the library from this checkout's src/; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "fundflow", "__init__.py")):
        _fail_setup(f"no fundflow sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fundflow.pipeline  # noqa: F401

    took = time.perf_counter() - start
    import fundflow

    if not os.path.abspath(fundflow.__file__).startswith(SRC + os.sep):
        _fail_setup(f"fundflow imported from {fundflow.__file__}, not {SRC}")
    return took


def source_digest() -> str:
    """Hash of the library and benchmark sources, to key count references."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "fundflow"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def source_loc() -> int:
    """Physical lines of Python under src/fundflow (informational)."""
    total = 0
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "fundflow")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def same_artifacts(out_dir: str, reference_dir: str) -> bool:
    """The demo's nine artifacts are byte-identical in both directories."""
    for name in ARTIFACTS:
        try:
            with open(os.path.join(out_dir, name), "rb") as a, open(
                os.path.join(reference_dir, name), "rb"
            ) as b:
                if a.read() != b.read():
                    return False
        except OSError:
            return False
    return True


class Runner:
    def __init__(self, workload: Workload, seed: int, work: str):
        from fundflow import description, pipeline

        self.wl = workload
        self.seed = seed
        self.work = work
        self.description = description
        self.pipeline = pipeline
        self.counter = QueryCounter()
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.corpus = []
        self.store: str | None = None
        self.record_dir: str | None = None
        self.next_index = 0
        self.passes = 0
        self.references: list[float] = []
        self._install_endpoint()

    # -- the model endpoint ----------------------------------------------

    def _install_endpoint(self) -> None:
        """The scripted model answers where a live endpoint would, and
        queries are counted where they are answered: at the model, or at
        the replay store's lookup."""
        pipeline, counter, latency = self.pipeline, self.counter, self.wl.latency_s

        def live(params, endpoint=None, api_key_env=None):
            del endpoint, api_key_env
            return ScriptedModel(params, counter, latency)

        class CountingReplay(pipeline.ReplayTransport):
            def query(self, prompt, attempt=0):
                counter.add()
                return super().query(prompt, attempt)

        pipeline.LiveTransport = live
        pipeline.ReplayTransport = CountingReplay

    def config(self, **overrides):
        return self.pipeline.RunConfig(concurrency=CONCURRENCY, **overrides)

    # -- set-up ----------------------------------------------------------

    def check_generator(self) -> None:
        spec = self.wl.spec
        first = generate(self.wl.name, self.seed, 0, spec)
        if generate(self.wl.name, self.seed, 0, spec) != first:
            self.errors.append("generator: same seed gave different inputs")
        if generate(self.wl.name, self.seed + 1, 0, spec).text == first.text:
            self.errors.append("generator: different seeds gave the same input")

    def setup(self, rep: int) -> None:
        rep_dir = os.path.join(self.work, f"setup{rep}")
        wl = self.wl
        if not wl.batch:
            warm = generate(f"{wl.name}-warmup", self.seed, rep, wl.spec)
            desc = self.description.chunk_flat_text(warm.text, warm.contract_id)
            cfg = self.config(out_dir=os.path.join(rep_dir, "warm"))
            self.pipeline.run_detect(desc, cfg, ScriptedModel(cfg.params(), self.counter))
            return
        self.corpus = [generate(wl.name, self.seed, i, wl.spec) for i in range(wl.batch)]
        descs = [self.description.chunk_flat_text(c.text, c.contract_id) for c in self.corpus]
        if wl.transport == "replay":
            self.store = os.path.join(rep_dir, "store.jsonl")
            self.record_dir = os.path.join(rep_dir, "record")
            recorded = self.pipeline.run_batch(
                descs,
                self.config(transport="record", store=self.store, out_dir=self.record_dir),
            )
            for c in self.corpus:
                if recorded[c.contract_id].label != c.label:
                    _fail_setup(f"set-up recording gave the wrong verdict for {c.contract_id}")
        store = self.store if wl.transport == "replay" else os.path.join(rep_dir, "warm.jsonl")
        self.pipeline.run_batch(
            descs[:WARMUP_CONTRACTS],
            self.config(transport=wl.transport, store=store, out_dir=os.path.join(rep_dir, "warm")),
        )

    # -- measured units ----------------------------------------------------

    def single(self, tracer) -> float:
        """One contract as ``fundflow detect -i one.txt`` runs it."""
        wl = self.wl
        contract = generate(wl.name, self.seed, self.next_index, wl.spec)
        self.next_index += 1
        cfg = self.config(out_dir=os.path.join(self.work, "out"))
        model = ScriptedModel if tracer is None else tracer.traced_transport(ScriptedModel)
        if tracer is not None:
            span, token = tracer.open("contract", contract.contract_id)
        start = time.perf_counter()
        try:
            transport = model(cfg.params(), self.counter)
            desc = self.description.chunk_flat_text(contract.text, contract.contract_id)
            verdict, _ = self.pipeline.run_detect(desc, cfg, transport)
            ok = verdict.label == contract.label
        except Exception:  # a failed contract is counted, not fatal
            traceback.print_exc()
            ok = False
        finally:
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span, token)
        self.samples.append(took)
        self.attempted += 1
        self.failed += not ok
        return took

    def batch(self, tracer) -> float:
        """One ``run_batch`` over the corpus, as ``fundflow detect dir/``."""
        wl = self.wl
        out_dir = os.path.join(self.work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        if wl.transport == "record":
            store = os.path.join(self.work, f"pass{self.passes}.jsonl")
        else:
            store = self.store
        self.passes += 1
        cfg = self.config(transport=wl.transport, store=store, out_dir=out_dir)
        queries_before = self.counter.value
        verdicts = None
        if tracer is not None:
            span, token = tracer.open("batch")
        start = time.perf_counter()
        try:
            descs = [
                self.description.chunk_flat_text(c.text, c.contract_id) for c in self.corpus
            ]
            verdicts = self.pipeline.run_batch(descs, cfg)
        except Exception:  # counted as every contract failing
            traceback.print_exc()
        finally:
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span, token)
        self.attempted += len(self.corpus)
        if verdicts is None:
            self.failed += len(self.corpus)
            return took
        for c in self.corpus:
            verdict = verdicts.get(c.contract_id)
            ok = verdict is not None and verdict.label == c.label
            if ok and wl.transport == "replay":
                ok = same_artifacts(
                    os.path.join(out_dir, c.contract_id),
                    os.path.join(self.record_dir, c.contract_id),
                )
            self.failed += not ok
        if wl.transport == "record":
            with open(store, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != self.counter.value - queries_before:
                queries = self.counter.value - queries_before
                self.errors.append(f"store holds {lines} lines for {queries} queries")
            os.remove(store)
        return took

    def reference(self, unit_s: float) -> None:
        """Time the reference work for about REFERENCE_SHARE of a unit, on
        as many threads at once as the unit keeps busy."""
        threads = CONCURRENCY if self.wl.batch else 1
        spent = 0.0
        while spent == 0.0 or spent < unit_s * REFERENCE_SHARE:
            took = timed_reference(self.work, threads)
            self.references.append(took)
            spent += took * threads

    def phase(self, tracer=None, units: int | None = None, seconds: float = 0.0):
        """Run units (contracts, or batches) until ``units`` are done or, if
        None, until ``seconds`` are measured and MIN_SAMPLES collected. The
        latter, for a scaled workload, times the reference work after every
        unit. Returns (contracts, measured seconds)."""
        pipeline = self.pipeline
        original = pipeline.run_detect
        if tracer is not None:
            tracer.install(batch=bool(self.wl.batch))
        elif self.wl.batch:
            pipeline.run_detect = self._timed(original)
        attempted_before = self.attempted
        measured = 0.0
        done = 0
        reference = units is None and self.wl.scaled
        try:
            while True:
                took = self.batch(tracer) if self.wl.batch else self.single(tracer)
                measured += took
                done += 1
                if reference:
                    self.reference(took)
                if units is not None:
                    if done >= units:
                        break
                elif measured >= MAX_MEASURE_S or (
                    measured >= seconds and len(self.samples) >= MIN_SAMPLES
                ):
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
            pipeline.run_detect = original
        return self.attempted - attempted_before, measured

    def _timed(self, run_detect):
        samples = self.samples

        @functools.wraps(run_detect)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_detect(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)

        return timed


def check_counts(workload: str, seed: int, counts: dict, errors: list[str]) -> None:
    """Counts must repeat exactly across runs of one seed on the same code."""
    path = os.path.join(RESULTS, f"counts_{workload}_{seed}_{source_digest()}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, ValueError):
        reference = {}
    for key, value in counts.items():
        if key in reference and reference[key] != value:
            errors.append(f"count {key} is {value}, an earlier run of this seed gave {reference[key]}")
    merged = {**reference, **counts}
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(runner: Runner, args, setup_s: float, report: dict):
    """Metrics and their sample counts from one untraced phase. A scaled
    workload's times, set-up included, are divided by the machine's
    slowness: the mean time of the reference work run between units, over
    NOMINAL_MS."""
    contracts, measured = runner.phase(seconds=args.seconds)
    samples_ms = [s * 1e3 for s in runner.samples]
    slowness = 1.0
    if runner.references:
        # the mean, not the median: the reference's slow stretches are the
        # machine's, and the measured units sit through them too
        slowness = statistics.fmean(runner.references) * 1e3 / NOMINAL_MS
    report.update(
        contract_ms=samples_ms, reference_s=runner.references, slowness=slowness
    )
    raw = {
        "contract_ms.p50": statistics.median(samples_ms),
        "contract_ms.p90": quantile(samples_ms, 90),
        "contracts_per_s": contracts / measured,
        "setup_s": setup_s,
    }
    report["unscaled"] = raw
    metrics = {
        "contract_ms.p50": raw["contract_ms.p50"] / slowness,
        "contract_ms.p90": raw["contract_ms.p90"] / slowness,
        "contracts_per_s": raw["contracts_per_s"] * slowness,
        "queries_per_contract": runner.counter.value / contracts,
        "setup_s": setup_s / slowness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "contract_ms.p50": len(samples_ms),
        "contract_ms.p90": len(samples_ms),
        "contracts_per_s": contracts,
        "queries_per_contract": contracts,
        "setup_s": SETUP_REPEATS,
        "peak_rss_mb": 1,
    }
    counts = {"queries_per_contract": metrics["queries_per_contract"]}
    return metrics, samples, counts


def per_layer(runner: Runner, args):
    """Metrics and their sample counts from a traced and an untraced phase."""
    from spans import Tracer, layer_metrics

    wl = runner.wl
    units = max(1, round(args.seconds / 10)) if wl.batch else max(4, round(args.seconds))
    tracer = Tracer()
    contracts, measured = runner.phase(tracer, units=units)
    untraced, untraced_s = runner.phase(units=units)
    tracer.write(os.path.join(RESULTS, f"spans_{wl.name}_seed{args.seed}.jsonl.gz"))

    metrics = layer_metrics(tracer.spans, contracts)
    roots = [s for s in tracer.spans if s.name == "contract"]
    metrics["contract.ms"] = sum(s.end - s.start for s in roots) * 1e3 / len(roots)
    metrics["pipeline.pools_created"] = tracer.pools_created / contracts
    metrics["tracing.contracts_per_s"] = contracts / measured
    metrics["tracing.overhead_contracts_per_s"] = untraced / untraced_s - contracts / measured
    samples = dict.fromkeys(metrics, contracts)
    samples["tracing.overhead_contracts_per_s"] = contracts + untraced
    # the traced contract set depends on the unit count, so the key does too
    counts = {
        f"{key}@{units}": metrics[key]
        for key in ("graph.nodes", "graph.edges", "reachability.paths", "transport.queries")
    }
    return metrics, samples, counts


def run(args) -> dict:
    import_s = _import_fundflow()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    try:
        runner = Runner(wl, args.seed, work)
        runner.check_generator()
        setup_times = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            runner.setup(rep)
            setup_times.append(time.perf_counter() - start)
        runner.counter.value = 0
        report["setup_repeats_s"] = setup_times
        if args.trace:
            metrics, samples, counts = per_layer(runner, args)
        else:
            setup_s = import_s + statistics.median(setup_times)
            metrics, samples, counts = end_to_end(runner, args, setup_s, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_counts(wl.name, args.seed, counts, runner.errors)

    loc = source_loc()
    failed_ratio = runner.failed / runner.attempted
    report.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failed_ratio=failed_ratio,
        errors=runner.errors,
        metrics=metrics,
        samples=samples,
        src_fundflow_loc=loc,
    )
    with open(
        os.path.join(RESULTS, f"{wl.name}_seed{args.seed}_trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for m in listed:
        name = m["name"]
        print(f"  {name:<34} {metrics[name]:14.4f} {m['unit']:<6} n={samples[name]}")
    if not args.trace:
        print(f"  {'failed_ratio':<34} {failed_ratio:14.4f} {'':<6} n={runner.attempted}")
        if wl.scaled:
            n = len(runner.references)
            print(f"  scaled by the machine's slowness {report['slowness']:.4f} (n={n}); unscaled:")
            for name, value in report["unscaled"].items():
                print(f"    {name:<32} {value:14.4f}")
    print(f"  src/fundflow lines of Python (informational, no bound): {loc}")
    for error in runner.errors:
        print(f"  check failed: {error}")
    return {
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one summary."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
