"""Command-line interface: staged analysis commands that compose via JSON.

Exit codes: 0 benign or success, 3 adversarial, 2 usage (flags, the config
file, ``--grid``, the transport/store choice), 1 any other error.
API keys are read from the environment only; config files and flags never
carry secrets.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .description import load_description
from .errors import FundflowError, InvalidDescription, InvalidInput, UsageError
from .forest import build_forest, forest_to_json
from .fusion import check_threshold
from .metrics import compute_metrics, sweep_to_csv, threshold_sweep
from .pipeline import (
    RunConfig,
    run_batch,
    run_detect,
    run_fusion,
    run_probes,
    run_static,
    write_json,
)
from .probing import ProbeDistribution
from .transport import read_jsonl


def _value_type(hint) -> type:
    """The type a config value converts to: ``float | None`` gives float."""
    (base,) = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
    return base


_HINTS = typing.get_type_hints(RunConfig)
_CONFIG_TYPES = {f.name: _value_type(_HINTS[f.name]) for f in dataclasses.fields(RunConfig)}


def read_config_file(path: str) -> dict:
    """key=value lines; blank lines, #-comments and a byte-order mark ignored."""
    values: dict = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](value)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    return RunConfig(**values)


def add_common_flags(
    p: argparse.ArgumentParser, input_help: str = "description file (flat text or JSON)"
) -> None:
    p.add_argument("-i", "--input", required=True, help=input_help)
    p.add_argument("-o", "--out-dir", dest="out_dir", default=None, help="artifact directory")
    p.add_argument("--config", default=None, help="key=value config file")


def add_transport_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--transport", choices=["live", "record", "replay"], default=None)
    p.add_argument("--store", default=None, help="JSONL response store (record/replay)")
    p.add_argument("--model", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--api-key-env", dest="api_key_env", default=None)
    p.add_argument("--concurrency", type=int, default=None)
    p.add_argument("--retries", type=int, default=None)


def add_reach_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    p.add_argument("--max-paths", dest="max_paths", type=int, default=None)


def _load_batch(path: str):
    """Every .txt and .json description in a directory, by file name. Two
    files that describe one contract id would write one output directory,
    so that is an error."""
    files = sorted(
        f for f in Path(path).iterdir() if f.suffix in {".txt", ".json"} and f.is_file()
    )
    if not files:
        raise FundflowError(f"no .txt or .json descriptions in {path}")
    descriptions = []
    first_file: dict[str, Path] = {}
    for f in files:
        desc = load_description(str(f))
        other = first_file.setdefault(desc.contract_id, f)
        if other != f:
            raise InvalidDescription(
                f"{other} and {f} both describe contract {desc.contract_id!r}"
            )
        descriptions.append(desc)
    return descriptions


def cmd_parse(args: argparse.Namespace) -> int:
    config = build_config(args)
    desc = load_description(args.input)
    forest = build_forest(desc)
    write_json(config.out_dir, "forest.json", forest_to_json(forest))
    sentences = sum(len(c.sentences) for c in desc.functions)
    print(
        f"{desc.contract_id}: {len(desc.functions)} function(s), "
        f"{sentences} sentence(s), {len(forest.nodes)} node(s)"
    )
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    config = build_config(args)
    desc = load_description(args.input)
    static = run_static(desc, config)
    for rendered in static.rendered_paths:
        print(rendered)
    if static.enumeration.truncated:
        print("warning: enumeration truncated by limits", file=sys.stderr)
    return 0


def cmd_indicators(args: argparse.Namespace) -> int:
    config = build_config(args)
    desc = load_description(args.input)
    static = run_static(desc, config)
    print(json.dumps(static.indicators.to_json(), indent=2))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    config = build_config(args)
    desc = load_description(args.input)
    _, stage2 = run_probes(desc, config)
    print(json.dumps(stage2.to_json(), indent=2))
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    config = build_config(args)
    with open(args.input, "rb") as fh:
        raw = fh.read()
    try:
        probes = [ProbeDistribution.from_json(d) for d in json.loads(raw)["distributions"]]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # nested too deep
        raise InvalidInput(
            f"{args.input}: expected probes.json's "
            '{"distributions": [{"probe": ..., "ranked": [[label, confidence], ...]}]}: '
            f"{exc!r}"
        ) from exc
    result, verdict = run_fusion(probes, config)
    print(json.dumps({**result.to_json(), "verdict": verdict.to_json()}, indent=2))
    return 3 if verdict.label == "adversarial" else 0


def cmd_detect(args: argparse.Namespace) -> int:
    """A file is one contract; a directory is a batch, whatever it holds."""
    config = build_config(args)
    if not os.path.isdir(args.input):
        verdict, _ = run_detect(load_description(args.input), config)
        print(json.dumps(verdict.to_json(), indent=2))
        return 3 if verdict.label == "adversarial" else 0
    verdicts = run_batch(_load_batch(args.input), config)
    any_adversarial = False
    for contract_id in sorted(verdicts):
        verdict = verdicts[contract_id]
        any_adversarial |= verdict.label == "adversarial"
        print(f"{contract_id}\t{verdict.label}\t{verdict.adv_score:.4f}")
    return 3 if any_adversarial else 0


def cmd_eval(args: argparse.Namespace) -> int:
    predictions = read_jsonl(args.predictions, InvalidInput, id="string", label="label")
    truth = read_jsonl(args.truth, InvalidInput, id="string", label="label")
    metrics = compute_metrics(predictions, truth)
    print(json.dumps(metrics.to_json(), indent=2))
    return 0


def _parse_grid(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--grid: {exc}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    scores = read_jsonl(args.input, InvalidInput, id="string", adv_score="score", label="label")
    grid = _parse_grid(args.grid)
    for t in grid:
        check_threshold(t)
    csv_text = sweep_to_csv(threshold_sweep(scores, grid))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        out_path = os.path.join(args.out_dir, "sweep.csv")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(out_path)
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundflow",
        description="Fund-flow analysis and confidence-fusion detection "
        "for smart contract descriptions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="build the control-dependency forest")
    add_common_flags(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("flow", help="flow graph, anchors, and fund-flow paths")
    add_common_flags(p)
    add_reach_flags(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("indicators", help="contract-level structural indicators")
    add_common_flags(p)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("probe", help="run both model stages, write distributions")
    add_common_flags(p)
    add_reach_flags(p)
    add_transport_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("fuse", help="fuse probe distributions into a verdict")
    add_common_flags(p, "probes.json written by probe or detect")
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("detect", help="full pipeline: file or directory input")
    add_common_flags(p, "description file, or a directory of them run as a batch")
    add_reach_flags(p)
    add_transport_flags(p)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="confusion metrics from prediction/truth JSONL")
    p.add_argument("predictions", help="JSONL of {id, label}")
    p.add_argument("truth", help="JSONL of {id, label}")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="threshold sweep CSV from scored samples")
    add_common_flags(p, "scores JSONL, one {id, adv_score, label} object a line")
    p.add_argument(
        "--grid",
        default=",".join(f"{i / 20:.2f}" for i in range(20)),
        help="comma-separated thresholds in [0, 1]",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FundflowError, OSError, ValueError, BrokenExecutor) as exc:
        # BrokenExecutor: a batch's worker process died (killed, say)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
