"""Command-line surface: synthetic data generation, experiment runs, reports.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime failure.
Relative --out paths resolve under $OALSIM_OUTPUT_ROOT when it is set. A
setting reaches a run only through --set, which beats the config file, which
beats the built-in defaults; a later --set of a key beats an earlier one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .config import from_dict, read_config
from .corpus import Corpus, generate_synthetic, write_regions
from .errors import ConfigError, DataError, OalsimError, check_real
from .features import registry_table
from .harness import (
    BatchMetrics,
    Experiment,
    checkpoint_load,
    compare_final_batches,
    write_metrics_csv,
    write_summary,
)


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("OALSIM_OUTPUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _write_manifest(out: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    payload["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def cmd_gen_data(args) -> int:
    data = read_config(args.config) if args.config else {"corpus": {"synthetic": {}}}
    cfg = from_dict(_apply_overrides(data, args.set)).corpus.synthetic
    if cfg is None:
        raise ConfigError("gen-data writes a synthetic corpus; the config names a corpus path")
    out = _out_dir(args.out)
    corpus_path = out / "corpus.jsonl"
    if corpus_path.exists() and not args.force:
        raise DataError(f"{corpus_path} already exists; pass --force to overwrite")
    regions = generate_synthetic(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_regions(corpus_path, regions)
    _write_manifest(
        out,
        {
            "command": "gen-data",
            "config": dataclasses.asdict(cfg),
            "corpus_fingerprint": Corpus(regions).fingerprint,
            "outputs": {"corpus": str(corpus_path)},
        },
    )
    print(f"wrote {len(regions)} regions to {corpus_path}")
    return 0


def _apply_overrides(data, items) -> dict:
    """The config document with each --set written into it, in command-line order."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *sections, last = dotted.split(".")
        node = data
        for key in sections:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {dotted}: {key} is not a section")
        node[last] = value
    return data


def cmd_run(args) -> int:
    config = from_dict(_apply_overrides(read_config(args.config), args.set))
    # before the corpus and its O(N^2) density index: a bad checkpoint fails at once
    resume = checkpoint_load(args.resume) if args.resume else None

    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    experiment = Experiment(config)

    checkpoint_dir = out / "checkpoints" if args.checkpoints else None
    transcript_path = out / "transcripts.jsonl" if args.export_transcripts else None
    result = experiment.run(
        resume=resume, checkpoint_dir=checkpoint_dir, transcript_path=transcript_path
    )

    metrics_path = out / "metrics.csv"
    summary_path = out / "summary.json"
    write_metrics_csv(metrics_path, result.metrics)
    write_summary(summary_path, result)
    with open(out / "feature_registry.json", "w", encoding="utf-8") as fh:
        json.dump(registry_table(), fh, indent=2)
    outputs = {"metrics": str(metrics_path), "summary": str(summary_path)}
    if transcript_path:
        outputs["transcripts"] = str(transcript_path)
    _write_manifest(
        out,
        {
            "command": "run",
            "config": config.to_dict(),
            "master_seed": config.experiment.master_seed,
            "corpus_fingerprint": result.corpus_fingerprint,
            "outputs": outputs,
        },
    )
    final = result.final_test_batch()
    print(
        f"run complete: final test batch success_rate={final.success_rate:.3f} "
        f"mean_length={final.mean_length:.2f}"
    )
    return 0


def _final_batch(final: dict) -> BatchMetrics:
    """A summary's final test batch, whose stored rates must be those of its lists."""
    # a summary keeps no batch index
    batch = BatchMetrics("test", -1, {}, final["success_indicators"], final["lengths"])
    for name in ("success_rate", "mean_length"):
        check_real(name, final[name])
        if final[name] != getattr(batch, name):
            raise ValueError(f"{name} {final[name]!r} is not the lists' {getattr(batch, name)!r}")
    return batch


def _load_run(run_dir: Path) -> dict:
    """A run's corpus fingerprint and final test batch, from its summary.json alone.

    A DataError names the file when it cannot be read or lacks either.
    """
    path = run_dir / "summary.json"
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        fingerprint = summary["corpus_fingerprint"]
        if not isinstance(fingerprint, str):
            raise ValueError(f"corpus_fingerprint must be a string, got {fingerprint!r}")
        final = _final_batch(summary["final_test_batch"])
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"cannot read {path}: {exc!r}") from None
    return {"dir": run_dir, "fingerprint": fingerprint, "final": final}


def cmd_report(args) -> int:
    # one row per distinct run directory, in the order first listed; the
    # baseline is the first listed unless named, and is appended if unlisted
    by_path: dict[Path, dict] = {}
    for raw in [*args.run_dirs, *([args.baseline] if args.baseline else [])]:
        run_dir = _out_dir(raw)
        if run_dir.resolve() not in by_path:
            by_path[run_dir.resolve()] = _load_run(run_dir)
    runs = list(by_path.values())
    baseline = by_path[_out_dir(args.baseline).resolve()] if args.baseline else runs[0]
    fingerprints = {r["fingerprint"] for r in runs}
    if len(fingerprints) > 1:
        raise DataError(
            "runs were produced from different corpora; comparisons must share data"
        )

    base_final = baseline["final"]
    rows = []
    for r in runs:
        final = r["final"]
        rows.append({
            "run": r["dir"].name,
            "success_rate": final.success_rate,
            "mean_length": final.mean_length,
            **compare_final_batches(final, base_final),
        })

    def fmt_p(p, is_baseline):
        if p is None:
            return "baseline" if is_baseline else "n/a"
        marker = "*" if p < 0.05 else ""
        return f"{p:.4f}{marker}"

    header = f"{'run':<24} {'success':>8} {'length':>8} {'p_success':>12} {'p_length':>12}"
    print(header)
    print("-" * len(header))
    for r, row in zip(runs, rows):
        cells = [fmt_p(row[key], r is baseline) for key in ("p_success", "p_length")]
        print(
            f"{row['run']:<24} {row['success_rate']:>8.3f} {row['mean_length']:>8.2f} "
            f"{cells[0]:>12} {cells[1]:>12}"
        )
    if args.out:
        with open(_out_dir(args.out), "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oalsim",
        description="Opportunistic active learning dialog simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    override = dict(action="append", default=None, metavar="SECTION.KEY=VALUE",
                    help="override any config key, e.g. --set policy.learning_rate=1e-4")
    gen = sub.add_parser("gen-data", help="write a run config's synthetic corpus")
    gen.add_argument("--config", default=None,
                     help="run config (default: the built-in corpus.synthetic settings)")
    gen.add_argument("--set", **override)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(handler=cmd_gen_data)

    run = sub.add_parser("run", help="run the three-phase experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--set", **override)
    run.add_argument("--checkpoints", action="store_true")
    run.add_argument("--resume", default=None, help="checkpoint file to resume from")
    run.add_argument("--export-transcripts", action="store_true")
    run.set_defaults(handler=cmd_run)

    report = sub.add_parser("report", help="compare finished runs")
    report.add_argument("run_dirs", nargs="+")
    report.add_argument("--baseline", default=None)
    report.add_argument("--out", default=None, help="also write the table as CSV")
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except DataError as exc:
        _emit_error(exc)
        return 3
    except OalsimError as exc:
        _emit_error(exc)
        return 4
    except Exception as exc:  # a bug, not a reported failure: keep its traceback
        traceback.print_exc()
        _emit_error(exc)
        return 4


def _emit_error(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
