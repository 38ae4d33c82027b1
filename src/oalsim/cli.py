"""Command-line surface: synthetic data generation, experiment runs, reports.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime failure.
Relative --out paths resolve under $OALSIM_OUTPUT_ROOT when it is set. Flag
overrides beat config-file values, which beat built-in defaults.
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
from .corpus import Corpus, SyntheticConfig, generate_synthetic, write_regions
from .errors import ConfigError, DataError, OalsimError, check_real
from .features import registry_table
from .harness import (
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
    out = _out_dir(args.out)
    corpus_path = out / "corpus.jsonl"
    if corpus_path.exists() and not args.force:
        raise DataError(f"{corpus_path} already exists; pass --force to overwrite")
    cfg = SyntheticConfig(
        n_regions=args.n_regions,
        dim=args.dim,
        n_predicates=args.n_predicates,
        coverage=tuple(args.coverage),
        description_length=tuple(args.desc_len),
        seed=args.seed,
    )
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


def _apply_overrides(data: dict, args) -> dict:
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.split(".")
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {dotted}: {key} is not a section")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node[keys[-1]] = value
    exp = data.setdefault("experiment", {})
    if args.master_seed is not None:
        exp["master_seed"] = args.master_seed
    if args.policy is not None:
        exp["policy_kind"] = args.policy
    if args.ablate:
        exp["ablate"] = list(args.ablate)
    return data


def cmd_run(args) -> int:
    config = from_dict(_apply_overrides(read_config(args.config), args))
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


def _check_final(final: dict) -> None:
    """ValueError unless a summary's final test batch holds what a run writes there."""
    indicators, lengths = final["success_indicators"], final["lengths"]
    if not (isinstance(indicators, list) and isinstance(lengths, list)
            and 0 < len(indicators) == len(lengths)
            and all(type(v) is int and v in (0, 1) for v in indicators)
            and all(type(n) is int and n >= 1 for n in lengths)):
        raise ValueError("success_indicators and lengths must be equally long, non-empty "
                         "lists of integers 0 or 1 and >= 1")
    for name in ("success_rate", "mean_length"):
        check_real(name, final[name])


def _check_fingerprint(fingerprint) -> None:
    if not isinstance(fingerprint, str):
        raise ValueError(f"corpus_fingerprint must be a string, got {fingerprint!r}")


def _load_run(run_dir: Path) -> dict:
    """A run's manifest and summary; a DataError names a file that report cannot read."""
    run = {"dir": run_dir}
    for name, read in (
        ("manifest", lambda manifest: _check_fingerprint(manifest["corpus_fingerprint"])),
        ("summary", lambda summary: _check_final(summary["final_test_batch"])),
    ):
        path = run_dir / f"{name}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                run[name] = json.load(fh)
            read(run[name])
        except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
            raise DataError(f"cannot read {path}: {exc!r}") from None
    return run


def cmd_report(args) -> int:
    runs = [_load_run(_out_dir(d)) for d in args.run_dirs]
    baseline_dir = _out_dir(args.baseline) if args.baseline else runs[0]["dir"]
    baseline = next((r for r in runs if r["dir"].resolve() == baseline_dir.resolve()), None)
    if baseline is None:
        baseline = _load_run(baseline_dir)
        runs.append(baseline)
    fingerprints = {r["manifest"]["corpus_fingerprint"] for r in runs}
    if len(fingerprints) > 1:
        raise DataError(
            "runs were produced from different corpora; comparisons must share data"
        )

    base_final = baseline["summary"]["final_test_batch"]
    rows = []
    for r in runs:
        final = r["summary"]["final_test_batch"]
        cmp = compare_final_batches(final, base_final)
        rows.append({
            "run": r["dir"].name,
            "success_rate": final["success_rate"],
            "mean_length": final["mean_length"],
            **(dict.fromkeys(cmp) if r is baseline else cmp),
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

    gen = sub.add_parser("gen-data", help="generate a synthetic corpus")
    synth = SyntheticConfig()
    gen.add_argument("--n-regions", type=int, default=synth.n_regions)
    gen.add_argument("--dim", type=int, default=synth.dim)
    gen.add_argument("--n-predicates", type=int, default=synth.n_predicates)
    gen.add_argument("--coverage", type=float, nargs=2, default=synth.coverage,
                     metavar=("LO", "HI"))
    gen.add_argument("--desc-len", type=int, nargs=2, default=synth.description_length,
                     metavar=("LO", "HI"))
    gen.add_argument("--seed", type=int, default=synth.seed)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(handler=cmd_gen_data)

    run = sub.add_parser("run", help="run the three-phase experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--master-seed", type=int, default=None)
    run.add_argument("--policy", choices=["learned", "static"], default=None)
    run.add_argument("--ablate", nargs="*", default=None,
                     help="feature or group names to zero out")
    run.add_argument("--set", action="append", default=None, metavar="SECTION.KEY=VALUE",
                     help="override any config key, e.g. --set policy.learning_rate=1e-4")
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
