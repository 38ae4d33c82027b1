"""oalsim benchmark: one closed-loop workload per invocation, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 101 --seconds 20 --trace 0

Single process, single thread, one experiment at a time. The seed becomes the
experiment's master seed; the corpus of each workload is fixed. `--trace 0`
times set-up and whole runs, normalised for the host's speed (hostspeed.py),
and prints the end-to-end metrics; `--trace 1` makes one untraced and one
traced run and prints the per-layer metrics, as wall times. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import copy
import csv
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock
from spans import Patches, Tracer, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESK_CONFIG = ROOT / "configs" / "desk.json"
OUT = ROOT / ".perfbench"
LOCK = HERE / "lock.json"

DEFAULT_SEED = 101  # configs/desk.json's master seed
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "turns_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

PHASES = ("init", "train", "test")  # the order Experiment.run plays them in

# Span name per layer; each `_s` metric is the self time of its spans.
LAYER_SPANS = {
    "corpus.generate_s": "corpus.generate",
    "corpus.split_s": "corpus.split",
    "corpus.sample_interaction_s": "corpus.sample_interaction",
    "perception.density_index_s": "perception.density_index",
    "perception.train_classifier_s": "perception.train_classifier",
    "perception.estimate_f1_s": "perception.estimate_f1",
    "querygen.build_beam_s": "querygen.build_beam",
    "features.featurize_s": "features.featurize",
    "grounding.score_objects_s": "grounding.score_objects",
    "policy.act_s": "policy.act",
    "policy.reinforce_update_s": "policy.reinforce_update",
    "dialog.step_s": "dialog.step",
    "harness.episode_self_s": "harness.episode",
    "harness.apply_batch_end_s": "harness.apply_batch_end",
    "harness.checkpoint_save_s": "harness.checkpoint_save",
}
LAYER_COUNTS = (
    "corpus.sample_interaction_calls",
    "perception.train_classifier_calls",
    "perception.train_labels",
    "perception.estimate_f1_calls",
    "querygen.build_beam_calls",
    "querygen.beam_actions",
    "features.featurize_calls",
    "grounding.score_objects_calls",
    "policy.act_calls",
    "policy.reinforce_update_calls",
    "dialog.step_calls",
    "dialog.new_labels",
    "harness.checkpoint_bytes",
    "harness.transcript_bytes",
)
LAYER_RATIOS = ("dialog.new_label_frac",) + tuple(
    f"dialog.new_label_frac.{phase}" for phase in PHASES
)
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    **{name: "ratio" for name in LAYER_RATIOS},
    "harness.trace_overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # merged into configs/desk.json
    transcripts: bool = False  # also export transcripts.jsonl, as `oalsim run` can
    setups: int = 5  # set-ups timed before the runs; the last one serves the runs

    def config_dict(self, seed: int) -> dict:
        with open(DESK_CONFIG, encoding="utf-8") as fh:
            data = json.load(fh)
        merge(data, self.overrides)
        merge(data, {"experiment": {"master_seed": seed}})
        return data


WORKLOADS = {
    # The paper's experiment, learned arm: per-turn beam, features and grounding
    # dominate and the label space saturates.
    "desk": Workload("desk", {}),
    # Classifiers refit and cross-validate after every label query, inside
    # episodes. The static arm and one batch per phase keep the work per episode
    # independent of the seed.
    "immediate": Workload(
        "immediate",
        {
            "episode": {"immediate_updates": True},
            "experiment": {
                "policy_kind": "static",
                "init_batches": 1, "train_batches": 1, "test_batches": 1, "batch_size": 300,
            },
        },
    ),
    # 4x the regions, threshold scaled with N: O(N^2) density index, unsaturated
    # labels, checkpoint and transcript I/O.
    "scale": Workload(
        "scale",
        {
            "corpus": {"synthetic": {"n_regions": 2400}},
            "split": {"frequency_threshold": 600},
            "experiment": {
                "policy_kind": "static",
                "init_batches": 4, "train_batches": 4, "test_batches": 4, "batch_size": 100,
            },
        },
        transcripts=True,
        setups=2,
    ),
}


def merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            merge(base[key], value)
        else:
            base[key] = copy.deepcopy(value)


# -- environment ---------------------------------------------------------------


def pin_threads() -> None:
    """One thread per numeric library; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "openblas_threads": _openblas_threads(np),
    }


def _openblas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, when its library can be found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def code_digest() -> str:
    """Hash of the program, the desk config and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [DESK_CONFIG] + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- instrumentation -------------------------------------------------------------


@dataclass
class Rep:
    """One experiment run: its timings, per-episode outcomes and outputs.

    `run_s` and `episode_s` are wall times. With a host clock, `run_s` leaves
    out its reference bursts, and `norm_run_s` and `norm_episode_s` hold the
    same times normalised for the host's speed.
    """

    run_s: float = 0.0
    episode_s: list = field(default_factory=list)
    norm_run_s: float = 0.0
    norm_episode_s: list = field(default_factory=list)
    lengths: list = field(default_factory=list)
    successes: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    csv_bytes: bytes = b""
    out_dir: Path | None = None

    @property
    def turns(self) -> int:
        return sum(self.lengths)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.csv_bytes).hexdigest()


class Probe:
    """Always-on timers: one call per run and per episode, cheap enough untraced.

    Given a HostClock, the probe also times a reference burst at the start and
    end of each run and between episodes, and normalises the run's times.
    """

    def __init__(self, clock: HostClock | None = None):
        self.rep = Rep()
        self.clock = clock

    def install(self, patches) -> None:
        from oalsim import harness

        clock = self.clock
        spans = []  # (start, end) of each episode of the current run

        def time_run(fn):
            def run(*args, **kwargs):
                spans.clear()
                if clock is not None:
                    clock.burst()
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                rep = self.rep
                if clock is None:
                    rep.run_s = t1 - t0
                    return result
                clock.burst()
                rep.run_s = t1 - t0 - clock.burst_s(t0, t1)
                rep.norm_run_s = clock.normalize(t0, t1)
                rep.norm_episode_s = [clock.normalize(a, b) for a, b in spans]
                return result

            return run

        def time_episode(fn):
            def run_episode(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                self.rep.episode_s.append(t1 - t0)
                if clock is not None:
                    spans.append((t0, t1))
                    clock.maybe_burst()
                outcome = result[0]
                self.rep.lengths.append(outcome.length)
                self.rep.successes.append(1 if outcome.success else 0)
                self.rep.queries.append(outcome.n_queries)
                return result

            return run_episode

        patches.replace(harness.Experiment, "run", time_run)
        patches.replace(harness.Experiment, "run_episode", time_episode)


def _count_train_labels(counts, model, args, kwargs):
    if model.weights is not None:
        counts["perception.train_labels"] += len(model.labels)


def _count_beam(counts, beam, args, kwargs):
    counts["querygen.beam_actions"] += len(beam)


def _count_batch_labels(counts, result, args, kwargs):
    metrics = result[0]
    counts[f"dialog.new_labels.{metrics.phase}"] += sum(metrics.label_counts.values())
    counts[f"dialog.queries.{metrics.phase}"] += round(
        metrics.mean_queries * len(metrics.lengths)
    )


def install_tracer(tracer, patches) -> None:
    """Wrap the names the harness looks up, so each call lands in a span."""
    from oalsim import dialog, harness

    def on(owner, attr, span, hook=None):
        patches.replace(owner, attr, lambda fn: tracer.wrap(span, fn, hook))

    on(harness, "generate_synthetic", "corpus.generate")
    on(harness, "make_splits", "corpus.split")
    on(harness, "sample_interaction", "corpus.sample_interaction")
    on(harness, "DensityIndex", "perception.density_index")
    on(harness, "train_classifier", "perception.train_classifier", _count_train_labels)
    on(harness, "estimate_f1", "perception.estimate_f1")
    on(harness, "build_beam", "querygen.build_beam", _count_beam)
    on(harness, "featurize", "features.featurize")
    on(harness, "score_objects", "grounding.score_objects")
    for name in ("action_probabilities", "sample_action", "static_policy_act"):
        on(harness, name, "policy.act")
    on(harness, "reinforce_update", "policy.reinforce_update")
    on(harness, "checkpoint_save", "harness.checkpoint_save")
    on(dialog.Episode, "step", "dialog.step")
    on(harness.Experiment, "run_episode", "harness.episode")
    on(harness.Experiment, "run_batch", "harness.batch", _count_batch_labels)
    on(harness.Experiment, "apply_batch_end", "harness.apply_batch_end")
    on(harness.Experiment, "run", "harness.run")


# -- one run -----------------------------------------------------------------------


def setup(config):
    """Build the corpus, the splits and the density index, as `oalsim run` does."""
    from oalsim import harness

    corpus = harness.build_corpus(config)
    return harness.Experiment(config, corpus=corpus)


def run_rep(workload: Workload, cfg, probe: Probe, rep_dir: Path, experiment=None) -> Rep:
    """One full experiment, writing what `oalsim run` writes; sets up unless given one."""
    from oalsim import harness

    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    probe.rep = rep = Rep(out_dir=rep_dir)
    if experiment is None:
        experiment = setup(cfg)
    gc.collect()
    result = experiment.run(
        checkpoint_dir=rep_dir / "checkpoints",
        transcript_path=rep_dir / "transcripts.jsonl" if workload.transcripts else None,
    )
    harness.write_metrics_csv(rep_dir / "metrics.csv", result.metrics)
    rep.csv_bytes = (rep_dir / "metrics.csv").read_bytes()
    return rep


def check_rep(rep: Rep, cfg, pinned: str | None) -> list[str]:
    """Problems with a run's metrics.csv; empty when it is correct.

    A pinned digest must match exactly. Every run must also agree with the
    per-episode outcomes the probe saw, and no static-policy dialog may be
    longer than static_n_queries + 1 turns.
    """
    problems = []
    if pinned is not None and rep.digest != pinned:
        problems.append(f"metrics.csv sha256 {rep.digest} != pinned {pinned}")
    exp = cfg.experiment
    size = exp.batch_size
    plan = [(phase, b) for phase, _, n in batch_plan(cfg) for b in range(n)]
    rows = list(csv.reader(io.StringIO(rep.csv_bytes.decode("utf-8"))))
    if rows[:1] != [["phase", "batch", "success_rate", "mean_length", "mean_queries"]]:
        problems.append(f"metrics.csv header {rows[:1]}")
    rows = rows[1:]
    if len(rows) != len(plan) or len(rep.lengths) != len(plan) * size:
        problems.append(
            f"{len(rows)} batches and {len(rep.lengths)} episodes for a "
            f"{len(plan)} x {size} plan"
        )
        return problems
    for i, ((phase, batch), row) in enumerate(zip(plan, rows)):
        part = slice(i * size, (i + 1) * size)
        expected = [
            phase,
            str(batch),
            repr(sum(rep.successes[part]) / size),
            repr(sum(rep.lengths[part]) / size),
            repr(sum(rep.queries[part]) / size),
        ]
        if row != expected:
            problems.append(f"metrics.csv row {row} != episodes' {expected}")
    longest = cfg.policy.static_n_queries + 1
    over = [n for n in static_lengths(rep, cfg) if n > longest]
    if over:
        problems.append(f"{len(over)} static dialogs are longer than {longest} turns")
    return problems


def batch_plan(cfg) -> list[tuple[str, str, int]]:
    """(phase, policy kind, batches) of the three-phase protocol; init is static."""
    exp = cfg.experiment
    return [
        ("init", "static", exp.init_batches),
        ("train", exp.policy_kind, exp.train_batches),
        ("test", exp.policy_kind, exp.test_batches),
    ]


def static_lengths(rep: Rep, cfg) -> list:
    """Lengths of the dialogs the static policy played, in run order."""
    size = cfg.experiment.batch_size
    out, start = [], 0
    for _, kind, n in batch_plan(cfg):
        if kind == "static":
            out += rep.lengths[start : start + n * size]
        start += n * size
    return out


def early_static_guesses(rep: Rep, cfg) -> int:
    """Static dialogs that guessed before static_n_queries queries.

    The static policy guesses early, as documented, when the sampled beam holds
    no query candidate; this happens at a few seeds, so it is counted, not failed.
    """
    return sum(1 for n in static_lengths(rep, cfg) if n <= cfg.policy.static_n_queries)


def load_lock() -> dict:
    with open(LOCK, encoding="utf-8") as fh:
        return json.load(fh)


# -- metrics ---------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(setup_s: list, reps: list, normalized: bool = True) -> dict:
    """The end-to-end metrics, from normalised times or, if not `normalized`, wall times."""
    def run_s(rep):
        return rep.norm_run_s if normalized else rep.run_s

    episode_ms = [
        1000.0 * s for rep in reps for s in (rep.norm_episode_s if normalized else rep.episode_s)
    ]
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s(rep) for rep in reps),
        "turns_per_s": statistics.median(rep.turns / run_s(rep) for rep in reps),
        "episode_ms_p50": percentile(episode_ms, 50),
        "episode_ms_p95": percentile(episode_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def size_bytes(path: Path) -> int:
    """Size of a file, or of every file under a directory; 0 if absent."""
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer_metrics(tracer, traced: Rep, untraced: Rep) -> dict:
    self_s = tracer.self_times()
    out = {name: self_s.get(span, 0.0) for name, span in LAYER_SPANS.items()}
    counts = dict(tracer.counts)
    counts["harness.checkpoint_bytes"] = size_bytes(traced.out_dir / "checkpoints")
    counts["harness.transcript_bytes"] = size_bytes(traced.out_dir / "transcripts.jsonl")
    labels = {p: counts.get(f"dialog.new_labels.{p}", 0) for p in PHASES}
    queries = {p: counts.get(f"dialog.queries.{p}", 0) for p in PHASES}
    counts["dialog.new_labels"] = sum(labels.values())
    out.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    out["dialog.new_label_frac"] = ratio(sum(labels.values()), sum(queries.values()))
    for p in PHASES:
        out[f"dialog.new_label_frac.{p}"] = ratio(labels[p], queries[p])
    out["harness.trace_overhead_s"] = traced.run_s - untraced.run_s
    return out


def ratio(num, den) -> float:
    return num / den if den else 0.0


# -- measurement ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    from oalsim import config

    cfg = config.from_dict(workload.config_dict(seed))
    pinned = load_lock().get(workload.name, {}).get(str(seed))
    work = out / "work" / f"{workload.name}-s{seed}-t{int(trace)}"
    clock = None if trace else HostClock()
    probe = Probe(clock)
    patches = Patches()
    probe.install(patches)
    reps: list[Rep] = []
    setup_s: list[float] = []  # normalised
    setup_wall_s: list[float] = []
    try:
        if trace:
            reps.append(run_rep(workload, cfg, probe, work / "untraced"))
            tracer = Tracer()
            install_tracer(tracer, patches)
            reps.append(run_rep(workload, cfg, probe, work / "traced"))
        else:
            for _ in range(workload.setups):
                gc.collect()
                for _ in range(3):
                    clock.burst()
                t0 = perf_counter()
                experiment = setup(cfg)
                t1 = perf_counter()
                for _ in range(3):
                    clock.burst()
                setup_wall_s.append(t1 - t0)
                setup_s.append(clock.normalize(t0, t1))
            start = perf_counter()
            while True:
                t0 = perf_counter()
                reps.append(run_rep(workload, cfg, probe, work / f"rep{len(reps)}", experiment))
                now = perf_counter()
                if now - start + (now - t0) > seconds:  # no room for another run
                    break
    finally:
        patches.restore()

    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "metrics_csv_sha256": reps[0].digest,
        "pinned": pinned,
        "runs": len(reps),
        "episodes": sum(len(rep.episode_s) for rep in reps),
        "early_static_guesses": early_static_guesses(reps[0], cfg),
        "environment": environment(),
    }
    rep_problems = [check_rep(rep, cfg, pinned) for rep in reps]
    for i, rep in enumerate(reps):
        if rep.digest != reps[0].digest:
            rep_problems[i].append(f"run {i} digest {rep.digest} != run 0 {reps[0].digest}")
    if trace:
        traced = reps[-1]
        metrics = per_layer_metrics(tracer, traced, reps[0])
        counts = {k: v for k, v in metrics.items() if PER_LAYER[k] != "s"}
        rep_problems[-1] += check_count_drift(out, workload.name, seed, counts)
        result["traced_run_s"] = traced.run_s
        result["untraced_run_s"] = reps[0].run_s
        result["spans"] = len(tracer.names)
        result["trace_overhead_estimate_s"] = span_cost() * len(tracer.names)
        spans_path = out / "spans" / f"{workload.name}-s{seed}.tsv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_tsv(spans_path)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup_s, reps)
        result["wall"] = end_to_end_metrics(setup_wall_s, reps, normalized=False)
        result["setup_s_samples"] = setup_s
        result["setup_wall_s_samples"] = setup_wall_s
        result["run_s_samples"] = [rep.norm_run_s for rep in reps]
        result["run_wall_s_samples"] = [rep.run_s for rep in reps]
        result["reference_bursts"] = len(clock.starts)
        result["host_slowdown_median"] = statistics.median(clock.factors())
        units = END_TO_END
    problems = [p for ps in rep_problems for p in ps]
    failed = sum(1 for ps in rep_problems if ps)
    result["output_mismatch"] = failed
    result["problems"] = problems
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    result["correct"] = not problems
    result["attempted"] = len(reps)
    result["failed"] = failed
    return result


def check_count_drift(out: Path, workload: str, seed: int, counts: dict) -> list[str]:
    """Counts must repeat exactly for the same code and seed; drift is a failure."""
    path = out / "counts" / code_digest()[:16] / f"{workload}-s{seed}.json"
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        return [
            f"count {name} drifted: {previous.get(name)} -> {value}"
            for name, value in counts.items()
            if previous.get(name) != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
    return []


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oalsim" / "__init__.py").is_file() or not DESK_CONFIG.is_file():
        print(f"error: {ROOT} holds no oalsim source tree and desk config", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import oalsim

    if Path(oalsim.__file__).resolve().parent != SRC / "oalsim":
        print(f"error: imported oalsim from {oalsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"metrics.csv sha256 {result['metrics_csv_sha256']} "
          f"({'pinned' if result['pinned'] else 'unpinned'} seed)")
    print(f"runs {result['runs']}, episodes sampled {result['episodes']}, "
          f"static dialogs that guessed early {result['early_static_guesses']}")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    if "wall" in result:
        print(f"{result['reference_bursts']} reference bursts; median host slowdown "
              f"{result['host_slowdown_median']!r}; the same metrics as wall times:")
        for name, value in result["wall"].items():
            print(f"  wall {name} {value!r} {END_TO_END[name]}")
    if "spans" in result:
        print(f"{result['spans']} spans; tracing overhead estimated from the cost of a "
              f"wrapped no-op: {result['trace_overhead_estimate_s']!r} s")
    print(f"output_mismatch {result['output_mismatch']} count")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
