"""Tests of the benchmark's own code, on a corpus small enough to run in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from spans import NO_PARENT, Patches, Tracer, self_times, span_cost  # noqa: E402

from oalsim import config  # noqa: E402

TINY = bench.Workload(
    "tiny",
    {
        "corpus": {
            "synthetic": {
                "n_regions": 120, "dim": 16, "n_predicates": 8,
                "coverage": [0.15, 0.40], "seed": 3,
            }
        },
        "split": {"frequency_threshold": 30, "seed": 1},
        "experiment": {
            "init_batches": 2, "train_batches": 1, "test_batches": 1, "batch_size": 12,
        },
    },
    setups=2,
)
SEED = 11


def tiny_config(**experiment):
    data = TINY.config_dict(SEED)
    data["experiment"].update(experiment)
    return config.from_dict(data)


@pytest.fixture(scope="module")
def traced_rep(tmp_path_factory):
    """A traced tiny run, and the (owner, attr, original) triples it replaced."""
    out = tmp_path_factory.mktemp("traced")
    patches = Patches()
    probe = bench.Probe()
    probe.install(patches)
    tracer = Tracer()
    bench.install_tracer(tracer, patches)
    replaced = list(patches._saved)
    try:
        rep = bench.run_rep(TINY, tiny_config(), probe, out / "rep")
    finally:
        patches.restore()
    return rep, tracer, replaced


def test_wrappers_restore_originals_and_keep_outputs(traced_rep, tmp_path):
    rep, tracer, replaced = traced_rep
    assert len(replaced) == 2 + 19  # probe + tracer
    originals = {}
    for owner, attr, original in replaced:
        originals.setdefault((owner, attr), original)  # later entries wrap earlier wrappers
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner}.{attr} still wrapped"

    plain = bench.run_rep(TINY, tiny_config(), bench.Probe(), tmp_path / "plain")
    assert plain.digest == rep.digest
    assert tracer.counts["dialog.step_calls"] == rep.turns
    assert tracer.counts["corpus.sample_interaction_calls"] == len(rep.lengths)


def test_check_accepts_the_run_and_catches_a_perturbed_metrics_csv(traced_rep):
    rep, _, _ = traced_rep
    cfg = tiny_config()
    assert bench.check_rep(rep, cfg, pinned=None) == []
    assert bench.check_rep(rep, cfg, pinned=rep.digest) == []

    lines = rep.csv_bytes.decode().splitlines(keepends=True)
    for column in (2, 3, 4):
        fields = lines[-1].rstrip("\r\n").split(",")
        fields[column] = repr(float(fields[column]) + 0.5)
        bad_lines = lines[:-1] + [",".join(fields) + "\r\n"]
        bad = dataclasses.replace(rep, csv_bytes="".join(bad_lines).encode())
        assert bench.check_rep(bad, cfg, pinned=None), f"column {column} not checked"
        assert any("pinned" in p for p in bench.check_rep(bad, cfg, pinned=rep.digest))

    dropped = dataclasses.replace(rep, csv_bytes="".join(lines[:-1]).encode())
    assert bench.check_rep(dropped, cfg, pinned=None)


def test_too_long_static_dialog_is_caught(traced_rep):
    rep, _, _ = traced_rep
    cfg = tiny_config()
    size = cfg.experiment.batch_size
    lengths = list(rep.lengths)
    lengths[0] = cfg.policy.static_n_queries + 2
    bad = dataclasses.replace(rep, lengths=lengths)
    assert any("static dialogs" in p for p in bench.check_rep(bad, cfg, pinned=None))
    assert bench.static_lengths(rep, cfg) == rep.lengths[: 2 * size]
    assert bench.static_lengths(rep, tiny_config(policy_kind="static")) == rep.lengths
    assert bench.early_static_guesses(rep, cfg) == sum(
        1 for n in rep.lengths[: 2 * size] if n <= cfg.policy.static_n_queries
    )


def test_printed_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER

    untraced = bench.measure(TINY, SEED, seconds=0.0, trace=False, out=tmp_path)
    traced = bench.measure(TINY, SEED, seconds=0.0, trace=True, out=tmp_path)
    for result, spec_key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[spec_key]}
    assert traced["metrics"]["querygen.build_beam_calls"]["value"] > 0
    assert traced["metrics"]["harness.checkpoint_bytes"]["value"] > 0
    assert traced["metrics"]["harness.transcript_bytes"]["value"] == 0
    exported = bench.measure(
        dataclasses.replace(TINY, transcripts=True), SEED, 0.0, True, out=tmp_path / "t"
    )
    assert exported["correct"], exported["problems"]
    assert exported["metrics"]["harness.transcript_bytes"]["value"] > 0


def test_count_drift_is_a_failure(tmp_path):
    counts = {"dialog.step_calls": 10, "dialog.new_label_frac": 0.5}
    assert bench.check_count_drift(tmp_path, "tiny", 1, counts) == []
    assert bench.check_count_drift(tmp_path, "tiny", 1, dict(counts)) == []
    drifted = dict(counts, **{"dialog.step_calls": 11})
    assert bench.check_count_drift(tmp_path, "tiny", 1, drifted)
    assert bench.check_count_drift(tmp_path, "tiny", 2, drifted) == []


def test_self_time_is_span_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    names = ["root", "a", "b", "c"]
    parents = [NO_PARENT, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    assert self_times(names, parents, starts, ends) == {
        "root": 10.0 - 3.0 - 4.0, "a": 3.0, "b": 4.0 - 2.0, "c": 2.0,
    }


def test_nested_wrappers_record_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [NO_PARENT, 0]
    assert tracer.counts == {"outer_calls": 1, "inner_calls": 1}
    self_s = tracer.self_times()
    assert self_s["outer"] + self_s["inner"] == pytest.approx(tracer.ends[0] - tracer.starts[0])
    assert 0.0 < span_cost(1000) < 1e-3


def test_normalize_divides_gaps_by_their_slowdown_and_skips_bursts():
    # bursts [0, 1], [3, 4], [10, 11]; factors 1, 2, 4
    starts, ends, factors = [0.0, 3.0, 10.0], [1.0, 4.0, 11.0], [1.0, 2.0, 4.0]

    def norm(lo, hi):
        return hostspeed.normalize(starts, ends, factors, lo, hi)

    assert norm(1.5, 2.5) == pytest.approx(1.0 / 1.5)  # inside gap 0-1
    assert norm(1.0, 11.0) == pytest.approx(2.0 / 1.5 + 6.0 / 3.0)  # whole span, no bursts
    assert norm(-2.0, 0.0) == pytest.approx(2.0 / 1.0)  # before the first burst
    assert norm(12.0, 14.0) == pytest.approx(2.0 / 4.0)  # after the last
    assert hostspeed.slowdowns([hostspeed.NOMINAL_S] * 3) == pytest.approx([1.0] * 3)
    slow = hostspeed.slowdowns([2 * hostspeed.NOMINAL_S] * 3)
    assert slow == pytest.approx([2.0] * 3)


def test_host_clock_leaves_outputs_and_wall_times_consistent(tmp_path):
    clock = hostspeed.HostClock(every_s=0.0)
    patches = Patches()
    probe = bench.Probe(clock)
    probe.install(patches)
    try:
        rep = bench.run_rep(TINY, tiny_config(), probe, tmp_path / "clocked")
    finally:
        patches.restore()
    plain = bench.run_rep(TINY, tiny_config(), bench.Probe(), tmp_path / "plain")
    assert rep.digest == plain.digest
    assert len(clock.starts) == len(rep.lengths) + 2  # one per episode, one at each end
    assert len(rep.norm_episode_s) == len(rep.episode_s) == len(rep.lengths)
    assert rep.norm_run_s > 0.0
    assert sum(rep.episode_s) < rep.run_s
