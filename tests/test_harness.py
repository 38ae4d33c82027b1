import dataclasses
import json

import numpy as np
import pytest

from oalsim import harness
from oalsim.actions import ExampleQuery, Guess, LabelQuery
from oalsim.agent import Agent
from oalsim.errors import CheckpointError
from oalsim.features import (
    INDEX,
    N_FEATURES,
    FeatureContext,
    featurize,
    guess_features,
    resolve_mask,
)
from oalsim.grounding import score_objects
from oalsim.harness import (
    CHECKPOINT_VERSION,
    Experiment,
    checkpoint_load,
    checkpoint_save,
    run_ablation,
    write_metrics_csv,
)
from oalsim.perception import PredicateModel
from oalsim.snapshot import EpisodeView, Snapshot

from conftest import small_run_config


@pytest.fixture(scope="module")
def small_experiment(small_corpus, small_split, small_density):
    cfg = small_run_config()
    return Experiment(cfg, corpus=small_corpus, split=small_split, density=small_density)


@pytest.fixture(scope="module")
def small_result(small_experiment):
    return small_experiment.run()


class TestRunBatch:
    def test_batch_size_and_indicators(self, small_experiment):
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        metrics, merged, outcomes = small_experiment.run_batch(
            plan, 0, 0, agent, np.zeros(N_FEATURES)
        )
        n = small_experiment.config.experiment.batch_size
        assert len(outcomes) == n
        assert len(metrics.success_indicators) == n
        assert metrics.success_rate == sum(metrics.success_indicators) / n

    def test_snapshot_determinism(self, small_experiment):
        plan = small_experiment.phase_plan()[0]
        runs = []
        for _ in range(2):
            agent = Agent()
            metrics, merged, _ = small_experiment.run_batch(
                plan, 0, 0, agent, np.zeros(N_FEATURES)
            )
            runs.append((metrics.success_indicators, metrics.lengths, sorted(merged)))
        assert runs[0] == runs[1]

    def test_dialog_length_identity(self, small_experiment):
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        _, _, outcomes = small_experiment.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        for o in outcomes:
            assert o.length == o.n_queries + 1

    def test_seen_predicates_grow_from_descriptions(self, small_experiment):
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        assert agent.predicates == set()
        _, _, outcomes = small_experiment.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        described = set()
        for o in outcomes:
            described |= set(o.interaction.description_predicates)
        assert agent.predicates == described

    def test_oracle_labels_match_half_space_ground_truth(
        self, small_experiment, small_corpus
    ):
        # closed world on synthetic data: annotations are exact half-space
        # memberships, so every acquired label must agree with them
        plan = small_experiment.phase_plan()[0]
        _, merged, outcomes = small_experiment.run_batch(
            plan, 0, 0, Agent(), np.zeros(N_FEATURES)
        )
        assert merged
        for (p, rid), label in merged.items():
            assert (label == 1) == (p in small_corpus.by_id[rid].annotations)
        for o in outcomes:
            for p, rid, label in o.pending:
                assert (label == 1) == (p in small_corpus.by_id[rid].annotations)

    def test_pending_labels_exclude_base_labels(self, small_experiment):
        # a second batch, where the agent already holds the first batch's labels
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        _, merged, outcomes = small_experiment.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        small_experiment.apply_batch_end(agent, merged, outcomes)
        base = {p: m.labels for p, m in agent.models.items()}
        _, merged, outcomes = small_experiment.run_batch(plan, 0, 1, agent, np.zeros(N_FEATURES))
        asked = [
            (step.action.predicate, rid)
            for o in outcomes
            for step in o.transcript
            if isinstance(step.action, ExampleQuery)
            for rid in o.interaction.active_train
        ]
        assert any(rid in base.get(p, {}) for p, rid in asked)
        pending = [(p, rid) for o in outcomes for p, rid, _ in o.pending]
        assert pending
        assert not any(rid in base.get(p, {}) for p, rid in pending)

    def test_label_counts_sum_to_new_labels(self, small_experiment):
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        metrics, merged, outcomes = small_experiment.run_batch(
            plan, 0, 0, agent, np.zeros(N_FEATURES)
        )
        assert sum(metrics.label_counts.values()) == len(merged)
        before = sum(len(m.labels) for m in agent.models.values())
        small_experiment.apply_batch_end(agent, merged, outcomes)
        after = sum(len(m.labels) for m in agent.models.values())
        assert after - before == len(merged)


class TestExperimentRun:
    def test_batch_count_and_phases(self, small_result):
        cfg = small_result.config.experiment
        assert len(small_result.metrics) == (
            cfg.init_batches + cfg.train_batches + cfg.test_batches
        )
        phases = [m.phase for m in small_result.metrics]
        assert phases == ["init"] * 2 + ["train"] * 2 + ["test"] * 2

    def test_run_is_deterministic(self, small_experiment, small_result):
        again = small_experiment.run()
        for a, b in zip(small_result.metrics, again.metrics):
            assert a.success_indicators == b.success_indicators
            assert a.lengths == b.lengths
        assert np.array_equal(small_result.theta, again.theta)

    def test_theta_frozen_in_test_phase(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        cfg = small_run_config()
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        result = exp.run(checkpoint_dir=tmp_path)
        end_train = checkpoint_load(tmp_path / "checkpoint_p1_b1.json")
        end_test = checkpoint_load(tmp_path / "checkpoint_p2_b1.json")
        assert end_train["theta"] == end_test["theta"]
        assert np.array_equal(np.asarray(end_test["theta"]), result.theta)

    def test_agent_reset_at_phase_boundaries(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        cfg = small_run_config()
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        exp.run(checkpoint_dir=tmp_path)
        # first test batch was produced by an agent holding only that batch's labels
        state = checkpoint_load(tmp_path / "checkpoint_p2_b0.json")
        agent = Agent.from_dict(state["agent"])
        test_labels = sum(len(m.labels) for m in agent.models.values())
        first = [
            m for m in (state["metrics"]) if m["phase"] == "test"
        ][0]
        assert sum(first["label_counts"].values()) == test_labels


class TestCheckpointing:
    def test_resume_matches_uninterrupted(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        cfg = small_run_config()
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        full = exp.run(checkpoint_dir=tmp_path / "ck")
        mid = checkpoint_load(tmp_path / "ck" / "checkpoint_p1_b0.json")
        resumed = exp.run(resume=mid)
        assert len(resumed.metrics) == len(full.metrics)
        for a, b in zip(full.metrics, resumed.metrics):
            assert a.phase == b.phase and a.batch == b.batch
            assert a.success_indicators == b.success_indicators
            assert a.lengths == b.lengths
            assert a.label_counts == b.label_counts
        assert np.array_equal(full.theta, resumed.theta)

    def test_resume_across_phase_boundary(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        cfg = small_run_config()
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        full = exp.run(checkpoint_dir=tmp_path / "ck")
        boundary = checkpoint_load(tmp_path / "ck" / "checkpoint_p1_b1.json")
        assert tuple(boundary["cursor"]) == (2, 0)
        resumed = exp.run(resume=boundary)
        for a, b in zip(full.metrics, resumed.metrics):
            assert a.success_indicators == b.success_indicators

    def test_csv_bit_identical_after_resume(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        cfg = small_run_config()
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        full = exp.run(checkpoint_dir=tmp_path / "ck")
        resumed = exp.run(resume=checkpoint_load(tmp_path / "ck" / "checkpoint_p0_b1.json"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, full.metrics)
        write_metrics_csv(b, resumed.metrics)
        assert a.read_bytes() == b.read_bytes()

    def test_resume_keeps_earlier_transcripts(
        self, small_corpus, small_split, small_density, tmp_path, monkeypatch
    ):
        cfg = small_run_config()
        full = tmp_path / "full.jsonl"
        Experiment(cfg, small_corpus, small_split, small_density).run(transcript_path=full)

        class Interrupted(Exception):
            pass

        cut = tmp_path / "cut.jsonl"
        exp = Experiment(cfg, small_corpus, small_split, small_density)

        def run_episode(interaction, agent, snapshot, theta, kind, phase, batch, ep):
            if (phase, batch, ep) == (1, 1, 5):
                raise Interrupted
            return Experiment.run_episode(
                exp, interaction, agent, snapshot, theta, kind, phase, batch, ep
            )

        monkeypatch.setattr(exp, "run_episode", run_episode)
        with pytest.raises(Interrupted):
            exp.run(checkpoint_dir=tmp_path / "ck", transcript_path=cut)
        assert '"train/1/4"' in cut.read_text()  # the interrupted batch is partial
        resume = checkpoint_load(tmp_path / "ck" / "checkpoint_p1_b0.json")
        Experiment(cfg, small_corpus, small_split, small_density).run(
            resume=resume, transcript_path=cut
        )
        assert cut.read_bytes() == full.read_bytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        checkpoint_save(path, {"version": CHECKPOINT_VERSION, "cursor": [0, 1]})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            checkpoint_save(
                path, {"version": CHECKPOINT_VERSION, "cursor": [0, 2], "x": object()}
            )
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_truncated_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "oalsim-checkpoint/1", "cursor"')
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_version_mismatch(self, small_experiment, tmp_path):
        path = tmp_path / "old.json"
        checkpoint_save(path, {"version": "oalsim-checkpoint/0", "cursor": [0, 0]})
        state = checkpoint_load(path)
        with pytest.raises(CheckpointError):
            small_experiment.run(resume=state)

    def test_config_digest_guard(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        cfg = small_run_config()
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        exp.run(checkpoint_dir=tmp_path / "ck")
        state = checkpoint_load(tmp_path / "ck" / "checkpoint_p0_b0.json")
        other = Experiment(
            small_run_config(master_seed=99), small_corpus, small_split, small_density
        )
        with pytest.raises(CheckpointError):
            other.run(resume=state)

    def test_agent_roundtrip(self):
        agent = Agent()
        model = PredicateModel(predicate="red")
        model.record_label("r1", 1)
        model.record_label("r2", -1)
        model.weights = np.array([0.5, -0.25, 0.1])
        model.f1 = 0.75
        agent.models["red"] = model
        agent.stats.observe_dialog(("red",), True)
        agent.predicates = {"red", "box"}
        back = Agent.from_dict(json.loads(json.dumps(agent.to_dict())))
        assert back.models["red"].labels == model.labels
        assert np.array_equal(back.models["red"].weights, model.weights)
        assert back.models["red"].f1 == model.f1
        assert back.stats.dialogs == 1
        assert back.predicates == {"red", "box"}

    @pytest.mark.parametrize(
        "field, value",
        [("label", 0), ("label", 5), ("f1", 2.5), ("f1", -0.5), ("f1", float("nan"))],
    )
    def test_agent_with_invalid_label_or_f1_rejected(self, field, value):
        # a stored 0 would read as "no label" in an episode's label table
        model = PredicateModel(predicate="red")
        model.record_label("r1", 1)
        agent = Agent(models={"red": model})
        data = json.loads(json.dumps(agent.to_dict()))
        if field == "label":
            data["models"]["red"]["labels"]["r1"] = value
        else:
            data["models"]["red"]["f1"] = value
        with pytest.raises(CheckpointError, match="red"):
            Agent.from_dict(data)


class TestImmediateUpdates:
    def test_flag_changes_in_episode_models_only(
        self, small_corpus, small_split, small_density
    ):
        frozen_cfg = small_run_config()
        episode_cfg = dataclasses.replace(
            frozen_cfg, episode=dataclasses.replace(frozen_cfg.episode, immediate_updates=True)
        )
        frozen = Experiment(frozen_cfg, small_corpus, small_split, small_density).run()
        immediate = Experiment(episode_cfg, small_corpus, small_split, small_density).run()
        # both run to completion over the same interactions; trajectories may differ
        assert len(frozen.metrics) == len(immediate.metrics)
        assert [m.phase for m in frozen.metrics] == [m.phase for m in immediate.metrics]

    def test_refits_fit_only_label_sets_with_both_classes(
        self, small_corpus, small_split, small_density, monkeypatch
    ):
        # a one-class label set has no weights and F1 0 before and after its new label
        cfg = small_run_config(init_batches=1, train_batches=1, test_batches=1)
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
        fitted, refits = [], []
        train, refresh = harness.train_classifier, Experiment._refresh_models

        def checked_train(model, *args):
            fitted.append((model.n_pos(), model.n_neg()))
            return train(model, *args)

        def recorded_refresh(self, *args):
            refits.append(refresh(self, *args))
            return refits[-1]

        monkeypatch.setattr(harness, "train_classifier", checked_train)
        monkeypatch.setattr(Experiment, "_refresh_models", recorded_refresh)
        Experiment(cfg, small_corpus, small_split, small_density).run()
        assert fitted and all(pos > 0 and neg > 0 for pos, neg in fitted)
        assert any(refits) and not all(refits)

    def test_one_class_refit_records_the_label_and_leaves_rows_alone(self, small_experiment):
        exp = small_experiment
        agent = Agent()
        plan = exp.phase_plan()[0]
        _, merged, outcomes = exp.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        exp.apply_batch_end(agent, merged, outcomes)
        inter = outcomes[0].interaction
        desc = inter.description_predicates
        x = inter.active_train[0]
        rid = exp.density.knn(x)[0]
        other = next(r for r in exp.corpus.ids if r != rid)
        agent.models["zz-one"] = PredicateModel("zz-one", labels={other: 1})
        view = EpisodeView(
            Snapshot(agent.models, exp.corpus.dim, exp.config.triangular),
            agent.predicates | set(agent.models) | set(desc) | {"zz-new"},
            inter.active_train,
            inter.active_test,
            exp.features_by_id,
        )
        ctx = FeatureContext(
            t_max=40,
            description_predicates=desc,
            view=view,
            stats=agent.stats,
            density=exp.density,
            guess=guess_features(desc, view, score_objects(desc, view)),
        )
        names = ("f1", "sampling", "trained", "margins", "decisions")
        before = {name: getattr(view, name).copy() for name in names}
        by_margin, queries = [list(r) for r in view.by_margin], ctx.queries.copy()

        def refresh(new_labels):
            refit = exp._refresh_models(view, new_labels, agent)
            ctx.refit([view.index[p] for p in refit])  # as run_episode does
            return refit

        assert refresh([("zz-new", rid, 1), ("zz-one", rid, 1)]) == set()
        new, one = (view.models[view.index[p]] for p in ("zz-new", "zz-one"))
        assert new.labels == {rid: 1} and one.labels == {other: 1, rid: 1}
        assert agent.models["zz-one"].labels == {other: 1}  # the agent's model is not changed
        for name in names:
            assert np.array_equal(getattr(view, name), before[name]), name
        assert view.by_margin == by_margin
        assert np.array_equal(ctx.queries, queries)
        # the label feature reads the view's copy, so it counts the new label
        got = featurize([Guess(), LabelQuery("zz-new", x)], 3, ctx)
        k = len(exp.density.knn(x))
        assert got[1, INDEX["label_knn_unlabeled"]] == (k - 1) / k

        assert refresh([("zz-new", other, -1)]) == {"zz-new"}
        assert view.trained[view.index["zz-new"]] and new.weights is not None


class TestAblationHarness:
    def test_group_masks_logged_vectors(self, small_corpus, small_split, small_density):
        mask = resolve_mask(["guess"])
        cfg = small_run_config(ablate=("guess",))
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        plan = exp.phase_plan()[0]
        agent = Agent()
        _, _, outcomes = exp.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        seen_any = False
        for o in outcomes[:10]:
            for feats, chosen, _ in o.steps:
                assert np.all(feats[:, mask] == 0)
                seen_any = True
        assert seen_any

    def test_run_ablation_end_to_end(self):
        cfg = small_run_config()
        result = run_ablation(cfg, ["guess", "query"])
        assert set(result.conditions) == {"full", "static", "guess", "query"}
        rows = result.comparison_rows()
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row["success_rate"] <= 1.0
        static_row = next(r for r in rows if r["condition"] == "static")
        assert static_row["p_success_vs_static"] is None

    def test_ablating_always_zero_feature_is_noop(
        self, small_corpus, small_split, small_density
    ):
        # with one batch per phase, stats are always fresh during acting, so the
        # usage features are identically zero and masking them cannot matter
        base = small_run_config(init_batches=1, train_batches=1, test_batches=1)
        masked = small_run_config(
            init_batches=1, train_batches=1, test_batches=1,
            ablate=("query_usage_freq", "query_usage_success"),
        )
        r_base = Experiment(base, small_corpus, small_split, small_density).run()
        r_masked = Experiment(masked, small_corpus, small_split, small_density).run()
        for a, b in zip(r_base.metrics, r_masked.metrics):
            assert a.success_indicators == b.success_indicators
            assert a.lengths == b.lengths


class TestMetricsFiles:
    def test_csv_deterministic_bytes(self, small_result, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, small_result.metrics)
        write_metrics_csv(b, small_result.metrics)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "phase,batch,success_rate,mean_length,mean_queries"

    def test_summary_contents(self, small_result):
        summary = small_result.summary()
        final = summary["final_test_batch"]
        assert len(final["success_indicators"]) == 15
        assert final["success_rate"] == pytest.approx(
            sum(final["success_indicators"]) / 15
        )
        assert len(summary["batches"]) == len(small_result.metrics)


def test_transcript_streaming(small_corpus, small_split, small_density, tmp_path):
    cfg = small_run_config(init_batches=1, train_batches=1, test_batches=1)
    exp = Experiment(cfg, small_corpus, small_split, small_density)
    path = tmp_path / "transcripts.jsonl"
    exp.run(transcript_path=path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines
    episodes = {rec["episode"] for rec in lines}
    assert any(e.startswith("init/0/") for e in episodes)
    assert any(e.startswith("test/0/") for e in episodes)
    for rec in lines[:50]:
        assert set(rec) == {"episode", "turn", "action", "reward", "features"}
        assert len(rec["features"]) == N_FEATURES
