import dataclasses
import json
import re
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

from oalsim import harness
from oalsim.actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY, describe
from oalsim.config import PolicyConfig
from oalsim.corpus import Corpus, generate_synthetic, load_regions, write_regions
from oalsim.dialog import RewardConfig, rewards_and_returns
from oalsim.errors import CheckpointError
from oalsim.features import INDEX, N_FEATURES, FeatureContext, featurize, resolve_mask
from oalsim.harness import (
    Agent,
    CHECKPOINT_VERSION,
    BatchMetrics,
    Experiment,
    checkpoint_load,
    checkpoint_save,
    compare_final_batches,
    run_ablation,
    write_metrics_csv,
)
from oalsim.perception import PredicateModel
from oalsim.policy import AgentStats, grad_log_prob

from conftest import (
    READS_ALL,
    SMALL_SYNTH,
    episode_return,
    episode_view,
    feature_context,
    list_rewards,
    record_dialogs,
    small_run_config,
)
from setup_oracle import oracle_guess_features, oracle_scores


def batch(indicators, lengths):
    """A final test batch as a report reads it from summary.json."""
    return BatchMetrics("test", -1, {}, indicators, lengths)


def first_returns(indicators, lengths, rewards):
    """G_0 of each dialog in closed form: length - 1 queries, then the guess."""
    gamma = rewards.discount
    return [
        rewards.per_query * sum(gamma**t for t in range(length - 1))
        + gamma ** (length - 1)
        * (rewards.correct_guess if success else rewards.incorrect_guess)
        for success, length in zip(indicators, lengths)
    ]


README = Path(__file__).resolve().parent.parent / "README.md"

# the fields of a Corpus that the agent's label codec reads: ids, their rows, annotations
CODEC_CORPUS = SimpleNamespace(
    ids=["r0", "r1", "r2"],
    row={"r0": 0, "r1": 1, "r2": 2},
    annotations=[frozenset({"box"}), frozenset(), frozenset({"red", "box"})],
)

CHECKPOINT_KEYS = ["version", "config_digest", "corpus_fingerprint", "theta", "labels", "metrics"]


def _v2_row(rows):
    """Give the first metrics row the rate oalsim-checkpoint/2 stored, with its true value."""
    indicators = rows[0]["success_indicators"]
    rows[0]["success_rate"] = sum(indicators) / len(indicators)


@pytest.fixture(scope="module")
def small_experiment(small_corpus, small_split, small_density):
    cfg = small_run_config()
    return Experiment(cfg, corpus=small_corpus, split=small_split, density=small_density)


@pytest.fixture(scope="module")
def small_result(small_experiment):
    return small_experiment.run()


@pytest.fixture(scope="module")
def small_checkpoints(small_experiment, tmp_path_factory):
    """The directory of the small run's checkpoints, one per batch."""
    ck = tmp_path_factory.mktemp("ck")
    small_experiment.run(checkpoint_dir=ck)
    return ck


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
        # the agent's seen predicates are the keys of its usage stats, which
        # the batch end extends with the batch's descriptions
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        assert agent.stats.used == {}
        _, merged, outcomes = small_experiment.run_batch(
            plan, 0, 0, agent, np.zeros(N_FEATURES)
        )
        small_experiment.apply_batch_end(agent, merged, outcomes)
        described = set()
        for o in outcomes:
            described |= set(o.interaction.description_predicates)
        assert set(agent.stats.used) == described

    def test_oracle_labels_match_half_space_ground_truth(
        self, small_experiment, small_corpus, monkeypatch
    ):
        # closed world on synthetic data: annotations are exact half-space
        # memberships, so every acquired label must agree with them
        pending = record_dialogs(monkeypatch, lambda o, episode, t: episode.pending_labels)
        plan = small_experiment.phase_plan()[0]
        _, merged, outcomes = small_experiment.run_batch(
            plan, 0, 0, Agent(), np.zeros(N_FEATURES)
        )
        assert merged and len(pending) == len(outcomes)
        for (p, row), label in merged.items():
            assert (label == 1) == (p in small_corpus.annotations[row])
        for labels in pending:
            for p, row, label in labels:
                assert (label == 1) == (p in small_corpus.annotations[row])

    def test_pending_labels_exclude_base_labels(self, small_experiment, monkeypatch):
        # a second batch, where the agent already holds the first batch's labels
        plan = small_experiment.phase_plan()[0]
        agent = Agent()
        _, merged, outcomes = small_experiment.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        small_experiment.apply_batch_end(agent, merged, outcomes)
        base = {p: m.labels for p, m in agent.models.items()}
        # the second batch's dialogs, whose views name their actions' rows; an
        # update phase keeps each turn's record
        dialogs = record_dialogs(monkeypatch, lambda o, episode, turns: (episode, turns))
        small_experiment.run_batch(plan, 0, 1, agent, np.zeros(N_FEATURES))
        asked = [
            (episode.view.predicates[row], rid)
            for episode, turns in dialogs
            for kind, row, _ in (action for action, _, _, _ in turns)
            if kind == EXAMPLE_QUERY
            for rid in episode.interaction.active_train
        ]
        assert any(rid in base.get(p, {}) for p, rid in asked)
        pending = [(p, rid) for episode, _ in dialogs for p, rid, _ in episode.pending_labels]
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


    def test_batch_setup_fits_two_class_models_with_new_labels_in_one_call(
        self, small_experiment, monkeypatch
    ):
        # one fit_models call per batch start with the two-class models whose
        # labels changed since their last fit, sorted by predicate; the batch
        # end fits nothing, and train_classifier and estimate_f1 serve immediate refits only
        exp = small_experiment
        calls = []
        fit_models = harness.fit_models

        def recorded(models, *args):
            calls.append([(m.predicate, len(m.labels), m.trainable()) for m in models])
            return fit_models(models, *args)

        def refused(*args):
            raise AssertionError("single fit at batch level")

        monkeypatch.setattr(harness, "fit_models", recorded)
        monkeypatch.setattr(harness, "train_classifier", refused)
        monkeypatch.setattr(harness, "estimate_f1", refused)
        plan = exp.phase_plan()[0]
        agent = Agent()
        fitted = {}  # predicate -> its label count at its last fit
        for batch in range(3):
            _, merged, outcomes = exp.run_batch(plan, 0, batch, agent, np.zeros(N_FEATURES))
            changed = sorted(
                p for p, m in agent.models.items()
                if m.trainable() and fitted.get(p) != len(m.labels)
            )
            assert calls[-1] == [(p, len(agent.models[p].labels), True) for p in changed]
            assert len(changed) > 1 or batch == 0
            fitted.update((p, len(agent.models[p].labels)) for p in changed)
            if batch:
                assert agent.models["zz-one"].weights is None and agent.models["zz-one"].f1 == 0.0
            merged[("zz-one", batch)] = 1  # new labels, but one class
            exp.apply_batch_end(agent, merged, outcomes)
            assert len(calls) == batch + 1
        # the last batch end left unfit exactly the models whose labels changed since their fit
        assert all(
            (m.weights is None) == (fitted.get(p) != len(m.labels))
            for p, m in agent.models.items()
        )


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

    def test_a_batch_runs_after_the_previous_batch_freed_its_transcripts(
        self, small_experiment, monkeypatch
    ):
        # a batch's transcripts hold its beams' feature arrays; two batches'
        # alive at once would double the run's peak memory
        held = []
        run_batch = Experiment.run_batch

        def checked(self, *args, **kwargs):
            assert all(ref() is None for ref in held)
            out = run_batch(self, *args, **kwargs)
            held[:] = [weakref.ref(o) for o in out[2]]
            return out

        monkeypatch.setattr(Experiment, "run_batch", checked)
        small_experiment.run()
        assert held

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
        test_labels = sum(len(rids) for rids in state["labels"].values())
        first = [
            m for m in (state["metrics"]) if m["phase"] == "test"
        ][0]
        assert sum(first["label_counts"].values()) == test_labels


class TestPolicyUpdate:
    @pytest.mark.parametrize("discount", [1.0, 0.9])
    def test_each_update_is_the_reinforce_step_over_the_live_beams(
        self, small_corpus, small_split, small_density, live_turns, monkeypatch, discount
    ):
        # a static init batch and a learned train batch under the running-mean
        # baseline: each update equals the step summed over the beams its
        # dialogs played, at the theta they played with, and the returns of
        # the per-turn reward lists their outcomes give, turn t weighted by
        # discount**t
        cfg = small_run_config(init_batches=1, train_batches=1, test_batches=1)
        policy = dataclasses.replace(cfg.policy, use_baseline=True, learning_rate_decay=0.5)
        rewards = dataclasses.replace(cfg.rewards, discount=discount)
        cfg = dataclasses.replace(cfg, policy=policy, rewards=rewards)
        update, updates = harness.reinforce_update, []

        def recorded(theta, *args):
            updates.append((theta, list(live_turns), update(theta, *args)))
            live_turns.clear()
            return updates[-1][2]

        monkeypatch.setattr(harness, "reinforce_update", recorded)
        result = Experiment(cfg, small_corpus, small_split, small_density).run()
        assert len(updates) == 2
        theta, mean, count = np.zeros(N_FEATURES), 0.0, 0
        for b, (played, turns, new) in enumerate(updates):
            m = result.metrics[b]  # the init batch, then the train batch
            assert len(turns) == len(m.lengths) == cfg.experiment.batch_size
            assert [len(t) for t in turns] == m.lengths
            assert np.array_equal(played, theta)
            returns = [
                episode_return(list_rewards(cfg.rewards, s, n), cfg.rewards.discount)
                for s, n in zip(m.success_indicators, m.lengths)
            ]
            for g in returns:
                count += 1
                mean += (g[0] - mean) / count
            grad = np.zeros(N_FEATURES)
            for dialog, gs in zip(turns, returns, strict=True):
                for t, ((_, feats, chosen, _), g) in enumerate(zip(dialog, gs, strict=True)):
                    grad += discount**t * (g - mean) * grad_log_prob(theta, feats, chosen)
            theta = theta + policy.learning_rate * max(0.0, 1.0 - 0.5 * b) * grad
            assert np.array_equal(new, theta)
        assert np.any(theta) and np.array_equal(result.theta, theta)

    def test_no_beam_outlives_its_dialog(self, small_experiment, monkeypatch):
        # the outcomes of a batch that updates the policy hold its steps, not its beams
        form, beams = harness.featurize, []

        def recorded(*args):
            out = form(*args)
            beams.append(weakref.ref(out))
            return out

        monkeypatch.setattr(harness, "featurize", recorded)
        plan = small_experiment.phase_plan()[0]
        assert plan.update_policy
        _, _, outcomes = small_experiment.run_batch(plan, 0, 0, Agent(), np.zeros(N_FEATURES))
        assert beams and all(len(o.steps) == o.length for o in outcomes)
        assert [ref for ref in beams if ref() is not None] == []

    def test_each_transcript_line_writes_the_row_its_update_reads(
        self, small_corpus, small_split, small_density, monkeypatch, tmp_path
    ):
        # in the phases that both update the policy and write the transcript,
        # each line's features are the chosen row of the recorded array that
        # its REINFORCE term reads; its turn, action and reward are the turn's
        cfg = small_run_config(init_batches=1, train_batches=1, test_batches=1)
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        dialogs = record_dialogs(monkeypatch, lambda o, episode, turns: (o, episode, turns))
        terms, form = [], harness.grad_log_prob

        def recorded(theta, features, chosen, probs):
            terms.append((features, chosen))
            return form(theta, features, chosen, probs)

        monkeypatch.setattr(harness, "grad_log_prob", recorded)
        exp.run(transcript_path=tmp_path / "t.jsonl")
        lines = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        updating = dialogs[: 2 * cfg.experiment.batch_size]  # the init and train batches
        assert all(o.steps for o, _, _ in updating)
        assert not any(o.steps for o, _, _ in dialogs[len(updating) :])
        assert len(terms) == sum(o.length for o, _, _ in updating) < len(lines)
        turns = [
            (t, turn, episode, reward)
            for o, episode, record in updating
            for t, (turn, reward) in enumerate(
                zip(record, rewards_and_returns(cfg.rewards, o.success, o.length)[0])
            )
        ]
        for line, (features, chosen), (t, turn, episode, reward) in zip(lines, terms, turns):
            assert line["episode"].split("/")[0] in ("init", "train")
            assert features is turn[1] and chosen == turn[2]
            assert line["features"] == features[chosen].tolist()
            assert len(line["features"]) == N_FEATURES
            assert line["turn"] == t and line["reward"] == reward
            assert line["action"] == describe(turn[0], episode.view, small_corpus.ids)


class TestFeatureReads:
    """A phase builds beams and featurizes what its policy, its update and the sink read."""

    @staticmethod
    def _record(monkeypatch):
        """Per phase: featurize calls' row counts, built beams' lengths and contexts built."""
        seen = {"phase": None, "calls": [], "beams": [], "contexts": []}
        run_batch, build, form = Experiment.run_batch, harness.build_beam, harness.featurize
        context = harness.FeatureContext

        def recorded_batch(self, plan, *args, **kwargs):
            seen["phase"] = plan.name
            return run_batch(self, plan, *args, **kwargs)

        def recorded_beam(**kwargs):
            beam = build(**kwargs)
            seen["beams"].append((seen["phase"], len(beam)))
            return beam

        def recorded_featurize(actions, turn, ctx):
            seen["calls"].append((seen["phase"], len(actions)))
            return form(actions, turn, ctx)

        def recorded_context(*args, **kwargs):
            seen["contexts"].append(seen["phase"])
            return context(*args, **kwargs)

        monkeypatch.setattr(Experiment, "run_batch", recorded_batch)
        monkeypatch.setattr(harness, "build_beam", recorded_beam)
        monkeypatch.setattr(harness, "featurize", recorded_featurize)
        monkeypatch.setattr(harness, "FeatureContext", recorded_context)
        return seen

    @pytest.mark.parametrize("kind", ["static", "learned"])
    @pytest.mark.parametrize("sink", [False, True], ids=["no-sink", "sink"])
    def test_each_phase_featurizes_what_it_reads(
        self, kind, sink, small_corpus, small_split, small_density, monkeypatch, tmp_path
    ):
        seen = self._record(monkeypatch)
        cfg = small_run_config(policy_kind=kind)
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        result = exp.run(transcript_path=tmp_path / "t.jsonl" if sink else None)
        for phase in harness.PHASE_NAMES:
            lengths = [n for m in result.metrics if m.phase == phase for n in m.lengths]
            calls = [rows for p, rows in seen["calls"] if p == phase]
            beams = [n for p, n in seen["beams"] if p == phase]
            contexts = seen["contexts"].count(phase)
            if phase == "init" or kind == "learned":  # every beam row is read
                assert calls == beams and len(beams) == sum(lengths)
                assert contexts == len(lengths)
            else:  # no beam is read: a static turn draws only the action it plays
                assert beams == []
                if sink:  # the transcript reads one row a turn, in one call a dialog
                    assert calls == lengths
                    assert contexts == len(lengths)
                else:
                    assert calls == [] and contexts == 0

    @pytest.mark.parametrize("kind", ["static", "learned"])
    def test_turns_keep_only_what_is_read(
        self, kind, small_corpus, small_split, small_density, live_turns, monkeypatch, tmp_path,
    ):
        # update phases keep each beam and, for the learned policy, the
        # probabilities it sampled from; where only the sink reads them, a
        # dialog's turns share one array of its played actions' rows;
        # elsewhere no turn is kept
        phases = []
        run_batch = Experiment.run_batch

        def recorded_batch(self, plan, *args, **kwargs):
            out = run_batch(self, plan, *args, **kwargs)
            phases.extend((plan, args[3], o.length) for o in out[2])  # args[3]: theta
            return out

        monkeypatch.setattr(Experiment, "run_batch", recorded_batch)
        for sink in (None, tmp_path / "t.jsonl"):
            live_turns.clear()
            phases.clear()
            Experiment(
                small_run_config(policy_kind=kind), small_corpus, small_split, small_density
            ).run(transcript_path=sink)
            assert len(phases) == len(live_turns) > 0
            sink_only = 0
            for (plan, theta, length), turns in zip(phases, live_turns):
                if not (plan.update_policy or sink):
                    assert turns == []
                    continue
                assert len(turns) == length
                for t, turn in enumerate(turns):
                    self._check_turn(turn, plan, theta)
                    if not plan.update_policy and plan.policy_kind == "static":
                        _, feats, chosen, probs = turn
                        assert feats is turns[0][1] and len(feats) == length
                        assert chosen == t and probs is None
                        sink_only += 1
            # the static arm's train and test phases are read only by the sink
            assert (sink_only > 0) == (kind == "static" and sink is not None)

    @staticmethod
    def _check_turn(turn, plan, theta):
        action, feats, chosen, probs = turn
        assert len(action) == 3 and feats.shape[1:] == (N_FEATURES,)
        assert 0 <= chosen < len(feats)
        if plan.policy_kind == "learned":
            assert probs.tobytes() == harness.action_probabilities(theta, feats).tobytes()
            want = grad_log_prob(theta, feats, chosen)
            assert grad_log_prob(theta, feats, chosen, probs).tobytes() == want.tobytes()
        else:
            assert probs is None

    def test_a_sink_changes_no_outcome(
        self, small_corpus, small_split, small_density, tmp_path, monkeypatch
    ):
        # with immediate refits, a static dialog without features regrounds
        # on the argmax alone and one with a sink through its feature context
        cfg = small_run_config(policy_kind="static")
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
        regroundings = []  # whether each in-dialog regrounding built guess features
        stacked, ground = harness.view_stack, harness.ground

        def recorded_stack(*args):
            regroundings.append(None)
            return stacked(*args)

        def recorded_ground(stack, features=True):
            if regroundings and regroundings[-1] is None:
                regroundings[-1] = features
            return ground(stack, features)

        monkeypatch.setattr(harness, "view_stack", recorded_stack)
        monkeypatch.setattr(harness, "ground", recorded_ground)
        runs = []
        for path in (None, tmp_path / "t.jsonl"):
            regroundings.clear()
            exp = Experiment(cfg, small_corpus, small_split, small_density)
            runs.append(exp.run(transcript_path=path))
            assert (False in regroundings) == (path is None) and True in regroundings
        assert runs[0].metrics == runs[1].metrics
        assert runs[0].theta.tobytes() == runs[1].theta.tobytes()

    def test_played_actions_featurize_as_each_turn_alone_across_immediate_refits(
        self, small_corpus, small_split, small_density, monkeypatch, tmp_path
    ):
        # a static dialog featurizes its played actions together, for the
        # transcript only; an immediate refit changes the view's model, rows
        # and guess mid-dialog, so each line must still hold the features of
        # its action alone at its turn, taken before the turn's step
        cfg = small_run_config(policy_kind="static")
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
        current, want, refits = {}, [], []
        run_episode, step, refresh = Experiment.run_episode, harness.Episode.step, Experiment._refresh_models

        def recorded_episode(self, setup, *args):
            current["ctx"] = setup.features
            return run_episode(self, setup, *args)

        def recorded_step(self, action):
            want.append(featurize([action], self.turn, current["ctx"])[0].tolist())
            step(self, action)

        def recorded_refresh(self, *args):
            refits.append(refresh(self, *args))
            return refits[-1]

        monkeypatch.setattr(Experiment, "run_episode", recorded_episode)
        monkeypatch.setattr(harness.Episode, "step", recorded_step)
        monkeypatch.setattr(Experiment, "_refresh_models", recorded_refresh)
        path = tmp_path / "t.jsonl"
        Experiment(cfg, small_corpus, small_split, small_density).run(transcript_path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert True in refits and any(line["episode"].startswith("test/") for line in lines)
        for line, features in zip(lines, want, strict=True):
            assert json.dumps(line["features"]) == json.dumps(features), line["episode"]


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
        assert [m["phase"] for m in boundary["metrics"]] == ["init"] * 2 + ["train"] * 2
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

        played = []

        def run_episode(*args):
            played.append(args)
            if len(played) == (2 + 1) * 15 + 6:  # train batch 1's sixth dialog, 15 per batch
                raise Interrupted
            return Experiment.run_episode(exp, *args)

        monkeypatch.setattr(exp, "run_episode", run_episode)
        with pytest.raises(Interrupted):
            exp.run(checkpoint_dir=tmp_path / "ck", transcript_path=cut)
        assert '"train/1/4"' in cut.read_text()  # the interrupted batch is partial
        resume = checkpoint_load(tmp_path / "ck" / "checkpoint_p1_b0.json")
        Experiment(cfg, small_corpus, small_split, small_density).run(
            resume=resume, transcript_path=cut
        )
        assert cut.read_bytes() == full.read_bytes()

    def test_each_checkpoint_follows_its_batches_records(
        self, small_experiment, tmp_path, monkeypatch
    ):
        # the sink is flushed before each save: a process killed right after
        # it leaves a record of every turn of the batches the checkpoint holds
        save, held = harness.checkpoint_save, []
        transcript = tmp_path / "t.jsonl"

        def recorded(path, state):
            turns = sum(n for m in state["metrics"] for n in m["lengths"])
            held.append((transcript.read_text().count("\n"), turns))
            save(path, state)

        monkeypatch.setattr(harness, "checkpoint_save", recorded)
        small_experiment.run(checkpoint_dir=tmp_path / "ck", transcript_path=transcript)
        assert len(held) == 6 and all(lines == turns for lines, turns in held)

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

    def test_resume_with_reinforce_baseline_and_decay(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        # learning_rate_decay and the running-mean baseline both read the
        # checkpointed counters; every checkpoint must resume bit-exactly
        def run_config(use_baseline):
            policy = PolicyConfig(
                learning_rate=3e-5, learning_rate_decay=0.1, use_baseline=use_baseline
            )
            return dataclasses.replace(small_run_config(), policy=policy)

        exp = Experiment(run_config(True), small_corpus, small_split, small_density)
        full = exp.run(checkpoint_dir=tmp_path / "ck")
        checkpoints = sorted((tmp_path / "ck").glob("checkpoint_*.json"))
        assert len(checkpoints) == 6
        for path in checkpoints:
            resumed = exp.run(resume=checkpoint_load(path))
            assert resumed.metrics == full.metrics
            assert np.array_equal(resumed.theta, full.theta)
        off = Experiment(run_config(False), small_corpus, small_split, small_density).run()
        assert not np.array_equal(off.theta, full.theta)

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

    def test_corpus_fingerprint_guard(self, small_experiment, small_checkpoints):
        # same config, same regions in another file order: another corpus
        state = checkpoint_load(small_checkpoints / "checkpoint_p0_b0.json")
        assert state["corpus_fingerprint"] == small_experiment.corpus.fingerprint
        other = Experiment(
            small_run_config(), Corpus(list(reversed(generate_synthetic(SMALL_SYNTH))))
        )
        with pytest.raises(CheckpointError, match="corpus"):
            other.run(resume=state)

    def test_resume_from_the_end_cursor(self, small_experiment, small_result, small_checkpoints):
        end = checkpoint_load(small_checkpoints / "checkpoint_p2_b1.json")
        assert len(end["metrics"]) == 6
        resumed = small_experiment.run(resume=end)
        assert resumed.metrics == small_result.metrics
        assert np.array_equal(resumed.theta, small_result.theta)

    def test_readme_names_the_keys_a_checkpoint_holds(self, small_checkpoints):
        # README's checkpoint paragraph lists the keys a run writes, in their
        # order, for this version, and no other key
        text = " ".join(README.read_text(encoding="utf-8").split())
        listed = re.search(
            r"\(`" + re.escape(CHECKPOINT_VERSION) + r"`\)[^.]*\. Its keys are ([^:]*):", text
        )
        written = checkpoint_load(small_checkpoints / "checkpoint_p0_b0.json")
        assert listed and re.findall(r"`(\w+)`", listed.group(1)) == list(written)

    @staticmethod
    def _refused(experiment, checkpoints, edit, match):
        """Resume from the checkpoint at cursor (1, 1) after `edit` changes its state."""
        state = checkpoint_load(checkpoints / "checkpoint_p1_b0.json")
        assert len(state["metrics"]) == 3
        edit(state)
        with pytest.raises(CheckpointError, match=match):
            experiment.run(resume=state)

    @pytest.mark.parametrize("key", CHECKPOINT_KEYS)
    def test_a_checkpoint_without_one_of_its_keys_is_refused(
        self, small_experiment, small_checkpoints, key
    ):
        # resume reads every key that a run writes, and the labels are each
        # model's distinct labeled region ids and nothing else
        def edit(state):
            assert list(state) == CHECKPOINT_KEYS
            labels = state["labels"]
            assert labels and all(
                len(set(rids)) == len(rids) and set(rids) <= set(small_experiment.corpus.row)
                for rids in labels.values()
            )
            del state[key]

        self._refused(small_experiment, small_checkpoints, edit, key.split("_")[0])

    @pytest.mark.parametrize("variant", ["baseline-decay", "immediate"])
    def test_resume_fits_at_its_first_batch_start_and_derives_the_updates(
        self, small_corpus, small_split, small_density, tmp_path, monkeypatch, variant,
    ):
        # a checkpoint stores no cursor, label sign, usage stats, weights, F1,
        # update counter or baseline: a resume that keeps the agent reads at
        # its first batch start the stats the uninterrupted run read there
        # and fits its models as that run held them, one that resets the agent
        # fits none of them, and every later update takes the step size and
        # baseline that the running formula, kept here as the oracle, gave the
        # uninterrupted run
        policy = PolicyConfig(learning_rate=3e-5, learning_rate_decay=0.1, use_baseline=True)
        cfg = dataclasses.replace(small_run_config(), policy=policy)
        if variant == "immediate":
            episode = dataclasses.replace(cfg.episode, immediate_updates=True)
            cfg = dataclasses.replace(cfg, episode=episode)
        rows, fit, update = harness.BatchRows, harness.fit_models, harness.reinforce_update
        setup, load = harness.BatchSetup, Agent.from_dict
        frozen, fits, updates, loaded, stats = [], [], [], [], []

        def models_at(models):
            return {
                m.predicate: (None if m.weights is None else m.weights.tobytes(), m.f1)
                for m in models
            }

        def recorded_rows(models, *args):
            frozen.append(models_at(models.values()))  # the models the batch reads
            return rows(models, *args)

        def recorded_fit(models, *args):
            fit(models, *args)
            fits.append((list(models), models_at(models)))

        def recorded_update(theta, steps, alpha, baseline, discount):
            updates.append((alpha.hex(), baseline.hex(), discount))
            return update(theta, steps, alpha, baseline, discount)

        def recorded_load(*args):
            agent = load(*args)
            loaded.append(list(agent.models.values()))  # a reset replaces agent.models
            return agent

        def recorded_setup(experiment, agent, interactions, reads):
            s = agent.stats  # the stats the batch reads
            stats.append((dict(s.used), dict(s.succeeded), s.dialogs))
            return setup(experiment, agent, interactions, reads)

        monkeypatch.setattr(harness, "BatchSetup", recorded_setup)
        monkeypatch.setattr(harness, "BatchRows", recorded_rows)
        monkeypatch.setattr(harness, "fit_models", recorded_fit)
        monkeypatch.setattr(harness, "reinforce_update", recorded_update)
        monkeypatch.setattr(Agent, "from_dict", recorded_load)
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        full = exp.run(checkpoint_dir=tmp_path / "ck")
        batches, batch_stats = list(frozen), list(stats)

        size = cfg.experiment.batch_size
        updating = [p.update_policy for p in exp.phase_plan() for _ in range(p.n_batches)]
        oracle, mean, count = [], 0.0, 0
        for b in [b for b, on in enumerate(updating) if on]:
            m = full.metrics[b]
            assert len(m.lengths) == size
            for s, n in zip(m.success_indicators, m.lengths):
                g0 = episode_return(list_rewards(cfg.rewards, s, n), cfg.rewards.discount)[0]
                count += 1
                mean += (g0 - mean) / count
            alpha = policy.learning_rate * max(0.0, 1.0 - policy.learning_rate_decay * len(oracle))
            oracle.append((alpha.hex(), mean.hex(), cfg.rewards.discount))
        assert updates == oracle and len(oracle) == 4

        checkpoints = sorted((tmp_path / "ck").glob("checkpoint_*.json"))
        assert len(checkpoints) == len(batches) == len(batch_stats) == 6
        # the cursor after each checkpoint's rows: the next batch of the plan
        cursors = [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
        for done, (path, cursor) in enumerate(zip(checkpoints, cursors), 1):
            state = checkpoint_load(path)
            assert len(state["metrics"]) == done
            for records in (frozen, fits, updates, loaded, stats):
                records.clear()
            resumed = exp.run(resume=state)
            (held,) = loaded
            assert held
            if cursor[1] > 0:  # a batch inside a phase: the agent is kept
                want = batches[done]
                assert fits[0][1] == {p: m for p, m in want.items() if m[0] is not None}
                assert fits[0][1] and all(m == (None, 0.0) for m in want.values() if m[0] is None)
                assert stats[0] == batch_stats[done] and stats[0][2] == cursor[1] * size
            else:  # (1, 0) and (2, 0) reset the agent; (3, 0) plays no batch
                assert not any(m is h for models, _ in fits for m in models for h in held)
            assert frozen == batches[done:]
            assert updates == oracle[sum(updating[:done]) :]
            assert resumed.metrics == full.metrics
            assert np.array_equal(resumed.theta, full.theta)

    def test_metrics_beyond_the_phase_plan(self, small_experiment, small_checkpoints):
        # the end checkpoint lists all six batches; a seventh row names no batch of the plan
        state = checkpoint_load(small_checkpoints / "checkpoint_p2_b1.json")
        state["metrics"].append({**state["metrics"][-1], "batch": 2})
        with pytest.raises(CheckpointError, match="metrics"):
            small_experiment.run(resume=state)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows.pop(),
            lambda rows: rows.append(rows[-1]),
            lambda rows: rows.reverse(),
            lambda rows: rows.pop(0),
            lambda rows: rows[2].update(phase="test"),
            lambda rows: rows[0].pop("lengths"),
            lambda rows: rows[0].update(extra=1),
            lambda rows: rows.__setitem__(0, [1, 2]),
            lambda rows: rows[0].update(success_rate="abc"),
            lambda rows: rows[0].update(success_rate=True),
            lambda rows: rows[1].update(mean_length=float("inf")),
            lambda rows: rows[2].update(mean_queries=None),
            lambda rows: rows[0].update(success_indicators=[1, 2]),
            lambda rows: rows[0].update(success_indicators=[True, False]),
            lambda rows: rows[0].update(success_indicators="1"),
            lambda rows: rows[0].update(lengths=[0]),
            lambda rows: rows[0].update(lengths=[1.5]),
            lambda rows: rows[0].update(lengths=None),
            lambda rows: rows[0].update(label_counts={"red": -1}),
            lambda rows: rows[0].update(label_counts={"red": "3"}),
            lambda rows: rows[0].update(label_counts=[["red", 1]]),
            lambda rows: rows[1].update(batch=True),
            lambda rows: rows[1].update(batch=1.0),
            lambda rows: rows[0].update(lengths=rows[0]["lengths"][:-1]),
            lambda rows: rows[0].update(lengths=rows[0]["lengths"][:-1],
                                        success_indicators=rows[0]["success_indicators"][:-1]),
            _v2_row,
        ],
        ids=["short", "long", "reordered", "skipped-batch", "wrong-phase", "missing-field",
             "extra-field", "not-a-row", "rate-string", "rate-bool", "length-inf",
             "queries-null", "indicator-2", "indicator-bool", "indicators-string", "length-0",
             "length-float", "lengths-null", "count-negative", "count-string", "counts-list",
             "batch-bool", "batch-float", "lengths-short", "dialogs-short", "v2-row"],
    )
    def test_metrics_not_the_batches_before_the_cursor(
        self, small_experiment, small_checkpoints, edit
    ):
        # the cursor is the batch after the rows, so they must be the plan's
        # first batches; a shorter prefix ("short") names an earlier batch,
        # whose phase counts other new labels than the checkpoint holds
        self._refused(
            small_experiment, small_checkpoints, lambda state: edit(state["metrics"]), "metrics"
        )

    @pytest.mark.parametrize(
        "theta",
        [[0.0] * 3, [0.0] * (N_FEATURES + 1), [float("nan")] * N_FEATURES,
         [float("inf")] + [0.0] * (N_FEATURES - 1), ["0"] * N_FEATURES,
         [True] * N_FEATURES, None],
    )
    def test_theta_not_n_features_finite_numbers(self, small_experiment, small_checkpoints, theta):
        def edit(state):
            state["theta"] = theta

        self._refused(small_experiment, small_checkpoints, edit, "theta")

    @pytest.mark.parametrize(
        "case",
        ["policy-test-region", "classifier-test-region", "twice", "dropped", "empty",
         "extra-predicate", "recounted", "no-batches"],
    )
    def test_labels_no_run_writes(self, small_experiment, small_checkpoints, case):
        # the (1, 1) checkpoint holds the labels of train batch 0: each on a
        # classifier-train region of the policy-train side, listed once per
        # predicate, as many per predicate as the batch's row counts; with no
        # finished batch, no labels at all
        exp = small_experiment
        labels = checkpoint_load(small_checkpoints / "checkpoint_p1_b0.json")["labels"]
        p = next(iter(labels))
        assert len(labels[p]) > 1 and "zz-new" not in labels
        region = {
            "policy-test-region": exp.split.side("policy-test")[0][0],
            "classifier-test-region": exp.split.side("policy-train")[1][0],
        }

        def edit(state):
            rids = state["labels"][p]
            if case in region:
                rids[0] = exp.corpus.ids[region[case]]
            elif case == "twice":
                rids[1] = rids[0]
            elif case == "dropped":
                rids.pop()
            elif case == "empty":
                rids.clear()
            elif case == "extra-predicate":
                state["labels"]["zz-new"] = rids[:1]
            elif case == "recounted":
                state["metrics"][-1]["label_counts"][p] += 1
            else:
                state["metrics"] = []

        named = "zz-new" if case == "extra-predicate" else p
        self._refused(exp, small_checkpoints, edit, f"labels of {named!r}")

    def test_test_phase_labels_are_on_policy_test_regions(
        self, small_experiment, small_checkpoints
    ):
        exp = small_experiment
        state = checkpoint_load(small_checkpoints / "checkpoint_p2_b1.json")
        p = next(iter(state["labels"]))
        state["labels"][p][0] = exp.corpus.ids[exp.split.side("policy-train")[0][0]]
        with pytest.raises(CheckpointError, match=f"labels of {p!r}"):
            exp.run(resume=state)

    def test_labels_on_a_region_no_dialog_of_the_phase_offered(
        self, small_corpus, small_split, small_density, tmp_path
    ):
        # with two dialogs a batch, most classifier-train regions of the side
        # are in no dialog's active-train set, so no oracle answer names them
        exp = Experiment(small_run_config(batch_size=2), small_corpus, small_split, small_density)
        exp.run(checkpoint_dir=tmp_path)
        state = checkpoint_load(tmp_path / "checkpoint_p1_b0.json")
        batch = exp.interactions(exp.phase_plan()[1], 1, 0)
        offered = {row for interaction in batch for row in interaction.active_train}
        unoffered = [row for row in exp.split.side("policy-train")[0] if row not in offered]
        p = next(iter(state["labels"]))
        state["labels"][p][0] = small_corpus.ids[unoffered[0]]
        with pytest.raises(CheckpointError, match=f"labels of {p!r}"):
            exp.run(resume=state)

    def test_resumed_labels_are_those_the_run_recorded(self, small_experiment, small_checkpoints):
        # the (1, 1) checkpoint's agent holds train batch 0's labels; a resume
        # signs each as the oracle answered it, in the order the run recorded
        exp = small_experiment
        theta = checkpoint_load(small_checkpoints / "checkpoint_p0_b1.json")["theta"]
        _, merged, outcomes = exp.run_batch(exp.phase_plan()[1], 1, 0, Agent(), np.asarray(theta))
        recorded = Agent()
        exp.apply_batch_end(recorded, merged, outcomes)
        state = checkpoint_load(small_checkpoints / "checkpoint_p1_b0.json")
        *_, resumed = exp._resume_state(state)
        labels = {p: list(m.labels.items()) for p, m in resumed.models.items()}
        assert labels == {p: list(m.labels.items()) for p, m in recorded.models.items()}
        assert {sign for held in labels.values() for _, sign in held} == {-1, 1}

    def test_resume_with_no_finished_batch_is_a_fresh_run(
        self, small_experiment, small_result, small_checkpoints
    ):
        state = checkpoint_load(small_checkpoints / "checkpoint_p0_b0.json")
        state.update(theta=[0.0] * N_FEATURES, labels={}, metrics=[])
        resumed = small_experiment.run(resume=state)
        assert resumed.metrics == small_result.metrics
        assert np.array_equal(resumed.theta, small_result.theta)

    def test_agent_roundtrip(self):
        # a checkpoint holds each model's labeled region ids: each sign is the
        # oracle's answer, weights and F1 follow from the labels, and the
        # stats from the dialogs
        model = PredicateModel(predicate="red")
        model.record_label(2, 1)
        model.record_label(1, -1)
        model.weights = np.array([0.5, -0.25, 0.1])
        model.f1 = 0.75
        agent = Agent(models={"red": model})
        agent.stats.observe_dialog(("red", "box"), True)
        data = json.loads(json.dumps(agent.to_dict(CODEC_CORPUS.ids)))
        assert data == {"red": ["r2", "r1"]}
        back = Agent.from_dict(data, CODEC_CORPUS, {1, 2})
        assert list(back.models["red"].labels.items()) == list(model.labels.items())
        assert back.models["red"].weights is None and back.models["red"].f1 == 0.0
        assert back.stats == AgentStats()

    @pytest.mark.parametrize(
        "data",
        [[["red", ["r1"]]], {"red": {"r1": 1}}, {"red": "r1"}, {"red": [["r1"]]}, None],
        ids=["pairs", "v4-map", "string", "nested-list", "missing"],
    )
    def test_agent_state_of_another_layout_rejected(self, data):
        assert Agent.from_dict({"red": ["r1"]}, CODEC_CORPUS, {1}).models["red"].labels == {1: -1}
        with pytest.raises(CheckpointError, match="labels"):
            Agent.from_dict(data, CODEC_CORPUS, {1})


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
        unchecked, regrounded = set(), 0  # the refit since the last beam; checked beams
        train, refresh = harness.train_classifier, Experiment._refresh_models
        beam_form = harness.featurize

        def checked_train(model, *args):
            fitted.append((model.n_pos(), model.n_neg()))
            return train(model, *args)

        def recorded_refresh(self, view, row, *args):
            refits.append(refresh(self, view, row, *args))
            if refits[-1]:
                unchecked.add(view.predicates[row])
            return refits[-1]

        def checked_featurize(beam, turn, ctx):
            # after a refit of a description predicate, the guess row is that
            # of the new grounding
            nonlocal regrounded
            desc = ctx.description_predicates
            if not unchecked.isdisjoint(desc):
                want = oracle_guess_features(desc, ctx.view, oracle_scores(desc, ctx.view))
                want[INDEX["act_guess"]] = 1.0
                assert ctx.table[0].tobytes() == want.tobytes()
                regrounded += 1
            unchecked.clear()
            return beam_form(beam, turn, ctx)

        monkeypatch.setattr(harness, "train_classifier", checked_train)
        monkeypatch.setattr(Experiment, "_refresh_models", recorded_refresh)
        monkeypatch.setattr(harness, "featurize", checked_featurize)
        Experiment(cfg, small_corpus, small_split, small_density).run()
        assert fitted and all(pos > 0 and neg > 0 for pos, neg in fitted)
        assert any(refits) and not all(refits)
        assert regrounded > 0

    def test_feature_rows_are_rewritten_only_after_a_fit(
        self, small_corpus, small_split, small_density, monkeypatch
    ):
        cfg = small_run_config(init_batches=1, train_batches=1, test_batches=1)
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
        refits, rewrites = [], []
        refresh, rewrite = Experiment._refresh_models, FeatureContext.refit

        def recorded_refresh(self, view, row, *args):
            fit = refresh(self, view, row, *args)
            refits.append(row if fit else None)  # the row a fit rewrites
            return fit

        def recorded_rewrite(self, row):
            rewrites.append(row)
            return rewrite(self, row)

        monkeypatch.setattr(Experiment, "_refresh_models", recorded_refresh)
        monkeypatch.setattr(FeatureContext, "refit", recorded_rewrite)
        Experiment(cfg, small_corpus, small_split, small_density).run()
        assert rewrites and rewrites == [row for row in refits if row is not None]
        assert len(rewrites) < len(refits)

    def test_one_class_refit_records_the_label_and_leaves_rows_alone(self, small_experiment):
        exp = small_experiment
        agent = Agent()
        plan = exp.phase_plan()[0]
        _, merged, outcomes = exp.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        exp.apply_batch_end(agent, merged, outcomes)
        inter = outcomes[0].interaction
        # fits the classifiers, as the next batch start does
        harness.BatchSetup(exp, agent, [inter], READS_ALL)
        desc = inter.description_predicates
        x = inter.active_train[0]
        rid = int(exp.density.knn[x, 0])
        other = next(r for r in range(len(exp.corpus)) if r != rid)
        agent.models["zz-one"] = PredicateModel("zz-one", labels={other: 1})
        view = episode_view(
            agent.models,
            set(agent.stats.used) | set(agent.models) | set(desc) | {"zz-new"},
            inter.active_train,
            inter.active_test,
            exp.corpus.X,
            exp.config.triangular,
        )
        ctx = feature_context(view, desc, agent.stats, exp.density)
        names = ("f1", "sampling", "trained", "margins", "decisions")
        before = {name: getattr(view, name).copy() for name in names}
        by_margin, queries = [list(r) for r in view.by_margin], ctx.queries.copy()

        def refresh(predicate, region, label):
            row = view.index[predicate]
            fit = exp._refresh_models(view, row, [(predicate, region, label)], agent)
            if fit:  # as run_episode does
                ctx.refit(row)
            return fit

        assert not refresh("zz-new", rid, 1) and not refresh("zz-one", rid, 1)
        new, one = (view.models[view.index[p]] for p in ("zz-new", "zz-one"))
        assert new.labels == {rid: 1} and one.labels == {other: 1, rid: 1}
        assert agent.models["zz-one"].labels == {other: 1}  # the agent's model is not changed
        for name in names:
            assert np.array_equal(getattr(view, name), before[name]), name
        assert view.by_margin == by_margin
        assert np.array_equal(ctx.queries, queries)
        # the label feature reads the view's copy, so it counts the new label
        query = (LABEL_QUERY, view.index["zz-new"], 0)  # x is active-train column 0
        got = featurize([GUESS_ACTION, query], 3, ctx)
        k = exp.density.k
        assert got[1, INDEX["label_knn_unlabeled"]] == (k - 1) / k

        assert refresh("zz-new", other, -1)
        assert view.trained[view.index["zz-new"]] and new.weights is not None


class TestAblationHarness:
    def test_group_masks_logged_vectors(self, small_corpus, small_split, small_density, live_turns):
        mask = resolve_mask(["guess"])
        cfg = small_run_config(ablate=("guess",))
        exp = Experiment(cfg, small_corpus, small_split, small_density)
        plan = exp.phase_plan()[0]
        agent = Agent()
        exp.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
        seen_any = False
        for turns in live_turns[:10]:
            for _, feats, _, _ in turns:
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
        # every arm plays the same dialogs, so the return test is paired
        rewards = cfg.rewards
        full = result.conditions["full"].final_test_batch()
        static = result.conditions["static"].final_test_batch()
        full_row = next(r for r in rows if r["condition"] == "full")
        ref = sps.ttest_rel(
            first_returns(full.success_indicators, full.lengths, rewards),
            first_returns(static.success_indicators, static.lengths, rewards),
            alternative="greater",
        )
        assert full_row["p_return_vs_static"] == pytest.approx(ref.pvalue, abs=1e-9)
        assert static_row["p_return_vs_static"] is None

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


class TestCompareFinalBatches:
    REWARDS = RewardConfig(discount=0.9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_scipy_on_random_batches(self):
        # scipy's p is nan where a sample or a paired difference is constant
        # and the means agree; oalsim.stats gives t = 0 there
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a_ind, b_ind = rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()
            a_len, b_len = rng.integers(1, 17, n).tolist(), rng.integers(1, 17, n).tolist()
            cmp = compare_final_batches(
                batch(a_ind, a_len), batch(b_ind, b_len), self.REWARDS
            )
            a_ret = first_returns(a_ind, a_len, self.REWARDS)
            b_ret = first_returns(b_ind, b_len, self.REWARDS)
            welch = sps.ttest_ind(a_ind, b_ind, equal_var=False).pvalue
            if not np.isnan(welch):
                assert cmp["p_success"] == pytest.approx(welch, abs=1e-9)
            welch = sps.ttest_ind(a_len, b_len, equal_var=False).pvalue
            if not np.isnan(welch):
                assert cmp["p_length"] == pytest.approx(welch, abs=1e-9)
            assert cmp["return_gain"] == pytest.approx(np.mean(a_ret) - np.mean(b_ret))
            paired = sps.ttest_rel(a_ret, b_ret, alternative="greater").pvalue
            if not np.isnan(paired):
                assert cmp["p_return"] == pytest.approx(paired, abs=1e-9)
            paired = sps.ttest_rel(b_ind, a_ind, alternative="greater").pvalue
            if not np.isnan(paired):
                assert cmp["p_success_lower"] == pytest.approx(paired, abs=1e-9)

    def test_without_rewards_only_welch(self):
        cmp = compare_final_batches(batch([1, 0, 1], [3, 5, 4]), batch([0, 0, 1], [6, 6, 2]))
        assert set(cmp) == {"p_success", "p_length"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("short, long", [(1, 16), (16, 1)])
    def test_constant_unequal_samples_take_the_infinite_t_limit(self, short, long):
        # a collapsed learned batch (every dialog one guess) against static's 16 turns
        final, base = ([1] * 5, [short] * 5), ([1] * 5, [long] * 5)
        cmp = compare_final_batches(batch(*final), batch(*base), self.REWARDS)
        assert cmp["p_length"] == 0.0
        assert cmp["p_length"] == sps.ttest_ind(final[1], base[1], equal_var=False).pvalue
        ref = sps.ttest_rel(
            first_returns(*final, self.REWARDS),
            first_returns(*base, self.REWARDS),
            alternative="greater",
        ).pvalue
        assert cmp["p_return"] == ref == (0.0 if short < long else 1.0)
        # constant equal samples keep the t = 0 convention of oalsim.stats
        assert cmp["p_success"] == 1.0

    def test_a_batch_compared_with_itself_gets_no_values(self):
        final = batch([1, 0, 1], [3, 5, 4])
        for rewards in (None, self.REWARDS):
            # an equal batch that is another record is compared as any other
            equal = compare_final_batches(final, batch([1, 0, 1], [3, 5, 4]), rewards)
            assert None not in equal.values()
            assert compare_final_batches(final, final, rewards) == dict.fromkeys(equal)

    def test_paired_statistics_refuse_batches_of_unequal_sizes(self):
        # zip paired the first two dialogs and dropped the rest
        final, base = batch([1, 1, 1, 1], [3, 3, 3, 3]), batch([0, 0], [16, 16])
        with pytest.raises(ValueError, match="4 and 2"):
            compare_final_batches(final, base, self.REWARDS)
        # the unpaired Welch p-values, which a report reads, still compare them
        assert set(compare_final_batches(final, base)) == {"p_success", "p_length"}

    def test_single_dialog_gives_no_p(self):
        cmp = compare_final_batches(batch([1], [3]), batch([0], [16]), self.REWARDS)
        assert cmp["p_success"] is cmp["p_length"] is None
        assert cmp["p_return"] is cmp["p_success_lower"] is None
        assert cmp["return_gain"] == pytest.approx(
            first_returns([1], [3], self.REWARDS)[0] - first_returns([0], [16], self.REWARDS)[0]
        )


# a record of the kinds a run writes: two dialogs, one label of "red"
BATCH_FIELDS = {"phase": "test", "batch": 0, "label_counts": {"red": 1},
                "success_indicators": [1, 0], "lengths": [3, 16]}


class TestBatchMetrics:
    def test_a_record_a_run_writes_is_accepted(self):
        batch = BatchMetrics(**BATCH_FIELDS)
        assert batch.rates() == {"success_rate": 0.5, "mean_length": 9.5, "mean_queries": 8.5}
        assert BatchMetrics("init", 3, {}, [0], [1]).success_rate == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [("phase", None), ("phase", 0), ("batch", True), ("batch", 0.0), ("batch", "0"),
         ("label_counts", None), ("label_counts", [1]), ("label_counts", {"red": True}),
         ("label_counts", {"red": -1}), ("label_counts", {"red": 1.0}), ("label_counts", {1: 1}),
         ("success_indicators", None), ("success_indicators", []), ("success_indicators", "10"),
         ("success_indicators", (1, 0)), ("success_indicators", [1, 2]),
         ("success_indicators", [1, -1]), ("success_indicators", [True, False]),
         ("success_indicators", [1.0, 0]), ("lengths", None), ("lengths", [3]),
         ("lengths", [3, 16, 4]), ("lengths", [3, 0]), ("lengths", [3, True]),
         ("lengths", [3, 16.0]), ("lengths", "ab")],
    )
    def test_a_field_of_a_kind_no_run_writes_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BatchMetrics(**{**BATCH_FIELDS, field: value})


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


def test_transcript_lines_are_json_dumps_of_awkward_records(tmp_path):
    # region ids with a quote, a backslash and non-ASCII text, read from a
    # corpus file, and features no finite float writes
    regions = generate_synthetic(SMALL_SYNTH)
    odd = ['r"quote', "r\\backslash", "rét☃"]
    regions[:3] = [dataclasses.replace(r, id=rid) for r, rid in zip(regions, odd)]
    write_regions(tmp_path / "odd.jsonl", regions)
    corpus = Corpus(load_regions(tmp_path / "odd.jsonl"))
    cols = [corpus.row[rid] for rid in odd]
    predicates = sorted({p for r in regions for p in r.annotations})[:2]
    view = episode_view({}, predicates, cols, cols, corpus.X)
    actions = [
        GUESS_ACTION,
        (EXAMPLE_QUERY, 1, -1),
        *((LABEL_QUERY, 0, col) for col in range(len(cols))),
    ]
    features = [float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1 / 3, 2.0**-1074]
    written = []
    for turn, action in enumerate(actions):
        record = {
            "episode": "test/0/1",
            "turn": turn,
            "action": describe(action, view, corpus.ids),
            "reward": -1.0 if turn else 20.0,
            "features": features,
        }
        line = harness.transcript_line(record)
        assert line == json.dumps(record) + "\n"
        written.append(line)
    text = "".join(written)
    assert all(json.dumps(rid)[1:-1] in text for rid in odd)  # escaped, so all present
    assert "NaN, Infinity, -Infinity, -0.0" in text and text.isascii()
