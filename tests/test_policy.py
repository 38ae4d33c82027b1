import numpy as np
import pytest

from oalsim.actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY
from oalsim.config import PolicyConfig
from oalsim.corpus import Corpus
from oalsim.dialog import RewardConfig, rewards_and_returns
from oalsim.errors import PolicyUpdateError
from oalsim.features import (
    GROUPS,
    INDEX,
    N_FEATURES,
    REGISTRY,
    featurize,
    registry_table,
    resolve_mask,
)
from oalsim.perception import DensityIndex
from oalsim.policy import (
    AgentStats,
    action_probabilities,
    grad_log_prob,
    learning_rate_at,
    reinforce_update,
    running_mean,
    sample_action,
)
from oalsim.querygen import static_policy_act
from oalsim.seeding import stream

from conftest import episode_view, feature_context
from test_grounding import worked_example


class TestSoftmax:
    def test_uniform_at_zero_weights(self):
        feats = np.eye(7, N_FEATURES)
        probs = action_probabilities(np.zeros(N_FEATURES), feats)
        assert probs == pytest.approx(np.full(7, 1 / 7))

    def test_single_candidate(self):
        probs = action_probabilities(np.zeros(N_FEATURES), np.zeros((1, N_FEATURES)))
        assert probs == pytest.approx([1.0])

    def test_two_candidates_logit_gap_one(self):
        theta = np.zeros(N_FEATURES)
        theta[0] = 1.0
        feats = np.zeros((2, N_FEATURES))
        feats[0, 0] = 1.0
        probs = action_probabilities(theta, feats)
        e = np.e
        assert probs == pytest.approx([e / (e + 1), 1 / (e + 1)])

    def test_extreme_logits_normalize(self):
        rng = stream(1, "logits")
        for _ in range(50):
            n = int(rng.integers(2, 8))
            logits = rng.uniform(-1e3, 1e3, size=n)
            feats = np.zeros((n, N_FEATURES))
            feats[:, 0] = logits
            theta = np.zeros(N_FEATURES)
            theta[0] = 1.0
            probs = action_probabilities(theta, feats)
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= 0)

    def test_shift_invariance(self):
        rng = stream(2, "shift")
        theta = rng.normal(size=N_FEATURES)
        feats = rng.normal(size=(5, N_FEATURES))
        shift = np.zeros(N_FEATURES)
        # move every candidate by the same vector: logits all gain theta . v
        v = rng.normal(size=N_FEATURES)
        probs_a = action_probabilities(theta, feats)
        probs_b = action_probabilities(theta, feats + v)
        assert probs_a == pytest.approx(probs_b, abs=1e-12)


class TestSampleAction:
    def test_deterministic_single(self):
        assert sample_action(np.array([1.0]), stream(3, "s")) == 0

    def test_uniform_frequencies(self):
        rng = stream(4, "s")
        counts = np.zeros(7)
        n = 70_000
        probs = np.full(7, 1 / 7)
        for _ in range(n):
            counts[sample_action(probs, rng)] += 1
        expected = n / 7
        sigma = (n * (1 / 7) * (6 / 7)) ** 0.5
        assert np.all(np.abs(counts - expected) < 4 * sigma)

    def test_same_seed_same_sequence(self):
        probs = np.array([0.2, 0.3, 0.5])
        a = [sample_action(probs, rng) for rng in [stream(5, "s")] for _ in range(10)]
        rng1 = stream(5, "s")
        rng2 = stream(5, "s")
        seq1 = [sample_action(probs, rng1) for _ in range(20)]
        seq2 = [sample_action(probs, rng2) for _ in range(20)]
        assert seq1 == seq2


class TestGradLogProb:
    def test_single_action_zero_gradient(self):
        feats = np.random.default_rng(0).normal(size=(1, N_FEATURES))
        g = grad_log_prob(np.zeros(N_FEATURES), feats, 0)
        assert g == pytest.approx(np.zeros(N_FEATURES))

    def test_two_unit_actions(self):
        feats = np.zeros((2, N_FEATURES))
        feats[0, 0] = 1.0
        feats[1, 1] = 1.0
        g = grad_log_prob(np.zeros(N_FEATURES), feats, 0)
        expected = np.zeros(N_FEATURES)
        expected[0] = 0.5
        expected[1] = -0.5
        assert g == pytest.approx(expected)

    def test_matches_finite_differences(self):
        rng = stream(6, "fd")
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 8))
            theta = rng.normal(size=N_FEATURES)
            feats = rng.normal(size=(n, N_FEATURES))
            chosen = int(rng.integers(n))
            g = grad_log_prob(theta, feats, chosen)

            def log_prob(t):
                return float(np.log(action_probabilities(t, feats)[chosen]))

            for i in rng.choice(N_FEATURES, size=5, replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd = (log_prob(tp) - log_prob(tm)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestReinforceUpdate:
    def test_empty_batch_no_change(self):
        theta = np.ones(N_FEATURES)
        new = reinforce_update(theta, [], 0.01)
        assert np.array_equal(new, theta)

    def test_single_step_episode(self):
        rng = stream(7, "r")
        theta = rng.normal(size=N_FEATURES)
        feats = rng.normal(size=(3, N_FEATURES))
        g = grad_log_prob(theta, feats, 1)
        new = reinforce_update(theta, [[(g, 200.0)]], 1e-3)
        assert new == pytest.approx(theta + 200.0 * 1e-3 * g)

    def test_positive_return_raises_chosen_probability(self):
        rng = stream(8, "r")
        theta = rng.normal(size=N_FEATURES) * 0.1
        feats = rng.normal(size=(4, N_FEATURES))
        chosen = 2
        before = action_probabilities(theta, feats)[chosen]
        new = reinforce_update(theta, [[(grad_log_prob(theta, feats, chosen), 150.0)]], 1e-4)
        after = action_probabilities(new, feats)[chosen]
        assert after >= before

    def test_nonfinite_rejected(self):
        theta = np.zeros(N_FEATURES)
        feats = np.zeros((2, N_FEATURES))
        feats[0, 0] = 1e308
        feats[1, 0] = -1e308
        with pytest.raises(PolicyUpdateError):
            reinforce_update(theta, [[(grad_log_prob(theta, feats, 0), 1e4)]], 1.0)


class TestReinforceExpectation:
    """Over every dialog of a small tree, the step's expectation under pi_theta is grad J.

    J(theta) = sum over trajectories of pi_theta(trajectory) * G_0. Each turn
    before the cap offers a guess, whose success is fixed, and queries that
    lead to the next turn; at the cap the beam is the forced guess alone.
    """

    REWARDS = RewardConfig(discount=0.9)
    T_MAX = 2

    def node(self, rng, turn):
        """A turn's fixed beam rows, and per action a guess's success or the next turn's node."""
        if turn == self.T_MAX:
            return rng.normal(size=(1, N_FEATURES)), [bool(rng.integers(2))]
        feats = rng.normal(size=(int(rng.integers(2, 4)), N_FEATURES))
        return feats, [bool(rng.integers(2))] + [self.node(rng, turn + 1) for _ in feats[1:]]

    def trajectories(self, node, path=()):
        """Each (((beam rows, chosen), ...), success) from `node` down."""
        feats, outcomes = node
        for chosen, out in enumerate(outcomes):
            turns = path + ((feats, chosen),)
            if isinstance(out, bool):
                yield turns, out
            else:
                yield from self.trajectories(out, turns)

    def test_on_policy_expectation_is_the_gradient(self):
        rng = stream(5, "tree")
        trajectories = list(self.trajectories(self.node(rng, 0)))
        theta = rng.normal(scale=0.3, size=N_FEATURES)
        assert len(trajectories) == 7 and len({s for _, s in trajectories}) == 2

        def prob(th, turns):
            return np.prod([action_probabilities(th, feats)[a] for feats, a in turns])

        def expected_step(weight, baseline, discount=self.REWARDS.discount):
            total = np.zeros(N_FEATURES)
            for turns, success in trajectories:
                returns = rewards_and_returns(self.REWARDS, success, len(turns))[1]
                terms = [grad_log_prob(theta, feats, a) for feats, a in turns]
                step = reinforce_update(theta, [list(zip(terms, returns))], 1.0, baseline, discount)
                total += weight(turns) * (step - theta)
            return total

        def objective(th):
            return sum(prob(th, turns) * rewards_and_returns(self.REWARDS, s, len(turns))[1][0]
                       for turns, s in trajectories)

        h = 1e-5
        grad = np.array([(objective(theta + h * e) - objective(theta - h * e)) / (2 * h)
                         for e in np.eye(N_FEATURES)])
        scale = np.abs(grad).max()

        def on_policy(turns):
            return prob(theta, turns)

        def uniform(turns):  # a behaviour policy other than pi_theta
            return np.prod([1 / len(feats) for feats, _ in turns])

        for baseline in (0.0, 50.0):
            assert np.abs(expected_step(on_policy, baseline) - grad).max() < 1e-7 * scale
            off = expected_step(uniform, baseline)
            angle = np.degrees(np.arccos(off @ grad / np.linalg.norm(off) / np.linalg.norm(grad)))
            assert angle > 10
        # without the discount**t weights the step is not grad J below discount 1
        assert np.abs(expected_step(on_policy, 0.0, discount=1.0) - grad).max() > 1e-3 * scale


class TestLearningRateAndBaseline:
    def test_running_mean_folds_values_in_one_at_a_time(self):
        mean = running_mean(0.0, 0, [199.0, -101.0, -16.0])
        mean = running_mean(mean, 3, [200.0])
        assert mean == pytest.approx((199.0 - 101.0 - 16.0 + 200.0) / 4)
        assert running_mean(mean, 4, []) == mean

    @pytest.mark.parametrize("cuts", [[], [1], [2, 5], [3, 6, 9]])
    def test_running_mean_over_chunks_is_the_mean_over_all(self, cuts):
        # a run folds in one update batch's returns at a time; a resume, all at once
        values = [float(v) for v in np.random.default_rng(5).integers(-140, 200, 12)]
        mean, count = 0.0, 0
        for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
            mean, count = running_mean(mean, count, values[lo:hi]), hi
        assert mean.hex() == running_mean(0.0, 0, values).hex()
        assert mean == pytest.approx(sum(values) / len(values))

    def test_learning_rate_falls_linearly_and_stops_at_zero(self):
        policy = PolicyConfig(learning_rate=1e-3, learning_rate_decay=0.25)
        assert [learning_rate_at(policy, b) for b in range(6)] == pytest.approx(
            [1e-3, 7.5e-4, 5e-4, 2.5e-4, 0.0, 0.0]
        )
        assert learning_rate_at(policy, 100) == 0.0
        assert learning_rate_at(PolicyConfig(learning_rate=1e-3), 100) == 1e-3


class TestStaticPolicy:
    BEAM = [
        GUESS_ACTION,
        (LABEL_QUERY, 0, 0),
        (LABEL_QUERY, 1, 1),
        (EXAMPLE_QUERY, 2, -1),
        (EXAMPLE_QUERY, 3, -1),
    ]

    def test_guess_at_query_budget(self):
        idx = static_policy_act(15, self.BEAM, 15, stream(9, "s"))
        assert self.BEAM[idx] == GUESS_ACTION

    def test_label_first(self):
        idx = static_policy_act(0, self.BEAM, 15, stream(10, "s"))
        assert self.BEAM[idx][0] == LABEL_QUERY

    def test_example_on_odd_turns(self):
        idx = static_policy_act(1, self.BEAM, 15, stream(11, "s"))
        assert self.BEAM[idx][0] == EXAMPLE_QUERY

    def test_fallback_to_other_type(self):
        beam = [GUESS_ACTION, (EXAMPLE_QUERY, 2, -1)]
        idx = static_policy_act(0, beam, 15, stream(12, "s"))
        assert beam[idx][0] == EXAMPLE_QUERY

    def test_fallback_to_guess(self):
        beam = [GUESS_ACTION]
        assert static_policy_act(3, beam, 15, stream(13, "s")) == 0


def _guess_context(models, stats=None, mask=None):
    preds, models_, regions = worked_example()
    models = models if models is not None else models_
    corpus = Corpus(regions)  # o1, o2, o3 are rows 0, 1, 2
    rows = corpus.file_rows
    density = DensityIndex(corpus.X[rows], rows, k=2)
    askable = set(models) | set(preds) | {"zeta", "unseen"}
    view = episode_view(models, askable, rows, rows, corpus.X)
    return feature_context(view, preds, stats or AgentStats(), density, mask=mask)


def _features(action, ctx):
    """The action's row of a turn-0 beam: [GUESS_ACTION] or [GUESS_ACTION, action]."""
    beam = [GUESS_ACTION] if action == GUESS_ACTION else [GUESS_ACTION, action]
    return featurize(beam, 0, ctx)[-1]


def _label(ctx, predicate, col):
    """The label query of `predicate` on active-train column `col` of the context's view."""
    return LABEL_QUERY, ctx.view.index[predicate], col


def _example(ctx, predicate):
    return EXAMPLE_QUERY, ctx.view.index[predicate], -1


class TestFeaturize:
    def test_fresh_agent_guess_is_zero_state(self):
        ctx = _guess_context(models={})
        vec = _features(GUESS_ACTION, ctx)
        assert vec[INDEX["turn_frac"]] == 0.0
        assert vec[INDEX["act_guess"]] == 1.0
        for name in ("guess_f1_min", "guess_f1_max", "guess_f1_mean", "guess_top_score"):
            assert vec[INDEX[name]] == 0.0

    def test_worked_guess_features(self):
        ctx = _guess_context(models=None)
        vec = _features(GUESS_ACTION, ctx)
        assert vec[INDEX["guess_top_score"]] == pytest.approx(1.3 / 2)
        assert vec[INDEX["guess_score_gap_second"]] == pytest.approx(0.8 / 2)
        assert vec[INDEX["guess_f1_max"]] == pytest.approx(0.9)
        assert vec[INDEX["guess_f1_second"]] == pytest.approx(0.4)
        assert vec[INDEX["guess_f1_min"]] == pytest.approx(0.4)
        assert vec[INDEX["guess_f1_mean"]] == pytest.approx(0.65)

    def test_opportunistic_indicator(self):
        ctx = _guess_context(models=None)
        on_topic = _features(_label(ctx, "p1", 0), ctx)
        off_topic = _features(_label(ctx, "zeta", 0), ctx)
        assert on_topic[INDEX["query_opportunistic"]] == 0.0
        assert off_topic[INDEX["query_opportunistic"]] == 1.0

    def test_action_type_zero_blocks(self):
        ctx = _guess_context(models=None)
        beam = [GUESS_ACTION, _label(ctx, "p1", 0), _example(ctx, "p1")]
        guess_vec, label_vec, example_vec = featurize(beam, 0, ctx)
        guess_only = [s.index for s in REGISTRY if s.actions == ("guess",)]
        query_only = [s.index for s in REGISTRY if "guess" not in s.actions]
        assert all(label_vec[i] == 0 for i in guess_only)
        assert all(example_vec[i] == 0 for i in guess_only)
        assert all(guess_vec[i] == 0 for i in query_only)
        label_only = [s.index for s in REGISTRY if s.actions == ("label",)]
        assert all(example_vec[i] == 0 for i in label_only)

    def test_vectors_finite_and_sized(self):
        ctx = _guess_context(models=None)
        for action in (GUESS_ACTION, _label(ctx, "p1", 1), _example(ctx, "p2")):
            vec = _features(action, ctx)
            assert vec.shape == (N_FEATURES,)
            assert np.all(np.isfinite(vec))

    def test_usage_stats_features(self):
        stats = AgentStats(used={"p1": 4}, succeeded={"p1": 3}, dialogs=10)
        ctx = _guess_context(models=None, stats=stats)
        vec = _features(_example(ctx, "p1"), ctx)
        assert vec[INDEX["query_usage_freq"]] == pytest.approx(0.4)
        assert vec[INDEX["query_usage_success"]] == pytest.approx(0.75)

    def test_new_predicate_margin_path(self):
        ctx = _guess_context(models=None)
        vec = _features(_label(ctx, "unseen", 0), ctx)
        assert vec[INDEX["query_new_predicate"]] == 1.0
        assert vec[INDEX["label_margin"]] == 0.0
        assert vec[INDEX["label_knn_unlabeled"]] == 1.0

    def test_mask_zeroes_only_masked(self):
        mask = resolve_mask(["guess"])
        ctx_full = _guess_context(models=None)
        ctx_masked = _guess_context(models=None, mask=mask)
        full = _features(GUESS_ACTION, ctx_full)
        masked = _features(GUESS_ACTION, ctx_masked)
        assert np.all(masked[mask] == 0)
        assert np.array_equal(masked[~mask], full[~mask])


class TestRegistry:
    def test_table_shape(self):
        table = registry_table()
        assert len(table) == N_FEATURES
        assert [row["index"] for row in table] == list(range(N_FEATURES))
        names = [row["name"] for row in table]
        assert len(set(names)) == N_FEATURES

    def test_groups_cover_expected_features(self):
        assert "guess_top_score" in GROUPS["guess"]
        assert "label_margin" in GROUPS["query"]
        assert "turn_frac" not in GROUPS["guess"] + GROUPS["query"]

    def test_resolve_mask_group_and_feature(self):
        m = resolve_mask(["query", "turn_frac"])
        assert m[INDEX["turn_frac"]]
        assert m[INDEX["query_predicate_f1"]]
        assert not m[INDEX["guess_top_score"]]

    def test_resolve_mask_unknown_name(self):
        from oalsim.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_mask(["not_a_feature"])


class TestAgentStats:
    def test_observe_dialog(self):
        stats = AgentStats()
        stats.observe_dialog(("red", "box"), True)
        stats.observe_dialog(("red",), False)
        assert stats.dialogs == 2
        assert stats.used == {"red": 2, "box": 1}
        assert stats.succeeded == {"red": 1, "box": 1}
        for p, used in stats.used.items():
            assert stats.succeeded.get(p, 0) <= used <= stats.dialogs
