import numpy as np
import pytest

from oalsim.actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY
from oalsim.config import EpisodeConfig
from oalsim.corpus import Corpus, Interaction, Region
from oalsim.dialog import Episode, RewardConfig, rewards_and_returns
from oalsim.errors import ConfigError, ContractError, DataError, ProtocolError
from oalsim.perception import PredicateModel
from oalsim.seeding import stream

from conftest import episode_return, episode_view, list_rewards

REWARDS = RewardConfig()


def _toy_world(positives_for_white=("t2", "t5")):
    """8 active-train regions t0..t7, 4 active-test o0..o3, target o1, as a corpus.

    The interaction holds rows: o0..o3 are rows 0..3, t0..t7 rows 4..11.
    """
    regions = {}
    rng = np.random.default_rng(4)
    for i in range(8):
        rid = f"t{i}"
        anns = {"red"} if i % 2 == 0 else {"blue"}
        if rid in positives_for_white:
            anns.add("white")
        regions[rid] = Region(
            id=rid, features=rng.normal(size=4), annotations=frozenset(anns)
        )
    for i in range(4):
        rid = f"o{i}"
        regions[rid] = Region(
            id=rid,
            features=rng.normal(size=4),
            annotations=frozenset({"red"}),
            description_predicates=("red",) if rid == "o1" else (),
        )
    corpus = Corpus(list(regions.values()))
    interaction = Interaction(
        active_train=tuple(corpus.row[f"t{i}"] for i in range(8)),
        active_test=tuple(corpus.row[f"o{i}"] for i in range(4)),
        target=corpus.row["o1"],
        description_predicates=("red",),
    )
    return corpus, interaction


PREDICATES = ("blue", "green", "red", "white")
ROW = {p: i for i, p in enumerate(PREDICATES)}  # the toy view's row of a predicate
COL = {f"t{i}": i for i in range(8)}  # the active-train column of a region id


def _row(rid):
    """The toy corpus row of a region id."""
    return _toy_world()[0].row[rid]


def _label(predicate, rid):
    return LABEL_QUERY, ROW[predicate], COL[rid]


def _example(predicate):
    return EXAMPLE_QUERY, ROW[predicate], -1


def _toy_view(corpus, interaction, models=None):
    return episode_view(
        models or {},
        PREDICATES,
        interaction.active_train,
        interaction.active_test,
        corpus.X,
    )


def _episode(guess="o1", seed=0, t_max=40, corpus=None, interaction=None, models=None, view=None):
    """A toy episode; `view`, if given, is the view of `corpus` and `interaction`."""
    if corpus is None:
        corpus, interaction = _toy_world()
    if view is None:
        view = _toy_view(corpus, interaction, models)
    return Episode(
        interaction=interaction,
        annotations=corpus.annotations,
        view=view,
        t_max=t_max,
        oracle_rng=stream(seed, "oracle"),
        guess=corpus.row[guess],
    )


class TestLifecycle:
    def test_fresh_state(self):
        ep = _episode()
        assert ep.turn == 0 and not ep.terminated
        assert ep.pending_labels == [] and ep.asked == []

    def test_step_after_termination(self):
        ep = _episode()
        ep.step(GUESS_ACTION)
        with pytest.raises(ProtocolError):
            ep.step(GUESS_ACTION)

    def test_empty_description_rejected(self):
        corpus, interaction = _toy_world()
        bad = Interaction(
            active_train=interaction.active_train,
            active_test=interaction.active_test,
            target=interaction.target,
            description_predicates=(),
        )
        with pytest.raises(DataError):
            _episode(corpus=corpus, interaction=bad)


class TestOracle:
    def test_label_query_membership(self):
        ep = _episode()
        assert ep.answer_label_query(ROW["red"], COL["t0"]) == 1
        assert ep.answer_label_query(ROW["red"], COL["t1"]) == -1  # closed world

    @pytest.mark.parametrize(
        "action",
        [
            (LABEL_QUERY, ROW["red"], -1),
            (LABEL_QUERY, ROW["red"], 8),
            (LABEL_QUERY, len(PREDICATES), 0),
            (LABEL_QUERY, -1, 0),
            (EXAMPLE_QUERY, len(PREDICATES), -1),
            (EXAMPLE_QUERY, -1, -1),
        ],
        ids=["column-minus-1", "column-8", "row-4", "row-minus-1", "example-row-4",
             "example-row-minus-1"],
    )
    def test_label_query_outside_active_train(self, action):
        # a Python list would wrap -1 to the last row or column
        ep = _episode()
        known = [list(row) for row in ep.known]
        with pytest.raises(ProtocolError, match="outside"):
            ep.step(action)
        assert ep.known == known and ep.pending_labels == []
        assert ep.asked == []
        assert ep.turn == 0 and not ep.terminated

    def test_label_query_repeat_is_consistent(self):
        ep = _episode()
        first = ep.answer_label_query(ROW["blue"], COL["t3"])
        assert ep.answer_label_query(ROW["blue"], COL["t3"]) == first
        assert len(ep.pending_labels) == 1

    def test_labels_held_by_the_view_are_not_pending(self):
        model = PredicateModel(predicate="blue")
        model.record_label(_row("t3"), 1)
        model.record_label(_row("o0"), -1)  # not an active-train object: no column
        ep = _episode(models={"blue": model})
        assert ep.known[0] == [0, 0, 0, 1, 0, 0, 0, 0]
        assert not any(any(row) for row in ep.known[1:])
        assert ep.answer_label_query(ROW["blue"], COL["t3"]) == 1
        assert ep.pending_labels == []

    def test_label_contradicting_the_view_is_a_flip(self):
        model = PredicateModel(predicate="blue")
        model.record_label(_row("t3"), -1)  # t3 is annotated blue
        with pytest.raises(ContractError, match="flipped"):
            _episode(models={"blue": model}).answer_label_query(ROW["blue"], COL["t3"])

    def test_example_query_with_positives(self):
        ep = _episode()
        rid = ep.answer_example_query(ROW["white"])
        assert rid in (_row("t2"), _row("t5"))
        assert ("white", rid, 1) in ep.pending_labels

    def test_example_query_uniform_over_positives(self):
        # one toy world and view; a fresh episode, with its own oracle stream, per seed
        corpus, interaction = _toy_world()
        view = _toy_view(corpus, interaction)
        counts = {corpus.row["t2"]: 0, corpus.row["t5"]: 0}
        n = 10_000
        for i in range(n):
            ep = _episode(seed=i, corpus=corpus, interaction=interaction, view=view)
            counts[ep.answer_example_query(ROW["white"])] += 1
        # binomial(n, 0.5): three sigma around n/2
        sigma = (n * 0.25) ** 0.5
        assert abs(counts[corpus.row["t2"]] - n / 2) < 3 * sigma

    def test_example_query_none_labels_all_negative(self):
        ep = _episode()
        assert ep.answer_example_query(ROW["green"]) is None
        assert len(ep.pending_labels) == 8
        assert all(lbl == -1 for (_, _, lbl) in ep.pending_labels)

    def test_example_never_returns_nonmember(self):
        for i in range(200):
            ep = _episode(seed=i)
            rid = ep.answer_example_query(ROW["red"])
            assert "red" in ep.annotations[rid]


def _rewards(ep):
    """The per-turn rewards of a finished toy episode, from its outcome."""
    return rewards_and_returns(REWARDS, ep.success, ep.length())[0]


class TestStep:
    def test_correct_guess_reward(self):
        ep = _episode(guess="o1")
        assert ep.step(GUESS_ACTION) is None
        assert _rewards(ep) == [200] and ep.terminated and ep.success

    def test_incorrect_guess_reward(self):
        ep = _episode(guess="o0")
        ep.step(GUESS_ACTION)
        assert _rewards(ep) == [-100] and ep.terminated and not ep.success

    def test_label_query_reward(self):
        ep = _episode()
        ep.step(_label("red", "t0"))
        assert not ep.terminated and ep.turn == 1
        ep.step(GUESS_ACTION)
        assert _rewards(ep)[0] == -1

    def test_three_queries_then_correct_guess(self):
        ep = _episode(guess="o1")
        ep.step(_label("red", "t0"))
        ep.step(_example("white"))
        ep.step(_label("blue", "t1"))
        ep.step(GUESS_ACTION)
        assert sum(_rewards(ep)) == 197
        assert ep.length() == 4
        assert ep.success

    def test_asked_holds_the_example_queried_rows_ascending_once(self):
        ep = _episode()
        ep.step(_example("white"))
        ep.step(_label("blue", "t1"))
        ep.step(_example("blue"))
        ep.step(_example("white"))  # a repeat leaves the list as it is
        assert ep.asked == [ROW["blue"], ROW["white"]]

    def test_guess_reads_the_current_grounding(self):
        # run_episode reassigns the guess row when an immediate refit regrounds
        ep = _episode(guess="o0")
        ep.step(_label("red", "t0"))
        ep.guess = _row("o1")
        ep.step(GUESS_ACTION)
        assert ep.terminated and ep.success and _rewards(ep)[-1] == 200

    def test_turn_cap_forces_guess(self):
        ep = _episode(t_max=2)
        ep.step(_label("red", "t0"))
        ep.step(_label("red", "t1"))
        with pytest.raises(ProtocolError):
            ep.step(_label("red", "t2"))
        ep.step(GUESS_ACTION)
        assert ep.terminated and ep.length() == 3 <= ep.t_max + 1

    def test_transcript_rewards_shape(self):
        ep = _episode(guess="o0")
        ep.step(_example("white"))
        ep.step(GUESS_ACTION)
        rewards = _rewards(ep)
        assert rewards[:-1] == [-1.0] * (len(rewards) - 1)
        assert rewards[-1] in (200.0, -100.0)


class TestReturns:
    def test_tail_sums_undiscounted(self):
        assert rewards_and_returns(REWARDS, True, 3) == ([-1, -1, 200], [198, 199, 200])

    def test_single_step(self):
        assert rewards_and_returns(REWARDS, True, 1) == ([200], [200])

    def test_discounted(self):
        rewards = RewardConfig(discount=0.5)
        assert rewards_and_returns(rewards, False, 2) == ([-1, -100], [-51, -100])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            rewards_and_returns(REWARDS, True, 0)

    @pytest.mark.parametrize("discount", [1.0, 0.9, 0.5])
    @pytest.mark.parametrize("success", [True, False])
    def test_equals_the_list_form_at_every_length(self, success, discount):
        # the rewards and G_t, bit for bit, that the per-turn reward list gives
        rewards = RewardConfig(per_query=-1.5, discount=discount)
        for length in range(1, EpisodeConfig().t_max + 2):
            per_turn = list_rewards(rewards, success, length)
            want = per_turn, episode_return(per_turn, discount)
            assert rewards_and_returns(rewards, success, length) == want

    @pytest.mark.parametrize(
        "success, length, discount",
        [(True, 1, 1.0), (False, 1, 1.0), (True, 5, 1.0), (False, 16, 0.9), (True, 40, 0.5)],
    )
    def test_first_return_is_g0_of_the_queries_then_the_guess(self, success, length, discount):
        rewards = RewardConfig(discount=discount)
        guess = rewards.correct_guess if success else rewards.incorrect_guess
        closed = (
            rewards.per_query * sum(discount**t for t in range(length - 1))
            + discount ** (length - 1) * guess
        )
        g0 = rewards_and_returns(rewards, success, length)[1][0]
        assert g0 == pytest.approx(closed, rel=1e-12)


class TestRewardConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            RewardConfig(correct_guess=-5)
        with pytest.raises(ConfigError):
            RewardConfig(incorrect_guess=0)
        with pytest.raises(ConfigError):
            RewardConfig(discount=0.0)
