import json

import numpy as np
import pytest

from oalsim.actions import ExampleQuery, Guess, LabelQuery
from oalsim.corpus import Corpus, Interaction, Region
from oalsim.dialog import Episode, RewardConfig, episode_return, transcript_records
from oalsim.errors import ContractError, DataError, ProtocolError
from oalsim.perception import PredicateModel
from oalsim.seeding import stream

from conftest import episode_view


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


def _row(rid):
    """The toy corpus row of a region id."""
    return _toy_world()[0].row[rid]


def _episode(guess="o1", seed=0, t_max=40, corpus=None, interaction=None, models=None):
    if corpus is None:
        corpus, interaction = _toy_world()
    view = episode_view(
        models or {},
        ("blue", "green", "red", "white"),
        interaction.active_train,
        interaction.active_test,
        corpus.X,
    )
    return Episode(
        interaction=interaction,
        annotations=corpus.annotations,
        view=view,
        rewards=RewardConfig(),
        t_max=t_max,
        oracle_rng=stream(seed, "oracle"),
        guesser=lambda: corpus.row[guess],
    )


class TestLifecycle:
    def test_fresh_state(self):
        ep = _episode()
        assert ep.turn == 0 and not ep.terminated and ep.transcript == []

    def test_step_after_termination(self):
        ep = _episode()
        ep.step(Guess())
        with pytest.raises(ProtocolError):
            ep.step(Guess())

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
        assert ep.answer_label_query("red", _row("t0")) == 1
        assert ep.answer_label_query("red", _row("t1")) == -1  # closed world

    def test_label_query_outside_active_train(self):
        ep = _episode()
        with pytest.raises(ProtocolError):
            ep.answer_label_query("red", _row("o0"))

    def test_label_query_repeat_is_consistent(self):
        ep = _episode()
        first = ep.answer_label_query("blue", _row("t3"))
        assert ep.answer_label_query("blue", _row("t3")) == first
        assert len(ep.pending_labels) == 1

    def test_labels_held_by_the_view_are_not_pending(self):
        model = PredicateModel(predicate="blue")
        model.record_label(_row("t3"), 1)
        model.record_label(_row("o0"), -1)  # not an active-train object: no column
        ep = _episode(models={"blue": model})
        assert ep.known[0] == [0, 0, 0, 1, 0, 0, 0, 0]
        assert not any(any(row) for row in ep.known[1:])
        assert ep.answer_label_query("blue", _row("t3")) == 1
        assert ep.pending_labels == []

    def test_label_contradicting_the_view_is_a_flip(self):
        model = PredicateModel(predicate="blue")
        model.record_label(_row("t3"), -1)  # t3 is annotated blue
        with pytest.raises(ContractError, match="flipped"):
            _episode(models={"blue": model}).answer_label_query("blue", _row("t3"))

    def test_example_query_with_positives(self):
        ep = _episode()
        rid = ep.answer_example_query("white")
        assert rid in (_row("t2"), _row("t5"))
        assert ("white", rid, 1) in ep.pending_labels

    def test_example_query_uniform_over_positives(self):
        counts = {_row("t2"): 0, _row("t5"): 0}
        n = 10_000
        for i in range(n):
            ep = _episode(seed=i)
            counts[ep.answer_example_query("white")] += 1
        # binomial(n, 0.5): three sigma around n/2
        sigma = (n * 0.25) ** 0.5
        assert abs(counts[_row("t2")] - n / 2) < 3 * sigma

    def test_example_query_none_labels_all_negative(self):
        ep = _episode()
        assert ep.answer_example_query("green") is None
        assert len(ep.pending_labels) == 8
        assert all(lbl == -1 for (_, _, lbl) in ep.pending_labels)

    def test_example_never_returns_nonmember(self):
        for i in range(200):
            ep = _episode(seed=i)
            rid = ep.answer_example_query("red")
            assert "red" in ep.annotations[rid]


class TestStep:
    def test_correct_guess_reward(self):
        ep = _episode(guess="o1")
        reward, done = ep.step(Guess())
        assert reward == 200 and done and ep.success

    def test_incorrect_guess_reward(self):
        ep = _episode(guess="o0")
        reward, done = ep.step(Guess())
        assert reward == -100 and done and not ep.success

    def test_label_query_reward(self):
        ep = _episode()
        reward, done = ep.step(LabelQuery(predicate="red", region=_row("t0")))
        assert reward == -1 and not done

    def test_three_queries_then_correct_guess(self):
        ep = _episode(guess="o1")
        ep.step(LabelQuery(predicate="red", region=_row("t0")))
        ep.step(ExampleQuery(predicate="white"))
        ep.step(LabelQuery(predicate="blue", region=_row("t1")))
        ep.step(Guess())
        assert sum(s.reward for s in ep.transcript) == 197
        assert ep.length() == 4
        assert ep.n_queries() == 3

    def test_turn_cap_forces_guess(self):
        ep = _episode(t_max=2)
        ep.step(LabelQuery(predicate="red", region=_row("t0")))
        ep.step(LabelQuery(predicate="red", region=_row("t1")))
        with pytest.raises(ProtocolError):
            ep.step(LabelQuery(predicate="red", region=_row("t2")))
        ep.step(Guess())
        assert ep.terminated and ep.length() == 3 <= ep.t_max + 1

    def test_transcript_rewards_shape(self):
        ep = _episode(guess="o0")
        ep.step(ExampleQuery(predicate="white"))
        ep.step(Guess())
        rewards = [s.reward for s in ep.transcript]
        assert rewards[:-1] == [-1.0] * (len(rewards) - 1)
        assert rewards[-1] in (200.0, -100.0)


class TestReturns:
    def test_tail_sums_undiscounted(self):
        assert episode_return([-1, -1, 200], 1.0) == [198, 199, 200]

    def test_single_step(self):
        assert episode_return([200], 1.0) == [200]

    def test_discounted(self):
        assert episode_return([-1, -100], 0.5) == [-51, -100]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            episode_return([], 1.0)


class TestRewardConfig:
    def test_invariants(self):
        with pytest.raises(DataError):
            RewardConfig(correct_guess=-5)
        with pytest.raises(DataError):
            RewardConfig(incorrect_guess=0)
        with pytest.raises(DataError):
            RewardConfig(discount=0.0)


def test_transcript_export():
    ep = _episode(guess="o1")
    feats = np.zeros((3, 28))
    ep.step(LabelQuery(predicate="red", region=_row("t0")), feats, 1)
    ep.step(Guess(), feats, 0)
    ids = _toy_world()[0].ids
    lines = [json.loads(json.dumps(rec)) for rec in transcript_records("e0", ep, ids)]
    assert len(lines) == 2
    assert lines[0]["action"] == "label:red@t0"
    assert lines[0]["turn"] == 0 and lines[0]["reward"] == -1
    assert lines[1]["action"] == "guess" and lines[1]["reward"] == 200
    assert len(lines[0]["features"]) == 28
