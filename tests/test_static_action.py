"""A static turn drawn kind first plays what its whole beam would play.

Where nothing reads the beam, harness.run_episode plays
querygen.static_action: it draws only the action the static rule picks.
Every such turn must pick the reference's action (beam_oracle.static_turn:
the whole beam, then the static rule as first written) and leave the beam and
policy generators in the reference's state. The one exception is the guess
turn (turn >= static_n_queries): it draws nothing from the beam generator,
which the dialog never reads again.
"""

import copy
import json
from bisect import insort

import numpy as np
import pytest

import beam_oracle
from oalsim import harness
from oalsim.actions import EXAMPLE_QUERY, GUESS, GUESS_ACTION, LABEL_QUERY
from oalsim.config import from_dict
from oalsim.harness import Experiment
from oalsim.querygen import BeamConfig, SamplingCDF, static_action
from oalsim.seeding import stream

from conftest import DESK_CONFIG, episode_view


def _merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _desk_config(seed, overrides):
    """configs/desk.json, static arm, at `seed`, with `overrides` merged in."""
    data = json.loads(DESK_CONFIG.read_text())
    _merge(data, overrides)
    _merge(data, {"experiment": {"policy_kind": "static", "master_seed": seed}})
    return from_dict(data)


def _check_turn(turn, t_max, view, labeled, asked, cfg, n_queries, rng, policy_rng):
    """static_action's action, after checking it and both generators against the reference."""
    before = rng.bit_generator.state, policy_rng.bit_generator.state
    want = beam_oracle.static_turn(turn, t_max, view, labeled, asked, cfg, n_queries, rng,
                                   policy_rng)
    after = rng.bit_generator.state, policy_rng.bit_generator.state
    rng.bit_generator.state, policy_rng.bit_generator.state = before
    got = static_action(turn, t_max, view, labeled, asked, cfg, n_queries, rng, policy_rng)
    assert got == want
    assert policy_rng.bit_generator.state == after[1]
    if turn >= n_queries:  # the guess ends the dialog: no beam draw
        assert got == GUESS_ACTION and rng.bit_generator.state == before[0]
    else:
        assert rng.bit_generator.state == after[0]
    return got


RUNS = {
    "desk-101": (101, {}, False),
    "desk-101-sink": (101, {}, True),
    "desk-505": (505, {}, False),
    "desk-505-sink": (505, {}, True),
    # refits rebuild the view's sampling CDF mid-dialog
    "immediate": (101, {
        "episode": {"immediate_updates": True},
        "experiment": {"init_batches": 1, "train_batches": 1, "test_batches": 1,
                       "batch_size": 300},
    }, False),
    "scale": (101, {
        "corpus": {"synthetic": {"n_regions": 2400}},
        "split": {"frequency_threshold": 600},
        "experiment": {"init_batches": 4, "train_batches": 4, "test_batches": 4,
                       "batch_size": 100},
    }, True),
}


@pytest.mark.parametrize("name", RUNS)
def test_every_static_turn_equals_the_whole_beam(name, monkeypatch, tmp_path):
    seed, overrides, sink = RUNS[name]
    cfg = _desk_config(seed, overrides)
    kinds = []

    def recorded(turn, t_max, view, labeled, asked, beam_cfg, n_queries, rng, policy_rng):
        action = _check_turn(turn, t_max, view, labeled, asked, beam_cfg, n_queries, rng,
                             policy_rng)
        kinds.append(action[0])
        return action

    monkeypatch.setattr(harness, "static_action", recorded)
    result = Experiment(cfg).run(transcript_path=tmp_path / "t.jsonl" if sink else None)
    static_turns = sum(sum(m.lengths) for m in result.metrics if m.phase != "init")
    assert len(kinds) == static_turns
    assert {GUESS, LABEL_QUERY, EXAMPLE_QUERY} <= set(kinds)


def _play(view, cfg, n_queries, t_max, labeled, asked, seed, nan_at=None):
    """Play kind-first turns until the guess, checking each; returns the actions.

    A label query marks its pair labeled and an example query marks its row
    asked, so the turns see a record that changes as a dialog's does. At
    turn `nan_at` one sampling weight becomes NaN, as a refit with an F1
    outside [0,1] would leave it, and that turn must fail as the
    reference's does.
    """
    rng, policy_rng = stream(seed, "beam"), stream(seed, "policy")
    played = []
    for turn in range(t_max + 1):
        if turn == nan_at:
            view.sampling = view.sampling.copy()
            view.sampling[1] = np.nan
            view.sampling_cdf = SamplingCDF(view.sampling)
            with pytest.raises(ValueError):
                beam_oracle.static_turn(turn, t_max, view, labeled, asked, cfg, n_queries,
                                        copy.deepcopy(rng), copy.deepcopy(policy_rng))
            with pytest.raises(ValueError):
                static_action(turn, t_max, view, labeled, asked, cfg, n_queries, rng,
                              policy_rng)
            return played
        kind, row, col = _check_turn(turn, t_max, view, labeled, asked, cfg, n_queries, rng,
                                     policy_rng)
        played.append(kind)
        if kind == GUESS:
            return played
        if kind == LABEL_QUERY:
            labeled[row][col] = 1
        elif row not in asked:
            insort(asked, row)
    raise AssertionError("no guess by the turn cap")


@pytest.fixture
def toy_view(desk_agent):
    """A view over 8 active-train objects: the desk agent's predicates, trained and
    untrained, and two predicates with no classifier."""
    exp, agent = desk_agent
    predicates = sorted(agent.models)[:10] + ["zz-none-1", "zz-none-2"]
    return episode_view(agent.models, predicates, range(8), range(8, 12), exp.corpus.X)


def _record(view, seed, free=0.5):
    """A label record with about `free` of its pairs unlabeled."""
    src = stream(seed, "record")
    return [[0 if src.random() < free else 1 for _ in range(8)] for _ in view.predicates]


# (beam config, static_n_queries, t_max, how to start the record and the asked rows)
CASES = {
    "defaults": (BeamConfig(), 15, 40, None),
    "no-examples": (BeamConfig(n_example=0), 15, 40, None),
    "no-labels": (BeamConfig(n_label=0), 15, 40, None),
    "small-example-pool": (BeamConfig(), 15, 40, "all-but-two-asked"),
    "labels-exhausted": (BeamConfig(), 15, 40, "all-labeled"),
    "all-asked": (BeamConfig(), 15, 40, "all-asked"),
    "nothing-left": (BeamConfig(), 15, 40, "all-labeled-all-asked"),
    "queries-past-the-cap": (BeamConfig(), 20, 6, None),
}


@pytest.mark.parametrize("case", CASES)
def test_hand_built_turns_equal_the_whole_beam(case, toy_view):
    cfg, n_queries, t_max, start = CASES[case]
    n = len(toy_view.predicates)
    assert 0 < sum(toy_view.trained) < n
    for seed in range(20):
        labeled, asked = _record(toy_view, seed), []
        if start and "all-labeled" in start:
            labeled = [[1] * 8 for _ in range(n)]
        if start and "all-asked" in start:
            asked = list(range(n))
        if start == "all-but-two-asked":
            asked = list(range(2, n))
        played = _play(toy_view, cfg, n_queries, t_max, labeled, asked, seed)
        if case == "labels-exhausted":  # turn 0 falls back to an example query
            assert played[0] == EXAMPLE_QUERY
        if case == "all-asked":  # turn 1 falls back to a label query
            assert played[1] == LABEL_QUERY
        if case == "nothing-left":
            assert played == [GUESS]
        if case == "queries-past-the-cap":
            assert len(played) == t_max + 1


@pytest.mark.parametrize("nan_at", [0, 3, 15], ids=["turn-0", "turn-3", "guess-turn"])
def test_a_nan_weight_fails_at_the_same_turn(nan_at, toy_view):
    # n_label covers every predicate, so the label draw returns them whole and
    # only the example draw reads the weights
    n = len(toy_view.predicates)
    played = _play(toy_view, BeamConfig(n_label=n), 15, 40, _record(toy_view, 7), [], 7, nan_at)
    assert len(played) == nan_at
