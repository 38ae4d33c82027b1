"""The beam form of featurize against the one-action oracle, every turn of real runs.

Each beam's rows also equal one-action calls of featurize, the guess included.
"""

import dataclasses

import numpy as np
import pytest

from oalsim import harness
from oalsim.actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY
from oalsim.features import N_FEATURES
from oalsim.harness import Agent, Experiment

from conftest import READS_ALL, episode_view, feature_context, small_run_config
from feature_oracle import featurize_alone, featurize_beam


def _config(immediate, ablate):
    cfg = small_run_config(ablate=ablate)
    if immediate:
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
    return cfg


@pytest.mark.parametrize(
    "immediate, ablate",
    [
        (False, ()),
        (False, ("query", "turn_frac")),
        (True, ()),
        (True, ("guess", "label_margin")),
    ],
    ids=["learned", "learned-masked", "immediate", "immediate-masked"],
)
def test_every_beam_equals_the_stacked_oracle(
    immediate, ablate, small_corpus, small_split, small_density, monkeypatch
):
    seen = {"turns": 0, "labels": 0, "after_refit": 0}
    refits = []
    batch_stats = []  # the agent stats each batch's query rows were built from
    beam_form = harness.featurize
    rows_form = harness.query_rows
    refresh = Experiment._refresh_models

    def recorded_rows(predicates, f1, trained, stats):
        batch_stats.append(stats)
        return rows_form(predicates, f1, trained, stats)

    def checked(beam, turn, ctx):
        got = beam_form(beam, turn, ctx)
        want = featurize_beam(beam, turn, ctx, batch_stats[-1])
        assert got.shape == (len(beam), N_FEATURES)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here
        assert featurize_alone(beam_form, beam, turn, ctx).tobytes() == got.tobytes()
        seen["turns"] += 1
        seen["labels"] += sum(kind == LABEL_QUERY for kind, _, _ in beam)
        seen["after_refit"] += bool(refits)
        return got

    def counted(self, *args):
        refit = refresh(self, *args)
        refits.append(refit)
        return refit

    monkeypatch.setattr(harness, "featurize", checked)
    monkeypatch.setattr(harness, "query_rows", recorded_rows)
    monkeypatch.setattr(Experiment, "_refresh_models", counted)
    cfg = _config(immediate, ablate)
    result = Experiment(cfg, small_corpus, small_split, small_density).run()
    turns = sum(sum(m.lengths) for m in result.metrics)
    assert seen["turns"] == turns > 0
    assert seen["labels"] > 0
    if immediate:
        assert refits and seen["after_refit"] > 0
    else:
        assert not refits


def test_unusual_beams_equal_the_stacked_oracle(small_corpus, small_split, small_density):
    # beams the dialogs rarely build: the guess alone, and every predicate as
    # an example query or as a label query on one object
    exp = Experiment(small_run_config(), small_corpus, small_split, small_density)
    agent = Agent()
    plan = exp.phase_plan()[0]
    _, merged, outcomes = exp.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
    exp.apply_batch_end(agent, merged, outcomes)
    inter = outcomes[0].interaction
    # fits the classifiers, as the next batch start does
    harness.BatchSetup(exp, agent, [inter], READS_ALL)
    desc = inter.description_predicates
    view = episode_view(
        agent.models,
        set(agent.stats.used) | set(desc),
        inter.active_train,
        inter.active_test,
        exp.corpus.X,
    )
    ctx = feature_context(view, desc, agent.stats, small_density)
    for beam, turn in (
        ([GUESS_ACTION], 40),
        ([GUESS_ACTION] + [(EXAMPLE_QUERY, row, -1) for row in range(len(view.predicates))], 3),
        ([GUESS_ACTION] + [(LABEL_QUERY, row, 1) for row in range(len(view.predicates))], 7),
    ):
        got = harness.featurize(beam, turn, ctx)
        assert got.tobytes() == featurize_beam(beam, turn, ctx, agent.stats).tobytes()
        assert featurize_alone(harness.featurize, beam, turn, ctx).tobytes() == got.tobytes()
