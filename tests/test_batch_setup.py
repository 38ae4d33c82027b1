"""Batch-built episode set-ups against the per-episode build, exactly.

The harness builds every episode's view, label record, grounding and feature
table from its batch's arrays (harness.BatchSetup). tests/setup_oracle.py
keeps the per-episode build it replaced; here every episode of real runs is
checked against it at the episode's start, with tobytes() equality on float
arrays, so -0.0 and 0.0 differ too. An episode whose batch reads no features
has no feature table, and is checked to have none.
"""

import dataclasses

import numpy as np
import pytest

from oalsim.agent import Agent
from oalsim.config import load_config
from oalsim.corpus import Interaction
from oalsim.features import N_FEATURES
from oalsim.harness import BatchSetup, Experiment
from oalsim.perception import PredicateModel
from oalsim.querygen import SamplingCDF, TriangularWeights, triangular_weight
from oalsim.snapshot import BatchRows

from classifier_oracle import triangular_weights
from conftest import DESK_CONFIG, READS_ALL, small_run_config
from setup_oracle import OracleView, oracle_setup

ARRAYS = ("f1", "sampling", "trained", "margins", "decisions")


def assert_view_equals(view, want: OracleView):
    assert view.predicates == want.predicates and view.index == want.index
    assert view.train_rows == want.train_rows and view.test_rows == want.test_rows
    assert all(a is b for a, b in zip(view.models, want.models, strict=True))
    for name in ARRAYS:
        got, ref = getattr(view, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    assert view.by_margin == want.by_margin
    cdf = SamplingCDF(want.sampling)
    assert view.sampling_cdf.cdf == cdf.cdf and view.sampling_cdf.mass == cdf.mass


def check_every_setup(exp: Experiment, monkeypatch) -> dict:
    """Run the experiment, comparing each episode's set-up with the oracle's at its start."""
    seen = {"episodes": 0, "tables": 0, "uneven_batches": 0, "unfit_descriptions": 0,
            "most_row_sets": 0}
    batch = {}
    run_batch, run_episode = Experiment.run_batch, Experiment.run_episode

    def recorded_batch(self, plan, phase_idx, batch_idx, agent, theta, transcript_sink=None):
        batch.update(
            predicates=set(agent.stats.used),
            models=dict(agent.models),
            sizes=set(),
        )
        out = run_batch(self, plan, phase_idx, batch_idx, agent, theta, transcript_sink)
        seen["uneven_batches"] += len(batch["sizes"]) > 1
        seen["most_row_sets"] = max(seen["most_row_sets"], len(batch["sizes"]))
        return out

    def checked_episode(self, setup, agent, theta, *args):
        inter = setup.interaction
        batch["predicates"] |= set(inter.description_predicates)
        want, known, guess, table = oracle_setup(
            batch["models"],
            batch["predicates"],
            inter,
            self.corpus.X,
            self.config.triangular,
            agent.stats,
        )
        assert_view_equals(setup.view, want)
        assert setup.view.labels() == known
        assert setup.guess == guess
        if setup.reads.any:
            assert setup.features.table.shape == table.shape
            assert setup.features.table.tobytes() == table.tobytes()
            seen["tables"] += 1
        else:
            assert setup.features is None
        batch["sizes"].add(len(want.predicates))
        seen["episodes"] += 1
        seen["unfit_descriptions"] += any(
            want.models[want.index[p]] is None for p in inter.description_predicates
        )
        outcome, episode, turns = run_episode(self, setup, agent, theta, *args)
        assert episode.known is not known
        return outcome, episode, turns

    monkeypatch.setattr(Experiment, "run_batch", recorded_batch)
    monkeypatch.setattr(Experiment, "run_episode", checked_episode)
    result = exp.run()
    assert seen["episodes"] == sum(len(m.lengths) for m in result.metrics)
    return seen


def test_desk_setups_equal_the_per_episode_build(monkeypatch):
    # the first and a later batch of each phase, learned arm; the first batch
    # of the train and test phases follows a reset
    base = load_config(DESK_CONFIG)
    cfg = dataclasses.replace(
        base,
        experiment=dataclasses.replace(
            base.experiment, init_batches=2, train_batches=2, test_batches=2
        ),
    )
    seen = check_every_setup(Experiment(cfg), monkeypatch)
    assert seen["tables"] == seen["episodes"]  # the learned arm reads features in every phase
    assert seen["uneven_batches"] >= 3  # every phase's first batch
    assert seen["unfit_descriptions"] > 0


def test_immediate_setups_equal_the_per_episode_build(
    small_corpus, small_split, small_density, monkeypatch
):
    # a refit writes its episode's view; the next episode's set-up still
    # equals the one built from the agent's classifiers at the batch start
    cfg = small_run_config()
    cfg = dataclasses.replace(
        cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
    )
    refits = []
    refresh = Experiment._refresh_models

    def counted(self, *args):
        refits.append(refresh(self, *args))
        return refits[-1]

    monkeypatch.setattr(Experiment, "_refresh_models", counted)
    exp = Experiment(cfg, small_corpus, small_split, small_density)
    seen = check_every_setup(exp, monkeypatch)
    assert any(refits)
    assert seen["uneven_batches"] > 0 and seen["unfit_descriptions"] > 0


def test_immediate_workload_setups_equal_the_per_episode_build(monkeypatch):
    # the desk corpus with immediate refits and batches of 300, whose views
    # come in many row sets; every view of each equals its own build, and
    # only the init batch, which updates the policy, reads features
    base = load_config(DESK_CONFIG)
    cfg = dataclasses.replace(
        base,
        episode=dataclasses.replace(base.episode, immediate_updates=True),
        experiment=dataclasses.replace(
            base.experiment, policy_kind="static", init_batches=1, train_batches=1,
            test_batches=1, batch_size=300,
        ),
    )
    seen = check_every_setup(Experiment(cfg), monkeypatch)
    assert seen["episodes"] == 900 and seen["tables"] == 300
    assert seen["uneven_batches"] == 3 and seen["most_row_sets"] >= 5


def _trained_agent(exp):
    agent = Agent()
    plan = exp.phase_plan()[0]
    _, merged, outcomes = exp.run_batch(plan, 0, 0, agent, np.zeros(N_FEATURES))
    exp.apply_batch_end(agent, merged, outcomes)
    return agent, outcomes


def test_a_refit_writes_its_own_view_only(small_corpus, small_split, small_density):
    exp = Experiment(small_run_config(), small_corpus, small_split, small_density)
    agent, outcomes = _trained_agent(exp)
    interactions = [o.interaction for o in outcomes[:3]]
    setups = BatchSetup(exp, agent, interactions, READS_ALL)
    rows = setups.rows
    held = {name: getattr(rows, name).copy() for name in ARRAYS + ("labels",)}
    queries = setups.queries.copy()
    first, twin = setups.episode(0), setups.episode(0)
    size, table = setups._table
    table = table.copy()
    shared = rows.row_set(0)
    held_set = {name: getattr(shared, name).copy() for name in ("f1", "sampling", "trained")}
    cdf = list(shared.sampling_cdf.cdf)
    assert first.view.f1 is shared.f1 and twin.view.sampling_cdf is shared.sampling_cdf
    donor = next(m for m in agent.models.values() if m.weights is not None and m.f1 > 0.0)
    for i, p in enumerate(first.view.predicates):  # every row of episode 0 gets another classifier
        first.view.update(i, dataclasses.replace(donor.clone(), predicate=p))
    first.features.refit(list(range(len(first.view.predicates))))
    first.view.labels()[0][0] = 7
    for name, array in held.items():
        assert np.array_equal(getattr(rows, name), array), name
    for name, array in held_set.items():
        assert np.array_equal(getattr(shared, name), array), name
    assert shared.sampling_cdf.cdf == cdf and rows.row_set(0) is shared
    assert first.view.f1 is not shared.f1 and first.view.sampling_cdf is not shared.sampling_cdf
    assert np.array_equal(setups.queries, queries)
    assert setups._table[0] == size and setups._table[1].tobytes() == table.tobytes()
    predicates, wants = set(agent.stats.used), []
    for interaction in interactions:
        predicates |= set(interaction.description_predicates)
        wants.append(oracle_setup(
            agent.models,
            predicates,
            interaction,
            exp.corpus.X,
            exp.config.triangular,
            agent.stats,
        ))
    # episode 0's twin, built before the refits and sharing its row set, and
    # views built after them
    for e, setup in ((0, twin), (0, setups.episode(0)), (1, setups.episode(1)),
                     (2, setups.episode(2))):
        want, known, guess, table = wants[e]
        assert_view_equals(setup.view, want)
        assert setup.view.labels() == known
        assert setup.guess == guess
        assert setup.features.table.tobytes() == table.tobytes()


def test_batch_arrays_are_sized_by_the_batch_not_the_corpus():
    n_regions, dim, batch_size = 10**7, 3, 40
    X = np.broadcast_to(np.arange(1.0, dim + 1.0), (n_regions, dim))  # no memory per row
    rng = np.random.default_rng(5)
    interactions = [
        Interaction(
            tuple(rng.choice(n_regions, 8, replace=False).tolist()),
            tuple(rng.choice(n_regions, 4, replace=False).tolist()),
            -1,
            ("p",),
        )
        for _ in range(batch_size)
    ]
    far = {int(r): 1 for r in rng.choice(n_regions, 500, replace=False)}
    model = PredicateModel("p", labels=far, weights=np.r_[np.ones(dim), -1.0], f1=0.5)
    rows = BatchRows({"p": model}, {"q"}, interactions, X, TriangularWeights())
    n_train = len({r for i in interactions for r in i.active_train})
    n_test = len({r for i in interactions for r in i.active_test})
    assert n_train <= batch_size * 8 and n_test <= batch_size * 4
    assert rows.margins.shape == rows.labels.shape == (2, n_train)
    assert rows.decisions.shape == (2, n_test)
    assert rows.labels.nbytes == 2 * n_train


@pytest.mark.parametrize("params", [TriangularWeights(), TriangularWeights(0.2, 3.0, 0.35)])
def test_triangular_weight_equals_the_array_form(params):
    grid = [0.0, params.c_max, 1.0, -0.0, -1e-300, 1.5, -2.0, np.inf, -np.inf, np.nan]
    for x in (0.0, params.c_max, 1.0):
        grid += [np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    grid += np.linspace(0.0, 1.0, 1001).tolist()
    want = triangular_weights(np.array(grid), params)
    for f1, w in zip(grid, want.tolist()):
        assert float(triangular_weight(float(f1), params)).hex() == w.hex(), f1
