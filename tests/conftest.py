import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oalsim.config import CorpusSource, ExperimentConfig, PolicyConfig, RunConfig, load_config
from oalsim.corpus import (
    Corpus,
    Interaction,
    SplitConfig,
    SyntheticConfig,
    generate_synthetic,
    make_splits,
)
from oalsim.features import N_FEATURES, FeatureContext, query_rows
from oalsim.grounding import view_stack
from oalsim.harness import Agent, BatchSetup, Experiment, FeatureReads, RunResult, ground
from oalsim.perception import DensityIndex
from oalsim.querygen import TriangularWeights
from oalsim.snapshot import BatchRows, EpisodeView, RowSet

READS_ALL = FeatureReads(beam=True, transcript=True)  # builds every feature table

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


SMALL_SYNTH = SyntheticConfig(
    n_regions=120, dim=16, n_predicates=8, coverage=(0.15, 0.40), seed=3
)


def small_run_config(**experiment_overrides) -> RunConfig:
    exp = dict(
        init_batches=2, train_batches=2, test_batches=2, batch_size=15, master_seed=11
    )
    exp.update(experiment_overrides)
    return RunConfig(
        corpus=CorpusSource(synthetic=SMALL_SYNTH),
        split=SplitConfig(frequency_threshold=30, seed=1),
        policy=PolicyConfig(learning_rate=3e-6),
        experiment=ExperimentConfig(**exp),
    )


def classifier_train_rows(split) -> tuple[int, ...]:
    """The rows a run's density index serves: both sides' classifier-train rows."""
    return split.policy_train[0] + split.policy_test[0]


def episode_view(models, predicates, active_train, active_test, X, params=TriangularWeights()):
    """The view of a batch of one episode that holds exactly these predicates.

    `models` maps predicates to their classifiers; a predicate it lacks has none.
    """
    interaction = Interaction(tuple(active_train), tuple(active_test), -1, ())
    batch = BatchRows(models, predicates, [interaction], X, params)
    return EpisodeView(batch, 0, RowSet(batch, 0))


def feature_context(view, description, stats, density, t_max=40, mask=None):
    """The feature context of an `episode_view` view, grounded on the description."""
    _, guess = ground(view_stack(description, view))
    return FeatureContext(
        t_max=t_max,
        description_predicates=tuple(description),
        view=view,
        density=density,
        guess=guess[0],
        shared_table=query_rows(view.predicates, view.f1, view.trained, stats),
        mask=mask,
    )


def desk_run(cfg: RunConfig) -> RunResult:
    """Experiment(cfg).run(), at module level so that spawned worker processes can import it."""
    return Experiment(cfg).run()


def record_dialogs(monkeypatch, keep) -> list:
    """keep(outcome, episode, turns) of each dialog, in play order, by a run_episode wrapper."""
    kept = []
    run_episode = Experiment.run_episode

    def recorded(self, *args):
        result = run_episode(self, *args)
        kept.append(keep(*result))
        return result

    monkeypatch.setattr(Experiment, "run_episode", recorded)
    return kept


@pytest.fixture
def live_turns(monkeypatch) -> list:
    """Each dialog's turn records as run_episode returns them, in play order.

    Where a policy update or a transcript reads them, a dialog's turns are
    one (action, features, chosen, probabilities) record per step, else
    none. A batch's outcomes keep no actions or beams, so tests that read
    them read them here. The caller clears the list to drop the beams.
    """
    return record_dialogs(monkeypatch, lambda outcome, episode, turns: turns)


def episode_return(rewards, gamma):
    """Per-step discounted reward tails G_t of a list of rewards: the reference form."""
    out = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def list_rewards(rewards, success, length):
    """A dialog's per-turn rewards as a list: its queries, then the guess."""
    guess = rewards.correct_guess if success else rewards.incorrect_guess
    return [rewards.per_query] * (length - 1) + [guess]


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return Corpus(generate_synthetic(SMALL_SYNTH))


@pytest.fixture(scope="session")
def small_split(small_corpus):
    return make_splits(small_corpus, SplitConfig(frequency_threshold=30, seed=1))


@pytest.fixture(scope="session")
def small_density(small_corpus, small_split):
    """The index Experiment builds for the small corpus and split."""
    rows = small_corpus.file_rows
    return DensityIndex(small_corpus.X[rows], rows, classifier_train_rows(small_split), k=10)


@pytest.fixture(scope="session")
def desk_agent():
    """The desk experiment and an agent after two static batches, fit as a batch start fits it.

    Shared read-only: tests that change a classifier change a clone.
    """
    base = load_config(DESK_CONFIG)
    cfg = dataclasses.replace(
        base,
        experiment=dataclasses.replace(
            base.experiment, init_batches=2, train_batches=1, test_batches=1
        ),
    )
    exp = Experiment(cfg)
    agent = Agent()
    plan = exp.phase_plan()[0]
    for batch in range(2):
        _, merged, outcomes = exp.run_batch(plan, 0, batch, agent, np.zeros(N_FEATURES))
        exp.apply_batch_end(agent, merged, outcomes)
    BatchSetup(exp, agent, [o.interaction for o in outcomes], READS_ALL)
    return exp, agent
