import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oalsim.agent import Agent
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
from oalsim.harness import BatchSetup, Experiment, FeatureReads, RunResult, ground
from oalsim.perception import DensityIndex
from oalsim.querygen import TriangularWeights
from oalsim.snapshot import BatchRows, EpisodeView

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


def episode_view(models, predicates, active_train, active_test, X, params=TriangularWeights()):
    """The view of a batch of one episode that holds exactly these predicates.

    `models` maps predicates to their classifiers; a predicate it lacks has none.
    """
    interaction = Interaction(tuple(active_train), tuple(active_test), -1, ())
    return EpisodeView(BatchRows(models, predicates, [interaction], X, params), 0)


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


def _record_dialogs(monkeypatch, keep) -> list:
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
def live_transcripts(monkeypatch) -> list:
    """Each dialog's live `Episode.transcript`, in play order.

    A batch's outcomes keep no actions, so tests that read the actions or
    rewards of a dialog read them here.
    """
    return _record_dialogs(monkeypatch, lambda outcome, episode, turns: episode.transcript)


@pytest.fixture
def live_turns(monkeypatch) -> list:
    """Each dialog's turns as run_episode returns them, in play order.

    In a phase that updates the policy a dialog's turns are one (beam
    features, chosen index, probabilities) triple per step, else none. A
    batch's outcomes keep no beams, so tests that read them read them here.
    The caller clears the list to drop the beams.
    """
    return _record_dialogs(monkeypatch, lambda outcome, episode, turns: turns)


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return Corpus(generate_synthetic(SMALL_SYNTH))


@pytest.fixture(scope="session")
def small_split(small_corpus):
    return make_splits(small_corpus, SplitConfig(frequency_threshold=30, seed=1))


@pytest.fixture(scope="session")
def small_density(small_corpus):
    rows = small_corpus.file_rows
    return DensityIndex(small_corpus.X[rows], rows, k=10)


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
