import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oalsim.agent import Agent
from oalsim.config import CorpusSource, ExperimentConfig, PolicyConfig, RunConfig, load_config
from oalsim.corpus import Corpus, SplitConfig, SyntheticConfig, generate_synthetic, make_splits
from oalsim.features import N_FEATURES
from oalsim.harness import Experiment, RunResult
from oalsim.perception import DensityIndex

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


def desk_run(cfg: RunConfig) -> RunResult:
    """Experiment(cfg).run(), at module level so that spawned worker processes can import it."""
    return Experiment(cfg).run()


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
    """The desk experiment and an agent after two static batches and their refits.

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
    return exp, agent
