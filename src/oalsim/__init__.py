"""Opportunistic active learning dialog simulator.

An agent plays episodic object-retrieval dialogs: it may query an oracle about
objects in an active training set (yes/no predicate labels, or requests for a
positive example) before guessing which active-test object a description
refers to. Per-predicate linear classifiers ground the description; a softmax
policy over state-action features, trained with REINFORCE, decides when to
query and when to guess.
"""

__version__ = "0.1.0"

from .config import RunConfig, from_dict, load_config
from .corpus import (
    Corpus,
    CorpusSplit,
    Interaction,
    Region,
    SplitConfig,
    SyntheticConfig,
    extract_predicates,
    generate_synthetic,
    load_regions,
    make_splits,
    sample_interaction,
)
from .dialog import Episode, RewardConfig, rewards_and_returns
from .features import FeatureContext, N_FEATURES, REGISTRY, featurize, resolve_mask
from .grounding import GuessScores, score_objects
from .harness import (
    Agent,
    BatchMetrics,
    Experiment,
    RunResult,
    checkpoint_load,
    checkpoint_save,
    run_ablation,
)
from .perception import (
    ClassifierConfig,
    DensityIndex,
    PredicateModel,
    estimate_f1,
    train_classifier,
)
from .policy import (
    AgentStats,
    action_probabilities,
    grad_log_prob,
    learning_rate_at,
    reinforce_update,
    running_mean,
    sample_action,
)
from .querygen import (
    BeamConfig,
    SamplingCDF,
    TriangularWeights,
    best_object_for_predicate,
    build_beam,
    sample_predicates,
    static_policy_act,
)
from .stats import one_sample_t_test, welch_t_test
