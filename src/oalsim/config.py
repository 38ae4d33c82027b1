"""Declarative run configuration with a strict schema.

A run is described by one JSON document, into which the command line writes
each --set. Unknown keys are errors, so typos in ablation names or section
keys fail before any computation. Precedence is --set > config file > defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .corpus import LOADERS, SplitConfig, SyntheticConfig
from .dialog import RewardConfig
from .errors import ConfigError, check_bool, check_int, check_real
from .perception import ClassifierConfig
from .querygen import BeamConfig, TriangularWeights

POLICY_KINDS = ("learned", "static")


@dataclass(frozen=True)
class CorpusSource:
    path: str | None = None
    format: str = "annotation-json"
    synthetic: SyntheticConfig | None = None

    def __post_init__(self):
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError("corpus source needs exactly one of 'path' or 'synthetic'")
        if self.format not in LOADERS:
            raise ConfigError(
                f"corpus.format must be {' or '.join(map(repr, LOADERS))}, got {self.format!r}"
            )


@dataclass(frozen=True)
class PolicyConfig:
    learning_rate: float = 1e-3
    learning_rate_decay: float = 0.0
    use_baseline: bool = False
    static_n_queries: int = 15

    def __post_init__(self):
        check_real("policy.learning_rate", self.learning_rate)
        check_real("policy.learning_rate_decay", self.learning_rate_decay)
        if self.learning_rate <= 0:
            raise ConfigError(f"policy.learning_rate must be > 0, got {self.learning_rate}")
        if self.learning_rate_decay < 0:
            raise ConfigError(
                f"policy.learning_rate_decay must be >= 0, got {self.learning_rate_decay}"
            )
        check_bool("policy.use_baseline", self.use_baseline)
        check_int("policy.static_n_queries", self.static_n_queries, 0)


@dataclass(frozen=True)
class EpisodeConfig:
    t_max: int = 40
    active_train_size: int = 8
    active_test_size: int = 4
    immediate_updates: bool = False

    def __post_init__(self):
        check_int("episode.t_max", self.t_max, 1)
        check_int("episode.active_train_size", self.active_train_size, 0)
        check_int("episode.active_test_size", self.active_test_size, 1)
        check_bool("episode.immediate_updates", self.immediate_updates)


@dataclass(frozen=True)
class ExperimentConfig:
    init_batches: int = 10
    train_batches: int = 10
    test_batches: int = 10
    batch_size: int = 100
    master_seed: int = 0
    policy_kind: str = "learned"
    ablate: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("init_batches", "train_batches", "test_batches", "batch_size"):
            check_int(f"experiment.{name}", getattr(self, name), 1)
        check_int("experiment.master_seed", self.master_seed)
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigError(f"policy_kind must be one of {POLICY_KINDS}")


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusSource
    split: SplitConfig = field(default_factory=SplitConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    triangular: TriangularWeights = field(default_factory=TriangularWeights)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["experiment"]["ablate"] = list(self.experiment.ablate)
        return out

    def digest(self) -> str:
        """Hash of the config; every field of it defines the run's behavior."""
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


def _build(cls, data: dict, where: str, coercions: dict | None = None):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object, got {data!r}")
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = dict(data)
    for key, fn in (coercions or {}).items():
        if key in kwargs:
            kwargs[key] = fn(kwargs[key])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _json_pair(value):
    # a JSON array becomes the tuple a frozen config holds; SyntheticConfig checks the rest
    return tuple(value) if isinstance(value, list) else value


def _synthetic(value) -> SyntheticConfig:
    pairs = {"coverage": _json_pair, "description_length": _json_pair}
    return _build(SyntheticConfig, value, "corpus.synthetic", coercions=pairs)


def _ablate_names(value) -> tuple[str, ...]:
    # tuple("guess") would split a bare name into letters
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"experiment: ablate must be a list of names, got {value!r}")
    return tuple(value)


def from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"config: unknown sections {sorted(unknown)}")
    if "corpus" not in data:
        raise ConfigError("config: missing 'corpus' section")

    corpus = _build(CorpusSource, data["corpus"], "corpus", coercions={"synthetic": _synthetic})

    def section(name, cls, coercions=None):
        return _build(cls, data.get(name, {}), name, coercions)

    return RunConfig(
        corpus=corpus,
        split=section("split", SplitConfig),
        rewards=section("rewards", RewardConfig),
        beam=section("beam", BeamConfig),
        triangular=section("triangular", TriangularWeights),
        classifier=section("classifier", ClassifierConfig),
        policy=section("policy", PolicyConfig),
        episode=section("episode", EpisodeConfig),
        experiment=section(
            "experiment", ExperimentConfig, coercions={"ablate": _ablate_names}
        ),
    )


def read_config(path) -> dict:
    """The JSON document of a config file, not yet validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path) -> RunConfig:
    return from_dict(read_config(path))
