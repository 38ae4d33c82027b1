import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from oalsim.config import CorpusSource, ExperimentConfig, RunConfig, from_dict, load_config
from oalsim.corpus import SyntheticConfig
from oalsim.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


BASE = {
    "corpus": {"synthetic": {"n_regions": 120, "dim": 16, "n_predicates": 8, "seed": 3}},
    "split": {"frequency_threshold": 30, "seed": 1},
}


def test_minimal_config_uses_defaults():
    cfg = from_dict(json.loads(json.dumps(BASE)))
    assert cfg.rewards.correct_guess == 200.0
    assert cfg.beam.n_label == 3 and cfg.beam.n_example == 3
    assert cfg.triangular.w_min == 0.1
    assert cfg.episode.t_max == 40
    assert cfg.experiment.batch_size == 100
    assert cfg.policy.static_n_queries == 15


def test_unknown_section_rejected():
    data = dict(BASE, extra={"x": 1})
    with pytest.raises(ConfigError, match="extra"):
        from_dict(data)


def test_unknown_key_rejected():
    data = json.loads(json.dumps(BASE))
    data["split"]["typo_key"] = 5
    with pytest.raises(ConfigError, match="typo_key"):
        from_dict(data)


def test_missing_corpus_rejected():
    with pytest.raises(ConfigError, match="corpus"):
        from_dict({"split": {}})


@pytest.mark.parametrize(
    "section, value, where",
    [("policy", 5, "policy"), ("policy", "ab", "policy"),
     ("policy", [["learning_rate", 1e-4]], "policy"), ("corpus", 5, "corpus"),
     ("corpus", {"synthetic": 7}, "corpus.synthetic"), ("rewards", None, "rewards")],
)
def test_a_section_that_is_no_object_rejected(section, value, where):
    # dict() would raise TypeError or ValueError on these, or read a list of pairs
    data = json.loads(json.dumps(BASE))
    data[section] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}: must be an object"):
        from_dict(data)


def test_corpus_needs_exactly_one_source():
    with pytest.raises(ConfigError):
        from_dict({"corpus": {}})
    with pytest.raises(ConfigError):
        from_dict({"corpus": {"path": "x.jsonl", "synthetic": {"seed": 1}}})


def test_invalid_reward_is_config_error():
    data = json.loads(json.dumps(BASE))
    data["rewards"] = {"correct_guess": -5}
    with pytest.raises(ConfigError):
        from_dict(data)


def test_invalid_policy_kind():
    data = json.loads(json.dumps(BASE))
    data["experiment"] = {"policy_kind": "oracle"}
    with pytest.raises(ConfigError):
        from_dict(data)


def test_ablate_must_be_a_list():
    data = json.loads(json.dumps(BASE))
    data["experiment"] = {"ablate": ["guess"]}
    assert from_dict(data).experiment.ablate == ("guess",)
    data["experiment"] = {"ablate": "guess"}
    with pytest.raises(ConfigError, match="ablate"):
        from_dict(data)


def test_ablate_names_checked_at_config_build():
    data = json.loads(json.dumps(BASE))
    data["experiment"] = {"ablate": ["guess", "no_such_feature"]}
    with pytest.raises(ConfigError, match="^experiment.ablate: .*'no_such_feature'"):
        from_dict(data)
    with pytest.raises(ConfigError, match="^experiment.ablate: "):
        ExperimentConfig(ablate=("no_such_feature",))


def test_digest_stable_and_sensitive():
    a = from_dict(json.loads(json.dumps(BASE)))
    b = from_dict(json.loads(json.dumps(BASE)))
    assert a.digest() == b.digest()
    data = json.loads(json.dumps(BASE))
    data["experiment"] = {"master_seed": 123}
    c = from_dict(data)
    assert c.digest() != a.digest()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE))
    cfg = load_config(path)
    assert cfg.corpus.synthetic.n_regions == 120


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("iterations", 2.5),
        ("iterations", "150"),
        ("iterations", -1),
        ("iterations", True),
        ("folds", 2.5),
        ("folds", -2),
        ("knn_k", 1.5),
        ("knn_k", -1),
        ("step_size", 0.0),
        ("step_size", -0.5),
        ("step_size", "0.5"),
        ("step_size", float("nan")),
        ("step_decay", -0.5),
        ("l2", -0.01),
        ("l2", float("inf")),
    ],
)
def test_invalid_classifier_setting_rejected(key, value):
    # each of these used to pass loading and fail at the first batch end
    data = json.loads(json.dumps(BASE))
    data["classifier"] = {key: value}
    with pytest.raises(ConfigError, match=key):
        from_dict(data)


def test_classifier_boundary_settings_accepted():
    data = json.loads(json.dumps(BASE))
    data["classifier"] = {"iterations": 0, "folds": 0, "knn_k": 0, "step_decay": 0, "l2": 0}
    assert from_dict(data).classifier.iterations == 0


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("beam", "n_label", 2.5),
        ("beam", "n_label", -1),
        ("beam", "n_label", "3"),
        ("beam", "n_example", 1.5),
        ("beam", "n_example", True),
        ("episode", "t_max", 2.5),
        ("episode", "t_max", 0),
        ("episode", "active_train_size", -3),
        ("episode", "active_train_size", 8.0),
        ("episode", "active_test_size", 0),
        ("episode", "active_test_size", 2.5),
        ("policy", "static_n_queries", 2.5),
        ("policy", "static_n_queries", -1),
        ("experiment", "batch_size", 2.5),
        ("experiment", "init_batches", 0),
        ("experiment", "master_seed", 1.5),
        ("experiment", "master_seed", "abc"),
        ("experiment", "master_seed", True),
        ("split", "seed", 2.5),
        ("split", "frequency_threshold", "abc"),
        ("split", "frequency_threshold", -1),
        ("split", "classifier_split", 1.5),
        ("split", "classifier_split", "abc"),
        ("split", "test_fraction_of_frequent", 0.0),
        ("split", "test_fraction_of_frequent", float("nan")),
        ("episode", "immediate_updates", "false"),
        ("episode", "immediate_updates", 1),
        ("policy", "use_baseline", "no"),
        ("policy", "use_baseline", None),
        ("policy", "learning_rate", True),
        ("policy", "learning_rate", "1e-3"),
        ("policy", "learning_rate", float("inf")),
        ("policy", "learning_rate", 0.0),
        ("policy", "learning_rate_decay", "fast"),
        ("policy", "learning_rate_decay", -3),
        ("policy", "learning_rate_decay", float("nan")),
        ("rewards", "discount", True),
        ("rewards", "correct_guess", float("inf")),
        ("rewards", "incorrect_guess", "-100"),
        ("rewards", "per_query", float("-inf")),
        ("triangular", "w_min", "0.1"),
        ("triangular", "w_max", float("inf")),
        ("triangular", "c_max", False),
    ],
)
def test_invalid_integer_setting_rejected(section, key, value):
    # beam, episode and policy integers used to be checked for range only, or not at
    # all; flags and reals were not checked, so the string "false" switched a flag on
    # and a bool ran as 0 or 1
    data = json.loads(json.dumps(BASE))
    data[section] = {key: value}
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        from_dict(data)


def test_unknown_corpus_format_rejected():
    # "xml" used to load and fail only when the corpus was read (exit 3)
    for value in ("xml", None):
        with pytest.raises(ConfigError, match="corpus.format"):
            from_dict({"corpus": {"path": "corpus.jsonl", "format": value}})
    assert from_dict({"corpus": {"path": "c.csv", "format": "tabular"}}).corpus.format == "tabular"


def test_integer_boundary_settings_accepted():
    data = json.loads(json.dumps(BASE))
    data["beam"] = {"n_label": 0, "n_example": 0}
    data["episode"] = {"t_max": 1, "active_train_size": 0, "active_test_size": 1}
    data["episode"]["immediate_updates"] = True
    data["policy"] = {"static_n_queries": 0, "learning_rate": 1, "learning_rate_decay": 0}
    data["experiment"] = {"master_seed": -5}
    data["split"] = {"frequency_threshold": 0, "seed": -1}
    data["rewards"] = {"discount": 1, "correct_guess": 5}
    cfg = from_dict(data)
    assert (cfg.beam.n_label, cfg.episode.t_max, cfg.policy.static_n_queries) == (0, 1, 0)
    assert (cfg.experiment.master_seed, cfg.split.seed) == (-5, -1)
    assert cfg.episode.immediate_updates
    assert cfg.policy.learning_rate_decay == 0 and cfg.rewards.discount == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 3.5),
        ("seed", True),
        ("n_regions", 120.5),
        ("n_regions", "120"),
        ("dim", 16.0),
        ("n_predicates", 8.5),
        ("n_predicates", True),
        ("description_length", [1, 2.5]),
        ("description_length", [1, 2, 3]),
        ("description_length", 2),
        ("coverage", [0.1, "0.3"]),
        ("coverage", [0.1, float("nan")]),
        ("coverage", [True, 0.3]),
        ("coverage", [0.1]),
        ("n_regions", 5),
        ("dim", 0),
        ("n_predicates", 0),
        ("seed", None),
        ("coverage", [0.3, 0.1]),
        ("description_length", [0, 3]),
    ],
)
def test_invalid_synthetic_setting_rejected(key, value):
    # the section used to be coerced with int()/float() or not checked at all, so
    # seed 3.5 ran as seed 3 and n_regions 120.5 failed inside generation
    data = json.loads(json.dumps(BASE))
    data["corpus"]["synthetic"][key] = value
    with pytest.raises(ConfigError, match=key):
        from_dict(data)


def test_synthetic_boundary_settings_accepted():
    data = json.loads(json.dumps(BASE))
    data["corpus"]["synthetic"].update(
        n_regions=12, dim=1, n_predicates=1, seed=-4,
        coverage=[0.2, 0.2], description_length=[2, 2],
    )
    synthetic = from_dict(data).corpus.synthetic
    assert (synthetic.n_regions, synthetic.dim, synthetic.seed) == (12, 1, -4)
    assert synthetic.coverage == (0.2, 0.2) and synthetic.description_length == (2, 2)


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_readme_config_reference_lists_each_section_s_fields():
    # the reference block is jsonc: its one comment lists the synthetic corpus keys
    block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
    code, comments = [], []
    for line in block.splitlines():
        body, _, comment = line.partition("//")
        code.append(body)
        comments.append(comment)
    reference = json.loads("\n".join(code))
    sections = typing.get_type_hints(RunConfig)
    assert set(reference) == set(sections)
    for name, keys in reference.items():
        want = _field_names(sections[name]) - ({"synthetic"} if name == "corpus" else set())
        assert set(keys) == want, name
    alternative = set(re.findall(r'"(\w+)"', " ".join(comments)))
    assert alternative == {"synthetic"} | _field_names(SyntheticConfig)
    assert "synthetic" in _field_names(CorpusSource)
