import json

import pytest

from oalsim.config import from_dict, load_config
from oalsim.errors import ConfigError


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


def test_ablate_names_checked_at_experiment_build(small_corpus, small_split, small_density):
    from oalsim.harness import Experiment
    from conftest import small_run_config

    cfg = small_run_config(ablate=("no_such_feature",))
    with pytest.raises(ConfigError):
        Experiment(cfg, small_corpus, small_split, small_density)


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
        ("density_avg_sample", 2.5),
        ("density_avg_sample", -1),
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
    data["classifier"] = {"iterations": 0, "folds": 0, "knn_k": 0, "step_decay": 0, "l2": 0,
                          "density_avg_sample": None}
    assert from_dict(data).classifier.iterations == 0
    data["classifier"] = {"density_avg_sample": 50}
    assert from_dict(data).classifier.density_avg_sample == 50


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
    ],
)
def test_invalid_integer_setting_rejected(section, key, value):
    # beam, episode and policy integers used to be checked for range only, or not at all
    data = json.loads(json.dumps(BASE))
    data[section] = {key: value}
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        from_dict(data)


def test_integer_boundary_settings_accepted():
    data = json.loads(json.dumps(BASE))
    data["beam"] = {"n_label": 0, "n_example": 0}
    data["episode"] = {"t_max": 1, "active_train_size": 0, "active_test_size": 1}
    data["policy"] = {"static_n_queries": 0}
    data["experiment"] = {"master_seed": -5}
    data["split"] = {"frequency_threshold": 0, "seed": -1}
    cfg = from_dict(data)
    assert (cfg.beam.n_label, cfg.episode.t_max, cfg.policy.static_n_queries) == (0, 1, 0)
    assert (cfg.experiment.master_seed, cfg.split.seed) == (-5, -1)


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 3.5),
        ("seed", True),
        ("n_regions", 120.5),
        ("n_regions", "120"),
        ("dim", 16.0),
        ("n_predicates", 8.5),
        ("max_resamples", 2.5),
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
        ("max_resamples", 0),
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
        n_regions=12, dim=1, n_predicates=1, seed=-4, max_resamples=1,
        coverage=[0.2, 0.2], description_length=[2, 2],
    )
    synthetic = from_dict(data).corpus.synthetic
    assert (synthetic.n_regions, synthetic.dim, synthetic.seed) == (12, 1, -4)
    assert synthetic.coverage == (0.2, 0.2) and synthetic.description_length == (2, 2)
