import csv
import dataclasses
import hashlib
import json
import re

import pytest

from oalsim.cli import main
from oalsim.corpus import Corpus, SyntheticConfig, load_regions

from conftest import DESK_CONFIG


SMALL_SYNTH = {"n_regions": 120, "dim": 16, "n_predicates": 8, "seed": 3}
SMALL_CONFIG = {
    "corpus": {"synthetic": SMALL_SYNTH},
    "split": {"frequency_threshold": 30, "seed": 1},
    "policy": {"learning_rate": 3e-6},
    "experiment": {
        "init_batches": 1,
        "train_batches": 1,
        "test_batches": 1,
        "batch_size": 10,
        "master_seed": 11,
    },
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def resume_tampered(tmp_path, config_path, capsys, edit, name="checkpoint_p0_b0.json") -> dict:
    """Resume from checkpoint `name` of a run after `edit` changes it; its one error line.

    The resume must exit 4, print one JSON error line and no traceback, and
    write no summary.
    """
    full = tmp_path / "full"
    assert main(["run", "--config", str(config_path), "--out", str(full), "--checkpoints"]) == 0
    ck = full / "checkpoints" / name
    state = json.loads(ck.read_text())
    edit(state)
    ck.write_text(json.dumps(state))
    capsys.readouterr()
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "resumed"),
                 "--resume", str(ck)])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "CheckpointError"
    assert not (tmp_path / "resumed" / "summary.json").exists()
    return error


class TestGenData:
    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        args = ["gen-data", "--set", "corpus.synthetic.n_regions=40", "--set",
                "corpus.synthetic.dim=8", "--set", "corpus.synthetic.n_predicates=4", "--set",
                "corpus.synthetic.seed=7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "corpus.jsonl").read_bytes() == (out2 / "corpus.jsonl").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert "corpus_fingerprint" in manifest

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "c"
        args = ["gen-data", "--set", "corpus.synthetic.n_regions=40", "--set",
                "corpus.synthetic.dim=8", "--set", "corpus.synthetic.n_predicates=4",
                "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "force" in err["message"]
        assert main(args + ["--force"]) == 0

    def test_too_small_corpus_is_data_error(self, tmp_path):
        assert main(["gen-data", "--set", "corpus.synthetic.n_regions=5",
                     "--out", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize("config", [[], ["--config", str(DESK_CONFIG)]])
    def test_writes_desk_s_corpus_file_byte_for_byte(self, tmp_path, config):
        # the sha256 of the file that the per-field flags' defaults wrote
        out = tmp_path / "c"
        assert main(["gen-data", *config, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest() == (
            "401afe0643270d8ec43d895445bab19cfd60ce17f164342be7b8598cf05508e7"
        )

    @pytest.mark.parametrize(
        "setting",
        ["corpus.synthetic.n_regions=5", "corpus.synthetic.coverage=[0.5,0.2]",
         "triangular.w_min=2", "rewards.discount=0"],
    )
    def test_a_bad_setting_is_the_config_error_run_reports(self, tmp_path, capsys, setting):
        # the two corpus settings were a GenerationError from gen-data, exit 3
        errors = []
        for command in (["run", "--config", str(DESK_CONFIG)], ["gen-data"]):
            out = tmp_path / command[0]
            assert main([*command, "--set", setting, "--out", str(out)]) == 2
            errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0]["error"] == "ConfigError"
        assert setting.split("=")[0].rsplit(".", 1)[0] in errors[0]["message"]

    def test_refuses_a_path_corpus(self, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "corpus": {"path": "corpus.jsonl"}}))
        out = tmp_path / "c"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_options_are_those_of_a_run_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen-data", "--help"])
        options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert options == {"-h", "--help", "--config", "--set", "--out", "--force"}

    def test_defaults_are_the_synthetic_config_defaults(self, tmp_path):
        out = tmp_path / "c"
        assert main(["gen-data", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = json.loads(json.dumps(dataclasses.asdict(SyntheticConfig())))
        assert manifest["config"] == expected


class TestFileCorpora:
    # gen-data's file of desk's synthetic corpus, and a CSV of the same
    # regions, must load to desk's corpus and run as it does
    DESK_FINGERPRINT = "73253c2ebaba60b5b46b2b2c80bae5ca405945528f13a4ebb8bb083b77d248fd"

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("file_corpora")
        assert main(["gen-data", "--config", str(DESK_CONFIG), "--out", str(root)]) == 0
        jsonl = root / "corpus.jsonl"
        regions = load_regions(jsonl)
        dim = len(regions[0].features)
        tabular = root / "corpus.csv"
        with open(tabular, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", *(f"f{j}" for j in range(dim)), "annotations", "description"])
            for r in regions:
                writer.writerow([r.id, *map(repr, r.features.tolist()),
                                 "|".join(sorted(r.annotations)),
                                 " ".join(r.description_predicates)])
        return {"annotation-json": jsonl, "tabular": tabular}

    @pytest.mark.parametrize("fmt", ["annotation-json", "tabular"])
    def test_a_file_loads_to_the_desk_corpus(self, files, fmt):
        assert Corpus(load_regions(files[fmt], fmt)).fingerprint == self.DESK_FINGERPRINT

    def test_a_run_from_the_file_writes_the_synthetic_metrics(self, files, tmp_path):
        desk = json.loads(DESK_CONFIG.read_text())
        desk["experiment"] = {**SMALL_CONFIG["experiment"], **desk["experiment"]}  # desk's seed
        outs = []
        for name, corpus in (("synthetic", desk["corpus"]),
                             ("file", {"path": str(files["annotation-json"])})):
            path, out = tmp_path / f"{name}.json", tmp_path / name
            path.write_text(json.dumps({**desk, "corpus": corpus}))
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, config_path):
        out = tmp_path / "run1"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # header + one batch per phase
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy_kind"] == "learned"
        assert len(summary["final_test_batch"]["success_indicators"]) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 11
        registry = json.loads((out / "feature_registry.json").read_text())
        assert registry[0]["index"] == 0

    def test_metrics_identical_across_invocations(self, tmp_path, config_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", "--config", str(config_path), "--out", str(out1)])
        main(["run", "--config", str(config_path), "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_policy_flag_dispatch(self, tmp_path, config_path):
        out = tmp_path / "static"
        assert main(["run", "--config", str(config_path), "--out", str(out),
                     "--set", "experiment.policy_kind=static"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy_kind"] == "static"
        # static arm keeps the 16-turn shape whenever query candidates exist
        assert summary["final_test_batch"]["mean_length"] <= 16.0

    def test_flag_overrides_beat_config(self, tmp_path, config_path):
        out = tmp_path / "seeded"
        assert main(["run", "--config", str(config_path), "--out", str(out),
                     "--set", "experiment.master_seed=9", "--set", "experiment.master_seed=77",
                     "--set", "policy.learning_rate=1e-05"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 77
        assert manifest["config"]["policy"]["learning_rate"] == 1e-05

    def test_invalid_reward_override_is_config_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "bad"
        code = main(["run", "--config", str(config_path), "--out", str(out),
                     "--set", "rewards.correct_guess=-5"])
        assert code == 2
        assert not (out / "metrics.csv").exists()

    def test_a_section_override_that_is_no_object_is_config_error(
        self, tmp_path, config_path, capsys
    ):
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "bad"),
                     "--set", "policy=5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err.strip().splitlines()[-1])
        assert error["error"] == "ConfigError" and "policy" in error["message"]

    @pytest.mark.parametrize(
        "document, flags, named",
        [([1, 2], [], "root"), ([1, 2], ["--set", "experiment.master_seed=5"], "root"),
         ({**SMALL_CONFIG, "experiment": [1]}, ["--set", "experiment.master_seed=5"],
          "experiment"),
         ({**SMALL_CONFIG, "experiment": [1]}, ["--set", "experiment.policy_kind=static"],
          "experiment"),
         ({**SMALL_CONFIG, "experiment": [1]}, ["--set", 'experiment.ablate=["guess"]'],
          "experiment")],
        ids=["root-list", "root-list-seed", "experiment-list-seed", "experiment-list-policy",
             "experiment-list-ablate"],
    )
    def test_flags_on_a_config_that_is_no_object_are_config_errors(
        self, tmp_path, capsys, document, flags, named
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(document))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "bad"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError" and named in error["message"]
        assert not (tmp_path / "bad").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "missing.json" in err["message"]

    def test_unforeseen_exception_is_runtime_failure(
        self, tmp_path, config_path, capsys, monkeypatch
    ):
        def broken(config):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("oalsim.harness.build_corpus", broken)
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "RuntimeError", "message": "disk on fire"}

    def test_invalid_classifier_setting_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        def unreachable(config):
            raise RuntimeError("corpus built for an invalid config")

        monkeypatch.setattr("oalsim.harness.build_corpus", unreachable)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "classifier": {"iterations": 2.5}}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "iterations" in err["message"]

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("beam", "n_label", 2.5),
            ("episode", "active_train_size", -3),
            ("episode", "t_max", 2.5),
            ("policy", "static_n_queries", 2.5),
            ("experiment", "master_seed", 1.5),
            ("experiment", "master_seed", "abc"),
            ("split", "seed", 2.5),
            ("split", "frequency_threshold", "abc"),
            ("split", "classifier_split", 1.5),
            ("split", "test_fraction_of_frequent", 1.5),
            ("corpus", "synthetic", {**SMALL_SYNTH, "seed": 3.5}),
            ("corpus", "synthetic", {**SMALL_SYNTH, "n_regions": 120.5}),
            ("corpus", "synthetic", {**SMALL_SYNTH, "description_length": [1, 2.5]}),
            ("corpus", "synthetic", {**SMALL_SYNTH, "coverage": [0.1, "0.3"]}),
            ("corpus", "synthetic", {**SMALL_SYNTH, "n_regions": 5}),
            ("episode", "immediate_updates", "false"),
            ("policy", "learning_rate_decay", "fast"),
            ("rewards", "correct_guess", float("inf")),
        ],
    )
    def test_invalid_integer_setting_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, section, key, value
    ):
        def unreachable(config):
            raise RuntimeError("corpus built for an invalid config")

        monkeypatch.setattr("oalsim.harness.build_corpus", unreachable)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, section: {key: value}}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert f"{section}.{key}" in err["message"]

    def test_unknown_ablation_name_is_config_error(self, tmp_path, config_path):
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "x"),
                     "--set", 'experiment.ablate=["bogus_feature"]']) == 2

    @pytest.mark.parametrize("flag", [["--master-seed", "5"], ["--policy", "static"],
                                      ["--ablate", "guess"]])
    def test_a_setting_has_no_flag_but_set(self, tmp_path, config_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config_path), "--out", str(tmp_path / "x"), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_options_are_the_config_the_settings_and_the_outputs(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert options == {"-h", "--help", "--config", "--out", "--set", "--checkpoints",
                           "--resume", "--export-transcripts"}

    def test_resume_from_checkpoint(self, tmp_path, config_path):
        full = tmp_path / "full"
        assert main(["run", "--config", str(config_path), "--out", str(full),
                     "--checkpoints"]) == 0
        resumed = tmp_path / "resumed"
        ck = full / "checkpoints" / "checkpoint_p1_b0.json"
        assert main(["run", "--config", str(config_path), "--out", str(resumed),
                     "--resume", str(ck)]) == 0
        assert (full / "metrics.csv").read_bytes() == (resumed / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("content", [None, "{not json", "[]"],
                             ids=["missing", "corrupt", "no-version"])
    def test_an_unreadable_checkpoint_fails_before_the_experiment_is_built(
        self, tmp_path, config_path, capsys, monkeypatch, content
    ):
        # the corpus and its O(N^2) density index are never built for a bad --resume
        def unreachable(config):
            raise AssertionError("Experiment built before the checkpoint was read")

        monkeypatch.setattr("oalsim.cli.Experiment", unreachable)
        ck = tmp_path / "checkpoint.json"
        if content is not None:
            ck.write_text(content)
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "resumed"),
                     "--resume", str(ck)])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "CheckpointError"
        assert not (tmp_path / "resumed").exists()

    def test_resume_refuses_a_label_for_a_region_not_in_the_corpus(
        self, tmp_path, config_path, capsys
    ):
        def edit(state):
            labels = state["labels"]
            assert labels
            for rids in labels.values():
                rids.append("not-a-region")

        error = resume_tampered(tmp_path, config_path, capsys, edit)
        assert "not-a-region" in error["message"]

    def test_resume_refuses_a_changed_corpus_file(self, tmp_path, capsys):
        # a path corpus can change under an unchanged config
        assert main(["gen-data", "--set", "corpus.synthetic.n_regions=120", "--set",
                     "corpus.synthetic.dim=16", "--set", "corpus.synthetic.n_predicates=8",
                     "--set", "corpus.synthetic.seed=3", "--out", str(tmp_path / "data")]) == 0
        corpus = tmp_path / "data" / "corpus.jsonl"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "corpus": {"path": str(corpus)}}))
        full = tmp_path / "full"
        assert main(["run", "--config", str(config), "--out", str(full), "--checkpoints"]) == 0
        lines = corpus.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["features"][0] += 1.0
        corpus.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
        capsys.readouterr()
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "resumed"),
                     "--resume", str(full / "checkpoints" / "checkpoint_p0_b0.json")])
        assert code == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "CheckpointError"
        assert "corpus" in error["message"]

    @pytest.mark.parametrize(
        "field, value",
        [("labels", {"red": {"r1": 1}}), ("theta", [0.0] * 3), ("theta", [float("nan")] * 28),
         ("metrics", [{"phase": "init", "batch": 0}])],
    )
    def test_resume_refuses_a_malformed_checkpoint(
        self, tmp_path, config_path, capsys, field, value
    ):
        error = resume_tampered(
            tmp_path, config_path, capsys, lambda state: state.__setitem__(field, value)
        )
        assert field in error["message"]

    @pytest.mark.parametrize(
        "edit, match",
        [(lambda state: state.update(version="oalsim-checkpoint/2"), "version"),
         (lambda state: state["metrics"][1].update(batch=True), "batch"),
         (lambda state: state["metrics"][1].update(batch=1.0), "batch")],
        ids=["v2", "batch-true", "batch-float"],
    )
    def test_resume_refuses_a_v2_checkpoint_or_a_batch_index_that_is_not_an_int(
        self, tmp_path, capsys, edit, match
    ):
        # two init batches: the checkpoint after the second lists batch 1, which
        # true and 1.0 equal
        config = tmp_path / "run.json"
        experiment = {**SMALL_CONFIG["experiment"], "init_batches": 2}
        config.write_text(json.dumps({**SMALL_CONFIG, "experiment": experiment}))
        error = resume_tampered(tmp_path, config, capsys, edit, "checkpoint_p0_b1.json")
        assert match in error["message"]

    @pytest.mark.parametrize(
        "key, value",
        [("success_rate", "abc"), ("mean_length", float("nan")), ("success_indicators", [2]),
         ("lengths", [0]), ("label_counts", {"red": -1}), ("label_counts", {"red": True}),
         ("label_counts", [1])],
    )
    def test_resume_refuses_a_malformed_metrics_row(
        self, tmp_path, config_path, capsys, key, value
    ):
        def edit(state):
            state["metrics"][0][key] = value

        error = resume_tampered(tmp_path, config_path, capsys, edit)
        assert key in error["message"]

    def test_resume_refuses_a_v3_checkpoint(self, tmp_path, config_path, capsys):
        # oalsim-checkpoint/4 stored the cursor, each label's sign and the usage
        # stats; oalsim-checkpoint/3 also the master seed, the REINFORCE
        # counters and baseline, and each model's weights and F1
        def v4(state):
            labels = state.pop("labels")
            state.update(
                version="oalsim-checkpoint/4", cursor=[0, 1],
                agent={"models": {p: dict.fromkeys(rids, 1) for p, rids in labels.items()},
                       "stats": {"used": {}, "succeeded": {}, "dialogs": 0}},
            )

        def v3(state):
            v4(state)
            state.update(version="oalsim-checkpoint/3", master_seed=11, baseline_mean=0.0,
                         baseline_count=10, update_counter=1)
            models = state["agent"]["models"]
            for p, labels in models.items():
                models[p] = {"labels": labels, "weights": None, "f1": 0.0}

        for edit, version in ((v4, "oalsim-checkpoint/4"), (v3, "oalsim-checkpoint/3")):
            error = resume_tampered(tmp_path / version[-1], config_path, capsys, edit)
            assert "version" in error["message"] and version in error["message"]

    @pytest.mark.parametrize(
        "line, problem",
        [("{not json\n", "JSONDecodeError"), ('{"turn": 0}\n', "KeyError"),
         ('{"episode": "warmup/0/0"}\n', "ValueError")],
        ids=["not-json", "no-episode", "unknown-phase"],
    )
    def test_resume_refuses_a_transcript_line_it_cannot_read(
        self, tmp_path, config_path, capsys, line, problem
    ):
        # a resume reads the records of the batches before its checkpoint to keep them
        out = tmp_path / "run"
        args = ["run", "--config", str(config_path), "--out", str(out), "--export-transcripts"]
        assert main([*args, "--checkpoints"]) == 0
        transcripts = out / "transcripts.jsonl"
        records = transcripts.read_text().splitlines(keepends=True)
        assert json.loads(records[1])["episode"] == "init/0/0"
        records[1] = line
        transcripts.write_text("".join(records))
        (out / "summary.json").unlink()
        capsys.readouterr()
        code = main([*args, "--resume", str(out / "checkpoints" / "checkpoint_p1_b0.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "CheckpointError"
        assert f"{transcripts} line 2 " in error["message"] and problem in error["message"]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("cut", ["missing-batch", "ends-early", "empty"])
    def test_resume_refuses_a_transcript_missing_records_it_keeps(
        self, tmp_path, config_path, capsys, cut
    ):
        # a resume from train batch 0's checkpoint keeps every record of the
        # init and train batches; a file that lacks one is left as it is
        out = tmp_path / "run"
        args = ["run", "--config", str(config_path), "--out", str(out), "--export-transcripts"]
        assert main([*args, "--checkpoints"]) == 0
        transcripts = out / "transcripts.jsonl"
        records = transcripts.read_text().splitlines(keepends=True)
        episodes = [json.loads(record)["episode"] for record in records]
        first_test = episodes.index("test/0/0")
        if cut == "missing-batch":
            records = [r for r, e in zip(records, episodes) if not e.startswith("train/0/")]
            missing = "train/0/0"
        elif cut == "ends-early":  # inside the last dialog before the resume point
            records, missing = records[: first_test - 1], episodes[first_test - 1]
        else:
            records, missing = [], "init/0/0"
        transcripts.write_text("".join(records))
        capsys.readouterr()
        code = main([*args, "--resume", str(out / "checkpoints" / "checkpoint_p1_b0.json")])
        assert code == 4
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "CheckpointError"
        assert str(transcripts) in error["message"] and repr(missing) in error["message"]
        assert transcripts.read_text() == "".join(records)

    def test_resume_without_a_transcript_file_starts_one(self, tmp_path, config_path):
        # a resume that finds no transcript file writes the batches it plays
        out = tmp_path / "run"
        args = ["run", "--config", str(config_path), "--out", str(out), "--export-transcripts"]
        assert main([*args, "--checkpoints"]) == 0
        transcripts = out / "transcripts.jsonl"
        records = transcripts.read_text().splitlines(keepends=True)
        transcripts.unlink()
        assert main([*args, "--resume", str(out / "checkpoints" / "checkpoint_p1_b0.json")]) == 0
        rest = [r for r in records if json.loads(r)["episode"].startswith("test/")]
        assert transcripts.read_text() == "".join(rest)

    def test_export_transcripts(self, tmp_path, config_path):
        out = tmp_path / "tr"
        assert main(["run", "--config", str(config_path), "--out", str(out),
                     "--export-transcripts"]) == 0
        assert (out / "transcripts.jsonl").exists()


REPORT_FINAL = {"success_rate": 0.5, "mean_length": 4.5,
                "success_indicators": [1, 0, 1, 0], "lengths": [3, 5, 4, 6]}
# final-test-batch fields present but of a kind no run writes
BAD_FINAL_FIELDS = [
    ("lengths", "ab"), ("lengths", [3, 5, 4]), ("lengths", [3, 0, 4, 6]),
    ("lengths", [3, 5.0, 4, 6]), ("lengths", [3, True, 4, 6]), ("lengths", None),
    ("success_indicators", [1, 0, 2, 0]), ("success_indicators", [True, False, True, False]),
    ("success_indicators", "1010"), ("success_indicators", {"0": 1}),
    ("success_rate", "0.5"), ("success_rate", True), ("success_rate", None),
    ("mean_length", float("nan")), ("mean_length", [4.5]),
]


def report_summary(final, fingerprint="AAA") -> str:
    """The fields of a run's summary.json that report reads."""
    return json.dumps({"corpus_fingerprint": fingerprint, "final_test_batch": final})


def write_run(run, final, fingerprint="AAA") -> str:
    """A run directory that holds only the summary.json report reads; its path."""
    run.mkdir()
    (run / "summary.json").write_text(report_summary(final, fingerprint))
    return str(run)


class TestReport:
    def _run(self, config_path, out, *extra):
        assert main(["run", "--config", str(config_path), "--out", str(out), *extra]) == 0

    def test_two_run_table(self, tmp_path, config_path, capsys):
        learned, static = tmp_path / "learned", tmp_path / "static"
        self._run(config_path, learned)
        self._run(config_path, static, "--set", "experiment.policy_kind=static")
        capsys.readouterr()
        code = main(["report", str(learned), str(static), "--baseline", str(static),
                     "--out", str(tmp_path / "table.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "learned" in out and "static" in out
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "run,success_rate,mean_length,p_success,p_length"
        assert len(table) == 3
        # a run is read from its summary.json alone
        for run in (learned, static):
            (run / "manifest.json").unlink()
        assert main(["report", str(learned), str(static), "--baseline", str(static),
                     "--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "again.csv").read_text().splitlines() == table

    def test_fingerprint_mismatch(self, tmp_path, config_path):
        other_cfg = json.loads(json.dumps(SMALL_CONFIG))
        other_cfg["corpus"]["synthetic"]["seed"] = 4
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other_cfg))
        a, b = tmp_path / "a", tmp_path / "b"
        self._run(config_path, a)
        self._run(other_path, b)
        assert main(["report", str(a), str(b)]) == 3

    def test_fingerprint_mismatch_through_baseline(self, tmp_path):
        a = write_run(tmp_path / "a", REPORT_FINAL, "AAA")
        b = write_run(tmp_path / "b", REPORT_FINAL, "BBB")
        assert main(["report", a, b]) == 3
        assert main(["report", a, "--baseline", b]) == 3

    def test_baseline_matched_by_resolved_path(self, tmp_path, monkeypatch):
        # a baseline named by another spelling of a listed run's path is that run
        for name in ("learned", "static"):
            write_run(tmp_path / name, REPORT_FINAL)
        monkeypatch.delenv("OALSIM_OUTPUT_ROOT", raising=False)
        monkeypatch.chdir(tmp_path)
        table = tmp_path / "table.csv"
        assert main(["report", "learned", "static", "--baseline", str(tmp_path / "learned"),
                     "--out", str(table)]) == 0
        rows = table.read_text().splitlines()
        assert rows == [
            "run,success_rate,mean_length,p_success,p_length",
            "learned,0.5,4.5,,",
            "static,0.5,4.5,1.0,1.0",
        ]

    def test_missing_summary(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 3

    @pytest.mark.parametrize(
        "content, problem",
        [("", "JSON"),
         (json.dumps({"final_test_batch": REPORT_FINAL}), "corpus_fingerprint"),
         (report_summary(REPORT_FINAL, ["AAA"]), "corpus_fingerprint"),
         ("[]", "TypeError"),
         (report_summary({"success_rate": 0.5, "mean_length": 4.5, "success_indicators": [1, 0]}),
          "'lengths'"),
         (report_summary({**REPORT_FINAL, "success_indicators": [], "lengths": []}), "success"),
         (report_summary({"success_rate": 0.9, "mean_length": 3.0,
                          "success_indicators": [0, 0, 0, 0], "lengths": [16, 16, 16, 16]}),
          "success_rate"),
         (report_summary({**REPORT_FINAL, "mean_length": 3.0}), "mean_length"),
         *[(report_summary({**REPORT_FINAL, key: value}), key.split("_")[0])
           for key, value in BAD_FINAL_FIELDS]],
        ids=["summary-empty", "no-fingerprint", "fingerprint-list",
             "summary-list",
             "no-lengths", "no-dialogs", "rates-not-of-the-lists", "mean-length-not-of-the-lists",
             *[f"{key}={json.dumps(v, separators=(',', ':'))}" for key, v in BAD_FINAL_FIELDS]],
    )
    def test_a_run_file_report_cannot_read_is_a_data_error(
        self, tmp_path, capsys, content, problem
    ):
        run = tmp_path / "run"
        write_run(run, REPORT_FINAL)
        assert main(["report", str(run)]) == 0
        (run / "summary.json").write_text(content)
        capsys.readouterr()
        assert main(["report", str(run)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "DataError"
        assert str(run / "summary.json") in error["message"] and problem in error["message"]


    @pytest.mark.parametrize("argv", [
        ["a", "static", "a"],
        ["--baseline", "a", "a", "static"],
        ["--baseline", "a", "a", "static", "a"],
        ["static", "a", "static", "--baseline", "a"],
    ], ids=["listed-twice", "named-and-listed", "named-and-listed-twice", "other-listed-twice"])
    def test_a_run_listed_twice_is_one_row(self, argv, tmp_path, monkeypatch, capsys):
        finals = {"a": ([1, 0, 1, 0], [3, 5, 4, 6]), "static": ([1, 1, 1, 0], [16, 16, 15, 16])}
        for name, (indicators, lengths) in finals.items():
            final = {"success_rate": sum(indicators) / 4, "mean_length": sum(lengths) / 4,
                     "success_indicators": indicators, "lengths": lengths}
            write_run(tmp_path / name, final)
        monkeypatch.delenv("OALSIM_OUTPUT_ROOT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["report", *argv, "--out", "table.csv"]) == 0
        # one row per distinct run, in the order first listed
        rows = (tmp_path / "table.csv").read_text().splitlines()
        order = list(dict.fromkeys(name for name in argv if name in finals))
        assert [row.split(",")[0] for row in rows[1:]] == order
        lines = capsys.readouterr().out.splitlines()[2:]
        assert len(lines) == 2
        for row, line in zip(rows[1:], lines):
            if row.startswith("a,"):
                assert row == "a,0.5,4.5,,"
                assert line.split()[-2:] == ["baseline", "baseline"]
            else:
                assert row.split(",")[3:] != ["", ""] and "baseline" not in line


class TestReportDegenerateSamples:
    @staticmethod
    def _write_run(run, indicators, lengths):
        final = {"success_rate": sum(indicators) / len(indicators),
                 "mean_length": sum(lengths) / len(lengths),
                 "success_indicators": indicators, "lengths": lengths}
        return write_run(run, final)

    def test_constant_unequal_lengths(self, tmp_path, capsys):
        # a batch collapsed to one-turn guesses against static's 16-turn dialogs
        collapsed = self._write_run(tmp_path / "collapsed", [1, 0, 1, 1], [1, 1, 1, 1])
        static = self._write_run(tmp_path / "static", [1, 1, 0, 1], [16, 16, 16, 16])
        table = tmp_path / "table.csv"
        assert main(["report", collapsed, static, "--baseline", static,
                     "--out", str(table)]) == 0
        rows = table.read_text().splitlines()
        assert rows[1] == "collapsed,0.75,1.0,1.0,0.0"
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split()[-2:] == ["1.0000", "0.0000*"]
        assert lines[3].split()[-2:] == ["baseline", "baseline"]

    def test_single_dialog_batch_prints_n_a(self, tmp_path, capsys):
        one = self._write_run(tmp_path / "one", [1], [3])
        base = self._write_run(tmp_path / "base", [1, 0, 1], [4, 16, 2])
        table = tmp_path / "table.csv"
        assert main(["report", one, base, "--baseline", base, "--out", str(table)]) == 0
        assert table.read_text().splitlines()[1] == "one,1.0,3.0,,"
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split()[-2:] == ["n/a", "n/a"]
        assert lines[3].split()[-2:] == ["baseline", "baseline"]


def test_output_root_env(tmp_path, config_path, monkeypatch):
    monkeypatch.setenv("OALSIM_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", "--config", str(config_path), "--out", "rooted"]) == 0
    assert (tmp_path / "rooted" / "metrics.csv").exists()
