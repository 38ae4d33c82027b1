import json
import re
import weakref

import numpy as np
import pytest
from scipy import stats as sps

from oalsim.config import load_config
from oalsim.corpus import (
    Corpus,
    Interaction,
    InteractionSizes,
    Region,
    SplitConfig,
    SyntheticConfig,
    generate_synthetic,
    load_regions,
    make_splits,
    normalize_annotation,
    sample_interaction,
    write_regions,
)
from oalsim.errors import CorpusError, GenerationError, ParseError, SamplingError, SplitError
from oalsim.harness import build_corpus
from oalsim.seeding import stream

from conftest import DESK_CONFIG, SMALL_SYNTH


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _record(rid, d=32, annotations=("red", "box"), description=None):
    return {
        "id": rid,
        "features": [0.1] * d,
        "annotations": list(annotations),
        "description": description,
    }


class TestLoadRegions:
    def test_three_valid_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record(f"r{i}") for i in range(3)])
        regions = load_regions(path)
        assert len(regions) == 3
        assert all(r.features.shape == (32,) for r in regions)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        recs = [_record("r0"), _record("r1", d=31)]
        _write_jsonl(path, recs)
        with pytest.raises(CorpusError):
            load_regions(path)

    def test_regions_without_features_rejected(self, tmp_path):
        # a classifier row would be the bias alone, a width the stacked fits cannot
        # sum in row order (see perception._sum_masked_rows)
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0", d=0), _record("r1", d=0)])
        with pytest.raises(CorpusError, match="no features"):
            load_regions(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0"), _record("r0")])
        with pytest.raises(CorpusError):
            load_regions(path)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_record("r0")) + "\n")
            fh.write("{not json\n")
        with pytest.raises(ParseError, match=":2"):
            load_regions(path)

    @pytest.mark.parametrize(
        "key, value",
        [("features", "123"), ("features", {"0": 0.1}), ("annotations", "red box"),
         ("annotations", 5), ("description", 7), ("description", {"red": 1}),
         ("id", None), ("id", 5)],
    )
    def test_a_field_of_the_wrong_kind_names_its_line(self, tmp_path, key, value):
        # a string is not iterated into characters, nor a null id read as "None"
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0"), {**_record("r1"), key: value}])
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {key} must be")):
            load_regions(path)

    @pytest.mark.parametrize(
        "key, kind", [("annotations", "annotation"), ("description", "description entry")]
    )
    def test_an_entry_that_is_not_a_string_names_its_line(self, tmp_path, key, kind):
        # str() would read these as the predicates 1 5 a none red
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0"), {**_record("r1"), key: [None, 5, {"a": 1}, ["red"]]}])
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {kind} must be a string")):
            load_regions(path)

    def test_annotation_normalization(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0", annotations=["Red Box!"])])
        (region,) = load_regions(path)
        assert region.annotations == frozenset({"red", "box"})

    def test_description_text_is_extracted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0", description="the red box")])
        (region,) = load_regions(path)
        assert region.description_predicates == ("red", "box")

    def test_description_predicate_outside_annotations(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, [_record("r0", description="the green box")])
        with pytest.raises(CorpusError, match="green"):
            load_regions(path)

    def test_tabular_format(self, tmp_path):
        path = tmp_path / "corpus.csv"
        with open(path, "w") as fh:
            fh.write("id,f0,f1,annotations,description\n")
            fh.write("r0,0.5,-1.0,red|box,the red box\n")
            fh.write("r1,0.25,2.0,ball,\n")
        regions = load_regions(path, fmt="tabular")
        assert [r.id for r in regions] == ["r0", "r1"]
        assert regions[0].description_predicates == ("red", "box")
        assert regions[1].features[1] == 2.0

    def test_unknown_format(self, tmp_path):
        with pytest.raises(CorpusError):
            load_regions(tmp_path / "x", fmt="parquet")


def test_normalize_annotation_strips_and_stems():
    assert normalize_annotation("Red Box!") == ["red", "box"]
    assert normalize_annotation("GLASSES") == ["glass"]
    assert normalize_annotation("tall-cats") == ["tallcat"]


class TestGenerateSynthetic:
    def test_deterministic_given_seed(self, tmp_path):
        cfg = SyntheticConfig(n_regions=40, dim=8, n_predicates=4, seed=7)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_regions(a, generate_synthetic(cfg))
        write_regions(b, generate_synthetic(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_single_predicate_half_space(self):
        cfg = SyntheticConfig(
            n_regions=30, dim=8, n_predicates=1, coverage=(0.5, 0.5), seed=5
        )
        regions = generate_synthetic(cfg)
        assert all(r.annotations == frozenset({"p00"}) for r in regions)

    def test_too_few_regions(self):
        with pytest.raises(GenerationError):
            generate_synthetic(SyntheticConfig(n_regions=5))

    def test_descriptions_subset_of_annotations(self, small_corpus):
        for described, anns in zip(small_corpus.description_predicates, small_corpus.annotations):
            assert set(described) <= anns
            assert 1 <= len(described) <= 3

    def test_annotations_match_half_space_membership(self):
        # regenerating with the same seed must give internally consistent labels
        cfg = SyntheticConfig(n_regions=50, dim=8, n_predicates=4, seed=9)
        regions = generate_synthetic(cfg)
        assert all(r.annotations for r in regions)


class TestCorpus:
    def test_keeps_no_region(self):
        # the features live once, in X: no Region record outlives the constructor
        regions = generate_synthetic(SMALL_SYNTH)
        probe = weakref.ref(regions[0])
        corpus = Corpus(regions)
        del regions
        assert probe() is None
        assert corpus.ids[corpus.file_rows[0]] == "r0000"

    @pytest.mark.parametrize("shapes", [[()], [(), ()], [(4,), ()], [(2, 2)], [(4,), (2, 2)]])
    def test_features_not_one_dimensional(self, shapes):
        regions = [
            Region(id=f"r{i}", features=np.ones(shape), annotations=frozenset({"x"}))
            for i, shape in enumerate(shapes)
        ]
        with pytest.raises(CorpusError, match="shape"):
            Corpus(regions)


class TestFingerprint:
    # `oalsim report` refuses to compare runs whose corpus fingerprints differ,
    # so a change to the corpus representation must leave these bytes alone
    def test_small_synthetic(self, small_corpus):
        assert small_corpus.fingerprint == (
            "163da53b2bcaef45d5c1995fa8a9a8c3080ae7db3b85d2d5c89e65812c3dae37"
        )

    def test_reversed_file_order(self):
        corpus = Corpus(list(reversed(generate_synthetic(SMALL_SYNTH))))
        assert corpus.fingerprint == (
            "43b06239507d1527ba63b7b4212da94f899697d7567b0088e93482a1eca50502"
        )

    def test_desk(self):
        assert build_corpus(load_config(DESK_CONFIG)).fingerprint == (
            "73253c2ebaba60b5b46b2b2c80bae5ca405945528f13a4ebb8bb083b77d248fd"
        )


class TestMakeSplits:
    def test_full_scale_defaults(self):
        cfg = SplitConfig()
        assert cfg.frequency_threshold == 1000
        assert cfg.classifier_split == 0.6
        assert cfg.test_fraction_of_frequent == 0.5

    def test_no_frequent_predicate(self, small_corpus):
        with pytest.raises(SplitError, match="threshold"):
            make_splits(small_corpus, SplitConfig(frequency_threshold=10_000))

    def test_single_frequent_predicate_routing(self):
        rng = np.random.default_rng(0)
        regions = []
        for i in range(12):
            anns = {"freq"} if i < 6 else {f"rare{i}"}
            regions.append(
                Region(id=f"r{i:02d}", features=rng.normal(size=4), annotations=frozenset(anns))
            )
        corpus = Corpus(regions)
        split = make_splits(corpus, SplitConfig(frequency_threshold=6, seed=2))
        assert split.held_out_predicates == frozenset({"freq"})
        test_side = split.policy_test_classifier_train | split.policy_test_classifier_test
        assert test_side == {corpus.row[f"r{i:02d}"] for i in range(6)}

    def test_split_audit(self, small_corpus, small_split):
        held = small_split.held_out_predicates
        train_side = (
            small_split.policy_train_classifier_train
            | small_split.policy_train_classifier_test
        )
        test_side = (
            small_split.policy_test_classifier_train
            | small_split.policy_test_classifier_test
        )
        for row, anns in enumerate(small_corpus.annotations):
            assert (row in test_side) == bool(anns & held)
            assert (row in train_side) != bool(anns & held)

    def test_four_sets_partition(self, small_corpus, small_split):
        sets = [
            small_split.policy_train_classifier_train,
            small_split.policy_train_classifier_test,
            small_split.policy_test_classifier_train,
            small_split.policy_test_classifier_test,
        ]
        union = set()
        total = 0
        for s in sets:
            union |= s
            total += len(s)
        assert union == set(range(len(small_corpus)))
        assert total == len(small_corpus)

    def test_deterministic(self, small_corpus):
        cfg = SplitConfig(frequency_threshold=30, seed=1)
        assert make_splits(small_corpus, cfg) == make_splits(small_corpus, cfg)


class TestSampleInteraction:
    def test_shapes_and_membership(self, small_corpus, small_split):
        rng = stream(0, "t")
        inter = sample_interaction(
            small_corpus, small_split, "policy-train", InteractionSizes(), rng
        )
        assert len(inter.active_train) == 8
        assert len(inter.active_test) == 4
        assert inter.target in inter.active_test
        assert not (set(inter.active_train) & set(inter.active_test))
        assert inter.description_predicates

    def test_exact_sets_when_pool_is_exact(self, small_corpus):
        from oalsim.corpus import CorpusSplit

        rows = range(len(small_corpus))
        split = CorpusSplit(
            policy_train_classifier_train=frozenset(rows[:8]),
            policy_train_classifier_test=frozenset(rows[8:12]),
            policy_test_classifier_train=frozenset(rows[12:20]),
            policy_test_classifier_test=frozenset(rows[20:24]),
            held_out_predicates=frozenset(),
        )
        inter = sample_interaction(
            small_corpus, split, "policy-train", InteractionSizes(), stream(1, "t")
        )
        assert set(inter.active_train) == set(rows[:8])
        assert set(inter.active_test) == set(rows[8:12])

    def test_subset_too_small(self, small_corpus):
        from oalsim.corpus import CorpusSplit

        rows = range(len(small_corpus))
        split = CorpusSplit(
            policy_train_classifier_train=frozenset(rows[:4]),
            policy_train_classifier_test=frozenset(rows[4:8]),
            policy_test_classifier_train=frozenset(rows[8:16]),
            policy_test_classifier_test=frozenset(rows[16:20]),
            held_out_predicates=frozenset(),
        )
        with pytest.raises(SamplingError):
            sample_interaction(
                small_corpus, split, "policy-train", InteractionSizes(), stream(2, "t")
            )

    def test_target_uniform_over_classifier_test(self, small_corpus, small_split):
        rng = stream(3, "uniform")
        pool = sorted(small_split.policy_train_classifier_test)
        counts = {row: 0 for row in pool}
        n = 10_000
        for _ in range(n):
            inter = sample_interaction(
                small_corpus, small_split, "policy-train", InteractionSizes(), rng
            )
            counts[inter.target] += 1
        observed = [counts[row] for row in pool]
        _, p = sps.chisquare(observed)
        assert p > 0.001

    def test_draws_equal_those_from_freshly_sorted_pools(self, small_corpus, small_split):
        # the split sorts its pools once; each draw must be the one the
        # per-call sort of the frozensets gave, with the generator left alike
        assert small_split.side("policy-test") is small_split.side("policy-test")
        for side, (ct, cx) in (
            ("policy-train", (small_split.policy_train_classifier_train,
                              small_split.policy_train_classifier_test)),
            ("policy-test", (small_split.policy_test_classifier_train,
                             small_split.policy_test_classifier_test)),
        ):
            assert small_split.side(side) == (tuple(sorted(ct)), tuple(sorted(cx)))
            for seed in range(200):
                ours, theirs = stream(seed, "pools"), stream(seed, "pools")
                got = sample_interaction(small_corpus, small_split, side, InteractionSizes(), ours)
                assert got == _sample_from_sorted_lists(small_corpus, ct, cx, theirs)
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_deterministic_stream(self, small_corpus, small_split):
        def draw_five(seed):
            rng = stream(seed, "s")
            return [
                sample_interaction(
                    small_corpus, small_split, "policy-train", InteractionSizes(), rng
                )
                for _ in range(5)
            ]

        assert draw_five(9) == draw_five(9)
        assert draw_five(9) != draw_five(10)


def _sample_from_sorted_lists(corpus, ct, cx, rng, sizes=InteractionSizes()):
    """sample_interaction as it was when it sorted both pools on every call."""
    train_pool, test_pool = sorted(ct), sorted(cx)
    while True:
        train_idx = rng.choice(len(train_pool), size=sizes.active_train, replace=False)
        test_idx = rng.choice(len(test_pool), size=sizes.active_test, replace=False)
        active_train = tuple(train_pool[i] for i in train_idx)
        active_test = tuple(test_pool[i] for i in test_idx)
        if not any(corpus.description_predicates[row] for row in active_test):
            continue
        while True:
            target = active_test[int(rng.integers(len(active_test)))]
            if corpus.description_predicates[target]:
                break
        return Interaction(
            active_train=active_train,
            active_test=active_test,
            target=target,
            description_predicates=corpus.description_predicates[target],
        )
