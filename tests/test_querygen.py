import copy
import dataclasses

import numpy as np
import pytest
from scipy import stats as sps

import beam_oracle
from oalsim import harness, querygen
from oalsim.actions import EXAMPLE_QUERY, GUESS, GUESS_ACTION, LABEL_QUERY
from oalsim.errors import ConfigError, DataError
from oalsim.harness import Experiment
from oalsim.perception import PredicateModel
from oalsim.querygen import (
    BeamConfig,
    SamplingCDF,
    TriangularWeights,
    best_object_for_predicate,
    build_beam,
    sample_predicates,
)
from oalsim.seeding import stream

from classifier_oracle import margin, predicate_weight, triangular_weights
from conftest import episode_view, small_run_config

DEFAULTS = TriangularWeights()


def sample_names(predicates, f1_of, count, params, rng):
    """Predicate names drawn by sample_predicates under the triangular weights of f1_of."""
    weights = triangular_weights(np.array([f1_of(p) for p in predicates], dtype=float), params)
    return [predicates[i] for i in sample_predicates(SamplingCDF(weights), count, rng)]


def best_object(model, active_train, features, labeled, rng):
    """best_object_for_predicate for predicate "p" on a view over the ids active_train.

    A region's row is its rank in sorted-id order, as a Corpus gives it.
    """
    ids = sorted(features)
    X = np.stack([features[rid] for rid in ids])
    models = {} if model is None else {"p": model}
    view = episode_view(models, ["p"], [ids.index(rid) for rid in active_train], (), X)
    labels = [int(rid in labeled) for rid in active_train]
    return active_train[best_object_for_predicate(view, 0, labels, rng)]


class TestPredicateWeight:
    def test_peak_at_c_max(self):
        assert predicate_weight(0.6, DEFAULTS) == pytest.approx(1.0)

    def test_endpoints_equal_w_min(self):
        assert predicate_weight(0.0, DEFAULTS) == pytest.approx(0.1)
        assert predicate_weight(1.0, DEFAULTS) == pytest.approx(0.1)

    def test_piecewise_values(self):
        assert predicate_weight(0.3, DEFAULTS) == pytest.approx(0.55)
        assert predicate_weight(0.8, DEFAULTS) == pytest.approx(0.55)

    def test_continuity_at_peak(self):
        eps = 1e-9
        lo = predicate_weight(0.6 - eps, DEFAULTS)
        hi = predicate_weight(0.6 + eps, DEFAULTS)
        assert lo == pytest.approx(hi, abs=1e-7)

    def test_strictly_positive_and_peaked(self):
        grid = np.linspace(0, 1, 101)
        vals = [predicate_weight(c, DEFAULTS) for c in grid]
        assert min(vals) > 0
        assert max(vals) == pytest.approx(predicate_weight(0.6, DEFAULTS))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            TriangularWeights(w_min=0.5, w_max=0.5)
        with pytest.raises(ConfigError):
            TriangularWeights(c_max=1.0)


class TestSamplePredicates:
    def test_small_pool_exhausted(self):
        out = sample_names(["a", "b"], lambda p: 0.0, 3, DEFAULTS, stream(1, "s"))
        assert sorted(out) == ["a", "b"]

    def test_uniform_when_f1_equal(self):
        preds = [f"p{i}" for i in range(5)]
        rng = stream(2, "s")
        counts = {p: 0 for p in preds}
        n = 20_000
        for _ in range(n):
            counts[sample_names(preds, lambda p: 0.3, 1, DEFAULTS, rng)[0]] += 1
        _, pval = sps.chisquare(list(counts.values()))
        assert pval > 0.001

    def test_triangular_ratio_first_draw(self):
        # F1 0.6 and 0.0; one CDF serves every draw, as a view's does
        cdf = SamplingCDF(triangular_weights(np.array([0.6, 0.0]), DEFAULTS))
        rng = stream(3, "s")
        n = 100_000
        hits = sum(sample_predicates(cdf, 1, rng)[0] == 0 for _ in range(n))
        expected = 1.0 / 1.1  # weights 1.0 : 0.1
        sigma = (n * expected * (1 - expected)) ** 0.5
        assert abs(hits - n * expected) < 3 * sigma

    def test_without_replacement(self):
        preds = [f"p{i}" for i in range(10)]
        out = sample_names(preds, lambda p: 0.5, 6, DEFAULTS, stream(4, "s"))
        assert len(out) == len(set(out)) == 6

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            sample_names([], lambda p: 0.0, 1, DEFAULTS, stream(5, "s"))


def _trained_model(w):
    return PredicateModel(predicate="p", weights=np.asarray(w, dtype=float), f1=0.5)


class TestBestObject:
    def test_minimal_margin_wins(self):
        # hyperplane x0 = 0; margins are |x0|
        model = _trained_model([1.0, 0.0, 0.0])
        feats = {
            "o1": np.array([0.05, 1.0]),
            "o2": np.array([0.9, 0.0]),
            "o3": np.array([-0.4, 2.0]),
        }
        picked = best_object(model, ["o1", "o2", "o3"], feats, set(), stream(6, "s"))
        assert picked == "o1"

    def test_bruteforce_agreement(self):
        rng = stream(7, "bf")
        for _ in range(300):
            w = rng.normal(size=5)
            model = _trained_model(w)
            feats = {f"o{i}": rng.normal(size=4) for i in range(8)}
            labeled = set(
                np.random.default_rng(int(rng.integers(1 << 30))).choice(
                    sorted(feats), size=int(rng.integers(0, 4)), replace=False
                )
            )
            ids = sorted(feats)
            unlabeled = [r for r in ids if r not in labeled]
            expected = min(unlabeled, key=lambda r: (margin(model, feats[r]), r))
            got = best_object(model, ids, feats, labeled, stream(8, "s"))
            assert got == expected

    def test_untrained_uniform_fallback(self):
        # one view over four unlabeled objects serves every draw, as a dialog's does
        view = episode_view({}, ["p"], range(4), (), np.zeros((4, 2)))
        rng = stream(9, "s")
        counts = dict.fromkeys(range(4), 0)
        n = 8000
        for _ in range(n):
            counts[best_object_for_predicate(view, 0, [0] * 4, rng)] += 1
        _, pval = sps.chisquare(list(counts.values()))
        assert pval > 0.001

    def test_exhausted_pairs_rejected(self):
        feats = {"o1": np.zeros(2)}
        with pytest.raises(DataError):
            best_object(None, ["o1"], feats, {"o1"}, stream(10, "s"))


class TestBuildBeam:
    def _beam(self, turn=0, predicates=("a", "b", "c", "d"), labeled=None, asked=(), t_max=40):
        # rows 0..7; `labeled` maps a predicate to its labeled rows
        X = np.array([[i - 3.5, 1.0] for i in range(8)])
        labeled = labeled or {}
        rows = range(8)
        view = episode_view({}, predicates, rows, (), X, DEFAULTS)
        record = [[int(row in labeled.get(p, ())) for row in rows] for p in view.predicates]
        return build_beam(
            turn=turn,
            t_max=t_max,
            view=view,
            labeled=record,
            open_rows=sum(0 in row for row in record),
            asked=[row for row, p in enumerate(view.predicates) if p in asked],
            cfg=BeamConfig(),
            rng=stream(11, "beam"),
        )

    def test_fresh_beam_bounds(self):
        beam = self._beam()
        assert 1 <= len(beam) <= 7
        assert beam[0] == GUESS_ACTION
        labels = [a for a in beam if a[0] == LABEL_QUERY]
        examples = [a for a in beam if a[0] == EXAMPLE_QUERY]
        assert len(labels) == 3 and len(examples) == 3

    def test_turn_cap_collapses_to_guess(self):
        beam = self._beam(turn=40)
        assert beam == [GUESS_ACTION]

    def test_no_labeled_pairs_in_beam(self):
        labeled = {p: set(range(7)) for p in "abcd"}
        for trial in range(50):
            beam = self._beam(labeled=labeled)
            for kind, row, col in beam:
                if kind == LABEL_QUERY:
                    assert col not in labeled["abcd"[row]]  # the view rows are a..d, columns 0..7

    def test_exhausted_predicates_dropped(self):
        labeled = {p: set(range(8)) for p in "abcd"}
        beam = self._beam(labeled=labeled)
        assert not [a for a in beam if a[0] == LABEL_QUERY]

    def test_asked_examples_dropped(self):
        beam = self._beam(asked=("a", "b", "c", "d"))
        assert not [a for a in beam if a[0] == EXAMPLE_QUERY]
        assert [a for a in beam if a[0] == LABEL_QUERY]

    def test_guess_always_present(self):
        labeled = {p: set(range(8)) for p in "abcd"}
        beam = self._beam(labeled=labeled, asked=("a", "b", "c", "d"))
        assert [a for a in beam if a[0] == GUESS]
        assert len(beam) == 1


def test_cdf_equals_the_original_expression():
    src = stream(12, "cdf")
    for n in range(1, 65):
        for _ in range(20):
            weights = src.uniform(1e-3, 5.0, size=n)
            weights[src.random(n) < 0.3] = 0.0
            if not weights.any():
                weights[int(src.integers(n))] = src.uniform(1e-3, 5.0)
            got = np.frombuffer(querygen._cdf(weights), dtype=np.float64)
            assert np.array_equal(got, beam_oracle.cdf(weights))


@pytest.mark.parametrize("immediate", [False, True], ids=["learned", "immediate"])
def test_every_beam_equals_the_numpy_oracle(
    immediate, small_corpus, small_split, small_density, monkeypatch
):
    seen = {"beams": 0, "labels": 0, "examples": 0, "untrained": 0}
    list_form = harness.build_beam

    def checked(turn, t_max, view, labeled, open_rows, asked, cfg, rng):
        assert open_rows == sum(0 in row for row in labeled)
        theirs = copy.deepcopy(rng)
        got = list_form(turn, t_max, view, labeled, open_rows, asked, cfg, rng)
        flags = np.zeros(len(view.predicates), dtype=bool)
        flags[asked] = True
        want = beam_oracle.build_beam(
            turn, t_max, view, np.array(labeled, dtype=np.int8), flags, cfg, theirs
        )
        assert got == want
        assert rng.bit_generator.state == theirs.bit_generator.state
        labels = [row for kind, row, _ in got if kind == LABEL_QUERY]
        seen["beams"] += 1
        seen["labels"] += len(labels)
        seen["examples"] += sum(kind == EXAMPLE_QUERY for kind, _, _ in got)
        seen["untrained"] += sum(not view.trained[row] for row in labels)
        return got

    monkeypatch.setattr(harness, "build_beam", checked)
    cfg = small_run_config()
    if immediate:
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
    result = Experiment(cfg, small_corpus, small_split, small_density).run()
    assert seen["beams"] == sum(sum(m.lengths) for m in result.metrics)
    assert seen["labels"] > 0 and seen["examples"] > 0
    assert 0 < seen["untrained"] < seen["labels"]


def _exhausted_view(n, seed):
    """A view of n predicates, some trained and some not, over 8 columns, and a full record."""
    src = stream(seed, "exhausted")
    models = {
        f"p{i}": PredicateModel(predicate=f"p{i}", weights=src.normal(size=3),
                                f1=float(src.random()))
        for i in range(0, n, 2)
    }
    view = episode_view(models, [f"p{i}" for i in range(n)], range(8), (), src.normal(size=(8, 2)))
    labeled = [[1 if src.random() < 0.5 else -1 for _ in range(8)] for _ in range(n)]
    return view, labeled


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12])
def test_a_label_draw_over_exhausted_rows_takes_only_its_doubles(n):
    # with no open row the label draw returns nothing and moves the beam
    # generator as the oracle's full draw does: by n_label doubles where the
    # pool exceeds n_label, and not at all where it does not (n <= 3)
    view, labeled = _exhausted_view(n, n)
    assert view.sampling_cdf.cdf is not None and 0 < sum(view.trained) <= n
    cfg, n_queries = BeamConfig(), 15
    src = stream(n, "exhausted-asked")
    for seed in range(20):
        asked = sorted(src.choice(n, int(src.integers(n + 1)), replace=False).tolist())
        flags = np.zeros(n, dtype=bool)
        flags[asked] = True
        for turn in (0, 1):  # the static rule prefers a label query, then an example query
            rng, theirs = stream(seed, "beam"), stream(seed, "beam")
            got = build_beam(turn, 40, view, labeled, 0, asked, cfg, rng)
            want = beam_oracle.build_beam(
                turn, 40, view, np.array(labeled, dtype=np.int8), flags, cfg, theirs
            )
            assert got == want and LABEL_QUERY not in [kind for kind, _, _ in got]
            assert rng.bit_generator.state == theirs.bit_generator.state

            rng, policy_rng = stream(seed, "beam"), stream(seed, "policy")
            theirs, their_policy = stream(seed, "beam"), stream(seed, "policy")
            action = querygen.static_action(
                turn, 40, view, labeled, 0, asked, cfg, n_queries, rng, policy_rng
            )
            beam = beam_oracle.build_beam(
                turn, 40, view, np.array(labeled, dtype=np.int8), flags, cfg, theirs
            )
            assert action == beam[beam_oracle.static_policy_act(turn, beam, n_queries,
                                                                their_policy)]
            assert action[0] != LABEL_QUERY
            assert rng.bit_generator.state == theirs.bit_generator.state
            assert policy_rng.bit_generator.state == their_policy.bit_generator.state

        drawn = stream(seed, "beam")
        assert querygen._label_queries(view, labeled, 0, cfg.n_label, drawn) == []
        doubles = stream(seed, "beam")
        if n > cfg.n_label:
            doubles.random(cfg.n_label)
        assert drawn.bit_generator.state == doubles.bit_generator.state


@pytest.mark.parametrize("name", ["learned", "tiny"])
def test_the_behaviour_lock_runs_draw_over_exhausted_rows(
    name, small_corpus, small_split, small_density, monkeypatch
):
    from test_behaviour_lock import _config

    draws = {"all": 0, "no-open-row": 0}
    label_queries = querygen._label_queries

    def counted(view, labeled, open_rows, n_label, rng):
        draws["all"] += 1
        draws["no-open-row"] += not open_rows and view.sampling_cdf.cdf is not None
        return label_queries(view, labeled, open_rows, n_label, rng)

    monkeypatch.setattr(querygen, "_label_queries", counted)
    if name == "tiny":
        Experiment(_config(name)).run()
    else:
        Experiment(_config(name), small_corpus, small_split, small_density).run()
    assert 0 < draws["no-open-row"] < draws["all"]
