import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oalsim import perception
from oalsim.config import load_config
from oalsim.harness import Experiment
from oalsim.corpus import extract_predicates, generate_synthetic
from oalsim.errors import ContractError, DataError
from oalsim.perception import (
    ClassifierConfig,
    DensityIndex,
    PredicateModel,
    density_stats,
    estimate_f1,
    fit_models,
    train_classifier,
)
from oalsim.seeding import stream

import density_oracle
from classifier_oracle import UndefinedMarginError, decide, fit_hinge, margin
from conftest import classifier_train_rows, small_run_config

CFG = ClassifierConfig()


class TestExtractPredicates:
    def test_red_box(self):
        assert extract_predicates("the red box") == ["red", "box"]

    def test_all_stopwords(self):
        with pytest.raises(DataError):
            extract_predicates("a the of")

    def test_deduplication(self):
        assert extract_predicates("red red red") == ["red"]

    def test_plural_stemming(self):
        assert extract_predicates("shiny glasses") == ["shiny", "glass"]
        assert extract_predicates("red ponies") == ["red", "poni"]

    def test_empty(self):
        with pytest.raises(DataError):
            extract_predicates("   ")


def _balanced_model(points):
    """A model labelling row i of the returned feature matrix with points[i]'s label."""
    m = PredicateModel(predicate="p")
    for i, (_, y) in enumerate(points):
        m.record_label(i, y)
    return m, np.array([x for x, _ in points], dtype=float)


class TestTrainClassifier:
    def test_separable_two_vs_two(self):
        m, feats = _balanced_model(
            [((2.0, 0.0), 1), ((3.0, 1.0), 1), ((-2.0, 0.0), -1), ((-3.0, -1.0), -1)]
        )
        train_classifier(m, feats, CFG)
        assert m.weights is not None
        for row, label in m.labels.items():
            assert decide(m, feats[row]) == label

    def test_single_class_untrainable(self):
        m, feats = _balanced_model([((1.0, 0.0), 1), ((2.0, 0.0), 1)])
        train_classifier(m, feats, CFG)
        assert m.weights is None
        assert m.f1 == 0.0

    def test_label_order_invariance(self):
        pts = [((2.0, 0.5), 1), ((1.5, -0.5), 1), ((-2.0, 0.0), -1), ((-1.0, 1.0), -1)]
        m1, feats = _balanced_model(pts)
        m2 = PredicateModel(predicate="p")
        for i in reversed(range(len(pts))):
            m2.record_label(i, pts[i][1])
        train_classifier(m1, feats, CFG)
        train_classifier(m2, feats, CFG)
        assert np.array_equal(m1.weights, m2.weights)

    def test_relabel_same_is_noop_flip_is_error(self):
        m = PredicateModel(predicate="p")
        assert m.record_label(0, 1) is True
        assert m.record_label(0, 1) is False
        with pytest.raises(ContractError):
            m.record_label(0, -1)

    def test_a_new_label_drops_the_fit_a_repeated_one_keeps_it(self):
        # weights and F1 belong to the current labels or are absent
        m, feats = _balanced_model(
            [((2.0, 0.0), 1), ((3.0, 1.0), 1), ((2.5, -1.0), 1),
             ((-2.0, 0.0), -1), ((-3.0, -1.0), -1), ((-2.5, 1.0), -1)]
        )
        fit_models([m], feats, CFG)
        weights, f1 = m.weights, m.f1
        assert weights is not None and f1 > 0.0
        assert m.record_label(0, 1) is False
        assert m.weights is weights and m.f1 == f1
        with pytest.raises(ContractError):
            m.record_label(3, 1)
        assert m.labels[3] == -1 and m.weights is weights and m.f1 == f1
        assert m.record_label(6, 1) is True
        assert m.weights is None and m.f1 == 0.0


class TestDecideAndMargin:
    def test_decide_sign(self):
        m = PredicateModel(predicate="p", weights=np.array([1.0, 0.0, 0.0]))
        assert decide(m, np.array([0.5, 3.0])) == 1
        assert decide(m, np.array([-0.5, 3.0])) == -1

    def test_decide_untrained_defaults_negative(self):
        assert decide(PredicateModel(predicate="p"), np.array([1.0])) == -1
        assert decide(None, np.array([1.0])) == -1

    def test_decide_zero_breaks_positive(self):
        m = PredicateModel(predicate="p", weights=np.array([1.0, 0.0, 0.0]))
        assert decide(m, np.array([0.0, 9.0])) == 1

    def test_margin_hand_geometry(self):
        m = PredicateModel(predicate="p", weights=np.array([1.0, 0.0, 0.0]))
        assert margin(m, np.array([0.5, 3.0])) == pytest.approx(0.5)

    def test_margin_on_hyperplane(self):
        m = PredicateModel(predicate="p", weights=np.array([1.0, 0.0, 0.0]))
        assert margin(m, np.array([0.0, -2.0])) == 0.0

    def test_margin_untrained_raises(self):
        with pytest.raises(UndefinedMarginError):
            margin(PredicateModel(predicate="p"), np.array([1.0]))

    def test_decide_agrees_with_margin_score_sign(self):
        rng = stream(5, "sign")
        for _ in range(50):
            w = rng.normal(size=5)
            m = PredicateModel(predicate="p", weights=w)
            x = rng.normal(size=4)
            s = w[:4] @ x + w[4]
            assert decide(m, x) == (1 if s >= 0 else -1)


def _reference_folds(model: PredicateModel, cfg: ClassifierConfig):
    """Explicit stratified folds as lists of region rows, or None for a degenerate set."""
    labels = model.labels
    if len(labels) < 4:
        return None
    pos = sorted(r for r, v in labels.items() if v > 0)
    neg = sorted(r for r, v in labels.items() if v < 0)
    if not pos or not neg:
        return None
    k = min(cfg.folds, len(pos), len(neg))
    if k < 2:
        return None
    folds = [[] for _ in range(k)]
    for i, rid in enumerate(pos):
        folds[i % k].append(rid)
    for i, rid in enumerate(neg):
        folds[i % k].append(rid)
    return folds


def _reference_fold_models(model: PredicateModel, feats, folds, cfg: ClassifierConfig):
    """One serially trained classifier per fold, on every label outside it."""
    subs = []
    for fold in folds:
        held = set(fold)
        sub = PredicateModel(
            predicate=model.predicate,
            labels={r: v for r, v in model.labels.items() if r not in held},
        )
        subs.append(train_classifier(sub, feats, cfg))
    return subs


def _reference_cv_counts(model: PredicateModel, feats, cfg: ClassifierConfig):
    """Pooled (tp, fp, fn) of the held-out decisions, or None for a degenerate set."""
    labels = model.labels
    folds = _reference_folds(model, cfg)
    if folds is None:
        return None
    predictions = {}
    for fold, sub in zip(folds, _reference_fold_models(model, feats, folds, cfg)):
        for rid in fold:
            predictions[rid] = decide(sub, feats[rid])
    tp = sum(1 for r in labels if predictions[r] == 1 and labels[r] == 1)
    fp = sum(1 for r in labels if predictions[r] == 1 and labels[r] == -1)
    fn = sum(1 for r in labels if predictions[r] == -1 and labels[r] == 1)
    return tp, fp, fn


def _reference_cv_f1(model: PredicateModel, feats, cfg: ClassifierConfig) -> float:
    """Brute-force oracle: explicit folds, pooled confusion counts, textbook F1."""
    counts = _reference_cv_counts(model, feats, cfg)
    if counts is None:
        return 0.0
    tp, fp, fn = counts
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class TestEstimateF1:
    def test_separable_three_vs_three(self):
        pts = [((3.0, 0.1), 1), ((2.5, -0.2), 1), ((2.8, 0.3), 1),
               ((-3.0, 0.0), -1), ((-2.5, 0.4), -1), ((-2.9, -0.1), -1)]
        m, feats = _balanced_model(pts)
        assert estimate_f1(m, feats, CFG) == 1.0

    def test_single_label_returns_zero(self):
        m, feats = _balanced_model([((1.0, 0.0), 1)])
        assert estimate_f1(m, feats, CFG) == 0.0

    def test_insertion_order_irrelevant(self):
        rng = stream(6, "order")
        pts = [(tuple(rng.normal(size=3)), 1 if i % 2 else -1) for i in range(8)]
        m1, feats = _balanced_model(pts)
        m2 = PredicateModel(predicate="p")
        order = list(range(len(pts)))
        rng.shuffle(order)
        for i in order:
            m2.record_label(i, pts[i][1])
        assert estimate_f1(m1, feats, CFG) == estimate_f1(m2, feats, CFG)

    def test_matches_bruteforce_oracle(self):
        rng = stream(7, "cv")
        for trial in range(60):
            n = int(rng.integers(2, 13))
            pts = []
            for i in range(n):
                pts.append((tuple(rng.normal(size=4)), int(rng.choice([-1, 1]))))
            m, feats = _balanced_model(pts)
            assert estimate_f1(m, feats, CFG) == pytest.approx(
                _reference_cv_f1(m, feats, CFG), abs=1e-12
            )

    def test_f1_grows_with_balanced_labels_on_separable_data(self):
        # statistical: averaged over seeds, more clean labels never hurt the estimate
        means = []
        for n_per_class in (3, 6, 12):
            vals = []
            for seed in range(20):
                rng = stream(seed, "mono")
                w = rng.normal(size=4)
                w /= np.linalg.norm(w)
                pts = []
                made = {1: 0, -1: 0}
                while made[1] < n_per_class or made[-1] < n_per_class:
                    x = rng.normal(size=4)
                    y = 1 if w @ x >= 0 else -1
                    if made[y] < n_per_class:
                        pts.append((tuple(x), y))
                        made[y] += 1
                m, feats = _balanced_model(pts)
                vals.append(estimate_f1(m, feats, CFG))
            means.append(np.mean(vals))
        assert means[0] <= means[1] + 0.05
        assert means[1] <= means[2] + 0.05


def _signed_rows(model: PredicateModel, feats):
    """Sorted label rows and the rows [x, 1] * y a fit descends on, in that order."""
    ids = sorted(model.labels)
    X = np.stack([feats[row] for row in ids])
    y = np.array([model.labels[row] for row in ids], dtype=np.float64)
    return ids, y[:, None] * np.hstack([X, np.ones((len(ids), 1))])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """np.array_equal and the same bytes: -0.0 and 0.0 count as different."""
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_model(rng, n: int, dim: int, n_pos: int):
    """n labels, on rows 0..n-1 of the returned matrix of normal points (one
    coordinate rounded, so exact zeros occur)."""
    X = rng.normal(size=(n, dim))
    X[:, 0] = np.round(X[:, 0])
    labels = np.full(n, -1)
    labels[rng.choice(n, size=n_pos, replace=False)] = 1
    m = PredicateModel(predicate="p")
    for i in range(n):
        m.record_label(i, int(labels[i]))
    return m, X


class TestStackedFits:
    """Stacked descents against serial fits, bit for bit.

    estimate_f1 fits a predicate's k folds as one zero-padded stack. A fold's
    weights that differ in the last bit can flip a held-out decision and with
    it the F1, the predicate sampling weights and every run output after it.
    """

    @staticmethod
    def _check_folds(model, feats, cfg):
        folds = _reference_folds(model, cfg)
        ids, YX = _signed_rows(model, feats)
        train = np.array([[rid not in set(fold) for rid in ids] for fold in folds])
        stacked = perception._fit_subsets(YX, train, cfg)
        serial = _reference_fold_models(model, feats, folds, cfg)
        assert stacked.shape == (len(folds), YX.shape[1])
        for w, sub in zip(stacked, serial):
            assert _same_bits(w, sub.weights)

    def test_desk_label_sets(self, desk_agent):
        exp, agent = desk_agent
        sizes = []
        for p in sorted(agent.models):
            model = agent.models[p]
            if _reference_folds(model, exp.config.classifier) is not None:
                self._check_folds(model, exp.corpus.X, exp.config.classifier)
                sizes.append(len(model.labels))
        assert len(sizes) >= 10

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_synthetic_sizes_cross_the_pairwise_sum_blocks(self, k):
        # the four k together cover n = 4..300: fold sizes on both sides of 8 and 128 rows
        cfg = ClassifierConfig(folds=k)
        rng = stream(9, "stack", k)
        fold_counts = set()
        for n in range(k + 2, 301, 4):
            dim = 32 if n % 3 else 3
            model, feats = _random_model(rng, n, dim, int(rng.integers(2, n - 1)))
            fold_counts.add(len(_reference_folds(model, cfg)))
            self._check_folds(model, feats, cfg)
        assert k in fold_counts

    def test_problem_with_no_violating_row(self):
        # two points far outside the margin: after the first step no row violates,
        # while the other problems in the stack still have violating rows
        rng = stream(10, "quiet")
        far = np.array([[10.0, 10.0, 1.0], [10.0, 10.0, -1.0]])
        YX = np.vstack([far, rng.normal(size=(9, 3))])
        subsets = np.zeros((3, len(YX)), dtype=bool)
        subsets[0, :2] = True
        subsets[1, 2:] = True
        subsets[2, :] = True
        stacked = perception._fit_subsets(YX, subsets, CFG)
        for w, rows in zip(stacked, subsets):
            assert _same_bits(w, perception._fit_hinge(YX[rows], int(rows.sum()), CFG))
        assert (far @ stacked[0] >= 1.0).all()

    def test_subset_missing_a_class(self):
        rng = stream(11, "oneclass")
        model, feats = _random_model(rng, 14, 5, 6)
        ids, YX = _signed_rows(model, feats)
        pos = YX[:, -1] > 0
        subsets = np.array([pos, ~pos, np.arange(len(ids)) != 3])
        stacked = perception._fit_subsets(YX, subsets, CFG)
        for w, rows in zip(stacked, subsets):
            assert _same_bits(w, perception._fit_hinge(YX[rows], int(rows.sum()), CFG))

    @staticmethod
    def _ordered_sums(YX, viol):
        """Each problem's violating rows added one by one, in row order, from +0.0."""
        out = np.zeros((YX.shape[0], YX.shape[2]))
        for total, rows, hits in zip(out, YX, viol):
            for row in rows[hits]:
                total += row
        return out

    @pytest.mark.parametrize("width", [2, 4, 33])
    def test_masked_sum_adds_violating_rows_in_order(self, width):
        # a 0/1 mask makes every other row a +-0.0 term; from width 4 on, column 1
        # holds signed zeros only and the rounded column 0 cancels exactly, so
        # partial sums hit +-0.0, while the normal columns pin the order of the adds.
        # Width 1 is not row order (numpy reduces a contiguous n with unrolled
        # accumulators); Corpus refuses regions without features, so it never occurs
        rng = stream(15, "maskedsum", width)
        shapes = [(1, 1), (1, 7), (3, 1), (1, 300), (60, 300)]
        shapes += [(int(rng.integers(40, 70)), int(rng.integers(2, 301))) for _ in range(4)]
        for k, rows in shapes:
            y = rng.choice([-1.0, 1.0], size=(k, rows, 1))
            X = rng.normal(size=(k, rows, width))
            if width >= 4:
                X[:, :, 0] = np.round(X[:, :, 0])
                X[:, :, 1] = 0.0
            YX = y * X
            viol = rng.random((k, rows)) < rng.random((k, 1))
            out = np.empty((k, width))
            got = perception._sum_masked_rows(YX, viol.astype(np.float64), out)
            assert got is out
            assert _same_bits(out, self._ordered_sums(YX, viol))
            if width >= 4:
                assert not np.signbit(out[:, 1]).any()

    def test_single_fit_equals_a_stack_of_one(self):
        rng = stream(12, "one")
        model, feats = _random_model(rng, 40, 32, 15)
        _, YX = _signed_rows(model, feats)
        train_classifier(model, feats, CFG)
        assert _same_bits(model.weights, perception._fit_subsets(YX, np.ones((1, 40), bool), CFG)[0])


class TestEstimateF1Exact:
    """estimate_f1 against the brute-force oracle's confusion counts, with ==.

    The oracle's textbook F1 (from precision and recall) differs in the last
    bit from 2tp / (2tp + fp + fn) for many count triples, so the exact check
    puts the oracle's counts through the second form, which estimate_f1 uses.
    """

    @staticmethod
    def _expected(model, feats, cfg):
        counts = _reference_cv_counts(model, feats, cfg)
        if counts is None:
            return 0.0
        tp, fp, fn = counts
        return 2 * tp / (2 * tp + fp + fn)

    def test_desk_label_sets(self, desk_agent):
        exp, agent = desk_agent
        cfg = exp.config.classifier
        for p in sorted(agent.models):
            model = agent.models[p]
            got = estimate_f1(model, exp.corpus.X, cfg)
            assert type(got) is float
            assert got == self._expected(model, exp.corpus.X, cfg)

    def test_random_sets(self):
        rng = stream(13, "cvexact")
        for trial in range(120):
            n = int(rng.integers(1, 40))
            pts = [(tuple(rng.normal(size=4)), int(rng.choice([-1, 1]))) for _ in range(n)]
            m, feats = _balanced_model(pts)
            got = estimate_f1(m, feats, CFG)
            assert type(got) is float
            assert got == self._expected(m, feats, CFG)

    def test_every_fold_trains_on_both_classes(self, monkeypatch):
        # estimate_f1 scores every held-out row with its fold's hyperplane, which
        # needs each fold's training labels to hold both classes
        seen = []
        fit_subsets = perception._fit_subsets

        def spy(YX, subsets, cfg):
            seen.append((YX[:, -1] > 0, subsets))
            return fit_subsets(YX, subsets, cfg)

        monkeypatch.setattr(perception, "_fit_subsets", spy)
        rng = stream(14, "twoclass")
        for trial in range(300):
            n = int(rng.integers(4, 30))
            model, feats = _random_model(rng, n, 3, int(rng.integers(1, n)))
            cfg = ClassifierConfig(folds=int(rng.integers(2, 7)), iterations=1)
            estimate_f1(model, feats, cfg)
        assert len(seen) > 200
        for pos, subsets in seen:
            assert (subsets & pos).any(axis=1).all()
            assert (subsets & ~pos).any(axis=1).all()


def _named_model(rng, name: str, n: int, n_pos: int, dim: int = 32, feats=None):
    """A _random_model named `name` whose rows are appended below `feats`, and the grown matrix.

    Each model's labels are on rows of its own, so the models share one matrix.
    """
    model, X = _random_model(rng, n, dim, n_pos)
    if feats is None:
        return PredicateModel(name, labels=model.labels), X
    labels = {len(feats) + row: y for row, y in model.labels.items()}
    return PredicateModel(name, labels=labels), np.vstack([feats, X])


class TestBatchEndStacks:
    """fit_models against per-model train_classifier + estimate_f1, bit for bit.

    A batch start fits every unfit predicate's full label set and CV folds in
    stacks shared across predicates, sorted by row count, so a stack holds
    problems of many sizes and from many models.
    """

    @staticmethod
    def _check(models, feats, cfg):
        stacked = [m.clone() for m in models]
        fit_models(stacked, feats, cfg)
        for got, model in zip(stacked, models):
            want = train_classifier(model.clone(), feats, cfg)
            assert _same_bits(got.weights, want.weights), model.predicate
            assert type(got.f1) is float
            assert got.f1 == estimate_f1(model, feats, cfg), model.predicate

    @staticmethod
    def _stack_shapes(models, feats, cfg):
        """The (problems, padded rows, d+1) shape of every stack fit_models descends on."""
        shapes = []
        fit_hinge = perception._fit_hinge

        def spy(YX, n, cfg):
            shapes.append(YX.shape)
            return fit_hinge(YX, n, cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perception, "_fit_hinge", spy)
            fit_models([m.clone() for m in models], feats, cfg)
        return shapes

    def test_desk_label_sets(self, desk_agent):
        exp, agent = desk_agent
        models = [agent.models[p] for p in sorted(agent.models) if agent.models[p].trainable()]
        assert len(models) >= 10
        self._check(models, exp.corpus.X, exp.config.classifier)

    def test_mixed_sizes_in_one_call(self):
        # stacks with different n_max, more than one stack, and a stack mixing
        # problems of several models and sizes
        rng = stream(16, "batch-end")
        models, feats = [], None
        for j, n in enumerate(range(4, 301, 9)):
            n_pos = int(rng.integers(2, n - 1))
            model, feats = _named_model(rng, f"p{j:02d}", n, n_pos, feats=feats)
            models.append(model)
        self._check(models, feats, CFG)
        shapes = self._stack_shapes(models, feats, CFG)
        assert len(shapes) > 1
        assert len({rows for _, rows, _ in shapes}) > 1
        assert max(k for k, _, _ in shapes) > CFG.folds + 1

    def test_signed_rows_built_once_per_model(self, monkeypatch):
        # a model's folds and full set fall in different stacks; its rows are
        # still built once
        rng = stream(16, "batch-end")
        models, feats = [], None
        for j, n in enumerate(range(4, 301, 9)):
            n_pos = int(rng.integers(2, n - 1))
            model, feats = _named_model(rng, f"p{j:02d}", n, n_pos, feats=feats)
            models.append(model)
        built = []
        signed_rows = perception._signed_rows

        def counted(model, features):
            built.append(model.predicate)
            return signed_rows(model, features)

        monkeypatch.setattr(perception, "_signed_rows", counted)
        assert len(self._stack_shapes(models, feats, CFG)) > 1
        assert sorted(built) == [m.predicate for m in models]

    def test_problem_over_the_cap_gets_a_stack_to_itself(self):
        rng = stream(17, "over-cap")
        n = perception.FIT_STACK_ROWS + 40
        big, feats = _named_model(rng, "big", n, n // 3, dim=4)
        small, feats = _named_model(rng, "small", 30, 12, dim=4, feats=feats)
        self._check([big, small], feats, CFG)
        assert (1, n, 5) in self._stack_shapes([big, small], feats, CFG)

    def test_sets_too_small_to_cross_validate(self):
        # fewer than 4 labels, or fewer than 2 usable folds: F1 0, weights still fit
        rng = stream(18, "small-sets")
        models, feats = [], None
        for j, (n, n_pos) in enumerate([(2, 1), (3, 1), (3, 2), (4, 1), (9, 1), (12, 11), (40, 20)]):
            model, feats = _named_model(rng, f"q{j}", n, n_pos, feats=feats)
            models.append(model)
        self._check(models, feats, CFG)
        self._check(models, feats, ClassifierConfig(folds=1))
        fitted = [m.clone() for m in models]
        fit_models(fitted, feats, CFG)
        assert all(m.weights is not None for m in fitted)
        assert [m.f1 == 0.0 for m in fitted] == [True] * 6 + [False]

    def test_no_stack_over_the_cap_unless_alone(self, monkeypatch):
        monkeypatch.setattr(perception, "FIT_STACK_ROWS", 500)
        rng = stream(19, "cap")
        models, feats = [], None
        for j in range(40):
            n = int(rng.integers(4, 700))
            n_pos = int(rng.integers(2, n - 1))
            model, feats = _named_model(rng, f"s{j:02d}", n, n_pos, dim=3, feats=feats)
            models.append(model)
        shapes = self._stack_shapes(models, feats, ClassifierConfig(iterations=2))
        assert any(k == 1 and rows > perception.FIT_STACK_ROWS for k, rows, _ in shapes)
        assert all(k * rows <= perception.FIT_STACK_ROWS or k == 1 for k, rows, _ in shapes)
        problems = sum(1 + min(5, m.n_pos(), m.n_neg()) for m in models)
        assert sum(k for k, _, _ in shapes) == problems


def _hex(w: np.ndarray) -> list[str]:
    return [v.hex() for v in w.tolist()]


def _assert_oracle_fit(YX, n, cfg):
    """The single fit's weights equal the every-iteration-tested oracle's, float.hex for float.hex."""
    assert _hex(perception._fit_hinge(YX, n, cfg)) == _hex(fit_hinge(YX, n, cfg))


def _count_tests(monkeypatch):
    """A list that grows by one each time a single fit runs its exact violation test."""
    calls = []
    scores = perception._scores

    def counted(YX, w):
        calls.append(1)
        return scores(YX, w)

    monkeypatch.setattr(perception, "_scores", counted)
    return calls


def _record_stretches(monkeypatch):
    """A list that gets (entering feature weights, steps) of each shrink-only stretch a single fit runs."""
    stretches = []
    shrink = perception._shrink

    def recorded(w, buf, l2, steps):
        stretches.append((w.tolist(), steps))
        shrink(w, buf, l2, steps)

    monkeypatch.setattr(perception, "_shrink", recorded)
    return stretches


FAR = np.array([[3.0, 3.0, 1.0], [3.0, 3.0, -1.0]])  # (3, 3) labelled +1 and (-3, -3) labelled -1


class TestSingleFitSkip:
    """The 2-D _fit_hinge skips its violation test while a rounding-safe bound
    proves that no row violates; its weights must equal the oracle's, which
    tests every iteration."""

    def test_every_single_fit_of_an_immediate_run(self):
        cfg = small_run_config()
        cfg = dataclasses.replace(
            cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
        )
        fits = []
        fit_hinge_ = perception._fit_hinge

        def spy(YX, n, c):
            if YX.ndim == 2:
                fits.append((YX.copy(), n, c))
            return fit_hinge_(YX, n, c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(perception, "_fit_hinge", spy)
            Experiment(cfg).run()
        assert len(fits) >= 20
        for YX, n, c in fits:
            _assert_oracle_fit(YX, n, c)

    @staticmethod
    def _third_row(alpha, T):
        """FAR plus the row (alpha, alpha) labelled +1, and that row's score at iteration T."""
        YX = np.vstack([FAR, [alpha, alpha, 1.0]])
        w = fit_hinge(YX, 3, dataclasses.replace(CFG, iterations=T))
        return YX, (YX @ w)[2]

    def _smallest_clearing(self, T, lo, hi):
        """The smallest alpha in (lo, hi] whose third row scores >= 1.0 at iteration T."""
        assert self._third_row(lo, T)[1] < 1.0 <= self._third_row(hi, T)[1]
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return hi
            lo, hi = (lo, mid) if self._third_row(mid, T)[1] >= 1.0 else (mid, hi)

    def _near_margin(self, T):
        """The smallest alpha whose third row still scores >= 1.0 at iteration T.

        Every row violates at w = 0, which sets w = (6 + alpha, 6 + alpha, 1) / 6.
        The far rows then clear the margin for good, and so does the third
        row if alpha(6 + alpha) >= 2.5. Only shrinking feature weights lower
        its score after that, by the factor P(T) up to iteration T, so it
        reaches the margin at iteration T near alpha(6 + alpha) = 2.5 / P(T).
        """
        P = np.prod([1.0 - CFG.l2 * CFG.step_size / (1.0 + CFG.step_decay * t) for t in range(1, T)])
        guess = -3.0 + np.sqrt(9.0 + 2.5 / P)
        return self._smallest_clearing(T, guess * (1 - 1e-6), guess * (1 + 1e-6))

    @pytest.mark.parametrize("T", [1, 2, 10, 100])
    def test_a_score_within_ulps_of_one(self, T):
        alpha = self._near_margin(T)
        near = 0
        for k in range(-3, 4):
            a = alpha
            for _ in range(abs(k)):
                a = np.nextafter(a, np.sign(k) * np.inf)
            YX, score = self._third_row(a, T)
            near += abs(score - 1.0) <= 4 * np.spacing(1.0)
            _assert_oracle_fit(YX, 3, CFG)
            _assert_oracle_fit(YX, 3, dataclasses.replace(CFG, iterations=T + 1))
        assert near >= 2

    def test_a_stretch_of_one_step(self, monkeypatch):
        # the third row lands on the margin at iteration 10: a test that finds
        # no violating row there leaves no budget for a second step
        alpha = self._near_margin(10)
        YX = np.vstack([FAR, [alpha, alpha, 1.0]])
        stretches = _record_stretches(monkeypatch)
        _assert_oracle_fit(YX, 3, CFG)
        lengths = [len(steps) for _, steps in stretches]
        assert 1 in lengths[:-1] and max(lengths) > 1

    @pytest.mark.parametrize(
        "YX",
        [
            np.vstack([FAR, [0.0, 0.0, 1.0]]),  # an all-zero feature row
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [-0.0, 0.0, -1.0]]),  # w_feat stays 0
            np.vstack([FAR, [1e-310, 3e-320, 1.0]]),  # a row of subnormal features
            np.array([[1e-310, 2e-310, 1.0], [-1e-310, 5e-324, -1.0]]),  # subnormal weights
            np.array([[1e-300, 1.0, 1.0], [2.0, 1e-300, -1.0]]),
            FAR * 1e150,
            FAR * 1e-150,
        ],
        ids=["zero-row", "zero-weights", "subnormal-row", "subnormal-weights", "tiny-entries",
             "huge", "small"],
    )
    def test_built_sets(self, YX):
        for cfg in (CFG, ClassifierConfig(iterations=400, step_size=1.5, step_decay=0.0)):
            _assert_oracle_fit(YX, len(YX), cfg)

    def test_weights_shrinking_to_subnormal(self):
        # one class only: the bias alone clears the margin while l2 * step = 0.9
        # drives the feature weights through the subnormal range to zero
        YX = np.array([[1.0, 2.0, 1.0], [3.0, -1.0, 1.0]])
        cfg = ClassifierConfig(iterations=315, step_size=0.9, step_decay=0.0, l2=1.0)
        w = perception._fit_hinge(YX, 2, cfg)
        assert w[-1] >= 1.0 and (0.0 < w[:-1]).all() and (w[:-1] < np.finfo(float).tiny).all()
        for iterations in (300, 315, 400):
            _assert_oracle_fit(YX, 2, dataclasses.replace(cfg, iterations=iterations))

    @pytest.mark.parametrize(
        "cfg",
        [
            ClassifierConfig(l2=0.0),
            ClassifierConfig(step_decay=0.0),
            ClassifierConfig(iterations=0),
            ClassifierConfig(iterations=1),
            ClassifierConfig(l2=2.0, step_size=0.5),  # l2 * step_size == 1
            ClassifierConfig(l2=0.3, step_size=5.0),
        ],
        ids=["l2-0", "decay-0", "iterations-0", "iterations-1", "l2-step-1", "l2-step-1.5"],
    )
    def test_configs(self, cfg):
        rng = stream(17, "single-fit")
        model, feats = _random_model(rng, 9, 4, 4)
        for YX in (FAR, _signed_rows(model, feats)[1]):
            _assert_oracle_fit(YX, len(YX), cfg)

    def test_random_problems(self):
        rng = stream(18, "single-fit-fuzz")
        for _ in range(150):
            n, dim = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            y = rng.choice([-1.0, 1.0], size=(n, 1))
            YX = np.hstack([X, np.ones((n, 1))]) * y
            cfg = ClassifierConfig(
                iterations=int(rng.choice([1, 7, 150])),
                step_size=float(rng.choice([0.05, 0.5, 2.0])),
                step_decay=float(rng.choice([0.0, 0.02, 1.0])),
                l2=float(rng.choice([0.0, 1e-3, 0.01, 0.3, 1.5])),
            )
            _assert_oracle_fit(YX, n, cfg)

    def test_far_rows_skip_most_tests(self, monkeypatch):
        calls = _count_tests(monkeypatch)
        w = perception._fit_hinge(FAR, 2, CFG)
        assert (FAR @ w >= 1.0).all()
        assert 0 < len(calls) < 0.1 * CFG.iterations

    @pytest.mark.parametrize("l2, step_size", [(2.0, 0.5), (0.3, 5.0)])
    def test_every_iteration_tests_when_l2_step_reaches_one(self, monkeypatch, l2, step_size):
        cfg = ClassifierConfig(l2=l2, step_size=step_size)
        calls = _count_tests(monkeypatch)
        perception._fit_hinge(FAR, 2, cfg)
        assert len(calls) == cfg.iterations


class TestStretches:
    """The 2-D _fit_hinge runs each stretch of shrink-only iterations with no
    test, on the feature weights alone; its weights must equal the oracle's,
    which tests and updates every weight on every iteration."""

    @pytest.mark.parametrize("l2", [CFG.l2, 0.0], ids=["l2-0.01", "l2-0"])
    def test_a_stretch_to_the_last_iteration(self, monkeypatch, l2):
        cfg = dataclasses.replace(CFG, l2=l2)
        stretches = _record_stretches(monkeypatch)
        _assert_oracle_fit(FAR, 2, cfg)
        # iteration 0 violates (every score is 0); one stretch runs the rest
        assert [steps for _, steps in stretches] == [perception._step_sizes(cfg)[1:]]

    @pytest.mark.parametrize("tiny", [1e-310, -3e-320, 2e-323])
    def test_subnormal_weights_entering_a_stretch(self, monkeypatch, tiny):
        # the second feature's weight is subnormal from iteration 1 on, while
        # the first keeps max |w_feat| normal, so stretches run longer than a step
        YX = np.array([[3.0, tiny, 1.0], [3.0, tiny, -1.0]])
        stretches = _record_stretches(monkeypatch)
        for cfg in (CFG, ClassifierConfig(l2=0.9, step_size=0.9, step_decay=0.0)):
            _assert_oracle_fit(YX, 2, cfg)
        entering = [weights[1] for weights, steps in stretches if len(steps) > 1]
        assert entering and all(0.0 < abs(w) < np.finfo(float).tiny for w in entering)

    @pytest.mark.parametrize("bias", [-0.0, 0.0, -5e-324, 1.5])
    def test_negative_zero_and_subnormal_weights(self, bias):
        # A fit starts at +0.0 and w - grad is -0.0 only for w = -0.0, so no fit
        # enters a stretch at -0.0: a stretch on the feature weights is checked
        # against the oracle's update of every weight with no violating row.
        weights = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -3.5, bias]
        for cfg in (CFG, ClassifierConfig(l2=0.0), ClassifierConfig(l2=0.9, step_size=0.9)):
            for steps in (perception._step_sizes(cfg), perception._step_sizes(cfg)[:1]):
                want = np.array(weights)
                grad = np.empty_like(want)
                for step in steps:
                    np.multiply(want, cfg.l2, out=grad)
                    grad[-1] = 0.0
                    grad *= step
                    want -= grad
                got = np.array(weights)
                perception._shrink(got[:-1], np.empty(len(weights) - 1), cfg.l2, steps)
                assert _hex(got) == _hex(want)

    @pytest.mark.parametrize("dim", [128, 512])
    def test_wide_features(self, monkeypatch, dim):
        rng = stream(dim, "single-fit")
        model, feats = _random_model(rng, 6, dim, 3)
        stretches = _record_stretches(monkeypatch)
        _assert_oracle_fit(_signed_rows(model, feats)[1], 6, CFG)
        assert max(len(steps) for _, steps in stretches) > 1

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_one_and_two_iterations(self, monkeypatch, iterations):
        cfg = dataclasses.replace(CFG, iterations=iterations)
        rng = stream(17, "single-fit")
        model, feats = _random_model(rng, 9, 4, 4)
        stretches = _record_stretches(monkeypatch)
        _assert_oracle_fit(_signed_rows(model, feats)[1], 9, cfg)
        steps = perception._step_sizes(cfg)
        stretches.clear()
        _assert_oracle_fit(FAR, 2, cfg)  # iteration 0 violates, then a stretch of the last step
        assert [s for _, s in stretches] == [steps[1:]] * (iterations - 1)
        stretches.clear()
        _assert_oracle_fit(np.zeros((0, 3)), 0, cfg)  # no rows: one-step stretches from 0 on
        assert [s for _, s in stretches] == [(step,) for step in steps]


class TestDensity:
    def test_unlabeled_fraction_bounds(self, small_density, small_split):
        region = small_split.policy_train[0][0]
        blank = PredicateModel(predicate="p")
        avg, frac = density_stats(small_density, region, blank)
        assert frac == 1.0
        assert 0.0 <= avg <= 2.0

        full = PredicateModel(predicate="p")
        for n in small_density.knn[region].tolist():
            full.record_label(n, -1)
        _, frac_all = density_stats(small_density, region, full)
        assert frac_all == 0.0

    def test_duplicated_point_same_average_distance(self):
        rng = stream(8, "dup")
        X = rng.normal(size=(6, 4))
        X[5] = X[2]  # duplicate feature point
        idx = DensityIndex(X, np.arange(6), np.arange(6), k=3)
        # brute force for region 2
        unit = X / np.linalg.norm(X, axis=1, keepdims=True)
        dist = 1.0 - unit @ unit.T
        expected = (dist[2].sum() - dist[2, 2]) / 5
        assert idx.avg[2] == pytest.approx(expected)
        assert idx.avg[5] == pytest.approx(expected)

    def test_knn_excludes_self_and_size(self, small_density, small_split):
        for row in classifier_train_rows(small_split)[:5]:
            knn = small_density.knn[row].tolist()
            assert len(knn) == 10
            assert row not in knn
            assert len(set(knn)) == 10

    def test_an_unserved_region_is_refused(self, small_density, small_split):
        # a run's index serves the classifier-train rows; every other row
        # holds NaN and -1s, which density_stats never returns
        served = set(classifier_train_rows(small_split))
        unserved = sorted(set(range(len(small_density.avg))) - served)
        assert len(unserved) == 48 and len(served) == 72
        for row in unserved:
            assert np.isnan(small_density.avg[row])
            assert (small_density.knn[row] == -1).all()
            with pytest.raises(ContractError, match=f"does not serve region row {row}$"):
                density_stats(small_density, row, None)
        for row in served:
            avg, frac = density_stats(small_density, row, None)
            assert 0.0 <= avg <= 2.0 and frac == 1.0
            assert (small_density.knn[row] >= 0).all()
        assert small_density.unserved(range(120)) == unserved


class _ReferenceDensityIndex:
    """The dense N x N index with a Python sort per row, kept as the oracle."""

    def __init__(self, ids, X, k=10):
        self.ids = list(ids)
        n = len(self.ids)
        if X.shape[0] != n:
            raise DataError("feature matrix row count does not match id count")
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1e-12
        unit = X / norms
        dist = 1.0 - unit @ unit.T
        np.fill_diagonal(dist, 0.0)
        self.k = min(k, n - 1)
        self._avg = {}
        for i, rid in enumerate(self.ids):
            others = np.delete(np.arange(n), i)
            self._avg[rid] = float(dist[i, others].mean()) if len(others) else 0.0
        self._knn: dict[str, tuple[str, ...]] = {}
        for i, rid in enumerate(self.ids):
            order = sorted(
                (j for j in range(n) if j != i),
                key=lambda j: (dist[i, j], self.ids[j]),
            )
            self._knn[rid] = tuple(self.ids[j] for j in order[: self.k])


def _rows(ids):
    """Each id's rank in sorted-id order: the row a Corpus gives its region."""
    rank = {rid: i for i, rid in enumerate(sorted(ids))}
    return np.array([rank[rid] for rid in ids], dtype=np.intp)


def _assert_matches_reference(ids, X, **kwargs):
    """Same k, same neighbour tuples in the same order, same averages to the bit.

    The index holds rows; each row's neighbour rows are read back as ids.
    """
    rows = _rows(ids)
    got = DensityIndex(X, rows, rows, **kwargs)
    want = _ReferenceDensityIndex(ids, X, **kwargs)
    assert got.k == want.k
    assert got.avg.shape == (len(ids),) and got.knn.shape == (len(ids), max(want.k, 0))
    by_row = sorted(ids)
    for rid, row in zip(want.ids, rows.tolist()):
        assert tuple(by_row[n] for n in got.knn[row].tolist()) == want._knn[rid], rid
        assert float(got.avg[row]).hex() == want._avg[rid].hex(), rid


DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


@pytest.fixture(scope="module")
def desk_features():
    regions = generate_synthetic(load_config(DESK_CONFIG).corpus.synthetic)
    return [r.id for r in regions], np.stack([r.features for r in regions])


def _tied_points():
    """Points with exact distance ties, zero rows and duplicates; ids not in row order."""
    X = np.array(
        [[1, 0], [0, 1], [-1, 0], [0, 0], [1, 0], [0, -1], [1, 1], [0, 0], [-1, -1]],
        dtype=float,
    )
    ids = ["r7", "r3", "r8", "r0", "r5", "r1", "r6", "r2", "r4"]
    return ids, X


def _mean_over_others_by_mask(dist, rows):
    """Each row's 1-D mean over a boolean-mask copy of its other columns (0 with none)."""
    cols = np.arange(dist.shape[1])
    return np.array(
        [row[cols != own].mean() if len(cols) > 1 else 0.0 for row, own in zip(dist, rows)]
    )


@pytest.mark.parametrize(
    "n, rows",
    [(300, np.arange(100, 164)), (1, np.array([0])), (2, np.array([1]))],
    ids=["full", "one-own-column", "one-other-column"],
)
def test_mean_over_others_equals_the_mask_copy(n, rows):
    # a block of rows of the distances over n regions: at n = 1 a row has no
    # other column, at n = 2 one
    dist = stream(20, "mean-over-others").random((len(rows), n))
    want = _mean_over_others_by_mask(dist.copy(), rows)  # _mean_over_others consumes dist
    got = perception._mean_over_others(dist, rows)
    assert _same_bits(got, want)


class TestDensityAgainstReference:
    def test_conftest_corpus(self, small_corpus):
        # in reversed file order, no region's file position is its rank in id order
        for rows in (small_corpus.file_rows, small_corpus.file_rows[::-1]):
            ids = [small_corpus.ids[row] for row in rows]
            X = small_corpus.X[rows]
            _assert_matches_reference(ids, X, k=10)

    def test_desk_corpus(self, desk_features):
        ids, X = desk_features
        assert len(ids) == 600
        _assert_matches_reference(ids, X, k=10)

    @pytest.mark.parametrize("block", [1, 2, 4, 256])
    @pytest.mark.parametrize("k", [0, 1, 3, 8, 20])
    def test_ties_duplicates_and_zero_rows(self, block, k, monkeypatch):
        monkeypatch.setattr(perception, "DENSITY_BLOCK", block)
        ids, X = _tied_points()
        _assert_matches_reference(ids, X, k=k)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("block", [None, 1])
    def test_tiny_sets(self, n, block, monkeypatch):
        # one region has no other to average over (0); two, one each. A block
        # of one row puts the two regions of n = 2 in separate blocks; None
        # keeps the default DENSITY_BLOCK
        if block is not None:
            monkeypatch.setattr(perception, "DENSITY_BLOCK", block)
        ids, X = _tied_points()
        _assert_matches_reference(ids[:n], X[:n], k=10)
        idx = DensityIndex(X[:n], _rows(ids[:n]), np.arange(n), k=10)
        assert idx.k == n - 1
        for row in range(n):
            assert len(idx.knn[row]) == n - 1

    def test_random_blocks_against_reference(self, monkeypatch):
        rng = stream(5, "density-oracle")
        X = rng.normal(size=(50, 5))
        X[10] = X[3]
        X[20] = 0.0
        ids = [f"r{int(v):03d}" for v in rng.permutation(50)]
        for block in (7, 50):
            monkeypatch.setattr(perception, "DENSITY_BLOCK", block)
            _assert_matches_reference(ids, X, k=6)

    def test_non_finite_features_rejected(self):
        X = np.ones((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(DataError):
            DensityIndex(X, np.arange(3), np.arange(3))

    @pytest.mark.parametrize("rows", [[0, 1], [0, 1, 1], [1, 2, 3]])
    def test_rows_that_are_not_a_permutation_rejected(self, rows):
        with pytest.raises(DataError, match="permutation"):
            DensityIndex(np.ones((3, 2)), np.array(rows), [0])


def test_density_index_memory_is_far_below_one_full_matrix():
    # the dense build held two N x N float64 arrays; blocks of rows hold a few
    # DENSITY_BLOCK x N ones
    n = 2400
    X = stream(6, "density-memory").normal(size=(n, 32))
    tracemalloc.start()
    try:
        DensityIndex(X, np.arange(n), np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


@pytest.mark.parametrize("served", [2400, 1440])
def test_density_index_memory_is_a_few_blocks(served):
    # the lean build holds one DENSITY_BLOCK x N distance block, or a copy
    # of its served rows, and argpartition's index array of the same size
    # at a time
    n = 2400
    rng = stream(6, "density-memory")
    X = rng.normal(size=(n, 32))
    tracemalloc.start()
    try:
        DensityIndex(X, np.arange(n), rng.choice(n, served, replace=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * perception.DENSITY_BLOCK * n * 8


ORACLE_BLOCK = 256  # the copying build's block size


def _assert_equals_copying_build(X, rows, k):
    got = DensityIndex(X, rows, rows, k=k)
    avg, knn = density_oracle.density_arrays(X, rows, k, ORACLE_BLOCK)
    assert _same_bits(got.avg, avg)
    assert _same_bits(got.knn, knn)


@pytest.fixture()
def tie_calls(monkeypatch):
    """The rows each _nearest_with_ties call receives, in call order."""
    calls = []
    real = perception._nearest_with_ties

    def spy(dist, kth, k, rank):
        calls.append(len(dist))
        return real(dist, kth, k, rank)

    monkeypatch.setattr(perception, "_nearest_with_ties", spy)
    return calls


@pytest.fixture(scope="module")
def scale_features():
    """The corpus of perfbench's scale workload: desk's generator at 2400 regions."""
    cfg = dataclasses.replace(load_config(DESK_CONFIG).corpus.synthetic, n_regions=2400)
    regions = generate_synthetic(cfg)
    return [r.id for r in regions], np.stack([r.features for r in regions])


class TestDensityAgainstCopyingBuild:
    """avg and knn equal the np.delete and partition-plus-mask build byte for byte."""

    @pytest.mark.parametrize("k", [0, 1, 10])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 255, 256, 257])
    def test_random_points_around_the_block_sizes(self, n, k):
        rng = stream(n, "density-copying-build")
        _assert_equals_copying_build(rng.normal(size=(n, 8)), rng.permutation(n), k)

    @pytest.mark.parametrize("k", [0, 1, 10])
    @pytest.mark.parametrize("corpus", ["desk_features", "scale_features"])
    def test_desk_and_scale_corpora(self, corpus, k, request, tie_calls):
        ids, X = request.getfixturevalue(corpus)
        assert len(ids) == {"desk_features": 600, "scale_features": 2400}[corpus]
        _assert_equals_copying_build(X, _rows(ids), k)
        assert tie_calls == []  # no row of a synthetic corpus ties at its k-th distance

    @pytest.mark.parametrize("k", [0, 1, 3, 10])
    @pytest.mark.parametrize("block", [None, 1, 4])
    def test_tied_points(self, block, k, monkeypatch, tie_calls):
        if block is not None:
            monkeypatch.setattr(perception, "DENSITY_BLOCK", block)
        ids, X = _tied_points()
        _assert_equals_copying_build(X, _rows(ids), k)
        # at k >= 8 every other column is a neighbour of each of the 9 points,
        # so no row has more candidates than k
        assert bool(tie_calls) == (0 < k < len(ids) - 1)

    @pytest.mark.parametrize("k", [0, 1, 10])
    def test_duplicate_heavy_points(self, k, tie_calls):
        # 300 points on 26 directions: most rows tie with many others at the cut
        rng = stream(9, "density-duplicates")
        X = rng.integers(-1, 2, size=(300, 3)).astype(float)
        _assert_equals_copying_build(X, rng.permutation(300), k)
        assert bool(tie_calls) == (k > 0)


def _assert_serves(idx, served, full):
    """idx holds full's avg and knn bytes at the served rows, NaN and -1 elsewhere."""
    served = np.unique(np.asarray(served, dtype=np.intp))
    unserved = np.setdiff1d(np.arange(len(full.avg)), served)
    assert _same_bits(idx.avg[served], full.avg[served])
    assert _same_bits(idx.knn[served], full.knn[served])
    assert np.isnan(idx.avg[unserved]).all() and (idx.knn[unserved] == -1).all()
    assert idx.unserved(range(len(full.avg))) == unserved.tolist()


@pytest.fixture(scope="module")
def benchmark_runs():
    """Each benchmark corpus's Experiment: desk's config, and at 2400 regions scale's."""
    desk = load_config(DESK_CONFIG)
    scale = dataclasses.replace(
        desk,
        corpus=dataclasses.replace(
            desk.corpus, synthetic=dataclasses.replace(desk.corpus.synthetic, n_regions=2400)
        ),
        split=dataclasses.replace(desk.split, frequency_threshold=600),
    )
    return {"desk": Experiment(desk), "scale": Experiment(scale)}


class TestServedRows:
    """Each served row's avg and knn equal the build serving every row byte for byte.

    The full build is checked against the copying build at DENSITY_BLOCK:
    at N <= 256 the copying build's 256-row block is numpy's product of the
    whole matrix and its transpose, whose bits differ at d = 16, N = 65.
    """

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("d", [3, 16, 32])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    def test_random_points(self, n, d, k):
        rng = stream(100 * n + d, "density-served")
        X, rows = rng.normal(size=(n, d)), rng.permutation(n)
        full = DensityIndex(X, rows, rows, k=k)
        avg, knn = density_oracle.density_arrays(X, rows, k, perception.DENSITY_BLOCK)
        assert _same_bits(full.avg, avg) and _same_bits(full.knn, knn)
        # by file position: the first, and the last, alone in a short last block at 65 and 129
        for served in ([rows[0]], [rows[-1]], rng.choice(n, round(0.6 * n), replace=False)):
            _assert_serves(DensityIndex(X, rows, served, k=k), served, full)

    @pytest.mark.parametrize("d", [3, 16, 32])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 200])
    def test_products_equal_the_full_builds_blocks(self, n, d):
        # the distances themselves: a last-bit difference in one need not
        # reach a mean or a neighbour order
        rng = stream(100 * n + d, "density-served-products")
        X = rng.normal(size=(n, d))
        unit = X / np.linalg.norm(X, axis=1, keepdims=True)
        size = perception.DENSITY_BLOCK
        want = np.vstack([unit[a : a + size] @ unit.T for a in range(0, n, size)])
        subsets = [[0], [n - 1], np.arange(n)]
        subsets += [rng.choice(n, round(share * n), replace=False) for share in (0.3, 0.6, 0.9)]
        for positions in subsets:
            served = np.zeros(n, dtype=bool)
            served[positions] = True
            yielded = [np.empty(0, dtype=np.intp)]
            for take, keep in perception._served_blocks(served):
                block = np.arange(n)[take][keep]
                assert _same_bits((unit[take] @ unit.T)[keep], want[block])
                yielded.append(block)
            assert np.array_equal(np.sort(np.concatenate(yielded)), np.flatnonzero(served))

    @pytest.mark.parametrize("name, n_served", [("desk", 360), ("scale", 1440)])
    def test_benchmark_splits(self, name, n_served, benchmark_runs):
        exp = benchmark_runs[name]
        served = classifier_train_rows(exp.split)
        assert len(served) == n_served
        rows, k = exp.corpus.file_rows, exp.config.classifier.knn_k
        X = exp.corpus.X[rows]
        full = DensityIndex(X, rows, rows, k=k)
        avg, knn = density_oracle.density_arrays(X, rows, k, perception.DENSITY_BLOCK)
        assert _same_bits(full.avg, avg) and _same_bits(full.knn, knn)
        _assert_serves(exp.density, served, full)

    @pytest.mark.parametrize("served", [[-1], [3], [0, 3]])
    def test_rows_outside_the_corpus_rejected(self, served):
        with pytest.raises(DataError, match="served rows"):
            DensityIndex(np.ones((3, 2)), np.arange(3), served)


class TestStepSizes:
    def test_built_once_per_config_and_equal_to_the_formula(self):
        cfg = ClassifierConfig(iterations=40, step_size=0.7, step_decay=0.03)
        steps = perception._step_sizes(cfg)
        assert perception._step_sizes(cfg) is steps
        assert perception._step_sizes(dataclasses.replace(cfg)) is steps  # an equal config
        assert steps == tuple(0.7 / (1.0 + 0.03 * t) for t in range(40))
        assert perception._step_sizes(dataclasses.replace(cfg, iterations=0)) == ()
