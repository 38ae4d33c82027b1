"""Batch-frozen classifier state, held once as arrays.

Classifiers and their F1 estimates change only at batch ends (and, with
immediate updates, for one predicate at a time inside an episode). A Snapshot
stacks the agent's classifiers once per batch: feature weights, biases, weight
norms, F1, trained flags and triangular sampling weights, one row per
predicate plus a last row for every predicate without a classifier. An
EpisodeView takes one interaction's rows and columns from it: margins on the
active-train objects (and each row's columns ordered by margin, then region
row) and decisions on the active-test objects, whose features it gathers by
region row (corpus.Corpus) from the corpus matrix. Its `labels` lists hold
the classifiers' labels on the same active-train columns, one Python list
per row, signed +1/-1 with 0 for none, and seed the episode's label record
(dialog.Episode.known).
`entries` writes every classifier row from classifier_rows' arrays: a
view's rows at build time (Snapshot.entries), and an immediate refit's row,
which EpisodeView.update computes from classifier_rows of the one refit
classifier without building a Snapshot. A predicate whose labels hold one
class is never refit (harness.Experiment._fit): its row stays that of no
classifier, while the view's copy of its model gathers the new labels.
Beams, grounding and guess features read these arrays; nothing scores one
object against one classifier at a time. The snapshot also holds the
batch's memo of sampling CDFs (`cdfs`, see querygen.sample_predicates),
which every view shares.

Every entry equals its scalar form bit for bit: the score w[:-1] @ x + w[-1],
its sign (+1 at exactly 0, -1 when untrained) and its distance to the
hyperplane (0 below MARGIN_NORM_FLOOR). tests/classifier_oracle.py keeps
those scalar functions as the reference. Scores come from np.vecdot, one dot
product per (predicate, object) pair: the same BLAS dot as the 1-D
w[:-1] @ x. A matrix product sums in another order and differs in the last
bits.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

import numpy as np

from .perception import MARGIN_NORM_FLOOR, PredicateModel
from .querygen import TriangularWeights, triangular_weights


def classifier_rows(
    models: Sequence[PredicateModel | None], dim: int, params: TriangularWeights
) -> tuple:
    """Feature weights, biases, weight norms, trained flags, F1 and sampling weights.

    One row per model; a model without weights (or None, no model) has zero
    weights and is untrained, and None has F1 0.
    """
    n = len(models)
    coef = np.zeros((n, dim))
    bias = np.zeros(n)
    norms = np.zeros(n)
    f1 = np.zeros(n)
    trained = np.zeros(n, dtype=bool)
    for i, model in enumerate(models):
        if model is None:
            continue
        f1[i] = model.f1
        if model.weights is not None:
            coef[i] = model.weights[:-1]
            bias[i] = model.weights[-1]
            norms[i] = np.linalg.norm(model.weights[:-1])
            trained[i] = True
    return coef, bias, norms, trained, f1, triangular_weights(f1, params)


def _scores(coef: np.ndarray, bias: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.vecdot(X, coef[:, None, :]) + bias[:, None]


def entries(coef, bias, norms, trained, f1, sampling, train_X, test_X) -> tuple:
    """F1, sampling weights, trained flags, margins on train_X and decisions on test_X.

    Takes classifier_rows' arrays, or rows of them. Margins are the distances
    |score| / ||w[:-1]|| to the hyperplanes, 0 below MARGIN_NORM_FLOOR;
    decisions are +1 where the score is >= 0, -1 elsewhere and when
    untrained. Margins and decisions are new arrays.
    """
    norms = norms[:, None]
    flat = norms < MARGIN_NORM_FLOOR
    abs_scores = np.abs(_scores(coef, bias, train_X))
    margins = np.where(flat, 0.0, abs_scores / np.where(flat, 1.0, norms))
    decisions = np.where(trained[:, None] & (_scores(coef, bias, test_X) >= 0.0), 1, -1)
    return f1, sampling, trained, margins, decisions


class Snapshot:
    """The agent's classifiers stacked as arrays, built once per batch."""

    def __init__(
        self,
        models: Mapping[str, PredicateModel],
        dim: int,
        params: TriangularWeights = TriangularWeights(),
    ):
        names = sorted(models)
        self.params = params
        self.row = {p: i for i, p in enumerate(names)}
        self.models: list[PredicateModel | None] = [models[p] for p in names] + [None]
        self.coef, self.bias, self.norms, self.trained, self.f1, self.sampling = (
            classifier_rows(self.models, dim, params)
        )
        self.cdfs: dict[bytes, array] = {}  # sample_predicates' memo for the batch

    def scores(self, rows, X: np.ndarray) -> np.ndarray:
        """(len(rows), len(X)) linear scores, each equal to the scalar w[:-1] @ x + w[-1]."""
        return _scores(self.coef[rows], self.bias[rows], X)

    def entries(self, rows, train_X: np.ndarray, test_X: np.ndarray) -> tuple:
        """The entries (see `entries`) of the given rows, every array a new one."""
        arrays = (self.coef, self.bias, self.norms, self.trained, self.f1, self.sampling)
        return entries(*(a[rows] for a in arrays), train_X, test_X)


class EpisodeView:
    """One interaction's predicates (sorted) against its active-train and -test objects.

    Row i is predicates[i]; train columns follow train_rows (active_train),
    test columns test_rows (active_test), both region rows of X. `update`
    swaps in a refit classifier for one predicate.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        predicates: Iterable[str],
        active_train: Sequence[int],
        active_test: Sequence[int],
        X: np.ndarray,
    ):
        self.predicates = tuple(sorted(predicates))
        self.index = {p: i for i, p in enumerate(self.predicates)}
        none = len(snapshot.models) - 1
        rows = np.array([snapshot.row.get(p, none) for p in self.predicates], dtype=np.intp)
        self.models = [snapshot.models[r] for r in rows]
        self.train_rows = tuple(active_train)
        self.test_rows = tuple(active_test)
        self.train_by_row = np.argsort(self.train_rows, kind="stable")
        self._train_X = X[list(self.train_rows)]
        self._test_X = X[list(self.test_rows)]
        self._params = snapshot.params
        self.cdfs = snapshot.cdfs
        self.f1, self.sampling, self.trained, self.margins, self.decisions = snapshot.entries(
            rows, self._train_X, self._test_X
        )
        self.by_margin = self._by_margin(self.margins)

    def _by_margin(self, margins: np.ndarray) -> list:
        """Train columns of each row by ascending margin, ties by ascending region row.

        A row's first free column is then its least-margin free column, the
        one best_object_for_predicate picks.
        """
        order = np.argsort(margins[..., self.train_by_row], axis=-1, kind="stable")
        return self.train_by_row[order].tolist()

    def update(self, predicate: str, model: PredicateModel) -> None:
        """Replace one predicate's classifier, as an immediate refit does.

        The row is written by `entries` from classifier_rows of this one
        classifier, so it equals that of a snapshot built with it.
        """
        i = self.index[predicate]
        self.models[i] = model
        rows = classifier_rows([model], self._train_X.shape[1], self._params)
        arrays = (self.f1, self.sampling, self.trained, self.margins, self.decisions)
        for dst, entry in zip(arrays, entries(*rows, self._train_X, self._test_X)):
            dst[i] = entry[0]
        self.by_margin[i] = self._by_margin(self.margins[i])

    def labels(self) -> list[list[int]]:
        """The classifiers' labels of (predicates[i], train_rows[j]): +1, -1, 0 for none.

        One new list per row.
        """
        rows = self.train_rows
        return [
            [0] * len(rows) if model is None else [model.labels.get(row, 0) for row in rows]
            for model in self.models
        ]
