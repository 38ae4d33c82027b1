"""Batch-frozen classifier state, held once as arrays.

Classifiers and their F1 estimates change only at batch ends (and, with
immediate updates, for one predicate at a time inside an episode). A Snapshot
stacks the agent's classifiers once per batch: feature weights, biases, weight
norms, F1, trained flags and triangular sampling weights, one row per
predicate plus a last row for every predicate without a classifier. An
EpisodeView takes one interaction's rows and columns from it: margins on the
active-train objects (and each row's columns ordered by margin, then id)
and decisions on the active-test objects. Its `labels` table holds the
classifiers' labels on the same active-train columns, signed +1/-1 with 0
for none, and seeds the episode's label record (dialog.Episode.known).
Snapshot.entries writes every classifier row: a view's rows at build time,
and an immediate refit's row, which EpisodeView.update copies from a
snapshot of the one refit classifier. A predicate whose labels hold one
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


def _matrix(ids: Sequence[str], features: Mapping[str, np.ndarray], dim: int) -> np.ndarray:
    return np.stack([features[rid] for rid in ids]) if ids else np.zeros((0, dim))


class Snapshot:
    """The agent's classifiers stacked as arrays, built once per batch."""

    def __init__(
        self,
        models: Mapping[str, PredicateModel],
        dim: int,
        params: TriangularWeights = TriangularWeights(),
    ):
        names = sorted(models)
        self.dim = dim
        self.params = params
        self.row = {p: i for i, p in enumerate(names)}
        self.models: list[PredicateModel | None] = [models[p] for p in names] + [None]
        n = len(self.models)
        self.coef = np.zeros((n, dim))
        self.bias = np.zeros(n)
        self.norms = np.zeros(n)
        self.f1 = np.zeros(n)
        self.trained = np.zeros(n, dtype=bool)
        for i, model in enumerate(self.models[:-1]):
            self.f1[i] = model.f1
            if model.weights is not None:
                self.coef[i] = model.weights[:-1]
                self.bias[i] = model.weights[-1]
                self.norms[i] = np.linalg.norm(model.weights[:-1])
                self.trained[i] = True
        self.sampling = triangular_weights(self.f1, params)
        self.cdfs: dict[bytes, array] = {}  # sample_predicates' memo for the batch

    def scores(self, rows, X: np.ndarray) -> np.ndarray:
        """(len(rows), len(X)) linear scores, each equal to the scalar w[:-1] @ x + w[-1]."""
        return np.vecdot(X, self.coef[rows, None, :]) + self.bias[rows, None]

    def entries(self, rows, train_X: np.ndarray, test_X: np.ndarray) -> tuple:
        """F1, sampling weights, trained flags, margins on train_X and decisions on test_X.

        Margins are the distances |score| / ||w[:-1]|| to the hyperplanes, 0
        below MARGIN_NORM_FLOOR; decisions are +1 where the score is >= 0, -1
        elsewhere and when untrained. Every array is a new one.
        """
        norms = self.norms[rows, None]
        flat = norms < MARGIN_NORM_FLOOR
        abs_scores = np.abs(self.scores(rows, train_X))
        margins = np.where(flat, 0.0, abs_scores / np.where(flat, 1.0, norms))
        decisions = np.where(self.trained[rows, None] & (self.scores(rows, test_X) >= 0.0), 1, -1)
        return self.f1[rows], self.sampling[rows], self.trained[rows], margins, decisions


class EpisodeView:
    """One interaction's predicates (sorted) against its active-train and -test objects.

    Row i is predicates[i]; train columns follow active_train, test columns
    active_test. `update` swaps in a refit classifier for one predicate.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        predicates: Iterable[str],
        active_train: Sequence[str],
        active_test: Sequence[str],
        features: Mapping[str, np.ndarray],
    ):
        self.predicates = tuple(sorted(predicates))
        self.index = {p: i for i, p in enumerate(self.predicates)}
        none = len(snapshot.models) - 1
        rows = np.array([snapshot.row.get(p, none) for p in self.predicates], dtype=np.intp)
        self.models = [snapshot.models[r] for r in rows]
        self.train_ids = tuple(active_train)
        self.test_ids = tuple(active_test)
        self.train_by_id = np.array(
            sorted(range(len(self.train_ids)), key=self.train_ids.__getitem__), dtype=np.intp
        )
        self.train_col = {rid: j for j, rid in enumerate(self.train_ids)}
        self.test_col = {rid: j for j, rid in enumerate(self.test_ids)}
        self._train_X = _matrix(self.train_ids, features, snapshot.dim)
        self._test_X = _matrix(self.test_ids, features, snapshot.dim)
        self._params = snapshot.params
        self.cdfs = snapshot.cdfs
        self.f1, self.sampling, self.trained, self.margins, self.decisions = snapshot.entries(
            rows, self._train_X, self._test_X
        )
        self.by_margin = self._by_margin(self.margins)

    def _by_margin(self, margins: np.ndarray) -> list:
        """Train columns of each row by ascending margin, ties by ascending id.

        A row's first free column is then its least-margin free column, the
        one best_object_for_predicate picks.
        """
        order = np.argsort(margins[..., self.train_by_id], axis=-1, kind="stable")
        return self.train_by_id[order].tolist()

    def update(self, predicate: str, model: PredicateModel) -> None:
        """Replace one predicate's classifier, as an immediate refit does.

        The row is copied from a snapshot of this one classifier, so every
        classifier row is written by Snapshot and equals that of a snapshot
        built with this classifier.
        """
        i = self.index[predicate]
        self.models[i] = model
        one = Snapshot({predicate: model}, self._train_X.shape[1], self._params)
        arrays = (self.f1, self.sampling, self.trained, self.margins, self.decisions)
        for dst, entry in zip(arrays, one.entries([0], self._train_X, self._test_X)):
            dst[i] = entry[0]
        self.by_margin[i] = self._by_margin(self.margins[i])

    def labels(self) -> np.ndarray:
        """The classifiers' labels of (predicates[i], train_ids[j]) as int8: +1, -1, 0 for none."""
        table = np.zeros((len(self.predicates), len(self.train_ids)), dtype=np.int8)
        for i, model in enumerate(self.models):
            if model is not None and model.labels:
                table[i] = [model.labels.get(rid, 0) for rid in self.train_ids]
        return table
