"""Batch-frozen classifier state, held once as arrays.

Classifiers and their F1 estimates change only between batches (and, with
immediate updates, for one predicate at a time inside an episode). BatchRows
is the one representation of a batch's classifier state: built at the batch
start from the agent's classifiers, it holds the rows of the batch's
predicates over the batch's objects (F1, trained flags, sampling weights,
margins, decisions and labels), never sized by the corpus, and every
episode's train and test columns. The views of one predicate set share a
RowSet, which harness.BatchSetup builds and keeps: the set's predicates,
models, F1, trained flags, sampling weights and the one CDF of those
weights that every beam draw reads (querygen.SamplingCDF). An
EpisodeView is one episode's slice of these: it takes its row set's arrays,
gathers its own margins, decisions and labels over its columns, orders
each row's train columns by margin, then region row, and seeds the
episode's label record (dialog.Episode.known) with its label rows.
`entries` writes every classifier row from classifier_rows' arrays: a
batch's rows, and an immediate refit's row (EpisodeView.update, which first
copies the row set's arrays it writes and builds the view's CDF again). A
predicate whose labels hold one class is never refit
(harness.Experiment._refresh_models): its row stays that of no classifier,
while the view's copy of its model gathers the new labels.
Beams, grounding and guess features read these arrays; nothing scores one
object against one classifier at a time.

Every entry equals its scalar form bit for bit: the score w[:-1] @ x + w[-1],
its sign (+1 at exactly 0, -1 when untrained) and its distance to the
hyperplane (0 below MARGIN_NORM_FLOOR). tests/classifier_oracle.py keeps
those scalar functions as the reference, and tests/setup_oracle.py the
per-episode build that BatchRows replaced. Scores come from np.vecdot, one
dot product per (predicate, object) pair: the same BLAS dot as the 1-D
w[:-1] @ x. A matrix product sums in another order and differs in the last
bits.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .perception import MARGIN_NORM_FLOOR, PredicateModel
from .querygen import SamplingCDF, TriangularWeights, triangular_weight

if TYPE_CHECKING:
    from .corpus import Interaction


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
    sampling = np.full(n, triangular_weight(0.0, params))
    for i, model in enumerate(models):
        if model is None:
            continue
        f1[i] = model.f1
        sampling[i] = triangular_weight(model.f1, params)
        if model.weights is not None:
            coef[i] = model.weights[:-1]
            bias[i] = model.weights[-1]
            norms[i] = np.linalg.norm(model.weights[:-1])
            trained[i] = True
    return coef, bias, norms, trained, f1, sampling


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


class BatchRows:
    """A batch's classifier rows over the union of its episodes' objects, held once as arrays.

    Row i is predicates[i], the sorted union of the agent's predicates at the
    batch start and the batch's description predicates, with the classifier
    models.get(predicates[i]) (None: the row of no classifier). Train columns
    are the union of the interactions' active-train region rows, test columns
    that of their active-test rows, both ascending: at most batch size x
    active_train and batch size x active_test columns, whatever the corpus
    size. `labels` is the classifiers' signed label table on the train
    columns, 0 for none. `train_cols[e]` and `test_cols[e]` are episode e's
    columns, in its interaction's order, all found by one searchsorted.
    `first` is the first episode whose view holds each predicate, -1 for the
    agent's: the views' predicate sets only grow along the batch, so episode
    e's view holds the `sizes[e]` rows whose `first` is at most e, and the
    views of one size can share one RowSet (harness.BatchSetup keeps it).
    """

    def __init__(
        self,
        models: Mapping[str, PredicateModel],
        predicates: Iterable[str],
        interactions: Sequence[Interaction],
        X: np.ndarray,
        params: TriangularWeights,
    ):
        self.interactions = interactions
        first = dict.fromkeys(predicates, -1)
        for e, interaction in enumerate(interactions):
            for p in interaction.description_predicates:
                first.setdefault(p, e)
        self.predicates = tuple(sorted(first))
        self.index = {p: i for i, p in enumerate(self.predicates)}
        self.first = np.array([first[p] for p in self.predicates], dtype=np.intp)
        self.sizes = np.searchsorted(
            np.sort(self.first), np.arange(len(interactions)), side="right"
        ).tolist()
        self.models = [models.get(p) for p in self.predicates]
        self.params = params
        self.X = X
        self.train_rows = _union(i.active_train for i in interactions)
        self.test_rows = _union(i.active_test for i in interactions)
        self.train_cols = _columns(self.train_rows, [i.active_train for i in interactions])
        self.test_cols = _columns(self.test_rows, [i.active_test for i in interactions])
        self.f1, self.sampling, self.trained, self.margins, self.decisions = entries(
            *classifier_rows(self.models, X.shape[1], params),
            X[self.train_rows],
            X[self.test_rows],
        )
        self.labels = np.zeros((len(self.models), len(self.train_rows)), dtype=np.int8)
        for i, model in enumerate(self.models):
            if model is not None and model.labels:
                held = np.fromiter(model.labels, dtype=np.intp, count=len(model.labels))
                _, cols, found = np.intersect1d(
                    self.train_rows, held, assume_unique=True, return_indices=True
                )
                signs = np.fromiter(model.labels.values(), dtype=np.int8, count=len(held))
                self.labels[i, cols] = signs[found]


class RowSet:
    """What the views of one predicate set share: their rows' predicates, models and weights.

    RowSet(batch, episode) holds the rows of episode's view, and serves
    every view of that size. `rows` are the batch rows, ascending, and
    `grid` the same as a column for gathering (row, column) blocks. f1,
    sampling, trained and the sampling CDF are read-only: a view copies
    them before its first write.
    """

    __slots__ = ("rows", "grid", "predicates", "index", "models", "f1", "sampling",
                 "trained", "sampling_cdf")

    def __init__(self, batch: BatchRows, episode: int):
        rows = np.flatnonzero(batch.first <= episode)
        listed = rows.tolist()
        self.rows = rows
        self.grid = rows[:, None]
        self.predicates = tuple(batch.predicates[r] for r in listed)
        self.index = {p: i for i, p in enumerate(self.predicates)}
        self.models = tuple(batch.models[r] for r in listed)
        self.f1 = batch.f1[rows]
        self.sampling = batch.sampling[rows]
        self.trained = batch.trained[rows]
        self.sampling_cdf = SamplingCDF(self.sampling)


def _union(groups: Iterable[Sequence[int]]) -> np.ndarray:
    """The region rows of all groups, ascending, each once."""
    return np.array(sorted(set(chain.from_iterable(groups))), dtype=np.intp)


def _columns(rows: np.ndarray, groups: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Each group's positions in the ascending `rows`, in the group's order."""
    flat = np.fromiter(chain.from_iterable(groups), dtype=np.intp)
    cols = np.searchsorted(rows, flat)
    return np.split(cols, np.cumsum([len(g) for g in groups[:-1]], dtype=np.intp))


def _by_margin(margins: np.ndarray, cols: np.ndarray) -> list:
    """Train columns of each row by ascending margin, ties by ascending region row.

    `cols` are the columns' batch columns, ascending with their region rows.
    A row's first free column is then its least-margin free column, the one
    best_object_for_predicate picks.
    """
    return np.lexsort((np.broadcast_to(cols, margins.shape), margins)).tolist()


class EpisodeView:
    """A batch episode's predicates (sorted) against its active-train and -test objects.

    Row i is predicates[i], batch row rows[i]; train columns follow
    train_rows (active_train), test columns test_rows (active_test), both
    region rows. Predicates, models, F1, sampling weights, trained flags and
    `sampling_cdf`, the CDF of the sampling weights that the beam draws
    from, come from `shared`, the RowSet of the view's rows, which the
    caller builds or reuses (harness.BatchSetup). Margins,
    decisions, labels and `by_margin` are the view's own gather. `update`,
    which swaps in a refit classifier for one row, copies what it writes
    first, so it writes this view only.
    """

    def __init__(self, batch: BatchRows, episode: int, shared: RowSet):
        interaction = batch.interactions[episode]
        self.rows = shared.rows
        self.predicates = shared.predicates
        self.index = shared.index
        self.models = list(shared.models)
        self.f1, self.sampling, self.trained = shared.f1, shared.sampling, shared.trained
        self.sampling_cdf = shared.sampling_cdf
        self.train_rows = tuple(interaction.active_train)
        self.test_rows = tuple(interaction.active_test)
        self._batch = batch
        self._shared = True  # f1, sampling and trained are the row set's
        self._train_cols = cols = batch.train_cols[episode]
        grid = shared.grid
        self.margins = batch.margins[grid, cols]
        self.decisions = batch.decisions[grid, batch.test_cols[episode]]
        self._labels = batch.labels[grid, cols]
        self.by_margin = _by_margin(self.margins, cols)

    def update(self, i: int, model: PredicateModel) -> None:
        """Replace the classifier of row i, as an immediate refit does.

        The row is written by `entries` from classifier_rows of this one
        classifier, so it equals that of a batch built with it, and the
        sampling CDF is built again over the new weights.
        """
        self.models[i] = model
        if self._shared:
            self.f1, self.sampling, self.trained = (
                self.f1.copy(), self.sampling.copy(), self.trained.copy()
            )
            self._shared = False
        X = self._batch.X
        rows = classifier_rows([model], X.shape[1], self._batch.params)
        objects = X[list(self.train_rows)], X[list(self.test_rows)]
        arrays = (self.f1, self.sampling, self.trained, self.margins, self.decisions)
        for dst, entry in zip(arrays, entries(*rows, *objects)):
            dst[i] = entry[0]
        self.by_margin[i] = _by_margin(self.margins[i], self._train_cols)
        self.sampling_cdf = SamplingCDF(self.sampling)

    def labels(self) -> list[list[int]]:
        """The classifiers' labels of (predicates[i], train_rows[j]): +1, -1, 0 for none.

        One new list per row.
        """
        return self._labels.tolist()
