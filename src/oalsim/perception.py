"""Predicate extraction and per-predicate binary classifiers.

Every predicate gets its own linear classifier over region features, trained
by full batch subgradient descent on a regularized hinge loss. Retraining is
a pure function of the labeled set, so label acquisition order never matters.
Classifier trust is the cross-validated F1 on the labels acquired so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ContractError, DataError, UndefinedMarginError

# Small closed-class list; enough to strip function words from short object
# descriptions ("the red box" -> red, box) without an NLP dependency.
STOPWORDS = frozenset(
    """a an the of in on at is it its this that these those and or to with for
    by from as are was were be been being has have had his her their there
    here me my we us our you your i he she they them what which who whom am
    do does did not no nor so if then than too very can will just""".split()
)


def normalize_token(token: str) -> str:
    """Lower-case, strip non-alphanumerics, apply a light plural stemmer."""
    tok = "".join(c for c in token.lower() if c.isalnum())
    return _stem(tok)


def _stem(tok: str) -> str:
    if tok.endswith("sses"):
        return tok[:-2]
    if tok.endswith("ies") and len(tok) > 4:
        return tok[:-3] + "i"
    if tok.endswith("ss"):
        return tok
    if tok.endswith("s") and len(tok) > 3:
        return tok[:-1]
    return tok


def extract_predicates(description: str, stopwords: frozenset[str] = STOPWORDS) -> list[str]:
    """Tokenize, drop stopwords, stem; dedup preserving first occurrence."""
    if not description or not description.strip():
        raise DataError("empty description")
    out: list[str] = []
    for raw in description.split():
        low = "".join(c for c in raw.lower() if c.isalnum())
        if not low or low in stopwords:
            continue
        stemmed = _stem(low)
        if stemmed and stemmed not in out:
            out.append(stemmed)
    if not out:
        raise DataError(f"description {description!r} reduces to stopwords only")
    return out


@dataclass
class PredicateModel:
    """One concept: acquired labels, linear decision function, estimated F1."""

    predicate: str
    labels: dict[str, int] = field(default_factory=dict)  # region id -> -1/+1
    weights: np.ndarray | None = None  # (d+1,): feature weights + bias
    f1: float = 0.0

    def n_pos(self) -> int:
        return sum(1 for v in self.labels.values() if v > 0)

    def n_neg(self) -> int:
        return sum(1 for v in self.labels.values() if v < 0)

    def trainable(self) -> bool:
        return self.n_pos() >= 1 and self.n_neg() >= 1

    def record_label(self, region_id: str, label: int) -> bool:
        """Store a label; re-recording the same label is a no-op, a flip is an error.

        Returns True if the label was new.
        """
        if label not in (-1, 1):
            raise ContractError(f"label must be -1 or +1, got {label}")
        prev = self.labels.get(region_id)
        if prev is None:
            self.labels[region_id] = label
            return True
        if prev != label:
            raise ContractError(
                f"conflicting label for ({self.predicate!r}, {region_id!r}): "
                f"had {prev}, got {label}"
            )
        return False

    def clone(self) -> "PredicateModel":
        return PredicateModel(
            predicate=self.predicate,
            labels=dict(self.labels),
            weights=None if self.weights is None else self.weights.copy(),
            f1=self.f1,
        )


@dataclass(frozen=True)
class ClassifierConfig:
    iterations: int = 150
    step_size: float = 0.5
    step_decay: float = 0.02
    l2: float = 0.01
    folds: int = 5
    knn_k: int = 10
    density_avg_sample: int | None = None  # cap the cosine-average reference set


def _fit_hinge(X: np.ndarray, y: np.ndarray, cfg: ClassifierConfig) -> np.ndarray:
    """Batch subgradient descent on l2-regularized hinge loss; bias unregularized.

    Each row, with a bias column of ones appended, is multiplied by its label
    once. y is +1 or -1 and negation commutes with rounding, so YX @ w equals
    y * ([X, 1] @ w) bit for bit and the fit does not depend on which is used.
    """
    n, d = X.shape
    YX = y[:, None] * np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1)
    grad = np.empty(d + 1)
    for t in range(cfg.iterations):
        viol = YX @ w < 1.0
        np.multiply(w, cfg.l2, out=grad)
        grad[-1] = 0.0
        if viol.any():
            grad -= YX[viol].sum(axis=0) / n
        grad *= cfg.step_size / (1.0 + cfg.step_decay * t)
        w -= grad
    return w


def train_classifier(
    model: PredicateModel,
    features: Mapping[str, np.ndarray],
    cfg: ClassifierConfig,
) -> PredicateModel:
    """Full retrain from the labeled set; untrainable sets leave weights absent."""
    if not model.trainable():
        model.weights = None
        model.f1 = 0.0
        return model
    ids = sorted(model.labels)
    X = np.stack([features[rid] for rid in ids])
    y = np.array([model.labels[rid] for rid in ids], dtype=np.float64)
    model.weights = _fit_hinge(X, y, cfg)
    return model


def score(model: PredicateModel, features: np.ndarray) -> float:
    if model.weights is None:
        raise UndefinedMarginError(f"predicate {model.predicate!r} has no hyperplane")
    return float(model.weights[:-1] @ features + model.weights[-1])


def decide(model: PredicateModel | None, features: np.ndarray) -> int:
    """Sign of the linear score; -1 when untrained; exact zero breaks to +1."""
    if model is None or model.weights is None:
        return -1
    return 1 if score(model, features) >= 0.0 else -1


MARGIN_NORM_FLOOR = 1e-12  # weight norms below this give margin 0


def margin(model: PredicateModel, features: np.ndarray) -> float:
    """Geometric distance of the feature point to the decision hyperplane."""
    if model.weights is None:
        raise UndefinedMarginError(f"predicate {model.predicate!r} has no hyperplane")
    norm = float(np.linalg.norm(model.weights[:-1]))
    if norm < MARGIN_NORM_FLOOR:
        return 0.0
    return abs(score(model, features)) / norm


def _fold_of(rank: int, k: int) -> int:
    return rank % k


def estimate_f1(
    model: PredicateModel,
    features: Mapping[str, np.ndarray],
    cfg: ClassifierConfig,
) -> float:
    """Stratified k-fold CV F1 of the positive class on the acquired labels.

    Fold assignment is by rank of the sorted region ids within each class, so
    the estimate depends only on the label set, never on insertion order.
    Degenerate sets (fewer than 4 labels, a single class, or fewer than 2
    usable folds) return 0.
    """
    if len(model.labels) < 4 or not model.trainable():
        return 0.0
    k = min(cfg.folds, model.n_pos(), model.n_neg())
    if k < 2:
        return 0.0
    pos = sorted(rid for rid, v in model.labels.items() if v > 0)
    neg = sorted(rid for rid, v in model.labels.items() if v < 0)
    fold_of_id = {rid: _fold_of(i, k) for i, rid in enumerate(pos)}
    fold_of_id.update({rid: _fold_of(i, k) for i, rid in enumerate(neg)})

    tp = fp = fn = 0
    for fold in range(k):
        train = {rid: lbl for rid, lbl in model.labels.items() if fold_of_id[rid] != fold}
        held = [rid for rid in model.labels if fold_of_id[rid] == fold]
        sub = PredicateModel(predicate=model.predicate, labels=train)
        train_classifier(sub, features, cfg)
        for rid in held:
            pred = decide(sub, features[rid])
            truth = model.labels[rid]
            if pred == 1 and truth == 1:
                tp += 1
            elif pred == 1 and truth == -1:
                fp += 1
            elif pred == -1 and truth == 1:
                fn += 1
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


DENSITY_BLOCK = 256  # distance-matrix rows held at once: memory O(N * DENSITY_BLOCK)


def _mean_over_others(dist: np.ndarray, ref: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's mean distance over the reference columns, its own column left out.

    A row with no other reference column gets 0. The columns kept for a row
    form one contiguous row of a copy, so the mean sums them in the same
    order as a 1-D mean over that row's other columns.
    """
    sub = dist if len(ref) == dist.shape[1] else dist[:, ref]
    own = ref[None, :] == rows[:, None]
    has = own.any(axis=1)
    out = np.zeros(len(rows))
    out[~has] = sub[~has].mean(axis=1)
    if len(ref) > 1:
        out[has] = sub[has[:, None] & ~own].reshape(-1, len(ref) - 1).mean(axis=1)
    return out


def _nearest(dist: np.ndarray, k: int, id_rank: np.ndarray) -> np.ndarray:
    """Column indices of each row's k smallest distances, ordered by (distance, id).

    Candidates are every column at or below the row's k-th smallest distance,
    so a tie at the cut is settled by id rank like every other tie.
    """
    n_rows = dist.shape[0]
    if k <= 0:
        return np.empty((n_rows, 0), dtype=np.intp)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
    row, col = np.nonzero(dist <= kth)
    order = np.lexsort((id_rank[col], dist[row, col], row))
    start = np.searchsorted(row, np.arange(n_rows))
    return col[order][start[:, None] + np.arange(k)]


class DensityIndex:
    """Per-region average cosine distance and k-NN lists over the full corpus.

    At desk scale the average runs over every other region; avg_sample caps the
    reference set (an evenly strided, id-sorted subset) for large corpora.
    Neighbours are ordered by (distance, id). Distances are computed
    DENSITY_BLOCK rows at a time, so no N x N matrix is ever held.
    """

    def __init__(
        self,
        ids: Iterable[str],
        X: np.ndarray,
        k: int = 10,
        avg_sample: int | None = None,
    ):
        self.ids = list(ids)
        n = len(self.ids)
        if X.shape[0] != n:
            raise DataError("feature matrix row count does not match id count")
        if not np.isfinite(X).all():
            raise DataError("feature matrix holds a non-finite value")
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1e-12
        unit = X / norms
        self.k = min(k, n - 1)
        by_id = sorted(range(n), key=self.ids.__getitem__)
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[by_id] = np.arange(n)
        if avg_sample is not None and 0 < avg_sample < n:
            stride = n / avg_sample
            ref = np.array(sorted(by_id[int(i * stride)] for i in range(avg_sample)))
        else:
            ref = np.arange(n)
        names = np.array(self.ids, dtype=object)
        self._avg: dict[str, float] = {}
        self._knn: dict[str, tuple[str, ...]] = {}
        for a in range(0, n, DENSITY_BLOCK):
            b = min(a + DENSITY_BLOCK, n)
            rows = np.arange(a, b)
            dist = unit[a:b] @ unit.T
            np.subtract(1.0, dist, out=dist)
            avg = _mean_over_others(dist, ref, rows)
            dist[rows - a, rows] = np.inf
            near = names[_nearest(dist, self.k, id_rank)]
            for i, mean, neighbours in zip(rows, avg, near):
                self._avg[self.ids[i]] = float(mean)
                self._knn[self.ids[i]] = tuple(neighbours)

    def avg_cosine_distance(self, region_id: str) -> float:
        if region_id not in self._avg:
            raise DataError(f"region {region_id!r} not in density index")
        return self._avg[region_id]

    def knn(self, region_id: str) -> tuple[str, ...]:
        if region_id not in self._knn:
            raise DataError(f"region {region_id!r} not in density index")
        return self._knn[region_id]


def density_stats(
    index: DensityIndex, region_id: str, model: PredicateModel | None
) -> tuple[float, float]:
    """(average cosine distance, fraction of k-NN with no label for this predicate)."""
    neighbors = index.knn(region_id)
    if not neighbors:
        return index.avg_cosine_distance(region_id), 1.0
    labeled = model.labels if model is not None else {}
    unlabeled = sum(1 for rid in neighbors if rid not in labeled)
    return index.avg_cosine_distance(region_id), unlabeled / len(neighbors)
