"""Per-predicate binary classifiers and the density index.

Every predicate gets its own linear classifier over region features, trained
by full batch subgradient descent on a regularized hinge loss. Retraining is
a pure function of the labeled set, so label acquisition order never matters.
Classifier trust is the cross-validated F1 on the labels acquired so far.

Labels are keyed by region row (corpus.Corpus); a fit gathers its sorted rows
from the corpus matrix. DensityIndex holds (N,) and (N, k) arrays by row,
computed over every region for the rows it serves: a run's classifier-train
rows, the only ones a label query asks about.

A new label drops a classifier's fit. A batch start (harness.BatchSetup) fits
every unfit classifier and its CV folds in one fit_models call, in a few
stacked descents shared across predicates. An immediate refit, inside an
episode, stays one train_classifier and one estimate_f1. Both give the same
weights and F1 bit for bit.
Text becomes predicates in corpus, not here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataError, check_int, check_real


@dataclass
class PredicateModel:
    """One concept: acquired labels, and the decision function and F1 fit to them, if fit."""

    predicate: str
    labels: dict[int, int] = field(default_factory=dict)  # region row -> -1/+1
    weights: np.ndarray | None = None  # (d+1,): feature weights + bias
    f1: float = 0.0

    def n_pos(self) -> int:
        return sum(1 for v in self.labels.values() if v > 0)

    def n_neg(self) -> int:
        return sum(1 for v in self.labels.values() if v < 0)

    def trainable(self) -> bool:
        return self.n_pos() >= 1 and self.n_neg() >= 1

    def record_label(self, region: int, label: int) -> bool:
        """Store a label for a region row; re-recording it is a no-op, a flip an error.

        A new label drops the fit, so weights and F1 are always those of the
        current labels or absent. Returns True if the label was new.
        """
        if label not in (-1, 1):
            raise ContractError(f"label must be -1 or +1, got {label}")
        prev = self.labels.get(region)
        if prev is None:
            self.labels[region] = label
            self.weights, self.f1 = None, 0.0
            return True
        if prev != label:
            raise ContractError(
                f"conflicting label for ({self.predicate!r}, row {region}): "
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

    def __post_init__(self):
        for name in ("iterations", "folds", "knn_k"):
            check_int(f"classifier.{name}", getattr(self, name), 0)
        for name in ("step_size", "step_decay", "l2"):
            check_real(f"classifier.{name}", getattr(self, name))
        if self.step_size <= 0:
            raise ConfigError(f"classifier.step_size must be > 0, got {self.step_size}")
        if self.step_decay < 0 or self.l2 < 0:
            raise ConfigError("classifier.step_decay and classifier.l2 must be >= 0")


def _sum_masked_rows(YX: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = the sum of the rows YX[i, r] with mask[i, r] == 1, in row order.

    YX is (k, n, d), mask a float64 0/1 array (k, n) and out (k, d). einsum
    keeps d, the smallest stride, innermost, so each out[i] starts at +0.0
    and adds the rows one by one in row order. A row masked by 0 adds +-0.0,
    which leaves a partial sum unchanged: one that starts at +0.0 is never
    -0.0. So out equals summing the selected rows in order, bit for bit.
    That needs d >= 2: at d = 1 numpy reduces the contiguous n with unrolled
    accumulators. Corpus refuses regions without features, so d = dim + 1.
    """
    return np.einsum("knd,kn->kd", YX, mask, out=out)


def _scores(YX: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The single fit's exact violation test: each signed row's score, YX @ w."""
    return YX @ w


def _fit_hinge(YX: np.ndarray, n: int | np.ndarray, cfg: ClassifierConfig) -> np.ndarray:
    """Batch subgradient descent on l2-regularized hinge loss; bias unregularized.

    YX holds the rows [x, 1], each multiplied by its label, of one problem of
    n rows, (n, d+1), or of a stack of problems, (k, n_max, d+1) with each
    problem's rows at the top of its slice, zero rows below and n the (k,)
    row counts. y is +1 or -1 and negation commutes with rounding, so YX @ w
    equals y * ([X, 1] @ w) bit for bit. Iteration t steps by _step_sizes(cfg)[t].

    A stacked problem's weights equal its own 2-D fit bit for bit: each
    problem's scores are one gemv, like the 2-D YX @ w; _sum_masked_rows adds
    its violating rows in row order from +0.0, like summing the boolean
    index, and every other row, a zero pad row included, adds +-0.0, which
    changes nothing; and it divides by its own n. With that einsum over a 0/1
    mask an iteration takes about a third of its time with a `where=` sum.

    Stacks come from estimate_f1 (one predicate's k folds) and from
    fit_models (the full sets and folds of every unfit predicate at a batch
    start, sorted by row count, so n ranges widely within a stack). The 2-D
    fit serves train_classifier, whose only caller in a run is an immediate
    refit, and sums the boolean index. Most of its iterations have no
    violating row, and such an iteration only shrinks the feature weights
    (the bias takes w_b - 0.0, which is w_b, -0.0 included), so after an
    exact test (_scores) finds no violating row, the fit runs the stretch of
    shrink-only iterations that a bound proves the test would find none in
    with no test, in _shrink. After a test at weights w finds none, with
    W = max |w_feat|, L_i row i's feature l1 norm and m = d+1 terms per score:
      - while l2 * step < 1, no |w_j| grows in a shrink-only step, and one
        moves each w_j by at most W * (l2 * step * (1+u)^2 + 2u), u = 2^-53
        (the 2u covers the rounding of w - grad and, with W >= 2^-969 *
        max(1, step_size), any underflow in grad);
      - both the test's gemv and a later one err by at most
        gamma_m * (L_i * W + |w_b|) plus a subnormal remainder (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002, 3.1),
        gamma_m = m*u / (1 - m*u);
    so a later computed score stays >= 1.0 while the steps taken since the
    test sum to at most min_i (score_i - 1 - 2 gamma_m |w_b|) / (L_i W)
    - 2 gamma_m, over l2 (1+u)^2 + 2u / (the last step). _step_budget
    computes that budget with its coefficients rounded up and its result
    scaled down to cover its own rounding and that of summing the steps.
    The stretch starts at the test's iteration and takes each next iteration
    while the steps before it, summed in a Python float, are within the
    budget; the first iteration past it tests again. The test runs on every
    iteration while l2 * step_size >= 1, W is below the floor, or the budget
    is NaN, infinite or below 2^-969. _shrink runs _descend's ufuncs on the
    feature weights, in their order, and drops only its zero pull (x - 0.0
    is x) and the bias, so every weight is computed as with the test on
    every iteration. The immediate benchmark at seed 101 makes 1,977
    single fits of 2.26 labels on average: 99.3% of their 296,550 iterations
    have no violating row, and 2.2% run the test.
    """
    steps = _step_sizes(cfg)
    if YX.ndim == 2:
        step_budget = _step_budget(YX, cfg, steps)
        w = np.zeros(YX.shape[1])
        grad = np.empty_like(w)
        t = 0
        while t < len(steps):
            scores = _scores(YX, w)
            viol = scores < 1.0
            if viol.any():
                _descend(w, grad, cfg.l2, YX[viol].sum(axis=0) / n, steps[t])
                t += 1
                continue
            budget, spent, end = step_budget(scores, w), steps[t], t + 1
            while end < len(steps) and spent <= budget:
                spent += steps[end]
                end += 1
            _shrink(w[:-1], grad[:-1], cfg.l2, steps[t:end])
            t = end
        return w

    k, rows, width = YX.shape
    counts = n[:, None]
    scores = np.empty((k, rows, 1))
    mask = np.empty((k, rows))
    pull = np.empty((k, width))
    w = np.zeros((k, width))
    grad = np.empty_like(w)
    for step in steps:
        np.matmul(YX, w[:, :, None], out=scores)
        np.less(scores[:, :, 0], 1.0, out=mask)
        _sum_masked_rows(YX, mask, pull)
        _descend(w, grad, cfg.l2, np.divide(pull, counts, out=pull), step)
    return w


@functools.lru_cache(maxsize=8)
def _step_sizes(cfg: ClassifierConfig) -> tuple[float, ...]:
    """The descent's step sizes, step_size / (1 + step_decay * t) for t < iterations.

    Built once per config: a run fits thousands of times with one frozen
    ClassifierConfig, and every fit reads the same immutable tuple.
    """
    return tuple(cfg.step_size / (1.0 + cfg.step_decay * t) for t in range(cfg.iterations))


def _descend(w: np.ndarray, grad: np.ndarray, l2: float, pull: np.ndarray, step: float) -> None:
    """One descent update of w, in place: w -= (l2 * w - pull) * step, bias unregularized.

    grad is scratch space of w's shape; pull is the mean violating row of
    each problem, broadcast against w.
    """
    np.multiply(w, l2, out=grad)
    grad[..., -1] = 0.0
    grad -= pull
    grad *= step
    w -= grad


def _shrink(w: np.ndarray, buf: np.ndarray, l2: float, steps: Sequence[float]) -> None:
    """Shrink-only steps on the feature weights w, in place: w -= (w * l2) * step, step by step.

    buf is scratch space of w's shape. These are the ufuncs _descend runs on
    the feature weights when no row violates, in the same order. l2 and the
    step go in as 0-d float64 arrays, which hold the same values: on a
    32-weight view numpy spends about a third less time per step than when
    it converts a Python float on every call.
    """
    l2, step = np.array(l2, dtype=np.float64), np.empty(())
    for s in steps:
        step[()] = s
        np.multiply(w, l2, buf)
        np.multiply(buf, step, buf)
        np.subtract(w, buf, w)


_TINY = 2.0**-969  # below this, underflow can break the relative error bounds


def _step_budget(YX: np.ndarray, cfg: ClassifierConfig, steps: Sequence[float]):
    """The 2-D fit's bound: (scores, w) of a test with no violating row -> its step budget.

    The budget is the sum of steps that may follow without a test (see
    _fit_hinge); -1.0 where the test must run on. Fixed per fit: the
    rounded-up coefficients kappa >= 2 gamma_m and lam, the inverse feature
    l1 norms, and the scale-down `shrink`. A norm below _TINY counts as
    _TINY, which only lowers the budget (an all-zero row's score does not
    drift at all). The test also runs throughout for no rows, a last step
    that underflows to 0 or 2^49 terms or iterations, where these constants
    would not hold. steps is the fit's schedule, _step_sizes(cfg).
    """
    m = YX.shape[1]
    last = steps[-1] if steps else 0.0
    shrink = 1.0 - (m + cfg.iterations + 16) * 2.0**-50
    if not (cfg.l2 * cfg.step_size < 1.0 and len(YX) and last > 0.0 and shrink > 0.5):
        return lambda scores, w: -1.0
    kappa = (m + 1) * 2.0**-51
    lam = cfg.l2 * (1.0 + 2.0**-48) + 2.0**-49 / last
    floor = _TINY * max(1.0, cfg.step_size)
    inv_l1 = 1.0 / np.maximum(np.abs(YX[:, :-1]).sum(axis=1), _TINY)

    def budget(scores, w):
        W = float(np.abs(w[:-1]).max(initial=0.0))
        if not W >= floor:
            return -1.0
        q = kappa * abs(float(w[-1])) + 2.0**-999  # covers 2 gamma_m |w_b| and underflow
        R = float(((scores - 1.0 - q) * inv_l1).min())
        b = ((R / W) * shrink - kappa) / lam * shrink
        return b if _TINY <= b < np.inf else -1.0

    return budget


def _fit_subsets(YX: np.ndarray, subsets: np.ndarray, cfg: ClassifierConfig) -> np.ndarray:
    """(k, d+1) weights, one fit per row of the (k, len(YX)) mask, as one stacked descent."""
    n = subsets.sum(axis=1)
    stack = np.zeros((len(n), n.max(), YX.shape[1]))
    stack[np.arange(n.max()) < n[:, None]] = YX[subsets.nonzero()[1]]
    return _fit_hinge(stack, n, cfg)


def _signed_rows(model: PredicateModel, X: np.ndarray) -> np.ndarray:
    """The label-signed rows [x, 1] * y over the sorted label rows; the last column is y.

    Built in one array: the features are gathered into it and multiplied by
    y in place, the same products as y * [x, 1].
    """
    rows = sorted(model.labels)
    YX = np.ones((len(rows), X.shape[1] + 1))
    YX[:, :-1] = X[rows]
    YX *= np.array([model.labels[row] for row in rows], dtype=np.float64)[:, None]
    return YX


def _cv_folds(model: PredicateModel, cfg: ClassifierConfig) -> tuple | None:
    """Each sorted label's CV fold and the (k, n) training mask of each fold.

    Fold assignment is by rank of the sorted region rows within each class, so
    it depends only on the label set, never on insertion order. Each class
    has at least k >= 2 members, dealt round-robin over the k folds, so every
    fold trains on both classes. None for a set with fewer than 4 labels, a
    single class, or fewer than 2 usable folds.
    """
    if len(model.labels) < 4:
        return None
    k = min(cfg.folds, model.n_pos(), model.n_neg())
    if k < 2:
        return None
    pos = np.array([model.labels[row] > 0 for row in sorted(model.labels)])
    fold = (np.where(pos, pos.cumsum(), (~pos).cumsum()) - 1) % k  # rank within class
    return fold, fold != np.arange(k)[:, None]


def _cv_f1(YX: np.ndarray, fold: np.ndarray, W: np.ndarray) -> float:
    """F1 of the positive class, each signed row scored by its fold's weights W[fold].

    y is +-1, so YX[:, :-1] * y is x bit for bit, and a row's score is one
    np.vecdot, the BLAS dot of the scalar score w[:-1] @ x + w[-1].
    """
    pos = YX[:, -1] > 0
    X = YX[:, :-1] * YX[:, -1:]
    predicted = np.vecdot(X, W[fold, :-1]) + W[fold, -1] >= 0.0
    tp = int(np.count_nonzero(predicted & pos))
    fp = int(np.count_nonzero(predicted & ~pos))
    fn = int(np.count_nonzero(~predicted & pos))
    return 2 * tp / (2 * tp + fp + fn)  # tp + fn counts the positives: at least k


def train_classifier(
    model: PredicateModel, X: np.ndarray, cfg: ClassifierConfig
) -> PredicateModel:
    """Full retrain from the labeled set; untrainable sets leave weights absent."""
    if not model.trainable():
        model.weights, model.f1 = None, 0.0
        return model
    YX = _signed_rows(model, X)
    model.weights = _fit_hinge(YX, len(YX), cfg)
    return model


MARGIN_NORM_FLOOR = 1e-12  # weight norms below this give margin 0


def estimate_f1(model: PredicateModel, X: np.ndarray, cfg: ClassifierConfig) -> float:
    """Stratified k-fold CV F1 of the positive class on the acquired labels.

    Degenerate sets (fewer than 4 labels, a single class, or fewer than 2
    usable folds) return 0; folds come from _cv_folds. The k fold fits run as
    one stacked descent (_fit_subsets), each equal to train_classifier on
    that fold's training labels.
    """
    folds = _cv_folds(model, cfg)
    if folds is None:
        return 0.0
    fold, train = folds
    YX = _signed_rows(model, X)
    return _cv_f1(YX, fold, _fit_subsets(YX, train, cfg))


# Padded rows per stacked descent in fit_models. The largest stack is most of a
# batch start's transient memory: 2,048 rows gave the same desk run time and about
# 1% more peak RSS on the immediate-update benchmark.
FIT_STACK_ROWS = 1536


def fit_models(models: Sequence[PredicateModel], X: np.ndarray, cfg: ClassifierConfig) -> None:
    """Retrain each model and re-estimate its F1, in a few descents shared across models.

    Every model's labels must hold both classes. Each model is 1 + k fitting
    problems: its full label set, and the k training sets of estimate_f1's
    folds (_cv_folds). The problems are sorted by row count and packed into
    zero-padded stacks of at most FIT_STACK_ROWS padded rows (a larger
    problem gets a stack to itself), and each stack is one _fit_hinge
    descent (_fit_stack). Weights equal train_classifier's and F1 equals
    estimate_f1's bit for bit (see _fit_hinge).
    """
    folds = [_cv_folds(model, cfg) for model in models]
    problems = []  # (row count, model index, fold or -1 for the full set)
    for i, (model, cv) in enumerate(zip(models, folds)):
        problems.append((len(model.labels), i, -1))
        if cv is not None:
            problems += [(int(t.sum()), i, f) for f, t in enumerate(cv[1])]
    # A fold holds out at least 2 labels, so a model's full set sorts after its folds
    problems.sort(key=lambda problem: problem[0])
    signed: dict[int, np.ndarray] = {}  # model index -> its signed rows, until its full set
    fold_weights: dict[int, np.ndarray] = {}  # model index -> (k, d+1), until its F1
    start = 0
    while start < len(problems):
        end = start + 1
        while end < len(problems) and (end + 1 - start) * problems[end][0] <= FIT_STACK_ROWS:
            end += 1
        _fit_stack(problems[start:end], models, folds, X, cfg, signed, fold_weights)
        start = end


def _fit_stack(problems, models, folds, X, cfg, signed, fold_weights) -> None:
    """Fit one stack of fit_models' problems; a model's full set also sets its F1.

    A model's signed rows are built once, at its first problem, and wait in
    signed until its full set, its last problem, is copied into a stack.
    Fold weights wait in fold_weights until that full set is fit; its
    held-out folds are then scored by _cv_f1 on the full set's rows in the
    stack.
    """
    width = X.shape[1] + 1  # the rows [x, 1]
    stack = np.zeros((len(problems), problems[-1][0], width))
    for slot, (n, i, f) in enumerate(problems):
        YX = signed.pop(i, None)
        if YX is None:
            YX = _signed_rows(models[i], X)
        if f < 0:
            stack[slot, :n] = YX
        else:
            stack[slot, :n] = YX[folds[i][1][f]]
            signed[i] = YX
    W = _fit_hinge(stack, np.array([n for n, _, _ in problems]), cfg)
    for YX, w, (n, i, f) in zip(stack, W, problems):
        if f >= 0:
            fold_weights.setdefault(i, np.empty((len(folds[i][1]), width)))[f] = w
            continue
        models[i].weights = w.copy()
        models[i].f1 = 0.0 if folds[i] is None else _cv_f1(YX[:n], folds[i][0], fold_weights.pop(i))


# Distance-matrix rows held at once: memory O(N * DENSITY_BLOCK). At N = 2400,
# 64 builds as fast as 128 and about 10% faster than 32; at N = 24,000 (random
# 32-d points) the three take 4-5 s alike, and 64 holds half of 128's memory.
DENSITY_BLOCK = 64


def _mean_over_others(dist: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's mean distance over the other columns: row i's own column, rows[i], left out.

    Consumes dist: each row's columns after its own move one place left, in
    place, so its first n - 1 columns are its other columns in order, and
    the mean over them sums in the same order as a 1-D mean over a copy of
    that row's other columns. With one column there is no other, and the
    mean is 0.
    """
    n = dist.shape[1]
    if n == 1:
        return np.zeros(len(rows))
    for row, own in zip(dist, rows.tolist()):
        row[own:-1] = row[own + 1 :]  # 1-D overlapping copy: a memmove, no temporary
    return dist[:, :-1].mean(axis=1)


def _nearest(dist: np.ndarray, k: int, rank: np.ndarray) -> np.ndarray:
    """Column indices of each row's k smallest distances, ordered by (distance, rank).

    The candidates are every column at or below the row's k-th smallest
    distance. Mostly that is exactly argpartition's first k columns, which
    are then ordered by (distance, rank); a row with more, a tie at the cut,
    goes to _nearest_with_ties, where the tie is settled by rank like every
    other tie. dist is left as it is.
    """
    n_rows = dist.shape[0]
    if k <= 0:
        return np.empty((n_rows, 0), dtype=np.intp)
    out = np.argpartition(dist, k - 1, axis=1)[:, :k].copy()  # frees the (rows, N) indices
    near = dist[np.arange(n_rows)[:, None], out]
    kth = near.max(axis=1, keepdims=True)
    out = np.take_along_axis(out, np.lexsort((rank[out], near), axis=1), axis=1)
    candidate = dist <= kth
    # every row has at least its k columns at or below kth: one count over
    # the block finds whether any has more, a third of the time of a count per row
    if np.count_nonzero(candidate) > k * n_rows:
        tied = np.count_nonzero(candidate, axis=1) > k
        out[tied] = _nearest_with_ties(dist[tied], kth[tied], k, rank)
    return out


def _nearest_with_ties(dist: np.ndarray, kth: np.ndarray, k: int, rank: np.ndarray) -> np.ndarray:
    """_nearest for rows with a tie at their k-th distance kth: lexsort every candidate.

    Candidates are every column at or below kth, ordered by (distance, rank)
    within each row; the first k of each row are kept.
    """
    row, col = np.nonzero(dist <= kth)
    order = np.lexsort((rank[col], dist[row, col], row))
    start = np.searchsorted(row, np.arange(dist.shape[0]))
    return col[order][start[:, None] + np.arange(k)]


def _served_blocks(served: np.ndarray):
    """Yield (take, keep): the rows of unit that one product takes, and which of them are served.

    served marks the served positions of unit. The full build multiplies
    DENSITY_BLOCK rows of unit at a time, and each served row here goes
    into a product of the same shape, at the same place in it, so its
    distances equal the full build's bit for bit. A product of gathered
    rows would not: a BLAS may round a row by its place in a product
    (OpenBLAS 0.3.31 on an AVX-512 host does, in products of a few hundred
    columns), numpy takes a one-row product by gemv, and the product of a
    whole matrix and its transpose by syrk. So:
      - at N <= DENSITY_BLOCK, the full build's one block, the whole
        matrix, is taken as a slice, which numpy multiplies by syrk too;
      - the rows of full blocks are packed by place: packed block i holds,
        at place p, the i-th served position at place p (p modulo
        DENSITY_BLOCK), and position p, not kept, where there is none;
      - the rows past the last full block are the full build's short last
        block, taken as a slice.
    """
    n, size = len(served), DENSITY_BLOCK
    if n <= size:
        if served.any():
            yield slice(0, n), served
        return
    cut = n - n % size
    grid = served[:cut].reshape(-1, size)  # grid[t, p]: position t * size + p is served
    slot = grid.cumsum(axis=0) - 1  # the packed block of each served position
    t, p = grid.nonzero()
    blocks = np.tile(np.arange(size), (int(grid.sum(axis=0).max()), 1))
    kept = np.zeros(blocks.shape, dtype=bool)
    blocks[slot[t, p], p] = t * size + p
    kept[slot[t, p], p] = True
    yield from zip(blocks, kept)
    if served[cut:].any():
        yield slice(cut, n), served[cut:]


class DensityIndex:
    """Average cosine distance and k-NN rows, over the full corpus, of the regions it serves.

    X[i] holds the features of region row rows[i], a permutation of
    range(len(X)); served lists the region rows whose values are computed.
    The distances are computed over X in its given order (a corpus's file
    order, whose column sums fix the averages' last bits) and the results
    scattered to rows: a served row's `avg[row]` is its average distance to
    every other region (0 in a one-region corpus) and `knn[row]` its k
    neighbour rows among all regions, ordered by (distance, row). An
    unserved row holds NaN and k neighbours -1, and density_stats refuses
    it. Each served row equals the build that serves every row, bit for bit
    (_served_blocks). A run serves the classifier-train rows of both split
    sides, the only rows a label query can ask about: 1,440 of the 2,400 at
    the scale benchmark, where the build takes 63% of the time of one that
    serves every row. Distances are computed DENSITY_BLOCK rows at a time,
    so no N x N matrix is ever held, and each block's served rows are read
    by _nearest and then consumed by _mean_over_others. A block is dropped
    once its served rows are copied, and the last block's rows once the
    next product is made, so the build holds two blocks at a time, about
    3.3 MiB of numpy allocations at N = 2400.
    """

    def __init__(self, X: np.ndarray, rows: np.ndarray, served: Sequence[int], k: int = 10):
        n = X.shape[0]
        rows = np.asarray(rows, dtype=np.intp)
        if not np.array_equal(np.sort(rows), np.arange(n)):
            raise DataError("rows are not a permutation of the feature matrix's rows")
        served = np.asarray(served, dtype=np.intp)
        if served.size and not 0 <= served.min() <= served.max() < n:
            raise DataError("served rows are not rows of the feature matrix")
        if not np.isfinite(X).all():
            raise DataError("feature matrix holds a non-finite value")
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1e-12
        unit = X / norms
        self.k = min(k, n - 1)
        self.avg = np.full(n, np.nan)
        self.knn = np.full((n, max(self.k, 0)), -1, dtype=np.intp)
        position = np.arange(n)
        for take, keep in _served_blocks(np.isin(rows, served)):
            block, dist = position[take], unit[take] @ unit.T
            if not keep.all():  # the served rows' copy; the product is dropped
                block, dist = block[keep], dist[keep]
            np.subtract(1.0, dist, out=dist)
            dist[np.arange(len(block)), block] = np.inf
            self.knn[rows[block]] = rows[_nearest(dist, self.k, rows)]
            self.avg[rows[block]] = _mean_over_others(dist, block)

    def unserved(self, regions: Sequence[int]) -> list[int]:
        """The region rows among these that the index holds no value for, in their order."""
        regions = np.asarray(regions, dtype=np.intp)
        return regions[np.isnan(self.avg[regions])].tolist()


def density_stats(
    index: DensityIndex, region: int, model: PredicateModel | None
) -> tuple[float, float]:
    """(average cosine distance, fraction of k-NN with no label for this predicate).

    A region the index does not serve is a ContractError naming its row.
    """
    avg = index.avg.item(region)
    if math.isnan(avg):
        raise ContractError(f"the density index does not serve region row {region}")
    near = index.knn[region].tolist()
    labeled = model.labels if model is not None else {}
    unlabeled = len(near) - sum(map(labeled.__contains__, near))
    return avg, unlabeled / len(near) if near else 1.0
