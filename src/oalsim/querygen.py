"""Per-turn candidate action beams.

Query predicates are sampled from a triangular distribution over estimated F1:
weight rises linearly from w_min at F1=0 to w_max at the peak C_max, then falls
back to w_min at F1=1. That focuses queries on classifiers that are improvable
but not already good. Label queries pair the sampled predicate with the
unlabeled active-train object closest to its hyperplane (uncertainty sampling);
untrained predicates fall back to a uniform object pick.

The beam reads the view's sampling weights and trained flags and the
active-train columns ordered by margin per predicate (snapshot.EpisodeView),
plus the episode's Python lists (dialog.Episode): one signed label row per
predicate, 0 where a pair has no label, and the example-queried flags. A row
with no 0 left is exhausted. The sampling CDFs are memoised per batch in
BatchRows.cdfs (snapshot.BatchRows). A beam is a list of (kind, view row,
active-train column) actions (actions.py): the guess, then the queries drawn.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY, Action
from .errors import DataError, check_int, check_real

if TYPE_CHECKING:
    from .snapshot import EpisodeView


# Most CDFs a batch's memo holds (sample_predicates): one per distinct live
# weight vector, about 0.5 KB with its key at 24 predicates, so at most about
# 1 MB. Immediate refits make new vectors; past the cap a CDF is computed and
# not kept. A batch of perfbench's workloads at seed 101 sees up to 4,583
# vectors (desk); at this cap the memo keeps 96-100% of the hits an unbounded
# one makes, and half or more of them are on vectors an earlier episode of the
# batch drew, which a per-episode memo would miss (see README).
CDF_MEMO_CAP = 2048


@dataclass(frozen=True)
class TriangularWeights:
    w_min: float = 0.1
    w_max: float = 1.0
    c_max: float = 0.6

    def __post_init__(self):
        for name in ("w_min", "w_max", "c_max"):
            check_real(f"triangular.{name}", getattr(self, name))
        if not (0.0 < self.w_min < self.w_max):
            raise DataError(f"need 0 < w_min < w_max, got {self.w_min}, {self.w_max}")
        if not (0.0 < self.c_max < 1.0):
            raise DataError(f"c_max must lie in (0,1), got {self.c_max}")


@dataclass(frozen=True)
class BeamConfig:
    n_label: int = 3
    n_example: int = 3

    def __post_init__(self):
        check_int("beam.n_label", self.n_label, 0)
        check_int("beam.n_example", self.n_example, 0)


def triangular_weight(f1: float, params: TriangularWeights) -> float:
    """Piecewise-linear sampling weight of one F1, peaked at c_max, floored at w_min.

    An F1 outside [0,1] gets NaN, which sample_predicates refuses to draw from.
    """
    if not 0.0 <= f1 <= 1.0:
        return math.nan
    span = params.w_max - params.w_min
    if f1 <= params.c_max:
        return params.w_min + (f1 / params.c_max) * span
    return params.w_min + ((1.0 - f1) / (1.0 - params.c_max)) * span


def sample_predicates(
    weights: np.ndarray,
    count: int,
    rng: np.random.Generator,
    cdfs: dict[bytes, array],
) -> list[int]:
    """Indices drawn without replacement under the weights; small pools come back whole.

    Each draw is the inverse-CDF draw `Generator.choice(n, p=probs)` makes, so
    it picks the same index and leaves the generator in the same state. The
    CDF of each live weight vector is looked up in `cdfs`, keyed by the
    vector's bytes, and added there while it holds fewer than CDF_MEMO_CAP.
    """
    n = len(weights)
    if n == 0:
        raise DataError("no predicates to sample from")
    if n <= count:
        return list(range(n))
    alive = np.array(weights, dtype=np.float64)
    chosen: list[int] = []
    for r in rng.random(count).tolist():  # the doubles of `count` scalar draws
        key = alive.tobytes()
        cdf = cdfs.get(key)
        if cdf is None:
            cdf = _cdf(alive)
            if len(cdfs) < CDF_MEMO_CAP:
                cdfs[key] = cdf
        idx = bisect_right(cdf, r)
        chosen.append(idx)
        alive[idx] = 0.0
    return chosen


def _cdf(weights: np.ndarray) -> array:
    """The inverse-sampling CDF of the weights, as Generator.choice builds it.

    p = (w / w.sum()).cumsum(), then p /= p[-1]: the same values, built in
    place with fewer numpy calls.
    """
    total = np.add.reduce(weights)
    if not total > 0.0:
        raise ValueError("sampling weight of an estimated F1 outside [0,1]")
    probs = np.divide(weights, total)
    np.add.accumulate(probs, out=probs)
    probs /= probs[-1]
    return array("d", probs.tobytes())


def best_object_for_predicate(
    view: EpisodeView, row: int, labels: list[int], rng: np.random.Generator
) -> int:
    """Active-train column of the minimal-margin unlabeled object, ties to the lowest row.

    `labels` is the predicate's label row, 0 where a column has no label. The
    pick is the first such column of the view's `by_margin` row. Untrained
    predicates have no hyperplane and pick an unlabeled object uniformly.
    """
    if view.trained[row]:
        for col in view.by_margin[row]:
            if not labels[col]:
                return col
    else:
        candidates = [col for col, held in enumerate(labels) if not held]
        if candidates:
            return candidates[rng.integers(len(candidates))]
    raise DataError(f"all ({view.predicates[row]!r}, object) pairs already labeled")


def build_beam(
    turn: int,
    t_max: int,
    view: EpisodeView,
    labeled: list[list[int]],
    asked: list[bool],
    cfg: BeamConfig,
    rng: np.random.Generator,
) -> list[Action]:
    """The guess, then up to n_label label queries and n_example example queries.

    `labeled` is the episode's label record, one row per view predicate over
    the active-train columns, nonzero where a pair has a label; `asked` flags
    the predicates already example-queried this episode. At the turn cap the
    beam collapses to the forced guess. Label candidates skip predicates
    whose rows hold no 0; example candidates skip asked predicates.
    """
    beam: list[Action] = [GUESS_ACTION]
    if turn >= t_max:
        return beam

    for row in sample_predicates(view.sampling, cfg.n_label, rng, view.cdfs):
        labels = labeled[row]
        if 0 not in labels:
            continue
        col = best_object_for_predicate(view, row, labels, rng)
        beam.append((LABEL_QUERY, row, col))

    pool = [i for i, done in enumerate(asked) if not done]
    if pool:
        for k in sample_predicates(view.sampling[pool], cfg.n_example, rng, view.cdfs):
            beam.append((EXAMPLE_QUERY, pool[k], -1))
    return beam
