"""Per-turn candidate action beams.

Query predicates are sampled from a triangular distribution over estimated F1:
weight rises linearly from w_min at F1=0 to w_max at the peak C_max, then falls
back to w_min at F1=1. That focuses queries on classifiers that are improvable
but not already good. Label queries pair the sampled predicate with the
unlabeled active-train object closest to its hyperplane (uncertainty sampling);
untrained predicates fall back to a uniform object pick.

The beam reads the view's sampling weights, their one CDF (SamplingCDF,
rebuilt by an immediate refit), the trained flags and the active-train
columns ordered by margin per predicate (snapshot.EpisodeView), plus the
episode's record (dialog.Episode): one signed label row per predicate, 0
where a pair has no label, the count of rows that still hold a 0, and the
ascending example-queried rows. A row with no 0 left is exhausted; with
every row exhausted, a label draw takes only its doubles. Every draw picks
the index Generator.choice picks over the live weights; sample_predicates
finds it on the view's CDF and proves it with a rounding margin, or builds
the live vector's own CDF. A beam is a list of (kind, view row, active-train
column) actions (actions.py): the guess first, then each kind's candidates
together, a layout only this module knows: static_policy_act finds the
static rule's pick in a beam.
Where nothing reads the beam, a static turn draws only the one action the
static rule picks from it (static_action), leaving the generators where the
whole beam leaves them.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY, Action
from .errors import ConfigError, DataError, check_int, check_real
from .policy import static_kinds, static_pick

if TYPE_CHECKING:
    from .snapshot import EpisodeView


@dataclass(frozen=True)
class TriangularWeights:
    w_min: float = 0.1
    w_max: float = 1.0
    c_max: float = 0.6

    def __post_init__(self):
        for name in ("w_min", "w_max", "c_max"):
            check_real(f"triangular.{name}", getattr(self, name))
        if not (0.0 < self.w_min < self.w_max):
            raise ConfigError(f"triangular: need 0 < w_min < w_max, got {self.w_min}, {self.w_max}")
        if not (0.0 < self.c_max < 1.0):
            raise ConfigError(f"triangular.c_max must lie in (0, 1), got {self.c_max}")


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


# The most weights for which sample_predicates' margin holds; SamplingCDF keeps
# no CDF of more.
_MARGIN_MAX_N = 1 << 20


class SamplingCDF:
    """One weight vector's inverse-sampling CDF and each entry's mass, built once.

    `cdf` is the CDF _cdf builds from the weights, as a list, and `mass[i]`
    is cdf[i] - cdf[i-1] (cdf[0] for i = 0), both computed in floats. Both
    are None unless there are at most _MARGIN_MAX_N weights, all finite and
    > 0, with a finite sum: every draw then builds its live vector's own
    CDF, which raises where Generator.choice's would. With a CDF no draw
    fails, since a draw's pool always keeps a positive weight. A view's
    weights are triangular weights, w_min > 0 or more, or NaN for an F1
    outside [0,1], so only such an F1 or an empty view leaves it without
    a CDF. An EpisodeView holds one over its sampling weights and builds
    it again when `update` rewrites a weight.
    """

    __slots__ = ("weights", "cdf", "mass")

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        self.cdf = self.mass = None
        total = np.add.reduce(weights)
        if 0.0 < total < math.inf and weights.min() > 0.0 and len(weights) <= _MARGIN_MAX_N:
            cdf = _cdf(weights)
            mass = cdf.copy()
            np.subtract(cdf[1:], cdf[:-1], out=mass[1:])
            self.cdf, self.mass = cdf.tolist(), mass.tolist()


def sample_predicates(
    sampling: SamplingCDF,
    count: int,
    rng: np.random.Generator,
    excluded: Sequence[int] = (),
) -> list[int]:
    """Indices drawn without replacement under the weights, outside `excluded`.

    The pool is every index not in `excluded`, ascending; a pool of at most
    `count` indices comes back whole, with no draw. Otherwise each of the
    doubles r of rng.random(count) picks the index that
    Generator.choice(len(live), p=live / live.sum()) picks with it, where
    `live` is the pool's sub-vector of the weights with the earlier picks
    zeroed, so the generator ends in the same state too.

    The loop finds each pick on the one CDF of `sampling`. `removed` holds
    the excluded and drawn indices, ascending, and `gone` the sum of their
    masses. The target is t = r * (1 - gone), r times the live mass. The
    walk bisects `cdf` at t plus `below`, the masses of the removed indices
    under the pick, one bisect_right more per removed index it passes. It
    ends on j with lo = cdf[j-1] - below <= t < hi = cdf[j] - below, and j
    is the pick if it is live and both hi - t and t - lo exceed delta, at
    least _margin(N, M) for N weights and M removed indices. Where that
    margin cannot prove the pick, or `sampling` has no CDF, _exact_pick
    bisects the CDF of `live` itself.

    The margin comes from two bounds, for N <= _MARGIN_MAX_N weights
    w_i >= 0 of exact sum W > 0, exact masses m_i = w_i / W and exact CDF
    F_k = m_0 + ... + m_k. Let u = 2^-53, gamma_k = k u / (1 - k u),
    g = gamma_{2N+1} and nu = (N + 2) 2^-1074. Both hold whatever order
    numpy sums in.
    - A CDF C computed as _cdf computes it (p = w / s, the prefix sums P of
      p, C_k = P_k / P_{N-1}) has |C_k - F_k| <= g F_k + nu. The sum s
      cancels in the ratio. Each term of P_k carries at most k+1 roundings
      and each of P_{N-1} at most N, so C_k / F_k lies in
      [(1-u)^(N+k+2), (1-u)^-(N+k+2)], within gamma_{2N+1} of 1 (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002, 3.1 and
      4.2); nu covers underflow. This holds for `cdf` and for the CDF of any
      live vector, a sub-vector of at most N weights.
    - A mass then lies within 2g + 2u + 3 nu of m_i, and a sum of at most M
      masses within e = M (2g + 2u + 3 nu) + gamma_M (1 + M (2g + 2u + 3 nu))
      of its exact value. So the reconstructed lo and hi lie within
      g + nu + e + 2u of LO, the exact live mass below j, and HI = LO + m_j,
      and t lies within e + 4u + nu of T = r R, R <= 1 the exact live mass.
    If HI - T > g + nu and T - LO >= g + nu, bisecting the live vector's
    computed CDF at r returns j: each entry before j is at most
    LO / R + g + nu <= r, and entry j is at least HI / R - g - nu > r.
    Computed hi - t and t - lo above delta make the exact ones exceed
    delta / (1 + u) - 2g - 2e - 6u - 2 nu, which is at least g + nu when
    delta >= (1 + u)(2g + 2e + 6u + 3 nu). A draw has two live weights or
    more, so N >= 2 and u <= g / 5; with N, M <= 2^20 that right side is
    below (5.21 M + 3.21)(2N + 1) u + 2^-1030, under the margin
    (6M + 4)(2N + 1) u that _margin returns.
    """
    weights, cdf, mass = sampling.weights, sampling.cdf, sampling.mass
    n = len(weights)
    removed = sorted(excluded)  # and then the drawn indices, ascending
    size = n - len(removed)
    if size == 0:
        raise DataError("no predicates to sample from")
    if size <= count:
        skip = set(removed)
        return [i for i in range(n) if i not in skip]
    gone = sum([mass[i] for i in removed]) if cdf is not None and removed else 0.0
    delta = _margin(n, len(removed) + count - 1)  # the most removed at any draw
    chosen: list[int] = []
    for r in rng.random(count).tolist():  # the doubles of `count` scalar draws
        if cdf is None:
            j = _exact_pick(weights, removed, chosen, r)
        else:
            t = r * (1.0 - gone)
            j = bisect_right(cdf, t)
            below, top = 0.0, -1  # top: the last removed index walked past
            for i in removed:
                if i > j:
                    break
                below += mass[i]
                top = i
                j = bisect_right(cdf, t + below, j)
            lo = (cdf[j - 1] if j else 0.0) - below
            if j == n or top == j or not (cdf[j] - below - t > delta and t - lo > delta):
                j = _exact_pick(weights, removed, chosen, r)
            gone += mass[j]
        chosen.append(j)
        insort(removed, j)
    return chosen


def _margin(n: int, m: int) -> float:
    """The rounding margin of sample_predicates, n weights, m removed: (6m + 4)(2n + 1) 2^-53.

    The integer product is exact and below 2^53 for n, m <= _MARGIN_MAX_N.
    """
    return (6 * m + 4) * (2 * n + 1) * 2.0**-53


def _exact_pick(weights: np.ndarray, removed: list[int], chosen: list[int], r: float) -> int:
    """The pick of the double r on the exact CDF of the live vector.

    The live vector is the pool's weights, in order, with the `chosen` ones
    zeroed: the vector Generator.choice draws from. The pool is every index
    not in `removed` or in `chosen`.
    """
    keep = np.ones(len(weights), dtype=bool)
    keep[removed] = False
    keep[chosen] = True
    pool = np.flatnonzero(keep)
    live = weights[pool]
    live[np.searchsorted(pool, chosen)] = 0.0
    return int(pool[bisect_right(_cdf(live).tolist(), r)])


def _cdf(weights: np.ndarray) -> np.ndarray:
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
    return probs


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


def _label_queries(
    view: EpisodeView, labeled: list[list[int]], open_rows: int, n_label: int,
    rng: np.random.Generator,
) -> list[Action]:
    """The label queries of up to n_label drawn predicates, in draw order.

    A drawn predicate whose label row is exhausted is skipped; the others
    pair with best_object_for_predicate's column. `open_rows` counts the
    rows of `labeled` that still hold a 0. With none, every drawn predicate
    would be skipped, so where the view's weights have a CDF (no draw can
    fail) the draw takes only its doubles, rng.random(n_label), and only
    where the pool exceeds n_label, as sample_predicates draws them.
    """
    sampling = view.sampling_cdf
    if not open_rows and sampling.cdf is not None:
        if len(sampling.weights) > n_label:
            rng.random(n_label)  # the draw's doubles, which nothing reads
        return []
    queries = []
    for row in sample_predicates(sampling, n_label, rng):
        labels = labeled[row]
        if 0 in labels:
            col = best_object_for_predicate(view, row, labels, rng)
            queries.append((LABEL_QUERY, row, col))
    return queries


def build_beam(
    turn: int,
    t_max: int,
    view: EpisodeView,
    labeled: list[list[int]],
    open_rows: int,
    asked: list[int],
    cfg: BeamConfig,
    rng: np.random.Generator,
) -> list[Action]:
    """The guess, then up to n_label label queries and n_example example queries.

    `labeled` is the episode's label record, one row per view predicate over
    the active-train columns, nonzero where a pair has a label, and
    `open_rows` the count of its rows that still hold a 0 (dialog.Episode);
    `asked` is the ascending list of the rows already example-queried this
    episode, the draws' `excluded`. At the turn cap the beam collapses to
    the forced guess. Label candidates skip predicates whose rows hold no 0,
    and with no open row the label draw takes only its doubles
    (_label_queries); example candidates skip asked predicates. Every turn
    of the learned policy, and every turn of a phase that updates the
    policy, plays a whole beam; static_action draws the one action a static
    turn reads where nothing reads the beam.
    """
    beam: list[Action] = [GUESS_ACTION]
    if turn >= t_max:
        return beam

    beam += _label_queries(view, labeled, open_rows, cfg.n_label, rng)
    if len(asked) < len(view.predicates):
        for row in sample_predicates(view.sampling_cdf, cfg.n_example, rng, asked):
            beam.append((EXAMPLE_QUERY, row, -1))
    return beam


def static_policy_act(
    turn: int,
    beam: Sequence[Action],
    n_queries: int,
    rng: np.random.Generator,
) -> int:
    """The beam index the static rule picks: label first, alternating, for n_queries turns.

    Falls back to the other query type, then to the guess (beam entry 0), when
    the preferred type has no candidates in the beam (policy.static_kinds,
    policy.static_pick). The beam lists the guess, then each kind's
    candidates together, as build_beam does. static_action picks the same
    action, drawing only what this rule reads.
    """
    kinds = [kind for kind, _, _ in beam]
    counts = (1, kinds.count(LABEL_QUERY), kinds.count(EXAMPLE_QUERY))
    kind, i = static_pick(static_kinds(turn, n_queries), counts, rng)
    return kinds.index(kind) + i


def static_action(
    turn: int,
    t_max: int,
    view: EpisodeView,
    labeled: list[list[int]],
    open_rows: int,
    asked: list[int],
    cfg: BeamConfig,
    n_queries: int,
    rng: np.random.Generator,
    policy_rng: np.random.Generator,
) -> Action:
    """The action static_policy_act picks from build_beam's beam, drawn kind first.

    The static rule reads only how many label and example candidates the
    beam holds, then one uniform index (policy.static_pick, from
    `policy_rng`), so a turn whose beam nothing else reads draws only that:
    - the label candidates, as build_beam draws them (their predicate draws
      and untrained rows' uniform picks move `rng`; with no open row, the
      draw's doubles alone);
    - for an example pick, the example draws up to the picked one, then the
      draw's later doubles alone: the doubles of rng.random(k) and then
      rng.random(n - k) are those of rng.random(n), and each pick reads
      only its own double and the picks before it;
    - for a label pick or a guess, the example draw's doubles alone,
      rng.random(n_example), where build_beam draws them.
    Both generators end the turn in the state build_beam and
    static_policy_act leave, except at a guess turn (turn >= n_queries):
    that draws nothing, because the guess ends the dialog and `rng` is never
    read again. Without a CDF of the view's weights a draw may fail, so the
    turn plays build_beam and static_policy_act whole and fails where they do.
    """
    sampling = view.sampling_cdf
    if sampling.cdf is None:
        beam = build_beam(turn, t_max, view, labeled, open_rows, asked, cfg, rng)
        return beam[static_policy_act(turn, beam, n_queries, policy_rng)]
    kinds = static_kinds(turn, n_queries)
    if not kinds or turn >= t_max:  # at the cap the beam is the guess alone
        return GUESS_ACTION
    labels = _label_queries(view, labeled, open_rows, cfg.n_label, rng)
    pool = len(view.predicates) - len(asked)  # the unasked rows
    kind, i = static_pick(kinds, (1, len(labels), min(cfg.n_example, pool)), policy_rng)
    if kind == EXAMPLE_QUERY:
        if pool <= cfg.n_example:  # the whole pool comes back, with no draw
            return EXAMPLE_QUERY, sample_predicates(sampling, cfg.n_example, rng, asked)[i], -1
        row = sample_predicates(sampling, i + 1, rng, asked)[i]
        rng.random(cfg.n_example - i - 1)  # the draw's later doubles, which nothing reads
        return EXAMPLE_QUERY, row, -1
    if pool > cfg.n_example:  # the example draw's doubles, which nothing reads
        rng.random(cfg.n_example)
    return labels[i] if kind == LABEL_QUERY else GUESS_ACTION
