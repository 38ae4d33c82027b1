"""The numpy beam, kept as the oracle for the list form and the margin draw.

`oalsim.querygen.build_beam` reads the episode's label record and its
example-queried flags as Python lists, and draws predicates from the one
CDF of the view's sampling weights. `build_beam` here takes the record and
flags as numpy arrays, finds a row's free columns with np.logical_not and
the unasked predicates with np.flatnonzero, and draws with Generator.choice
over the live weights (`choice_reference`), over view.sampling for label
queries and view.sampling[pool] for example queries. `cdf` is the original
expression of a sampling CDF. Every beam must equal the oracle's and leave
the generator in the same state, and every CDF must equal `cdf`.

`static_turn` is the reference of a static turn drawn kind first
(`oalsim.querygen.static_action`): the whole beam of
`oalsim.querygen.build_beam`, which must equal this file's, then the static
rule as first written (`static_policy_act`).
"""

import numpy as np

from oalsim import querygen
from oalsim.actions import EXAMPLE_QUERY, GUESS_ACTION, LABEL_QUERY
from oalsim.errors import DataError


def cdf(weights: np.ndarray) -> np.ndarray:
    probs = (weights / weights.sum()).cumsum()
    probs /= probs[-1]
    return probs


def choice_reference(weights: np.ndarray, count: int, rng) -> list[int]:
    """Generator.choice over the live weights, one draw per index; small pools come back whole."""
    if len(weights) <= count:
        return list(range(len(weights)))
    alive = np.ones(len(weights), dtype=bool)
    chosen = []
    for _ in range(count):
        w = weights * alive
        chosen.append(int(rng.choice(len(weights), p=w / w.sum())))
        alive[chosen[-1]] = False
    return chosen


def best_object_for_predicate(view, row: int, free: np.ndarray, rng) -> int:
    if view.trained[row]:
        for col in view.by_margin[row]:
            if free[col]:
                return col
    else:
        candidates = np.flatnonzero(free)
        if len(candidates):
            return int(candidates[rng.integers(len(candidates))])
    raise DataError(f"all ({view.predicates[row]!r}, object) pairs already labeled")


def build_beam(turn, t_max, view, labeled: np.ndarray, asked: np.ndarray, cfg, rng) -> list:
    beam = [GUESS_ACTION]
    if turn >= t_max:
        return beam
    for row in choice_reference(view.sampling, cfg.n_label, rng):
        free = np.logical_not(labeled[row])
        if not free.any():
            continue
        col = best_object_for_predicate(view, row, free, rng)
        beam.append((LABEL_QUERY, row, col))
    pool = np.flatnonzero(~asked)
    if len(pool):
        for k in choice_reference(view.sampling[pool], cfg.n_example, rng):
            beam.append((EXAMPLE_QUERY, int(pool[k]), -1))
    return beam


def static_policy_act(turn, beam, n_queries, rng) -> int:
    """Alternate label/example queries (label first) for n_queries turns, then guess (entry 0)."""
    if turn >= n_queries:
        return 0
    preferred = LABEL_QUERY if turn % 2 == 0 else EXAMPLE_QUERY
    other = EXAMPLE_QUERY if preferred == LABEL_QUERY else LABEL_QUERY
    for kind in (preferred, other):
        idxs = [i for i, (k, _, _) in enumerate(beam) if k == kind]
        if idxs:
            return idxs[int(rng.integers(len(idxs)))]
    return 0


def static_turn(turn, t_max, view, labeled, asked, cfg, n_queries, rng, policy_rng):
    """The action a static turn plays from its whole beam, built from the episode's lists."""
    beam = querygen.build_beam(turn, t_max, view, labeled, asked, cfg, rng)
    return beam[static_policy_act(turn, beam, n_queries, policy_rng)]
