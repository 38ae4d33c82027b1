"""Score active-test regions against a description and produce the guess.

A region's weighted score is the sum over description predicates of the
classifier decision times that classifier's estimated F1. Untrained predicates
keep their -1 decisions in the unweighted sum but contribute nothing to the
weighted one (their trust weight is 0). Ties break to the lowest region id so
replays are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .snapshot import EpisodeView


@dataclass(frozen=True)
class GuessScores:
    region_ids: tuple[str, ...]
    weighted: tuple[float, ...]
    unweighted: tuple[int, ...]
    argmax: str

    def ranked(self) -> list[str]:
        """Region ids by descending weighted score, ties by ascending id."""
        order = sorted(
            range(len(self.region_ids)),
            key=lambda i: (-self.weighted[i], self.region_ids[i]),
        )
        return [self.region_ids[i] for i in order]


def score_objects(description_predicates: Sequence[str], view: EpisodeView) -> GuessScores:
    """Weighted and unweighted decision sums over the view's active-test objects.

    The sums run over the description predicates in order, starting from 0.0,
    as the scalar `w += decision * f1` loop does, so no sum is ever -0.0.
    """
    if not description_predicates:
        raise ValueError("description predicates empty")
    ids = view.test_ids
    if not ids:
        raise ValueError("active test set empty")
    weighted = np.zeros(len(ids))
    unweighted = np.zeros(len(ids), dtype=np.int64)
    for p in description_predicates:
        row = view.index[p]
        weighted += view.decisions[row] * view.f1[row]
        unweighted += view.decisions[row]
    weighted_t = tuple(weighted.tolist())
    best = min(range(len(ids)), key=lambda i: (-weighted_t[i], ids[i]))
    return GuessScores(
        region_ids=ids,
        weighted=weighted_t,
        unweighted=tuple(unweighted.tolist()),
        argmax=ids[best],
    )
