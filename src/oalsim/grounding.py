"""Score active-test regions against a description and produce the guess.

A region's weighted score is the sum over description predicates of the
classifier decision times that classifier's estimated F1. Untrained predicates
keep their -1 decisions in the unweighted sum but contribute nothing to the
weighted one (their trust weight is 0). Ties break to the lowest region row
(the lowest id, see corpus.Corpus) so replays are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .snapshot import EpisodeView


@dataclass(frozen=True)
class GuessScores:
    regions: tuple[int, ...]  # the active-test region rows, in column order
    weighted: tuple[float, ...]
    unweighted: tuple[int, ...]
    argmax: int  # the region row guessed

    def ranked(self) -> list[int]:
        """Columns by descending weighted score, ties by ascending region row."""
        return sorted(
            range(len(self.regions)), key=lambda i: (-self.weighted[i], self.regions[i])
        )


def score_objects(description_predicates: Sequence[str], view: EpisodeView) -> GuessScores:
    """Weighted and unweighted decision sums over the view's active-test objects.

    The sums run over the description predicates in order, starting from 0.0,
    as the scalar `w += decision * f1` loop does, so no sum is ever -0.0.
    """
    if not description_predicates:
        raise ValueError("description predicates empty")
    rows = view.test_rows
    if not rows:
        raise ValueError("active test set empty")
    weighted = np.zeros(len(rows))
    unweighted = np.zeros(len(rows), dtype=np.int64)
    for p in description_predicates:
        row = view.index[p]
        weighted += view.decisions[row] * view.f1[row]
        unweighted += view.decisions[row]
    weighted_t = tuple(weighted.tolist())
    best = min(range(len(rows)), key=lambda i: (-weighted_t[i], rows[i]))
    return GuessScores(
        regions=rows,
        weighted=weighted_t,
        unweighted=tuple(unweighted.tolist()),
        argmax=rows[best],
    )
