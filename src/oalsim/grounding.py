"""Score active-test regions against a description and produce the guess.

A region's weighted score is the sum over description predicates of the
classifier decision times that classifier's estimated F1. Untrained predicates
keep their -1 decisions in the unweighted sum but contribute nothing to the
weighted one (their trust weight is 0). Ties break to the lowest region row
(the lowest id, see corpus.Corpus) so replays are deterministic.

Dialogs are grounded in stacks: every dialog of a batch whose description has
the same length, read off the batch's rows (`batch_stacks`) at the batch
start, or one dialog read off its view (`view_stack`) after an immediate
refit of a description classifier. Each stacked dialog's entries equal those
of the dialog scored alone (tests/setup_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .snapshot import BatchRows, EpisodeView


class DescriptionStack(NamedTuple):
    """B dialogs whose descriptions hold k predicates, over n active-test objects each."""

    f1: np.ndarray  # (B, k) the description classifiers' F1, in description order
    rows: np.ndarray  # (B, k) their rows, which follow predicate-name order
    decisions: np.ndarray  # (B, k, n) their decisions on the dialog's active-test objects
    regions: np.ndarray  # (B, n) the active-test region rows, in column order


@dataclass(frozen=True)
class GuessScores:
    weighted: np.ndarray  # (B, n)
    unweighted: np.ndarray  # (B, n)
    ranked: np.ndarray  # (B, n) columns by descending weighted score, ties by ascending region row
    argmax: list[int]  # the region row each dialog guesses


def score_objects(stack: DescriptionStack) -> GuessScores:
    """Weighted and unweighted decision sums over each dialog's active-test objects.

    The sums run over the description predicates in order, starting from 0.0,
    as the scalar `w += decision * f1` loop does, so no sum is ever -0.0.
    """
    f1, _, decisions, regions = stack
    if not f1.shape[1]:
        raise ValueError("description predicates empty")
    if not regions.shape[1]:
        raise ValueError("active test set empty")
    weighted = np.zeros(regions.shape)
    for i in range(f1.shape[1]):
        weighted += decisions[:, i] * f1[:, i, None]
    ranked = np.lexsort((regions, -weighted), axis=-1)
    return GuessScores(
        weighted=weighted,
        unweighted=decisions.sum(axis=1),
        ranked=ranked,
        argmax=np.take_along_axis(regions, ranked[:, :1], axis=1)[:, 0].tolist(),
    )


def batch_stacks(batch: BatchRows) -> list[tuple[list[int], DescriptionStack]]:
    """Every episode of the batch in a stack of its description's length: (episodes, stack)."""
    by_length: dict[int, list[int]] = {}
    for e, interaction in enumerate(batch.interactions):
        by_length.setdefault(len(interaction.description_predicates), []).append(e)
    out = []
    for episodes in by_length.values():
        interactions = [batch.interactions[e] for e in episodes]
        rows = np.array(
            [[batch.index[p] for p in i.description_predicates] for i in interactions],
            dtype=np.intp,
        )
        cols = np.stack([batch.test_cols[e] for e in episodes])
        decisions = batch.decisions[rows[:, :, None], cols[:, None, :]]
        stack = DescriptionStack(batch.f1[rows], rows, decisions, batch.test_rows[cols])
        out.append((episodes, stack))
    return out


def view_stack(description_predicates: Sequence[str], view: EpisodeView) -> DescriptionStack:
    """One dialog's description read off its view, as a stack of one."""
    rows = np.array([[view.index[p] for p in description_predicates]], dtype=np.intp)
    regions = np.array([view.test_rows], dtype=np.intp)
    return DescriptionStack(view.f1[rows], rows, view.decisions[rows], regions)
