"""Dialog actions as integer triples: (kind, view row, active-train column).

The row is the view row of the action's predicate (snapshot.EpisodeView), the
column the active-train column of its object. The guess is (GUESS, -1, -1),
always a beam's entry 0; an example query's column is -1. `describe` is the
one place that turns an action back into names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .snapshot import EpisodeView

GUESS = 0
LABEL_QUERY = 1
EXAMPLE_QUERY = 2
GUESS_ACTION = (GUESS, -1, -1)

Action = tuple[int, int, int]


def describe(action: Action, view: EpisodeView, ids: Sequence[str]) -> str:
    """The action as a transcript writes it, with `ids` mapping a region row to its id."""
    kind, row, col = action
    if kind == GUESS:
        return "guess"
    if kind == LABEL_QUERY:
        return f"label:{view.predicates[row]}@{ids[view.train_rows[col]]}"
    return f"example:{view.predicates[row]}"
