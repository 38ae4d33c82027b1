"""Symbolic dialog actions: guess, label query, example query."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

GUESS = "guess"
LABEL_QUERY = "label"
EXAMPLE_QUERY = "example"


@dataclass(frozen=True, slots=True)
class Guess:
    kind: str = GUESS


@dataclass(frozen=True, slots=True)
class LabelQuery:
    predicate: str
    region: int  # the object's region row (corpus.Corpus)
    kind: str = LABEL_QUERY


@dataclass(frozen=True, slots=True)
class ExampleQuery:
    predicate: str
    kind: str = EXAMPLE_QUERY


Action = Union[Guess, LabelQuery, ExampleQuery]


def describe(action: Action, ids: Sequence[str]) -> str:
    """The action as a transcript writes it, with `ids` mapping a row to its region id."""
    if isinstance(action, Guess):
        return "guess"
    if isinstance(action, LabelQuery):
        return f"label:{action.predicate}@{ids[action.region]}"
    return f"example:{action.predicate}"
