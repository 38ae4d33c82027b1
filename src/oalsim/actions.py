"""Symbolic dialog actions: guess, label query, example query."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

GUESS = "guess"
LABEL_QUERY = "label"
EXAMPLE_QUERY = "example"


@dataclass(frozen=True, slots=True)
class Guess:
    kind: str = GUESS


@dataclass(frozen=True, slots=True)
class LabelQuery:
    predicate: str
    region_id: str
    kind: str = LABEL_QUERY


@dataclass(frozen=True, slots=True)
class ExampleQuery:
    predicate: str
    kind: str = EXAMPLE_QUERY


Action = Union[Guess, LabelQuery, ExampleQuery]


def describe(action: Action) -> str:
    if isinstance(action, Guess):
        return "guess"
    if isinstance(action, LabelQuery):
        return f"label:{action.predicate}@{action.region_id}"
    return f"example:{action.predicate}"
