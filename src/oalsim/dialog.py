"""The episodic MDP: lifecycle, oracle answers, rewards, termination.

One episode is one interaction: the agent may query about active-train objects
(cost -1 each) and must eventually guess among the active-test objects (+200
correct, -100 incorrect, episode over). The oracle answers from ground-truth
annotations under a closed world: a predicate absent from an object's
annotation list is negative. Labels acquired in-episode queue up for the
batch end, which records them on the agent's classifiers; within the
episode they only gate which query pairs remain askable.

The Episode is the oracle and the state machine only: it keeps no
transcript and no rewards. A dialog's per-turn rewards and returns follow
from its outcome, success and length (rewards_and_returns); the harness keeps
each turn's action and features where something reads them.

An episode's one label record, `known`, holds one Python list of ints per
view predicate, over its active-train objects: +1 or -1 where the view's
classifiers or this episode hold a label for the pair, 0 where none does.
An oracle answer reads and writes one cell. `asked` is the ascending list
of the view rows that were example-queried, which the beam excludes from its
example draws.

An action is (kind, view row, active-train column) (actions.py); `step`, the
oracle and `_record` index `known` and `asked` with its integers. Pending
labels (predicate, region row, label) and the guess hold region rows
(corpus.Corpus).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .actions import EXAMPLE_QUERY, GUESS, LABEL_QUERY, Action
from .corpus import Interaction
from .errors import ContractError, DataError, ProtocolError, check_real
from .snapshot import EpisodeView


@dataclass(frozen=True)
class RewardConfig:
    correct_guess: float = 200.0
    incorrect_guess: float = -100.0
    per_query: float = -1.0
    discount: float = 1.0

    def __post_init__(self):
        for name in ("correct_guess", "incorrect_guess", "per_query", "discount"):
            check_real(f"rewards.{name}", getattr(self, name))
        if not (self.correct_guess > 0 > self.per_query):
            raise DataError("need correct_guess > 0 > per_query")
        if not (self.incorrect_guess < self.per_query):
            raise DataError("need incorrect_guess < per_query")
        if not (0.0 < self.discount <= 1.0):
            raise DataError("discount must lie in (0,1]")


NONE_ANSWER = None  # example query with no positive object in the active training set


def closed_world_label(annotations: Sequence[frozenset[str]], predicate: str, region: int) -> int:
    """The oracle's answer on (predicate, region row): +1 if its annotations hold it, else -1."""
    return 1 if predicate in annotations[region] else -1


class Episode:
    """Mutable state of one interaction, plus the oracle that answers queries."""

    def __init__(
        self,
        interaction: Interaction,
        annotations: Sequence[frozenset[str]],
        view: EpisodeView,
        t_max: int,
        oracle_rng: np.random.Generator,
        guess: int,
    ):
        if not interaction.description_predicates:
            raise DataError("interaction has no description predicates")
        self.interaction = interaction
        self.annotations = annotations
        self.view = view
        self.t_max = t_max
        self._oracle_rng = oracle_rng
        self.guess = guess  # the grounding's region row; a regrounding reassigns it

        self.turn = 0
        self.terminated = False
        self.success = False
        self.pending_labels: list[tuple[str, int, int]] = []
        self.known = view.labels()
        self.asked: list[int] = []  # example-queried view rows, ascending

    # -- label bookkeeping ------------------------------------------------

    def _record(self, row: int, col: int, label: int) -> None:
        labels = self.known[row]
        held = labels[col]
        predicate = self.view.predicates[row]
        region = self.interaction.active_train[col]
        if held:
            if held != label:
                raise ContractError(f"oracle flipped label for ({predicate!r}, row {region})")
            return
        labels[col] = label
        self.pending_labels.append((predicate, region, label))

    # -- oracle -----------------------------------------------------------

    def answer_label_query(self, row: int, col: int) -> int:
        """The closed-world label of view row `row`'s predicate on active-train column `col`."""
        if not (0 <= row < len(self.known) and 0 <= col < len(self.interaction.active_train)):
            raise ProtocolError(f"label query on view row {row}, column {col}: outside the view")
        region = self.interaction.active_train[col]
        label = closed_world_label(self.annotations, self.view.predicates[row], region)
        self._record(row, col, label)
        return label

    def answer_example_query(self, row: int) -> int | None:
        """A random positive active-train region row, or None when there is none."""
        if not 0 <= row < len(self.known):
            raise ProtocolError(f"example query on view row {row}: outside the view")
        predicate = self.view.predicates[row]
        active = self.interaction.active_train
        positives = [col for col, obj in enumerate(active) if predicate in self.annotations[obj]]
        if positives:
            col = positives[int(self._oracle_rng.integers(len(positives)))]
            self._record(row, col, 1)
            return active[col]
        for col in range(len(active)):
            self._record(row, col, -1)
        return NONE_ANSWER

    # -- transitions --------------------------------------------------------

    def step(self, action: Action) -> None:
        """Apply one action; the oracle refuses a query off the view's rows or columns."""
        if self.terminated:
            raise ProtocolError("step on a terminated episode")
        kind, row, col = action
        if self.turn >= self.t_max and kind != GUESS:
            raise ProtocolError(f"turn cap {self.t_max} reached; only the guess is admissible")

        if kind == GUESS:
            self.success = self.guess == self.interaction.target
            self.terminated = True
        elif kind == LABEL_QUERY:
            self.answer_label_query(row, col)
        elif kind == EXAMPLE_QUERY:
            self.answer_example_query(row)
            if row not in self.asked:
                insort(self.asked, row)
        else:
            raise ProtocolError(f"unknown action {action!r}")
        self.turn += 1

    # -- derived quantities -------------------------------------------------

    def length(self) -> int:
        """System turns: queries plus the terminating guess."""
        if not self.terminated:
            raise ContractError("length of an unterminated episode")
        return self.turn


def rewards_and_returns(
    rewards: RewardConfig, success: bool, length: int
) -> tuple[list[float], list[float]]:
    """A dialog's per-turn rewards r_t and discounted reward tails G_t, from its outcome.

    A dialog of `length` turns is its queries, each paid per_query, then one
    guess, paid as it succeeded or failed.
    """
    if length < 1:
        raise ContractError(f"a dialog of {length} turns: it has at least its guess")
    per_turn = [rewards.per_query] * (length - 1)
    per_turn.append(rewards.correct_guess if success else rewards.incorrect_guess)
    out = [0.0] * length
    acc = 0.0
    for t in range(length - 1, -1, -1):
        acc = per_turn[t] + rewards.discount * acc
        out[t] = acc
    return per_turn, out
