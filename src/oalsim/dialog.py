"""The episodic MDP: lifecycle, oracle answers, rewards, termination.

One episode is one interaction: the agent may query about active-train objects
(cost -1 each) and must eventually guess among the active-test objects (+200
correct, -100 incorrect, episode over). The oracle answers from ground-truth
annotations under a closed world: a predicate absent from an object's
annotation list is negative. Labels acquired in-episode queue up for the
batch end, which records them on the agent's classifiers; within the
episode they only gate which query pairs remain askable.

An episode's one label record, `known`, holds one Python list of ints per
view predicate, over its active-train objects: +1 or -1 where the view's
classifiers or this episode hold a label for the pair, 0 where none does.
An oracle answer reads and writes one cell. `asked` is the ascending list
of the view rows that were example-queried, which the beam excludes from its
example draws.

An action is (kind, view row, active-train column) (actions.py); `step`, the
oracle and `_record` index `known` and `asked` with its integers. Pending
labels (predicate, region row, label) and the guess hold region rows
(corpus.Corpus); transcript_records writes names and ids through describe.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .actions import EXAMPLE_QUERY, GUESS, LABEL_QUERY, Action, describe
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


@dataclass(slots=True)
class TranscriptStep:
    """One turn as transcript_records writes it: action, reward and chosen features.

    `features` is the chosen action's feature row, None when no transcript
    is written. A policy update's per-turn data (beam, choice, probabilities)
    stays with the harness, which plays the turn.
    """

    action: Action
    reward: float
    features: np.ndarray | None = None


NONE_ANSWER = None  # example query with no positive object in the active training set


class Episode:
    """Mutable state of one interaction, plus the oracle that answers queries."""

    def __init__(
        self,
        interaction: Interaction,
        annotations: Sequence[frozenset[str]],
        view: EpisodeView,
        rewards: RewardConfig,
        t_max: int,
        oracle_rng: np.random.Generator,
        guess: int,
    ):
        if not interaction.description_predicates:
            raise DataError("interaction has no description predicates")
        self.interaction = interaction
        self.annotations = annotations
        self.view = view
        self.rewards = rewards
        self.t_max = t_max
        self._oracle_rng = oracle_rng
        self.guess = guess  # the grounding's region row; a regrounding reassigns it

        self.turn = 0
        self.terminated = False
        self.success = False
        self.pending_labels: list[tuple[str, int, int]] = []
        self.transcript: list[TranscriptStep] = []
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
        label = 1 if self.view.predicates[row] in self.annotations[region] else -1
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

    def step(self, action: Action, features: np.ndarray | None = None) -> tuple[float, bool]:
        """Apply one action; the oracle refuses a query off the view's rows or columns.

        The features are kept on the turn's TranscriptStep.
        """
        if self.terminated:
            raise ProtocolError("step on a terminated episode")
        kind, row, col = action
        if self.turn >= self.t_max and kind != GUESS:
            raise ProtocolError(f"turn cap {self.t_max} reached; only the guess is admissible")

        if kind == GUESS:
            self.success = self.guess == self.interaction.target
            reward = (
                self.rewards.correct_guess if self.success else self.rewards.incorrect_guess
            )
            self.terminated = True
        elif kind == LABEL_QUERY:
            self.answer_label_query(row, col)
            reward = self.rewards.per_query
        elif kind == EXAMPLE_QUERY:
            self.answer_example_query(row)
            if row not in self.asked:
                insort(self.asked, row)
            reward = self.rewards.per_query
        else:
            raise ProtocolError(f"unknown action {action!r}")

        self.turn += 1
        self.transcript.append(TranscriptStep(action, reward, features))
        return reward, self.terminated

    # -- derived quantities -------------------------------------------------

    def length(self) -> int:
        """System turns: queries plus the terminating guess."""
        if not self.terminated:
            raise ContractError("length of an unterminated episode")
        return self.turn


def episode_return(rewards: Sequence[float], gamma: float) -> list[float]:
    """Per-step discounted reward tails G_t."""
    if not rewards:
        raise ContractError("empty transcript")
    out = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def first_return(rewards: RewardConfig, success: bool, length: int) -> float:
    """G_0 of a dialog of `length` turns: its queries, then one guess, won or lost."""
    guess = rewards.correct_guess if success else rewards.incorrect_guess
    return episode_return([rewards.per_query] * (length - 1) + [guess], rewards.discount)[0]


def transcript_records(episode_id: str, episode: Episode, ids: Sequence[str]):
    """One flat record per action: id, turn, descriptor, reward, chosen features."""
    for t, step in enumerate(episode.transcript):
        yield {
            "episode": episode_id,
            "turn": t,
            "action": describe(step.action, episode.view, ids),
            "reward": step.reward,
            "features": None if step.features is None else step.features.tolist(),
        }

