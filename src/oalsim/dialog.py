"""The episodic MDP: lifecycle, oracle answers, rewards, termination.

One episode is one interaction: the agent may query about active-train objects
(cost -1 each) and must eventually guess among the active-test objects (+200
correct, -100 incorrect, episode over). The oracle answers from ground-truth
annotations under a closed world: a predicate absent from an object's
annotation list is negative. Labels acquired in-episode queue up for the
batch-end classifier refresh; within the episode they only gate which query
pairs remain askable.

An episode's one label record, `known`, holds one Python list of ints per
view predicate, over its active-train objects: +1 or -1 where the view's
classifiers or this episode hold a label for the pair, 0 where none does.
An oracle answer reads and writes one cell. `asked` is a list of bools over
the view's predicates, True once a predicate was example-queried.

Objects are region rows (corpus.Corpus): queries, pending labels (predicate,
row, label) and the guess hold rows, and the oracle reads the corpus's
annotation column by row; transcript_records writes their ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .actions import Action, ExampleQuery, Guess, LabelQuery, describe
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
    action: Action
    reward: float
    beam_features: np.ndarray | None = None  # (n_candidates, F)
    chosen: int | None = None


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
        guesser: Callable[[], int],
    ):
        if not interaction.description_predicates:
            raise DataError("interaction has no description predicates")
        self.interaction = interaction
        self.annotations = annotations
        self.view = view
        self.rewards = rewards
        self.t_max = t_max
        self._oracle_rng = oracle_rng
        self._guesser = guesser

        self.turn = 0
        self.terminated = False
        self.guessed: int | None = None
        self.success = False
        self.pending_labels: list[tuple[str, int, int]] = []
        self.transcript: list[TranscriptStep] = []
        self.known = view.labels()
        self.asked = [False] * len(view.predicates)  # example-queried predicates

    # -- label bookkeeping ------------------------------------------------

    def _record(self, predicate: str, col: int, label: int) -> None:
        row = self.known[self.view.index[predicate]]
        held = row[col]
        region = self.interaction.active_train[col]
        if held:
            if held != label:
                raise ContractError(f"oracle flipped label for ({predicate!r}, row {region})")
            return
        row[col] = label
        self.pending_labels.append((predicate, region, label))

    # -- oracle -----------------------------------------------------------

    def answer_label_query(self, predicate: str, region: int) -> int:
        if region not in self.interaction.active_train:
            raise ProtocolError(f"label query on row {region}, outside the active training set")
        label = 1 if predicate in self.annotations[region] else -1
        self._record(predicate, self.interaction.active_train.index(region), label)
        return label

    def answer_example_query(self, predicate: str) -> int | None:
        """A random positive active-train region row, or None when there is none."""
        active = self.interaction.active_train
        positives = [col for col, row in enumerate(active) if predicate in self.annotations[row]]
        if positives:
            col = positives[int(self._oracle_rng.integers(len(positives)))]
            self._record(predicate, col, 1)
            return active[col]
        for col in range(len(active)):
            self._record(predicate, col, -1)
        return NONE_ANSWER

    # -- transitions --------------------------------------------------------

    def step(
        self,
        action: Action,
        beam_features: np.ndarray | None = None,
        chosen: int | None = None,
    ) -> tuple[float, bool]:
        if self.terminated:
            raise ProtocolError("step on a terminated episode")
        if self.turn >= self.t_max and not isinstance(action, Guess):
            raise ProtocolError(f"turn cap {self.t_max} reached; only the guess is admissible")

        if isinstance(action, Guess):
            self.guessed = self._guesser()
            self.success = self.guessed == self.interaction.target
            reward = (
                self.rewards.correct_guess if self.success else self.rewards.incorrect_guess
            )
            self.terminated = True
        elif isinstance(action, LabelQuery):
            self.answer_label_query(action.predicate, action.region)
            reward = self.rewards.per_query
        elif isinstance(action, ExampleQuery):
            self.answer_example_query(action.predicate)
            self.asked[self.view.index[action.predicate]] = True
            reward = self.rewards.per_query
        else:
            raise ProtocolError(f"unknown action {action!r}")

        self.turn += 1
        self.transcript.append(
            TranscriptStep(action=action, reward=reward, beam_features=beam_features, chosen=chosen)
        )
        return reward, self.terminated

    # -- derived quantities -------------------------------------------------

    def n_queries(self) -> int:
        return self.turn - 1 if self.terminated else self.turn

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


def transcript_records(episode_id: str, episode: Episode, ids: Sequence[str]):
    """One flat record per action: id, turn, descriptor, reward, chosen features."""
    for t, step in enumerate(episode.transcript):
        feats = None
        if step.beam_features is not None and step.chosen is not None:
            feats = [float(v) for v in step.beam_features[step.chosen]]
        yield {
            "episode": episode_id,
            "turn": t,
            "action": describe(step.action, ids),
            "reward": step.reward,
            "features": feats,
        }

