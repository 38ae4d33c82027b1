"""Softmax action policy, REINFORCE updates, and the static baseline.

The policy is linear in state-action features: pi(a|s) = softmax over the
candidate beam of theta . f(s, a). Updates are plain batched REINFORCE, with
an optional running-mean return baseline for variance reduction. The static
baseline ignores theta and alternates label/example queries for a fixed count
before guessing; its rule (static_kinds, then static_pick) reads only how
many candidates of each kind a beam holds; querygen, which lays beams out,
places its pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .actions import EXAMPLE_QUERY, GUESS, LABEL_QUERY
from .errors import PolicyUpdateError

if TYPE_CHECKING:
    from .config import PolicyConfig


def learning_rate_at(policy: PolicyConfig, update: int) -> float:
    """The step size of the run's update `update`, counted from 0: linear decay, floored at 0."""
    return policy.learning_rate * max(0.0, 1.0 - policy.learning_rate_decay * update)


def running_mean(mean: float, count: int, values: Iterable[float]) -> float:
    """The mean of `count` earlier values, `mean`, updated by each of `values` in turn."""
    for g in values:
        count += 1
        mean += (g - mean) / count
    return mean


@dataclass
class AgentStats:
    """Cross-dialog counters: per-predicate usage/success plus the dialog total."""

    used: dict[str, int] = field(default_factory=dict)
    succeeded: dict[str, int] = field(default_factory=dict)
    dialogs: int = 0

    def observe_dialog(self, description_predicates: Sequence[str], success: bool) -> None:
        self.dialogs += 1
        for p in description_predicates:
            self.used[p] = self.used.get(p, 0) + 1
            if success:
                self.succeeded[p] = self.succeeded.get(p, 0) + 1


def action_probabilities(theta: np.ndarray, beam_features: np.ndarray) -> np.ndarray:
    """Softmax over theta . f for each beam candidate, overflow-safe."""
    if beam_features.shape[0] == 0:
        raise ValueError("empty beam")
    logits = beam_features @ theta
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over the fixed beam ordering."""
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probs.tolist()):
        acc += p
        if r < acc:
            return i
    return len(probs) - 1


def grad_log_prob(
    theta: np.ndarray,
    beam_features: np.ndarray,
    chosen: int,
    probs: np.ndarray | None = None,
) -> np.ndarray:
    """f(s, a_chosen) - sum_a' pi(a'|s) f(s, a').

    `probs`, when given, is action_probabilities(theta, beam_features), as
    the turn that sampled from it computed it; otherwise it is computed here.
    """
    if probs is None:
        probs = action_probabilities(theta, beam_features)
    return beam_features[chosen] - probs @ beam_features


def reinforce_update(
    theta: np.ndarray,
    batch: Sequence[Sequence[tuple[np.ndarray, float]]],
    alpha: float,
    baseline: float = 0.0,
    discount: float = 1.0,
) -> np.ndarray:
    """One gradient-ascent step over a batch of episodes.

    Each episode is a sequence of (term, return_G_t) steps, where term is
    grad_log_prob of the step's beam and chosen action at `theta`; turn t
    adds discount**t * (G_t - baseline) * term, episode by episode and turn
    by turn. The discount**t factor makes the step's expectation the
    gradient of the expected discounted return E[G_0] (Sutton and Barto,
    2018, sec. 13.3); at discount 1 it is 1.0 and changes no bit.
    Returns the new theta; the input is not modified.
    """
    grad = np.zeros_like(theta)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finiteness check
        for episode in batch:
            for t, (term, g) in enumerate(episode):
                grad += discount**t * (g - baseline) * term
        new_theta = theta + alpha * grad
    if not np.all(np.isfinite(new_theta)):
        raise PolicyUpdateError(
            "non-finite policy update "
            f"(grad norm {np.linalg.norm(grad):.3e}, alpha {alpha:.3e}); "
            "lower the learning rate"
        )
    return new_theta


def static_kinds(turn: int, n_queries: int) -> tuple[int, ...]:
    """The query kinds the static rule tries at `turn`, preferred first.

    Label queries on even turns and example queries on odd ones, the other
    kind as the fallback; none from turn n_queries on, where it guesses.
    """
    if turn >= n_queries:
        return ()
    return (LABEL_QUERY, EXAMPLE_QUERY) if turn % 2 == 0 else (EXAMPLE_QUERY, LABEL_QUERY)


def static_pick(
    kinds: Sequence[int], counts: Sequence[int], rng: np.random.Generator
) -> tuple[int, int]:
    """The static rule's (kind, index among that kind's candidates, in beam order).

    `counts[kind]` is how many candidates of that kind the beam holds, by
    the kind's value: (1, label queries, example queries). The first of
    `kinds` with any gets one uniform index, rng.integers(count); with none,
    the pick is the guess, (GUESS, 0), and draws nothing.
    """
    for kind in kinds:
        if counts[kind]:
            return kind, int(rng.integers(counts[kind]))
    return GUESS, 0
