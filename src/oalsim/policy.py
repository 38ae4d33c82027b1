"""Softmax action policy, REINFORCE updates, and the static baseline.

The policy is linear in state-action features: pi(a|s) = softmax over the
candidate beam of theta . f(s, a). Updates are plain batched REINFORCE, with
an optional running-mean return baseline for variance reduction. The static
baseline ignores theta and alternates label/example queries for a fixed count
before guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .actions import Action, EXAMPLE_QUERY, GUESS, LABEL_QUERY
from .errors import PolicyUpdateError


@dataclass
class PolicyParams:
    alpha: float = 1e-3
    alpha_decay: float = 0.0  # linear: alpha_b = alpha * max(0, 1 - decay*b)
    use_baseline: bool = False
    baseline_mean: float = 0.0
    baseline_count: int = 0

    def alpha_at(self, batch_index: int) -> float:
        return self.alpha * max(0.0, 1.0 - self.alpha_decay * batch_index)

    def observe_returns(self, returns: Sequence[float]) -> None:
        for g in returns:
            self.baseline_count += 1
            self.baseline_mean += (g - self.baseline_mean) / self.baseline_count

    def baseline(self) -> float:
        return self.baseline_mean if self.use_baseline else 0.0


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


def grad_log_prob(theta: np.ndarray, beam_features: np.ndarray, chosen: int) -> np.ndarray:
    """f(s, a_chosen) - sum_a' pi(a'|s) f(s, a')."""
    probs = action_probabilities(theta, beam_features)
    return beam_features[chosen] - probs @ beam_features


def reinforce_update(
    theta: np.ndarray,
    batch: Sequence[Sequence[tuple[np.ndarray, float]]],
    alpha: float,
    baseline: float = 0.0,
) -> np.ndarray:
    """One gradient-ascent step over a batch of episodes.

    Each episode is a sequence of (term, return_G_t) steps, where term is
    grad_log_prob of the step's beam and chosen action at `theta`; the step
    adds (G_t - baseline) * term, episode by episode and turn by turn.
    Returns the new theta; the input is not modified.
    """
    grad = np.zeros_like(theta)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the finiteness check
        for episode in batch:
            for term, g in episode:
                grad += (g - baseline) * term
        new_theta = theta + alpha * grad
    if not np.all(np.isfinite(new_theta)):
        raise PolicyUpdateError(
            "non-finite policy update "
            f"(grad norm {np.linalg.norm(grad):.3e}, alpha {alpha:.3e}); "
            "lower the learning rate"
        )
    return new_theta


def static_policy_act(
    turn: int,
    beam: Sequence[Action],
    n_queries: int,
    rng: np.random.Generator,
) -> int:
    """Alternate label/example queries (label first) for n_queries turns, then guess.

    Falls back to the other query type, then to the guess, when the preferred
    type has no candidates in the beam.
    """
    if turn >= n_queries:
        return _first_of_kind(beam, GUESS)
    preferred = LABEL_QUERY if turn % 2 == 0 else EXAMPLE_QUERY
    other = EXAMPLE_QUERY if preferred == LABEL_QUERY else LABEL_QUERY
    for kind in (preferred, other):
        idxs = [i for i, a in enumerate(beam) if a.kind == kind]
        if idxs:
            return idxs[int(rng.integers(len(idxs)))]
    return _first_of_kind(beam, GUESS)


def _first_of_kind(beam: Sequence[Action], kind: str) -> int:
    for i, a in enumerate(beam):
        if a.kind == kind:
            return i
    raise ValueError(f"beam has no {kind!r} action")
