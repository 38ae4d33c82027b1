"""Mutable agent state: classifiers, usage stats, and the seen-predicate set.

Classifier weights and stats are frozen during a batch and refreshed only at
batch boundaries. The seen-predicate set grows as soon as a description is
read, so the candidate generator always has predicates to sample.

Labels are keyed by region row in a run and by region id in a checkpoint;
to_dict and from_dict translate with the corpus's ids and id -> row map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CheckpointError
from .perception import PredicateModel
from .policy import AgentStats


@dataclass
class Agent:
    models: dict[str, PredicateModel] = field(default_factory=dict)
    stats: AgentStats = field(default_factory=AgentStats)
    predicates: set[str] = field(default_factory=set)

    def reset(self) -> None:
        """Drop all classifiers, stats, and seen predicates (phase boundary)."""
        self.models = {}
        self.stats = AgentStats()
        self.predicates = set()

    def to_dict(self, ids: Sequence[str]) -> dict:
        """The state with each label keyed by its region's id, in insertion order."""
        return {
            "models": {
                p: {
                    "labels": {ids[row]: label for row, label in m.labels.items()},
                    "weights": None if m.weights is None else [float(v) for v in m.weights],
                    "f1": m.f1,
                }
                for p, m in sorted(self.models.items())
            },
            "stats": {
                "used": dict(self.stats.used),
                "succeeded": dict(self.stats.succeeded),
                "dialogs": self.stats.dialogs,
            },
            "predicates": sorted(self.predicates),
        }

    @classmethod
    def from_dict(cls, data: dict, rows: Mapping[str, int], dim: int) -> "Agent":
        """The state to_dict wrote; `rows` maps each label's region id to its row.

        A model's weights must be null or dim + 1 finite numbers: feature weights, then bias.
        """
        try:
            models = {}
            for p, m in data["models"].items():
                unknown = [rid for rid in m["labels"] if rid not in rows]
                if unknown:
                    raise CheckpointError(
                        f"model {p!r}: a label for region {unknown[0]!r}, not in the corpus"
                    )
                labels = {rows[rid]: int(lbl) for rid, lbl in m["labels"].items()}
                f1 = float(m["f1"])
                if not set(labels.values()) <= {-1, 1}:
                    raise CheckpointError(f"model {p!r}: a label outside {{-1, +1}}")
                if not 0.0 <= f1 <= 1.0:
                    raise CheckpointError(f"model {p!r}: F1 {f1} outside [0, 1]")
                weights = m["weights"]
                if weights is not None and not (
                    isinstance(weights, list) and len(weights) == dim + 1
                    and all(type(v) in (int, float) and math.isfinite(v) for v in weights)
                ):
                    raise CheckpointError(
                        f"model {p!r}: weights must be null or {dim + 1} finite numbers"
                    )
                models[p] = PredicateModel(
                    predicate=p,
                    labels=labels,
                    weights=None if weights is None else np.asarray(weights, dtype=np.float64),
                    f1=f1,
                )
            stats = AgentStats(
                used={p: int(v) for p, v in data["stats"]["used"].items()},
                succeeded={p: int(v) for p, v in data["stats"]["succeeded"].items()},
                dialogs=int(data["stats"]["dialogs"]),
            )
            return cls(models=models, stats=stats, predicates=set(data["predicates"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed agent state: {exc}") from exc
