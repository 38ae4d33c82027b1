"""Mutable agent state: classifiers and usage stats.

Classifier weights and stats are frozen during a batch and refreshed only at
batch boundaries. The predicates the agent has seen are the keys of
`stats.used`: every description predicate of its finished dialogs. A batch's
views add the batch's own descriptions from its start (snapshot.BatchRows),
so the candidate generator always has predicates to sample.

Labels are keyed by region row in a run and by region id in a checkpoint;
to_dict and from_dict translate with the corpus's ids and id -> row map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CheckpointError, ConfigError, check_int, check_real
from .perception import PredicateModel
from .policy import AgentStats


@dataclass
class Agent:
    models: dict[str, PredicateModel] = field(default_factory=dict)
    stats: AgentStats = field(default_factory=AgentStats)

    def reset(self) -> None:
        """Drop all classifiers and stats (phase boundary)."""
        self.models = {}
        self.stats = AgentStats()

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
        }

    @classmethod
    def from_dict(cls, data: dict, rows: Mapping[str, int], dim: int) -> "Agent":
        """The state to_dict wrote; `rows` maps each label's region id to its row.

        A label must be an integer +1 or -1; an F1, a finite number in [0, 1];
        a model's weights, null or dim + 1 finite numbers: feature weights,
        then bias; a count, an integer >= 0. Bools are none of these.
        """
        try:
            models = {}
            for p, m in data["models"].items():
                unknown = [rid for rid in m["labels"] if rid not in rows]
                if unknown:
                    raise CheckpointError(
                        f"model {p!r}: a label for region {unknown[0]!r}, not in the corpus"
                    )
                for label in m["labels"].values():
                    check_int(f"model {p!r}: a label", label)
                    if label not in (-1, 1):
                        raise CheckpointError(f"model {p!r}: a label outside {{-1, +1}}")
                check_real(f"model {p!r}: F1", m["f1"])
                if not 0.0 <= m["f1"] <= 1.0:
                    raise CheckpointError(f"model {p!r}: F1 {m['f1']} outside [0, 1]")
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
                    labels={rows[rid]: label for rid, label in m["labels"].items()},
                    weights=None if weights is None else np.asarray(weights, dtype=np.float64),
                    f1=float(m["f1"]),
                )
            counts = data["stats"]
            for name in ("used", "succeeded"):
                for p, v in counts[name].items():
                    check_int(f"stats {name}[{p!r}]", v, 0)
            check_int("stats dialogs", counts["dialogs"], 0)
            stats = AgentStats(dict(counts["used"]), dict(counts["succeeded"]), counts["dialogs"])
            return cls(models=models, stats=stats)
        except ConfigError as exc:
            raise CheckpointError(str(exc)) from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"malformed agent state: {exc}") from exc
