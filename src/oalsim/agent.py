"""Mutable agent state: classifiers and usage stats.

Classifier weights and stats are frozen during a batch and refreshed only at
batch boundaries. The predicates the agent has seen are the keys of
`stats.used`: every description predicate of its finished dialogs. A batch's
views add the batch's own descriptions from its start (snapshot.BatchRows),
so the candidate generator always has predicates to sample.

Labels are keyed by region row in a run and by region id in a checkpoint;
to_dict and from_dict translate with the corpus's ids and id -> row map.
A checkpoint holds each classifier's labels and no weights or F1: those
follow from the labels, and Experiment.run refits them on resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import CheckpointError, ConfigError, check_int
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
        """Each model's labels keyed by region id, in insertion order, and the stats."""
        return {
            "models": {
                p: {ids[row]: label for row, label in m.labels.items()}
                for p, m in sorted(self.models.items())
            },
            "stats": {
                "used": dict(self.stats.used),
                "succeeded": dict(self.stats.succeeded),
                "dialogs": self.stats.dialogs,
            },
        }

    @classmethod
    def from_dict(cls, data: dict, rows: Mapping[str, int]) -> "Agent":
        """The state to_dict wrote, with no classifier fit; `rows` maps a region id to its row.

        A label must be an integer +1 or -1, and a count an integer >= 0;
        bools are neither.
        """
        try:
            models = {}
            for p, labels in data["models"].items():
                unknown = [rid for rid in labels if rid not in rows]
                if unknown:
                    raise CheckpointError(
                        f"model {p!r}: a label for region {unknown[0]!r}, not in the corpus"
                    )
                for label in labels.values():
                    check_int(f"model {p!r}: a label", label)
                    if label not in (-1, 1):
                        raise CheckpointError(f"model {p!r}: a label outside {{-1, +1}}")
                models[p] = PredicateModel(
                    predicate=p, labels={rows[rid]: label for rid, label in labels.items()}
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
