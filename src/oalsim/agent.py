"""Mutable agent state: classifiers and usage stats.

Classifier weights and stats are frozen during a batch and refreshed only at
batch boundaries. The predicates the agent has seen are the keys of
`stats.used`: every description predicate of its finished dialogs. A batch's
views add the batch's own descriptions from its start (snapshot.BatchRows),
so the candidate generator always has predicates to sample.

Labels are keyed by region row in a run and by region id in a checkpoint;
to_dict and from_dict translate with the corpus's ids and id -> row map.
A checkpoint holds each classifier's labels and no weights or F1: those
follow from the labels, and a resumed run's first batch start fits them.
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
        bools are neither. As in a run, a predicate succeeds in at most the
        dialogs that use it, and those are at most all dialogs.
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
            stats = data["stats"]
            used, succeeded, dialogs = stats["used"], stats["succeeded"], stats["dialogs"]
            for name, counts in (("used", used), ("succeeded", succeeded)):
                for p, v in counts.items():
                    check_int(f"stats {name}[{p!r}]", v, 0)
            check_int("stats dialogs", dialogs, 0)
            bad = [f"succeeded[{p!r}] > used" for p, n in succeeded.items() if n > used.get(p, -1)]
            bad += [f"used[{p!r}] > dialogs" for p, n in used.items() if n > dialogs]
            if bad:
                raise CheckpointError(f"stats {bad[0]}")
            return cls(models=models, stats=AgentStats(dict(used), dict(succeeded), dialogs))
        except ConfigError as exc:
            raise CheckpointError(str(exc)) from None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"malformed agent state: {exc}") from exc
