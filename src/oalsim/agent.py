"""Mutable agent state: classifiers and usage stats.

Classifier weights and stats are frozen during a batch and refreshed only at
batch boundaries. The predicates the agent has seen are the keys of
`stats.used`: every description predicate of its finished dialogs. A batch's
views add the batch's own descriptions from its start (snapshot.BatchRows),
so the candidate generator always has predicates to sample.

Labels are keyed by region row in a run and by region id in a checkpoint;
to_dict and from_dict translate with the corpus's ids and id -> row map.
A checkpoint holds each classifier's labeled region ids and nothing else:
each label's sign is the oracle's answer, read off the corpus's
annotations; weights and F1 follow from the labels, and a resumed run's
first batch start fits them; the usage stats follow from the phase's
dialogs, which the resume replays (harness.Experiment.run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Sequence

from .corpus import Corpus
from .errors import CheckpointError
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

    def to_dict(self, ids: Sequence[str]) -> dict[str, list[str]]:
        """Each model's labeled region ids, in insertion order."""
        return {p: [ids[row] for row in m.labels] for p, m in sorted(self.models.items())}

    @classmethod
    def from_dict(cls, data: dict, corpus: Corpus, regions: Collection[int]) -> "Agent":
        """The labels to_dict wrote, signed as the oracle answers, with no classifier fit or stats.

        A label names a region row of `regions`, the rows its dialogs could
        label, and a predicate lists a region once.
        """
        try:
            models = {}
            for p, rids in data.items():
                if not isinstance(rids, list):
                    raise CheckpointError(f"labels of {p!r} must be a list of region ids")
                unknown = [rid for rid in rids if rid not in corpus.row]
                if unknown:
                    raise CheckpointError(
                        f"labels of {p!r}: region {unknown[0]!r}, not in the corpus"
                    )
                if len(set(rids)) < len(rids):
                    raise CheckpointError(f"labels of {p!r} list a region twice")
                rows = [corpus.row[rid] for rid in rids]
                outside = [rid for rid, row in zip(rids, rows) if row not in regions]
                if outside:
                    raise CheckpointError(
                        f"labels of {p!r}: region {outside[0]!r}, offered by no dialog of the phase"
                    )
                models[p] = PredicateModel(
                    predicate=p,
                    labels={row: 1 if p in corpus.annotations[row] else -1 for row in rows},
                )
            return cls(models=models)
        except (TypeError, AttributeError) as exc:
            raise CheckpointError(f"malformed checkpoint labels: {exc}") from exc
