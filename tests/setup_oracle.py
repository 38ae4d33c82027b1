"""The per-episode set-up, kept as the oracle for the batch build.

The harness builds every episode's view, label record, grounding and feature
table from one set of batch arrays (snapshot.BatchRows, features.query_rows,
grounding.score_objects and features.guess_features over stacks of dialogs).
These are the forms it replaced, which built each episode's set-up on its
own: `OracleView` builds the rows of one interaction's predicates from the
models mapping through classifier_rows and entries, never through
BatchRows, and walks the models' label dicts, `oracle_scores` sums one
description's decisions, `oracle_guess_features` reads one grounding and
`oracle_table` is the per-episode FeatureContext table. Every batch-built
array must equal them exactly.
"""

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from oalsim.features import INDEX, N_FEATURES
from oalsim.perception import PredicateModel
from oalsim.querygen import TriangularWeights
from oalsim.snapshot import classifier_rows, entries

_ACT_GUESS = INDEX["act_guess"]
_ACT_LABEL = INDEX["act_label_query"]
_ACT_EXAMPLE = INDEX["act_example_query"]
_NEW_PREDICATE = INDEX["query_new_predicate"]
_PREDICATE_F1 = INDEX["query_predicate_f1"]
_USAGE_FREQ = INDEX["query_usage_freq"]
_USAGE_SUCCESS = INDEX["query_usage_success"]
_OPPORTUNISTIC = INDEX["query_opportunistic"]


class OracleView:
    """One interaction's predicates (sorted) against its active-train and -test objects."""

    def __init__(
        self,
        models: Mapping[str, PredicateModel],
        predicates: Iterable[str],
        active_train: Sequence[int],
        active_test: Sequence[int],
        X: np.ndarray,
        params: TriangularWeights,
    ):
        self.predicates = tuple(sorted(predicates))
        self.index = {p: i for i, p in enumerate(self.predicates)}
        self.models = [models.get(p) for p in self.predicates]
        self.train_rows = tuple(active_train)
        self.test_rows = tuple(active_test)
        self.train_by_row = np.argsort(self.train_rows, kind="stable")
        self.f1, self.sampling, self.trained, self.margins, self.decisions = entries(
            *classifier_rows(self.models, X.shape[1], params),
            X[list(self.train_rows)],
            X[list(self.test_rows)],
        )
        order = np.argsort(self.margins[..., self.train_by_row], axis=-1, kind="stable")
        self.by_margin = self.train_by_row[order].tolist()

    def labels(self) -> list[list[int]]:
        rows = self.train_rows
        return [
            [0] * len(rows) if model is None else [model.labels.get(row, 0) for row in rows]
            for model in self.models
        ]


@dataclass(frozen=True)
class OracleScores:
    regions: tuple[int, ...]
    weighted: tuple[float, ...]
    unweighted: tuple[int, ...]
    argmax: int

    def ranked(self) -> list[int]:
        return sorted(
            range(len(self.regions)), key=lambda i: (-self.weighted[i], self.regions[i])
        )


def oracle_scores(description_predicates: Sequence[str], view: OracleView) -> OracleScores:
    rows = view.test_rows
    weighted = np.zeros(len(rows))
    unweighted = np.zeros(len(rows), dtype=np.int64)
    for p in description_predicates:
        row = view.index[p]
        weighted += view.decisions[row] * view.f1[row]
        unweighted += view.decisions[row]
    weighted_t = tuple(weighted.tolist())
    best = min(range(len(rows)), key=lambda i: (-weighted_t[i], rows[i]))
    return OracleScores(
        regions=rows,
        weighted=weighted_t,
        unweighted=tuple(unweighted.tolist()),
        argmax=rows[best],
    )


def oracle_guess_features(
    description_predicates: Sequence[str], view: OracleView, scores: OracleScores
) -> np.ndarray:
    vec = np.zeros(N_FEATURES)
    preds = description_predicates
    k = len(preds)
    rows = [view.index[p] for p in preds]
    cs = view.f1[rows]
    order = sorted(range(k), key=lambda i: (-cs[i], preds[i]))
    best_row = rows[order[0]]
    second_row = rows[order[1]] if k > 1 else best_row

    vec[INDEX["guess_f1_min"]] = cs.min()
    vec[INDEX["guess_f1_max"]] = cs.max()
    vec[INDEX["guess_f1_second"]] = cs[order[1]] if k > 1 else cs[order[0]]
    vec[INDEX["guess_f1_mean"]] = cs.mean()

    weighted = np.array(scores.weighted)
    votes = np.array(scores.unweighted, dtype=float)
    top_w = weighted.max()
    second_w = np.sort(weighted)[-2] if len(weighted) > 1 else top_w
    top_v = votes.max()
    second_v = np.sort(votes)[-2] if len(votes) > 1 else top_v
    vec[INDEX["guess_top_score"]] = top_w / k
    vec[INDEX["guess_score_gap_second"]] = (top_w - second_w) / k
    vec[INDEX["guess_score_gap_mean"]] = (top_w - weighted.mean()) / k
    vec[INDEX["guess_top_votes"]] = top_v / k
    vec[INDEX["guess_votes_gap_second"]] = (top_v - second_v) / k
    vec[INDEX["guess_votes_gap_mean"]] = (top_v - votes.mean()) / k

    ranked = scores.ranked()
    top = ranked[0]
    runner_up = ranked[1] if len(ranked) > 1 else top
    d_best = view.decisions[best_row]
    d_second = view.decisions[second_row]

    vec[INDEX["guess_top2_clf_agree"]] = float(d_best[top] == d_second[top])
    vec[INDEX["guess_best_clf_decision"]] = d_best[top]
    vec[INDEX["guess_second_clf_decision"]] = d_second[top]
    vec[INDEX["guess_best_clf_decision_rel"]] = d_best[top] - d_best.astype(float).mean()
    vec[INDEX["guess_second_clf_decision_rel"]] = (
        d_second[top] - d_second.astype(float).mean()
    )
    vec[INDEX["guess_best_clf_top2_same"]] = float(d_best[top] == d_best[runner_up])
    return vec


def oracle_table(description_predicates, view: OracleView, stats, guess) -> np.ndarray:
    """The episode's 1 + 2P feature-table rows: guess, label queries, example queries."""
    preds = view.predicates
    used = np.array([stats.used.get(p, 0) for p in preds], dtype=np.float64)
    succeeded = np.array([stats.succeeded.get(p, 0) for p in preds], dtype=np.float64)
    desc = set(description_predicates)
    table = np.zeros((1 + 2 * len(preds), N_FEATURES))
    q = table[1:].reshape(2, len(preds), N_FEATURES)
    table[0] = guess
    table[0, _ACT_GUESS] = 1.0
    q[0, :, _ACT_LABEL] = 1.0
    q[1, :, _ACT_EXAMPLE] = 1.0
    q[:, :, _NEW_PREDICATE] = ~view.trained
    q[:, :, _PREDICATE_F1] = view.f1
    if stats.dialogs > 0:
        q[:, :, _USAGE_FREQ] = used / stats.dialogs
    q[:, :, _USAGE_SUCCESS] = np.divide(succeeded, used, out=np.zeros(len(preds)), where=used > 0)
    q[:, :, _OPPORTUNISTIC] = [p not in desc for p in preds]
    return table


def oracle_setup(models, predicates, interaction, X, params, stats):
    """An episode's view, label record, guessed region row and feature table."""
    desc = interaction.description_predicates
    view = OracleView(
        models,
        set(predicates) | set(desc),
        interaction.active_train,
        interaction.active_test,
        X,
        params,
    )
    scores = oracle_scores(desc, view)
    table = oracle_table(desc, view, stats, oracle_guess_features(desc, view, scores))
    return view, view.labels(), scores.argmax, table
