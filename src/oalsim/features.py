"""State-action feature registry for the dialog policy.

The registry fixes the index, name, applicable action types, ablation group,
and normalization of every feature, so ablation configs can address features
by name and logged vectors stay comparable across runs. Entries that do not
apply to an action type are exactly zero in its vector.

A beam is featurized in one call, as one (len(beam), N_FEATURES) array. The
inputs that stay fixed within an episode are built once into a
FeatureContext's row table: the guess row, then one label-query and one
example-query row per view predicate. A beam's array is one fancy index into
the table, plus the label queries' object entries, turn_frac and the
ablation mask. A label query names its object by region row, which indexes
the density index and, by its view column, the margins. The per-action form
is kept in tests/feature_oracle.py as the reference, and the array must
equal it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .actions import Action, LabelQuery
from .errors import ConfigError
from .grounding import GuessScores
from .perception import DensityIndex, density_stats
from .policy import AgentStats

if TYPE_CHECKING:
    from .snapshot import EpisodeView


@dataclass(frozen=True)
class FeatureSpec:
    index: int
    name: str
    actions: tuple[str, ...]
    group: str | None
    normalization: str


_RAW_SPECS = [
    ("turn_frac", ("guess", "label", "example"), None, "turn / T_max, in [0,1]"),
    ("act_guess", ("guess",), None, "indicator {0,1}"),
    ("act_label_query", ("label",), None, "indicator {0,1}"),
    ("act_example_query", ("example",), None, "indicator {0,1}"),
    ("guess_f1_min", ("guess",), "guess", "min F1 over description predicates, [0,1]"),
    ("guess_f1_max", ("guess",), "guess", "max F1 over description predicates, [0,1]"),
    ("guess_f1_second", ("guess",), "guess", "second-highest F1, [0,1]"),
    ("guess_f1_mean", ("guess",), "guess", "mean F1, [0,1]"),
    ("guess_top_score", ("guess",), "guess", "top weighted score / #predicates, [-1,1]"),
    ("guess_score_gap_second", ("guess",), "guess", "(top - second) weighted / #predicates, [0,2]"),
    ("guess_score_gap_mean", ("guess",), "guess", "(top - mean) weighted / #predicates, [0,2]"),
    ("guess_top_votes", ("guess",), "guess", "top decision sum / #predicates, [-1,1]"),
    ("guess_votes_gap_second", ("guess",), "guess", "(top - second) decision sum / #predicates, [0,2]"),
    ("guess_votes_gap_mean", ("guess",), "guess", "(top - mean) decision sum / #predicates, [0,2]"),
    ("guess_top2_clf_agree", ("guess",), "guess", "two most trusted classifiers agree on top region {0,1}"),
    ("guess_best_clf_decision", ("guess",), "guess", "best classifier's decision on top region {-1,1}"),
    ("guess_second_clf_decision", ("guess",), "guess", "second classifier's decision on top region {-1,1}"),
    ("guess_best_clf_decision_rel", ("guess",), "guess", "best decision minus its active-test mean, [-2,2]"),
    ("guess_second_clf_decision_rel", ("guess",), "guess", "second decision minus its active-test mean, [-2,2]"),
    ("guess_best_clf_top2_same", ("guess",), "guess", "best classifier agrees on top two regions {0,1}"),
    ("query_new_predicate", ("label", "example"), "query", "predicate has no classifier {0,1}"),
    ("query_predicate_f1", ("label", "example"), "query", "estimated F1 of queried predicate, [0,1]"),
    ("query_usage_freq", ("label", "example"), "query", "dialogs using predicate / total dialogs, [0,1]"),
    ("query_usage_success", ("label", "example"), "query", "success rate of dialogs using predicate, [0,1]"),
    ("query_opportunistic", ("label", "example"), "query", "predicate not in current description {0,1}"),
    ("label_margin", ("label",), "query", "distance of object to hyperplane, >= 0 (0 for new predicates)"),
    ("label_avg_cos_dist", ("label",), "query", "object's mean cosine distance to corpus, [0,2]"),
    ("label_knn_unlabeled", ("label",), "query", "fraction of object's k-NN unlabeled for predicate, [0,1]"),
]

REGISTRY: tuple[FeatureSpec, ...] = tuple(
    FeatureSpec(i, name, acts, group, norm)
    for i, (name, acts, group, norm) in enumerate(_RAW_SPECS)
)
N_FEATURES = len(REGISTRY)
INDEX = {spec.name: spec.index for spec in REGISTRY}
_TURN_FRAC = INDEX["turn_frac"]
_ACT_GUESS = INDEX["act_guess"]
_ACT_LABEL = INDEX["act_label_query"]
_ACT_EXAMPLE = INDEX["act_example_query"]
_NEW_PREDICATE = INDEX["query_new_predicate"]
_PREDICATE_F1 = INDEX["query_predicate_f1"]
_USAGE_FREQ = INDEX["query_usage_freq"]
_USAGE_SUCCESS = INDEX["query_usage_success"]
_OPPORTUNISTIC = INDEX["query_opportunistic"]
_LABEL_OBJECT = slice(INDEX["label_margin"], INDEX["label_knn_unlabeled"] + 1)
GROUPS = {
    "guess": tuple(s.name for s in REGISTRY if s.group == "guess"),
    "query": tuple(s.name for s in REGISTRY if s.group == "query"),
}


def registry_table() -> list[dict]:
    return [
        {
            "index": s.index,
            "name": s.name,
            "actions": list(s.actions),
            "group": s.group,
            "normalization": s.normalization,
        }
        for s in REGISTRY
    ]


def resolve_mask(names: Sequence[str]) -> np.ndarray:
    """Boolean mask over feature indices from feature or group names."""
    mask = np.zeros(N_FEATURES, dtype=bool)
    for name in names:
        if name in GROUPS:
            for feat in GROUPS[name]:
                mask[INDEX[feat]] = True
        elif name in INDEX:
            mask[INDEX[name]] = True
        else:
            raise ConfigError(f"unknown feature or group name {name!r}")
    return mask


@dataclass
class FeatureContext:
    """One episode's featurization state, built once per episode.

    `table` holds 1 + 2P rows for the view's P predicates: row 0 is the guess
    row (`guess` with act_guess set), rows 1..P the label-query rows and rows
    P+1..2P the example-query rows (act flag, new-predicate, F1, usage
    frequency, usage success, opportunistic; zero elsewhere). `queries` is
    the query rows as a (2, P, N_FEATURES) view of the table. Agent stats
    and the description do not change within an episode; after an immediate
    refit, `refit` rewrites the refit predicates' rows and the harness calls
    `set_guess` when the grounding changed.
    """

    t_max: int
    description_predicates: tuple[str, ...]
    view: EpisodeView
    stats: AgentStats
    density: DensityIndex
    guess: np.ndarray  # guess_features of the current grounding
    mask: np.ndarray | None = None
    table: np.ndarray = field(init=False, repr=False)
    queries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        preds, stats = self.view.predicates, self.stats
        used = np.array([stats.used.get(p, 0) for p in preds], dtype=np.float64)
        succeeded = np.array([stats.succeeded.get(p, 0) for p in preds], dtype=np.float64)
        desc = set(self.description_predicates)
        self.table = np.zeros((1 + 2 * len(preds), N_FEATURES))
        self.queries = q = self.table[1:].reshape(2, len(preds), N_FEATURES)
        self.set_guess(self.guess)
        q[0, :, _ACT_LABEL] = 1.0
        q[1, :, _ACT_EXAMPLE] = 1.0
        q[:, :, _NEW_PREDICATE] = ~self.view.trained
        q[:, :, _PREDICATE_F1] = self.view.f1
        if stats.dialogs > 0:
            q[:, :, _USAGE_FREQ] = used / stats.dialogs
        q[:, :, _USAGE_SUCCESS] = np.divide(
            succeeded, used, out=np.zeros(len(preds)), where=used > 0
        )
        q[:, :, _OPPORTUNISTIC] = [p not in desc for p in preds]

    def set_guess(self, guess: np.ndarray) -> None:
        """Take the guess features of a new grounding and rewrite the guess row."""
        self.guess = guess
        self.table[0] = guess
        self.table[0, _ACT_GUESS] = 1.0

    def refit(self, rows: list[int]) -> None:
        """Rewrite the classifier-dependent entries of these view rows."""
        self.queries[:, rows, _NEW_PREDICATE] = ~self.view.trained[rows]
        self.queries[:, rows, _PREDICATE_F1] = self.view.f1[rows]


def featurize(beam: Sequence[Action], turn: int, ctx: FeatureContext) -> np.ndarray:
    """(len(beam), N_FEATURES) features of a beam whose first action is the guess.

    Each action's row is its row of the context's table; label rows add the
    object's margin and density entries.
    """
    view = ctx.view
    example = 1 + len(view.predicates)  # the first example-query row
    picks, labels = [0], []
    for i, action in enumerate(beam[1:], 1):
        row = view.index[action.predicate]
        if isinstance(action, LabelQuery):
            picks.append(1 + row)
            labels.append((i, row, action.region))
        else:
            picks.append(example + row)
    out = ctx.table[picks]
    for i, row, region in labels:
        margin = view.margins[row, view.train_rows.index(region)]
        avg_dist, unlabeled = density_stats(ctx.density, region, view.models[row])
        out[i, _LABEL_OBJECT] = margin, avg_dist, unlabeled
    out[:, _TURN_FRAC] = turn / ctx.t_max
    if ctx.mask is not None:
        out[:, ctx.mask] = 0.0
    return out


def guess_features(
    description_predicates: Sequence[str], view: EpisodeView, scores: GuessScores
) -> np.ndarray:
    """The guess group's entries for one grounding, zero elsewhere.

    They change only when a description predicate's classifier does, so the
    harness computes them once per episode (and after an immediate refit of
    such a classifier) and featurize copies them.
    """
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
