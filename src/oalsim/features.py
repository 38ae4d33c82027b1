"""State-action feature registry for the dialog policy.

The registry fixes the index, name, applicable action types, ablation group,
and normalization of every feature, so ablation configs can address features
by name and logged vectors stay comparable across runs. Entries that do not
apply to an action type are exactly zero in its vector.

A list of actions is featurized in one call, as one (len(actions),
N_FEATURES) array: a whole beam, or the actions a static dialog played. The
inputs that stay fixed within an episode sit in a FeatureContext's row
table: the guess row, then one label-query and one example-query row per
view predicate. Its query rows come from the batch's (`query_rows`, built
once per batch from the frozen agent stats and classifier rows), gathered
once per row set of views (`row_set_queries`), and its guess row comes from
`guess_features` over a stack of dialogs (grounding.DescriptionStack). An
array is one fancy index into the table, plus the label queries' object
entries, turn_frac and the ablation mask, so each action's row does not
depend on the other actions of the call. An action (actions.py) picks its
table row by its view row, and a label query's column indexes the margins
and, by train_rows, the density index. The per-action form is kept in
tests/feature_oracle.py as the reference, and the array must equal it bit
for bit.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .actions import EXAMPLE_QUERY, LABEL_QUERY, Action
from .errors import ConfigError
from .grounding import DescriptionStack, GuessScores
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
            raise ConfigError(f"experiment.ablate: unknown feature or group name {name!r}")
    return mask


def query_rows(
    predicates: Sequence[str], f1: np.ndarray, trained: np.ndarray, stats: AgentStats
) -> np.ndarray:
    """A batch's (1 + 2P, N_FEATURES) feature-table rows for its P predicates.

    Row 0 is zero (each episode's guess row takes its place), rows 1..P are
    the label-query rows and rows P+1..2P the example-query rows: act flag,
    new-predicate, F1, usage frequency, usage success and opportunistic,
    which is set on every row; zero elsewhere. Agent stats are frozen for the
    batch.
    """
    n = len(predicates)
    used = np.array([stats.used.get(p, 0) for p in predicates], dtype=np.float64)
    succeeded = np.array([stats.succeeded.get(p, 0) for p in predicates], dtype=np.float64)
    table = np.zeros((1 + 2 * n, N_FEATURES))
    q = table[1:].reshape(2, n, N_FEATURES)
    q[0, :, _ACT_LABEL] = 1.0
    q[1, :, _ACT_EXAMPLE] = 1.0
    q[:, :, _NEW_PREDICATE] = ~trained
    q[:, :, _PREDICATE_F1] = f1
    if stats.dialogs > 0:
        q[:, :, _USAGE_FREQ] = used / stats.dialogs
    q[:, :, _USAGE_SUCCESS] = np.divide(succeeded, used, out=np.zeros(n), where=used > 0)
    q[:, :, _OPPORTUNISTIC] = 1.0
    return table


def row_set_queries(batch_queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The feature-table rows of the views whose predicates are the batch rows `rows`.

    Row 0 of `batch_queries` (query_rows of the batch), then the label-query
    and the example-query rows of `rows`: every view of one row set
    (snapshot.RowSet) starts from this table, so a batch gathers it once per
    row set and each FeatureContext copies it.
    """
    example = 1 + len(batch_queries) // 2  # the batch's first example-query row
    return batch_queries[np.concatenate(([0], 1 + rows, example + rows))]


@dataclass
class FeatureContext:
    """One episode's featurization state, built once per episode.

    `table` holds 1 + 2P rows for the view's P predicates: row 0 is the guess
    row (`guess` with act_guess set), rows 1..P the label-query rows and rows
    P+1..2P the example-query rows, copied from `shared_table` (the view's
    row_set_queries), with opportunistic cleared on the description's rows.
    `queries` is the query rows as a (2, P, N_FEATURES) view of the table.
    Agent stats and the description do not change within an episode; after
    an immediate refit, `refit` rewrites the refit predicate's rows and the
    harness calls `set_guess` when the grounding changed.
    """

    t_max: int
    description_predicates: tuple[str, ...]
    view: EpisodeView
    density: DensityIndex
    guess: np.ndarray  # guess_features of the current grounding
    shared_table: InitVar[np.ndarray]
    mask: np.ndarray | None = None
    table: np.ndarray = field(init=False, repr=False)
    queries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, shared_table: np.ndarray):
        self.table = shared_table.copy()
        self.queries = q = self.table[1:].reshape(2, len(self.view.rows), N_FEATURES)
        q[:, [self.view.index[p] for p in self.description_predicates], _OPPORTUNISTIC] = 0.0
        self.set_guess(self.guess)

    def set_guess(self, guess: np.ndarray) -> None:
        """Take the guess features of a new grounding and rewrite the guess row."""
        self.guess = guess
        self.table[0] = guess
        self.table[0, _ACT_GUESS] = 1.0

    def refit(self, row: int) -> None:
        """Rewrite the classifier-dependent entries of this view row."""
        self.queries[:, row, _NEW_PREDICATE] = ~self.view.trained[row]
        self.queries[:, row, _PREDICATE_F1] = self.view.f1[row]


def featurize(
    actions: Sequence[Action], turn: int | np.ndarray, ctx: FeatureContext
) -> np.ndarray:
    """(len(actions), N_FEATURES) features of any actions, the guess included.

    `turn` is the turn of every action (a beam's), or an int array of one
    turn per action (a dialog's played actions). Each action's row is its row
    of the context's table; label rows add the object's margin and density
    entries, and turn_frac is written before the ablation mask. A row depends
    on its action and its turn alone, so featurizing one action at its turn
    gives that action's row of any call holding it, bit for bit.
    """
    view = ctx.view
    example = 1 + len(view.predicates)  # the first example-query row
    picks, labels = [], []
    for i, (kind, row, col) in enumerate(actions):
        if kind == LABEL_QUERY:
            picks.append(1 + row)
            labels.append((i, row, col))
        elif kind == EXAMPLE_QUERY:
            picks.append(example + row)
        else:
            picks.append(0)  # the guess
    out = ctx.table[picks]
    for i, row, col in labels:
        margin = view.margins[row, col]
        avg_dist, unlabeled = density_stats(ctx.density, view.train_rows[col], view.models[row])
        out[i, _LABEL_OBJECT] = margin, avg_dist, unlabeled
    out[:, _TURN_FRAC] = turn / ctx.t_max  # an int array divides to each int's own bits
    if ctx.mask is not None:
        out[:, ctx.mask] = 0.0
    return out


def guess_features(stack: DescriptionStack, scores: GuessScores) -> np.ndarray:
    """The guess group's entries of each stacked dialog's grounding, zero elsewhere.

    They change only when a description predicate's classifier does, so the
    harness computes them for a whole batch at its start, when the batch
    reads features (and for one dialog after an immediate refit of such a
    classifier), and featurize copies them.
    Each (B, N_FEATURES) row equals the entries of its dialog computed alone.
    """
    f1, rows, decisions, _ = stack
    n_dialogs, k = f1.shape
    dialogs = np.arange(n_dialogs)
    vec = np.zeros((n_dialogs, N_FEATURES))
    order = np.lexsort((rows, -f1), axis=-1)  # by descending F1, ties by predicate name
    best = order[:, 0]
    second = order[:, 1] if k > 1 else best

    vec[:, INDEX["guess_f1_min"]] = f1.min(axis=1)
    vec[:, INDEX["guess_f1_max"]] = f1.max(axis=1)
    vec[:, INDEX["guess_f1_second"]] = f1[dialogs, second]
    vec[:, INDEX["guess_f1_mean"]] = f1.mean(axis=1)

    weighted = scores.weighted
    votes = scores.unweighted.astype(float)
    top_w = weighted.max(axis=1)
    second_w = np.sort(weighted, axis=1)[:, -2] if weighted.shape[1] > 1 else top_w
    top_v = votes.max(axis=1)
    second_v = np.sort(votes, axis=1)[:, -2] if votes.shape[1] > 1 else top_v
    vec[:, INDEX["guess_top_score"]] = top_w / k
    vec[:, INDEX["guess_score_gap_second"]] = (top_w - second_w) / k
    vec[:, INDEX["guess_score_gap_mean"]] = (top_w - weighted.mean(axis=1)) / k
    vec[:, INDEX["guess_top_votes"]] = top_v / k
    vec[:, INDEX["guess_votes_gap_second"]] = (top_v - second_v) / k
    vec[:, INDEX["guess_votes_gap_mean"]] = (top_v - votes.mean(axis=1)) / k

    top = scores.ranked[:, 0]
    runner_up = scores.ranked[:, 1] if scores.ranked.shape[1] > 1 else top
    d_best = decisions[dialogs, best]
    d_second = decisions[dialogs, second]
    best_top = d_best[dialogs, top]
    second_top = d_second[dialogs, top]

    vec[:, INDEX["guess_top2_clf_agree"]] = best_top == second_top
    vec[:, INDEX["guess_best_clf_decision"]] = best_top
    vec[:, INDEX["guess_second_clf_decision"]] = second_top
    vec[:, INDEX["guess_best_clf_decision_rel"]] = best_top - d_best.astype(float).mean(axis=1)
    vec[:, INDEX["guess_second_clf_decision_rel"]] = (
        second_top - d_second.astype(float).mean(axis=1)
    )
    vec[:, INDEX["guess_best_clf_top2_same"]] = best_top == d_best[dialogs, runner_up]
    return vec
