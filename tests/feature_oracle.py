"""The one-action feature function, kept as the oracle for the beam form.

`oalsim.features.featurize` builds a whole beam's features as one array from
a per-episode query table. `featurize_action` builds one action's vector
entry by entry, reading the view, the agent stats the episode's batch froze
and the density index directly;
`featurize_beam` stacks it over a beam. Every beam array must equal the
stacked oracle bit for bit. `featurize_alone` stacks one-action calls of
featurize itself, as a static turn that logs only its chosen action makes
them, the guess included; they must equal the beam's rows bit for bit too.

An action is (kind, view row, active-train column). The oracle resolves it
to the predicate's name and the object's region row first, then looks both
up through `view.index` and `view.train_rows.index`, so it shares no
indexing with featurize.
"""

import numpy as np

from oalsim.actions import EXAMPLE_QUERY, GUESS, LABEL_QUERY
from oalsim.features import INDEX, N_FEATURES, FeatureContext
from oalsim.perception import density_stats


def featurize_action(action, turn: int, ctx: FeatureContext, stats) -> np.ndarray:
    kind, row, col = action
    if kind == GUESS:
        vec = ctx.guess.copy()
        vec[INDEX["act_guess"]] = 1.0
    else:
        vec = np.zeros(N_FEATURES)
    vec[INDEX["turn_frac"]] = turn / ctx.t_max

    if kind == LABEL_QUERY:
        vec[INDEX["act_label_query"]] = 1.0
        row = _fill_query(vec, ctx, stats, ctx.view.predicates[row])
        _fill_label_object(vec, ctx, row, ctx.view.train_rows[col])
    elif kind == EXAMPLE_QUERY:
        vec[INDEX["act_example_query"]] = 1.0
        _fill_query(vec, ctx, stats, ctx.view.predicates[row])

    if ctx.mask is not None:
        vec[ctx.mask] = 0.0
    return vec


def featurize_beam(beam, turn: int, ctx: FeatureContext, stats) -> np.ndarray:
    return np.stack([featurize_action(a, turn, ctx, stats) for a in beam])


def featurize_alone(featurize, beam, turn: int, ctx: FeatureContext) -> np.ndarray:
    """The beam's rows, each from its own one-action call of `featurize`."""
    rows = [featurize([action], turn, ctx) for action in beam]
    assert all(row.shape == (1, N_FEATURES) for row in rows)
    return np.concatenate(rows)


def _fill_query(vec: np.ndarray, ctx: FeatureContext, stats, predicate: str) -> int:
    row = ctx.view.index[predicate]
    vec[INDEX["query_new_predicate"]] = float(not ctx.view.trained[row])
    vec[INDEX["query_predicate_f1"]] = ctx.view.f1[row]
    used = stats.used.get(predicate, 0)
    if stats.dialogs > 0:
        vec[INDEX["query_usage_freq"]] = used / stats.dialogs
    if used > 0:
        vec[INDEX["query_usage_success"]] = stats.succeeded.get(predicate, 0) / used
    vec[INDEX["query_opportunistic"]] = float(predicate not in ctx.description_predicates)
    return row


def _fill_label_object(vec: np.ndarray, ctx: FeatureContext, row: int, region: int) -> None:
    view = ctx.view
    if view.trained[row]:
        vec[INDEX["label_margin"]] = view.margins[row, view.train_rows.index(region)]
    avg_dist, unlabeled = density_stats(ctx.density, region, view.models[row])
    vec[INDEX["label_avg_cos_dist"]] = avg_dist
    vec[INDEX["label_knn_unlabeled"]] = unlabeled
