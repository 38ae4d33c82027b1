"""The batch snapshot against the scalar classifier functions, bit for bit.

Run outputs stay byte-identical only while every array entry equals what
the scalar score / margin / decide (classifier_oracle) return for the same classifier and object,
and while the beam's inverse-CDF draw equals Generator.choice. These tests
compare with np.array_equal, never allclose, on classifiers trained on the
desk corpus: a numpy or BLAS change that breaks the equivalence fails here.
"""

import dataclasses

import numpy as np
import pytest

from oalsim.querygen import TriangularWeights, sample_predicates, triangular_weights
from oalsim.seeding import stream
from oalsim.snapshot import EpisodeView, Snapshot

from classifier_oracle import decide, margin, score


def test_desk_agent_has_trained_and_untrained_classifiers(desk_agent):
    _, agent = desk_agent
    trained = [m for m in agent.models.values() if m.weights is not None]
    assert len(trained) >= 10
    assert any(0.0 < m.f1 < 1.0 for m in trained)


def test_scores_margins_decisions_equal_scalar(desk_agent):
    exp, agent = desk_agent
    snapshot = Snapshot(agent.models, exp.corpus.dim, exp.config.triangular)
    ids = exp.corpus.ids
    predicates = sorted(agent.models) + ["never-described"]
    view = EpisodeView(snapshot, predicates, ids, ids, exp.features_by_id)
    X = np.stack([exp.features_by_id[rid] for rid in ids])

    scores_checked = 0
    for i, p in enumerate(view.predicates):
        model = agent.models.get(p)
        assert view.decisions[i].tolist() == [decide(model, x) for x in X]
        if model is None or model.weights is None:
            assert not view.trained[i]
            continue
        assert view.trained[i]
        expected_scores = np.array([score(model, x) for x in X])
        got_scores = snapshot.rows.scores([snapshot.row[p]], X)[0]
        assert np.array_equal(got_scores, expected_scores)
        assert np.array_equal(view.margins[i], np.array([margin(model, x) for x in X]))
        scores_checked += len(X)
    assert scores_checked >= 10 * len(ids)


def test_f1_and_sampling_rows_follow_models(desk_agent):
    exp, agent = desk_agent
    params = exp.config.triangular
    snapshot = Snapshot(agent.models, exp.corpus.dim, params)
    view = EpisodeView(snapshot, set(agent.models) | {"never-described"}, (), (), {})
    for i, p in enumerate(view.predicates):
        model = agent.models.get(p)
        f1 = model.f1 if model is not None else 0.0
        assert view.f1[i] == f1
        assert view.sampling[i] == triangular_weights(np.array([f1]), params)[0]


def _update_and_rebuild(desk_agent, set_weights=None):
    """A view after `update` and a view built fresh with the same swapped classifier."""
    exp, agent = desk_agent
    snapshot = Snapshot(agent.models, exp.corpus.dim, exp.config.triangular)
    ids = exp.corpus.ids[:40]
    view = EpisodeView(snapshot, agent.models, ids[:8], ids[8:12], exp.features_by_id)
    donor = next(m for m in agent.models.values() if m.weights is not None and m.f1 > 0.0)
    target = next(p for p in view.predicates if p != donor.predicate)
    swapped = dataclasses.replace(donor.clone(), predicate=target)
    if set_weights is not None:
        swapped.weights = set_weights(exp.corpus.dim)
    view.update(target, swapped)
    models = dict(agent.models, **{target: swapped})
    fresh = EpisodeView(
        Snapshot(models, exp.corpus.dim, exp.config.triangular),
        models, ids[:8], ids[8:12], exp.features_by_id,
    )
    return view, fresh


def test_update_equals_fresh_snapshot(desk_agent):
    # an immediate refit swaps one row; it must equal a snapshot built with that model
    view, fresh = _update_and_rebuild(desk_agent)
    for name in ("f1", "sampling", "trained", "margins", "decisions"):
        assert np.array_equal(getattr(view, name), getattr(fresh, name)), name


@pytest.mark.parametrize(
    "set_weights",
    [
        lambda dim: None,  # untrained: margins 0, decisions -1
        lambda dim: np.r_[np.full(dim, 1e-14), 0.3],  # norm under MARGIN_NORM_FLOOR: margins 0
    ],
    ids=["untrained", "flat"],
)
def test_update_without_a_usable_hyperplane_equals_fresh_snapshot(desk_agent, set_weights):
    view, fresh = _update_and_rebuild(desk_agent, set_weights)
    for name in ("f1", "sampling", "trained", "margins", "decisions"):
        assert np.array_equal(getattr(view, name), getattr(fresh, name)), name


def _choice_reference(weights, count, rng):
    """The draw loop sample_predicates replaced: Generator.choice over live weights."""
    alive = np.ones(len(weights), dtype=bool)
    chosen = []
    for _ in range(count):
        w = weights * alive
        chosen.append(int(rng.choice(len(weights), p=w / w.sum())))
        alive[chosen[-1]] = False
    return chosen


def test_inverse_cdf_draw_equals_generator_choice():
    src = stream(41, "weights")
    params = TriangularWeights()
    for trial in range(20_000):
        n = int(src.integers(2, 30))
        if trial % 2:
            weights = triangular_weights(src.uniform(0.0, 1.0, size=n), params)
        else:
            weights = src.uniform(1e-3, 5.0, size=n)
        count = int(src.integers(1, min(n, 4)))
        ours, theirs = stream(42, "draw", trial), stream(42, "draw", trial)
        assert sample_predicates(weights, count, ours) == _choice_reference(
            weights, count, theirs
        )
        assert ours.bit_generator.state == theirs.bit_generator.state
