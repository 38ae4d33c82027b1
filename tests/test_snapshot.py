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

from oalsim import harness, querygen
from oalsim.harness import Experiment
from oalsim.querygen import TriangularWeights, sample_predicates, triangular_weights
from oalsim.seeding import stream
from oalsim.snapshot import EpisodeView, Snapshot

from classifier_oracle import decide, margin, score
from conftest import small_run_config


def test_desk_agent_has_trained_and_untrained_classifiers(desk_agent):
    _, agent = desk_agent
    trained = [m for m in agent.models.values() if m.weights is not None]
    assert len(trained) >= 10
    assert any(0.0 < m.f1 < 1.0 for m in trained)


def test_scores_margins_decisions_equal_scalar(desk_agent):
    exp, agent = desk_agent
    snapshot = Snapshot(agent.models, exp.corpus.dim, exp.config.triangular)
    rows = range(len(exp.corpus))
    predicates = sorted(agent.models) + ["never-described"]
    view = EpisodeView(snapshot, predicates, rows, rows, exp.corpus.X)
    X = exp.corpus.X

    scores_checked = 0
    for i, p in enumerate(view.predicates):
        model = agent.models.get(p)
        assert view.decisions[i].tolist() == [decide(model, x) for x in X]
        if model is None or model.weights is None:
            assert not view.trained[i]
            continue
        assert view.trained[i]
        expected_scores = np.array([score(model, x) for x in X])
        got_scores = snapshot.scores([snapshot.row[p]], X)[0]
        assert np.array_equal(got_scores, expected_scores)
        assert np.array_equal(view.margins[i], np.array([margin(model, x) for x in X]))
        scores_checked += len(X)
    assert scores_checked >= 10 * len(rows)


def test_by_margin_orders_columns_by_margin_then_id(desk_agent):
    exp, agent = desk_agent
    snapshot = Snapshot(agent.models, exp.corpus.dim, exp.config.triangular)
    rows = list(range(100, 160))[::-1]  # columns out of id order
    view = EpisodeView(snapshot, agent.models, rows, (), exp.corpus.X)
    ids = [exp.corpus.ids[row] for row in rows]
    for i in range(len(view.predicates)):
        expected = sorted(range(len(ids)), key=lambda j: (view.margins[i, j], ids[j]))
        assert view.by_margin[i] == expected


def test_f1_and_sampling_rows_follow_models(desk_agent):
    exp, agent = desk_agent
    params = exp.config.triangular
    snapshot = Snapshot(agent.models, exp.corpus.dim, params)
    view = EpisodeView(snapshot, set(agent.models) | {"never-described"}, (), (), exp.corpus.X)
    for i, p in enumerate(view.predicates):
        model = agent.models.get(p)
        f1 = model.f1 if model is not None else 0.0
        assert view.f1[i] == f1
        assert view.sampling[i] == triangular_weights(np.array([f1]), params)[0]


def _update_and_rebuild(desk_agent, set_weights=None):
    """A view after `update` and a view built fresh with the same swapped classifier."""
    exp, agent = desk_agent
    snapshot = Snapshot(agent.models, exp.corpus.dim, exp.config.triangular)
    rows = range(40)
    view = EpisodeView(snapshot, agent.models, rows[:8], rows[8:12], exp.corpus.X)
    donor = next(m for m in agent.models.values() if m.weights is not None and m.f1 > 0.0)
    target = next(p for p in view.predicates if p != donor.predicate)
    swapped = dataclasses.replace(donor.clone(), predicate=target)
    if set_weights is not None:
        swapped.weights = set_weights(exp.corpus.dim)
    view.update(target, swapped)
    models = dict(agent.models, **{target: swapped})
    fresh = EpisodeView(
        Snapshot(models, exp.corpus.dim, exp.config.triangular),
        models, rows[:8], rows[8:12], exp.corpus.X,
    )
    return view, fresh


def test_update_equals_fresh_snapshot(desk_agent):
    # an immediate refit swaps one row; it must equal a snapshot built with that model
    view, fresh = _update_and_rebuild(desk_agent)
    for name in ("f1", "sampling", "trained", "margins", "decisions", "by_margin"):
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
    for name in ("f1", "sampling", "trained", "margins", "decisions", "by_margin"):
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
        assert sample_predicates(weights, count, ours, {}) == _choice_reference(
            weights, count, theirs
        )
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_memoised_draws_equal_generator_choice_across_updates(desk_agent):
    # the views of a batch share their snapshot's CDF memo; an immediate refit
    # (EpisodeView.update) changes one view's weights, never a memoised CDF
    exp, agent = desk_agent

    class Counted(dict):
        hits = 0

        def get(self, key):
            found = super().get(key)
            Counted.hits += found is not None
            return found

    snapshot = Snapshot(agent.models, exp.corpus.dim, exp.config.triangular)
    snapshot.cdfs = Counted()
    views = [
        EpisodeView(snapshot, agent.models, range(8), range(8, 12), exp.corpus.X),
        EpisodeView(snapshot, agent.models, range(12, 20), range(20, 24), exp.corpus.X),
    ]
    assert views[0].cdfs is views[1].cdfs is snapshot.cdfs
    donors = [m for m in agent.models.values() if m.weights is not None]
    src = stream(43, "asked")
    pools = [np.flatnonzero(src.random(len(snapshot.models) - 1) < 0.8) for _ in range(3)]
    draws = 0
    for trial in range(400):
        view = views[trial % 2]
        if trial % 40 == 39:
            p = view.predicates[int(src.integers(len(view.predicates)))]
            donor = donors[int(src.integers(len(donors)))]
            view.update(p, dataclasses.replace(donor.clone(), predicate=p))
        pool = pools[trial % 3]
        for weights in (view.sampling, view.sampling[pool]):
            ours, theirs = stream(44, "draw", trial), stream(44, "draw", trial)
            assert sample_predicates(weights, 3, ours, view.cdfs) == _choice_reference(
                weights, 3, theirs
            )
            assert ours.bit_generator.state == theirs.bit_generator.state
            draws += 3
    assert Counted.hits > draws // 4 and len(snapshot.cdfs) + Counted.hits == draws


def test_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(querygen, "CDF_MEMO_CAP", 16)
    cdfs = {}
    src = stream(45, "weights")
    for trial in range(300):
        weights = src.uniform(1e-3, 5.0, size=int(src.integers(4, 12)))
        ours, theirs = stream(46, "draw", trial), stream(46, "draw", trial)
        assert sample_predicates(weights, 3, ours, cdfs) == _choice_reference(weights, 3, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert len(cdfs) <= 16
    assert len(cdfs) == 16


def test_run_memos_stay_within_the_cap_and_leave_outputs_alike(
    small_corpus, small_split, small_density, monkeypatch, tmp_path
):
    # immediate refits make new weight vectors all batch long; a capped memo
    # and no memo at all must give the same transcripts
    memos = []

    class Recorded(Snapshot):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self.cdfs)

    monkeypatch.setattr(harness, "Snapshot", Recorded)
    cfg = small_run_config()
    cfg = dataclasses.replace(
        cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
    )
    out = {}
    for cap in (0, 24):
        monkeypatch.setattr(querygen, "CDF_MEMO_CAP", cap)
        memos.clear()
        path = tmp_path / f"cap{cap}.jsonl"
        Experiment(cfg, small_corpus, small_split, small_density).run(transcript_path=path)
        out[cap] = path.read_bytes()
        assert max(len(m) for m in memos) == cap
    assert out[0] == out[24]
