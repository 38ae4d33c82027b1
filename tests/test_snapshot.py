"""A batch's classifier rows (BatchRows) against the scalar classifier functions, bit for bit.

BatchRows is the one representation of a batch's classifier state, and every
view reads its rows. Run outputs stay byte-identical only while every array
entry equals what the scalar score / margin / decide (classifier_oracle)
return for the same classifier and object, and while the beam's inverse-CDF
draw equals Generator.choice. These tests compare with np.array_equal, never
allclose, on classifiers trained on the desk corpus: a numpy or BLAS change
that breaks the equivalence fails here.
"""

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest

import beam_oracle
from oalsim import querygen, snapshot
from oalsim.corpus import Interaction
from oalsim.errors import DataError
from oalsim.harness import Experiment
from oalsim.querygen import SamplingCDF, TriangularWeights, sample_predicates
from oalsim.seeding import stream, streams
from oalsim.snapshot import BatchRows, EpisodeView, RowSet, classifier_rows

from beam_oracle import choice_reference
from classifier_oracle import decide, margin, score, triangular_weights
from conftest import episode_view, small_run_config


def test_desk_agent_has_trained_and_untrained_classifiers(desk_agent):
    _, agent = desk_agent
    trained = [m for m in agent.models.values() if m.weights is not None]
    assert len(trained) >= 10
    assert any(0.0 < m.f1 < 1.0 for m in trained)


def test_scores_margins_decisions_equal_scalar(desk_agent):
    exp, agent = desk_agent
    params = exp.config.triangular
    rows = range(len(exp.corpus))
    predicates = sorted(agent.models) + ["never-described"]
    view = episode_view(agent.models, predicates, rows, rows, exp.corpus.X, params)
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
        coef, bias, *_ = classifier_rows([model], exp.corpus.dim, params)
        got_scores = snapshot._scores(coef, bias, X)[0]
        assert np.array_equal(got_scores, expected_scores)
        assert np.array_equal(view.margins[i], np.array([margin(model, x) for x in X]))
        scores_checked += len(X)
    assert scores_checked >= 10 * len(rows)


def test_by_margin_orders_columns_by_margin_then_id(desk_agent):
    exp, agent = desk_agent
    rows = list(range(100, 160))[::-1]  # columns out of id order
    view = episode_view(
        agent.models, agent.models, rows, (), exp.corpus.X, exp.config.triangular
    )
    ids = [exp.corpus.ids[row] for row in rows]
    for i in range(len(view.predicates)):
        expected = sorted(range(len(ids)), key=lambda j: (view.margins[i, j], ids[j]))
        assert view.by_margin[i] == expected


def test_f1_and_sampling_rows_follow_models(desk_agent):
    exp, agent = desk_agent
    params = exp.config.triangular
    predicates = set(agent.models) | {"never-described"}
    view = episode_view(agent.models, predicates, (), (), exp.corpus.X, params)
    for i, p in enumerate(view.predicates):
        model = agent.models.get(p)
        f1 = model.f1 if model is not None else 0.0
        assert view.f1[i] == f1
        assert view.sampling[i] == triangular_weights(np.array([f1]), params)[0]


def _update_and_rebuild(desk_agent, set_weights=None):
    """A view after `update` and a view built fresh with the same swapped classifier."""
    exp, agent = desk_agent
    params = exp.config.triangular
    rows = range(40)
    view = episode_view(agent.models, agent.models, rows[:8], rows[8:12], exp.corpus.X, params)
    donor = next(m for m in agent.models.values() if m.weights is not None and m.f1 > 0.0)
    target = next(p for p in view.predicates if p != donor.predicate)
    swapped = dataclasses.replace(donor.clone(), predicate=target)
    if set_weights is not None:
        swapped.weights = set_weights(exp.corpus.dim)
    view.update(view.index[target], swapped)
    models = dict(agent.models, **{target: swapped})
    fresh = episode_view(models, models, rows[:8], rows[8:12], exp.corpus.X, params)
    return view, fresh


def test_update_equals_fresh_snapshot(desk_agent):
    # an immediate refit swaps one row; it must equal a batch built with that model
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


def _weights(src, n):
    """Uniform, triangular or part-zero sampling weights of length n, at least one nonzero."""
    kind = int(src.integers(3))
    if kind == 0:
        return triangular_weights(src.uniform(0.0, 1.0, size=n), TriangularWeights())
    weights = src.uniform(1e-3, 5.0, size=n)
    if kind == 2:
        weights[src.random(n) < 0.3] = 0.0
        weights[int(src.integers(n))] = src.uniform(1e-3, 5.0)
    return weights


def test_inverse_cdf_draw_equals_generator_choice():
    # N up to 300 takes numpy's pairwise sum past its 128-entry blocks and
    # covers a view of 200 predicates; the excluded sets are random
    src = stream(41, "weights")
    paths = [("draw", trial) for trial in range(20_000)]
    # trial t draws from its own path twice: ours, and the reference's copy
    for ours, theirs in zip(streams(42, *paths), streams(42, *paths), strict=True):
        n = int(src.integers(2, 301))
        weights = _weights(src, n)
        out = src.random(n) < src.uniform(0.0, 0.9)
        excluded, pool = np.flatnonzero(out).tolist(), np.flatnonzero(~out)
        if not len(pool):
            continue
        count = int(src.integers(1, 4))
        try:
            with np.errstate(invalid="ignore"):
                want = pool[choice_reference(weights[pool], count, theirs)].tolist()
        except ValueError:  # a pool whose live weights run out
            with pytest.raises(ValueError):
                sample_predicates(SamplingCDF(weights), count, ours, excluded)
            continue
        assert sample_predicates(SamplingCDF(weights), count, ours, excluded) == want
        assert ours.bit_generator.state == theirs.bit_generator.state


class _Doubles:
    """A stand-in generator whose random(count) returns the given doubles."""

    def __init__(self, *doubles):
        self.doubles = doubles

    def random(self, count):
        assert count == len(self.doubles)
        return np.array(self.doubles)


def _counted_fallbacks(monkeypatch) -> list:
    calls = []
    exact = querygen._exact_pick

    def counted(*args):
        calls.append(exact(*args))
        return calls[-1]

    monkeypatch.setattr(querygen, "_exact_pick", counted)
    return calls


def test_a_draw_on_a_cdf_boundary_falls_back_to_the_exact_bisect(monkeypatch):
    calls = _counted_fallbacks(monkeypatch)
    weights = triangular_weights(stream(47, "f1").uniform(0.0, 1.0, size=24), TriangularWeights())
    cdf = beam_oracle.cdf(weights)
    for k in range(len(weights) - 1):
        r = float(cdf[k])  # t = r lies on the bound of entries k and k+1
        assert sample_predicates(SamplingCDF(weights), 1, _Doubles(r)) == [
            bisect_right(cdf.tolist(), r)
        ]
        assert len(calls) == k + 1
    sampling = SamplingCDF(weights)
    r = (sampling.cdf[2] + sampling.cdf[3]) / 2  # far from both bounds: the margin proves it
    assert sample_predicates(sampling, 1, _Doubles(r)) == [3]
    assert len(calls) == len(weights) - 1


def test_draws_next_to_each_live_bound_equal_the_exact_bisect():
    # the walk rebuilds the live CDF from the CDF of all weights; the two
    # round apart only next to a bound of the live CDF, so doubles on and one
    # ulp either side of the bounds test the margin. The first draw's live
    # vector drops the excluded weights, the second's also zeroes the first pick.
    src = stream(51, "weights")
    for trial in range(200):
        n = int(src.integers(2, 301))
        weights = _weights(src, n)
        out = src.random(n) < src.uniform(0.0, 0.9)
        excluded, pool = np.flatnonzero(out).tolist(), np.flatnonzero(~out)
        live = weights[pool]
        if len(pool) < 3 or np.count_nonzero(live) < 2:
            continue
        sampling = SamplingCDF(weights)
        first = bisect_right(beam_oracle.cdf(live).tolist(), 0.5)
        second = live.copy()
        second[first] = 0.0
        for doubles, cdf in (((), beam_oracle.cdf(live)), ((0.5,), beam_oracle.cdf(second))):
            bounds = cdf[:-1][src.random(len(cdf) - 1) < 20 / len(cdf)]
            near = np.concatenate([np.nextafter(bounds, 0.0), bounds, np.nextafter(bounds, 1.0)])
            for r in near[near < 1.0]:  # random() draws from [0, 1)
                want = pool[[bisect_right(beam_oracle.cdf(live).tolist(), d) for d in doubles]
                            + [bisect_right(cdf.tolist(), r)]].tolist()
                rng = _Doubles(*doubles, float(r))
                assert sample_predicates(sampling, len(want), rng, excluded) == want


def test_every_draw_falls_back_without_a_cdf(monkeypatch):
    calls = _counted_fallbacks(monkeypatch)
    weights = np.array([0.5, np.nan, 0.2, 0.9, 0.4])
    assert SamplingCDF(weights).cdf is None
    ours, theirs = stream(48, "draw"), stream(48, "draw")
    pool = [0, 2, 3, 4]
    want = [pool[k] for k in choice_reference(weights[pool], 2, theirs)]
    assert sample_predicates(SamplingCDF(weights), 2, ours, [1]) == want
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert len(calls) == 2


def test_nan_weights_and_empty_pools_raise_where_they_did():
    weights = np.array([0.5, np.nan, 0.2, 0.9])
    with pytest.raises(ValueError):  # the live vector holds the NaN
        sample_predicates(SamplingCDF(weights), 2, stream(49, "draw"))
    assert sample_predicates(SamplingCDF(weights), 4, stream(49, "draw")) == [0, 1, 2, 3]
    with pytest.raises(DataError):
        sample_predicates(SamplingCDF(weights), 1, stream(49, "draw"), [0, 1, 2, 3])
    with pytest.raises(DataError):
        sample_predicates(SamplingCDF(np.array([])), 1, stream(49, "draw"))


def test_a_small_pool_comes_back_whole_without_a_draw():
    weights = stream(50, "weights").uniform(0.1, 1.0, size=12)
    rng = stream(50, "draw")
    before = rng.bit_generator.state
    for excluded, count in (([], 12), ([], 20), ([0, 4, 5, 11], 8), ([1, 2, 3], 9)):
        pool = [i for i in range(12) if i not in excluded]
        assert sample_predicates(SamplingCDF(weights), count, rng, excluded) == pool
    assert rng.bit_generator.state == before


def test_draws_after_update_equal_generator_choice(desk_agent):
    # an immediate refit (EpisodeView.update) rewrites one sampling weight and
    # builds the view's CDF again; later draws still equal Generator.choice
    exp, agent = desk_agent
    interactions = [
        Interaction(tuple(range(8)), tuple(range(8, 12)), -1, ()),
        Interaction(tuple(range(12, 20)), tuple(range(20, 24)), -1, ()),
    ]
    batch = BatchRows(
        agent.models, agent.models, interactions, exp.corpus.X, exp.config.triangular
    )
    shared = RowSet(batch, 0)  # neither interaction has a description: one row set
    views = [EpisodeView(batch, 0, shared), EpisodeView(batch, 1, shared)]
    donors = [m for m in agent.models.values() if m.weights is not None]
    src = stream(43, "asked")
    pools = [np.flatnonzero(src.random(len(agent.models)) < 0.8) for _ in range(3)]
    updates = 0
    for trial in range(400):
        view = views[trial % 2]
        if trial % 40 == 39:
            row = int(src.integers(len(view.predicates)))
            donor = donors[int(src.integers(len(donors)))]
            before = view.sampling_cdf
            view.update(row, dataclasses.replace(donor.clone(), predicate=view.predicates[row]))
            assert view.sampling_cdf is not before
            assert view.sampling_cdf.cdf == beam_oracle.cdf(view.sampling).tolist()
            updates += 1
        pool = pools[trial % 3]
        excluded = np.setdiff1d(np.arange(len(view.sampling)), pool).tolist()
        for weights, rows, skip in (
            (view.sampling, np.arange(len(view.sampling)), ()),
            (view.sampling[pool], pool, excluded),
        ):
            ours, theirs = stream(44, "draw", trial), stream(44, "draw", trial)
            want = rows[choice_reference(weights, 3, theirs)].tolist()
            assert sample_predicates(view.sampling_cdf, 3, ours, skip) == want
            assert ours.bit_generator.state == theirs.bit_generator.state
    assert updates == 10


def test_a_run_whose_draws_all_fall_back_writes_the_same_transcripts(
    small_corpus, small_split, small_density, monkeypatch, tmp_path
):
    # immediate refits rebuild the view's CDF mid-dialog; with the margin at
    # infinity every draw bisects its live vector's own CDF, and the run must
    # write the same bytes as the shipped one, which bisects almost none
    cfg = small_run_config()
    cfg = dataclasses.replace(
        cfg, episode=dataclasses.replace(cfg.episode, immediate_updates=True)
    )
    calls = _counted_fallbacks(monkeypatch)
    out, fallbacks = {}, {}
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(querygen, "_margin", lambda n, m: math.inf)
        calls.clear()
        path = tmp_path / f"forced{forced}.jsonl"
        Experiment(cfg, small_corpus, small_split, small_density).run(transcript_path=path)
        out[forced], fallbacks[forced] = path.read_bytes(), len(calls)
    assert out[False] == out[True]
    assert 100 * fallbacks[False] < fallbacks[True]
