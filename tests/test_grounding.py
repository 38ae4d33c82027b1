import numpy as np
import pytest

from oalsim.corpus import Corpus, Region
from oalsim.grounding import score_objects
from oalsim.perception import PredicateModel
from oalsim.seeding import stream
from oalsim.snapshot import EpisodeView, Snapshot

from classifier_oracle import decide


def grounding_view(preds, models, regions):
    """The view score_objects reads: the models' rows, the regions as active-test columns.

    The regions form a corpus, and each column is a region's row in it.
    """
    corpus = Corpus(regions)
    return EpisodeView(
        Snapshot(models, corpus.dim),
        set(models) | set(preds),
        (),
        [corpus.row[r.id] for r in regions],
        corpus.X,
    )


def guessed_id(scores, regions):
    """The id of the region row that scores.argmax names, in the corpus of the regions."""
    return sorted(r.id for r in regions)[scores.argmax]


def _region(rid, feats):
    return Region(id=rid, features=np.asarray(feats, dtype=float), annotations=frozenset({"x"}))


def _axis_model(predicate, axis, f1, dim=2):
    # decides +1 iff feature[axis] >= 0
    w = np.zeros(dim + 1)
    w[axis] = 1.0
    return PredicateModel(predicate=predicate, weights=w, f1=f1)


def worked_example():
    """Two predicates (trust 0.9 / 0.4); decisions over three regions:
    o1 (+1,-1) -> 0.5, o2 (-1,+1) -> -0.5, o3 (+1,+1) -> 1.3."""
    models = {"p1": _axis_model("p1", 0, 0.9), "p2": _axis_model("p2", 1, 0.4)}
    regions = [
        _region("o1", (1.0, -1.0)),
        _region("o2", (-1.0, 1.0)),
        _region("o3", (1.0, 1.0)),
    ]
    return ["p1", "p2"], models, regions


class TestScoreObjects:
    def test_worked_instance(self):
        preds, models, regions = worked_example()
        scores = score_objects(preds, grounding_view(preds, models, regions))
        assert scores.weighted == pytest.approx((0.5, -0.5, 1.3))
        assert scores.unweighted == (0, 0, 2)
        assert guessed_id(scores, regions) == "o3"

    def test_all_untrained_ties_to_lowest_id(self):
        regions = [_region("b", (1.0, 1.0)), _region("a", (0.0, 1.0)), _region("c", (2.0, 0.0))]
        scores = score_objects(["p1", "p2"], grounding_view(["p1", "p2"], {}, regions))
        assert all(w == 0.0 for w in scores.weighted)
        assert all(u == -2 for u in scores.unweighted)
        assert guessed_id(scores, regions) == "a"

    def test_single_predicate_single_region(self):
        only = [_region("only", (1.0, 0.0))]
        scores = score_objects(["p1"], grounding_view(["p1"], {}, only))
        assert guessed_id(scores, only) == "only"

    def test_negation_changes_strict_argmax(self):
        preds, models, regions = worked_example()
        scores = score_objects(preds, grounding_view(preds, models, regions))
        neg_order = sorted(
            range(3), key=lambda i: (-(-scores.weighted[i]), scores.regions[i])
        )
        assert scores.regions[neg_order[0]] != scores.argmax

    def test_zero_trust_predicate_is_inert_in_weighted_scores(self):
        preds, models, regions = worked_example()
        models = dict(models)
        models["p3"] = _axis_model("p3", 0, 0.0)
        with_p3 = score_objects(preds + ["p3"], grounding_view(preds + ["p3"], models, regions))
        without = score_objects(preds, grounding_view(preds, models, regions))
        assert with_p3.weighted == pytest.approx(without.weighted)
        # but the decision sums still register it
        assert with_p3.unweighted != without.unweighted

    def test_bruteforce_equivalence_random_instances(self):
        rng = stream(17, "bf")
        for _ in range(200):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            dim = 4
            models = {}
            preds = []
            for j in range(k):
                name = f"p{j}"
                preds.append(name)
                w = rng.normal(size=dim + 1)
                models[name] = PredicateModel(
                    predicate=name, weights=w, f1=float(rng.uniform(0, 1))
                )
            regions = [_region(f"o{i}", rng.normal(size=dim)) for i in range(n)]
            scores = score_objects(preds, grounding_view(preds, models, regions))
            for i, region in enumerate(regions):
                expected = sum(
                    decide(models[p], region.features) * models[p].f1 for p in preds
                )
                assert scores.weighted[i] == pytest.approx(expected)
            pairs = sorted(
                ((scores.weighted[i], regions[i].id) for i in range(n)),
                key=lambda t: (-t[0], t[1]),
            )
            assert guessed_id(scores, regions) == pairs[0][1]

    def test_argmax_invariant_under_uniform_trust_scaling(self):
        rng = stream(18, "scale")
        for _ in range(100):
            k = int(rng.integers(1, 6))
            models = {}
            preds = []
            for j in range(k):
                name = f"p{j}"
                preds.append(name)
                models[name] = PredicateModel(
                    predicate=name,
                    weights=rng.normal(size=5),
                    f1=float(rng.uniform(0.05, 1.0)),
                )
            regions = [_region(f"o{i}", rng.normal(size=4)) for i in range(4)]
            before = score_objects(preds, grounding_view(preds, models, regions)).argmax
            lam = float(rng.uniform(0.1, 5.0))
            scaled = {
                p: PredicateModel(predicate=p, weights=m.weights, f1=m.f1 * lam)
                for p, m in models.items()
            }
            assert score_objects(preds, grounding_view(preds, scaled, regions)).argmax == before
