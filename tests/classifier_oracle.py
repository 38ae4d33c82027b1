"""Scalar classifier functions, kept as oracles for the array code.

The package scores, decides and weights predicates on arrays (the BatchRows
rows, the stacked cross-validation folds). These are the one-object,
one-classifier forms the arrays must equal bit for bit. `triangular_weights`
is the array form of querygen.triangular_weight, which computes one weight
with Python floats.
`fit_hinge` is the single fit's descent with its exact violation test on
every iteration, which the package skips while a bound allows.
"""

import numpy as np

from oalsim.errors import OalsimError
from oalsim.perception import MARGIN_NORM_FLOOR, PredicateModel
from oalsim.querygen import TriangularWeights


class UndefinedMarginError(OalsimError):
    """Margin requested for a predicate with no trained hyperplane."""


def score(model: PredicateModel, features: np.ndarray) -> float:
    if model.weights is None:
        raise UndefinedMarginError(f"predicate {model.predicate!r} has no hyperplane")
    return float(model.weights[:-1] @ features + model.weights[-1])


def decide(model: PredicateModel | None, features: np.ndarray) -> int:
    """Sign of the linear score; -1 when untrained; exact zero breaks to +1."""
    if model is None or model.weights is None:
        return -1
    return 1 if score(model, features) >= 0.0 else -1


def margin(model: PredicateModel, features: np.ndarray) -> float:
    """Geometric distance of the feature point to the decision hyperplane."""
    if model.weights is None:
        raise UndefinedMarginError(f"predicate {model.predicate!r} has no hyperplane")
    norm = float(np.linalg.norm(model.weights[:-1]))
    if norm < MARGIN_NORM_FLOOR:
        return 0.0
    return abs(score(model, features)) / norm


def triangular_weights(f1: np.ndarray, params: TriangularWeights) -> np.ndarray:
    """Piecewise-linear sampling weights, peaked at c_max, floored at w_min; NaN outside [0,1]."""
    f1 = np.asarray(f1, dtype=np.float64)
    span = params.w_max - params.w_min
    rising = params.w_min + (f1 / params.c_max) * span
    falling = params.w_min + ((1.0 - f1) / (1.0 - params.c_max)) * span
    weights = np.where(f1 <= params.c_max, rising, falling)
    weights[~((f1 >= 0.0) & (f1 <= 1.0))] = np.nan
    return weights


def predicate_weight(c: float, params: TriangularWeights) -> float:
    """Sampling weight of one estimated F1."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"estimated F1 {c} outside [0,1]")
    return float(triangular_weights(np.array([c]), params)[0])


def fit_hinge(YX: np.ndarray, n: int, cfg) -> np.ndarray:
    """perception._fit_hinge on one problem (n, d+1), testing every iteration for violating rows."""

    def mean_pull(w):
        viol = YX @ w < 1.0
        return YX[viol].sum(axis=0) / n if viol.any() else None

    w = np.zeros(YX.shape[:-2] + YX.shape[-1:])
    grad = np.empty_like(w)
    for t in range(cfg.iterations):
        np.multiply(w, cfg.l2, out=grad)
        grad[..., -1] = 0.0
        pull = mean_pull(w)
        if pull is not None:
            grad -= pull
        grad *= cfg.step_size / (1.0 + cfg.step_decay * t)
        w -= grad
    return w
