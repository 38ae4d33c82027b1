"""Welch's t-test with a self-contained Student-t tail probability.

The p-value comes from the regularized incomplete beta function evaluated by
a modified Lentz continued fraction, accurate to ~1e-12; no external stats
dependency at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError, DegenerateVarianceError


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p_two_sided: float


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _var(xs: Sequence[float]) -> float:
    m = _mean(xs)
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


_BETA_EPS = 1e-12
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_TINY:
        d = _BETA_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ContractError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ContractError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def _constant(diff: float, df: float) -> TTestResult:
    """Constant samples: t = 0 and p = 1 at equal means, else t = +-inf and p = 0, as scipy."""
    if diff == 0.0:
        return TTestResult(t=0.0, df=df, p_two_sided=1.0)
    return TTestResult(t=math.copysign(math.inf, diff), df=df, p_two_sided=0.0)


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TTestResult:
    """Unpaired two-sample t-test without the equal-variance assumption."""
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise DegenerateVarianceError("each sample needs at least 2 elements")
    na, nb = len(sample_a), len(sample_b)
    ma, mb = _mean(sample_a), _mean(sample_b)
    va, vb = _var(sample_a), _var(sample_b)
    pooled = va / na + vb / nb
    if pooled == 0.0:
        return _constant(ma - mb, float(na + nb - 2))
    t = (ma - mb) / math.sqrt(pooled)
    df = pooled**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return TTestResult(t=t, df=df, p_two_sided=student_t_two_sided_p(t, df))


def one_sample_t_test(sample: Sequence[float], mu0: float) -> TTestResult:
    """One-sample t-test against a fixed mean; df = n - 1."""
    if len(sample) < 2:
        raise DegenerateVarianceError("sample needs at least 2 elements")
    n = len(sample)
    m = _mean(sample)
    v = _var(sample)
    if v == 0.0:
        return _constant(m - mu0, float(n - 1))
    t = (m - mu0) / math.sqrt(v / n)
    return TTestResult(t=t, df=float(n - 1), p_two_sided=student_t_two_sided_p(t, n - 1))


def one_sided_p_greater(result: TTestResult) -> float:
    """P-value for the alternative 'first mean is greater'."""
    half = result.p_two_sided / 2.0
    return half if result.t > 0 else 1.0 - half
