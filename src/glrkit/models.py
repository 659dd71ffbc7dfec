"""Concrete likelihood models: binomial counts, the difference of two
binomial proportions with the baseline rate profiled out, and a paired
bivariate-normal model for crossover measurements with profiles for the mean
difference and the standard-deviation ratio.

Likelihoods drop data-dependent combinatorial constants (the normal density
keeps its 2-pi factors); ratios of suprema are unaffected either way.  With
degenerate binomial data (x = 0 or x = n) the maximizer sits on the boundary
of [0, 1]; suprema over regions remain well defined through closures, and the
ratio of a boundary point against its complement can then equal 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np

from .evidence import LikelihoodModel
from .optimize import DEFAULT_CONFIG, OptimizerConfig, maximize_box
from .optimize import maximize_1d  # noqa: F401  (perfbench/tracing.py wraps this name)
from .regions import Parameter, ParameterSpace

__all__ = [
    "BinomialData",
    "TwoBinomialData",
    "BivariateNormalParams",
    "PairedSample",
    "binomial_log_lik",
    "binomial_model",
    "two_binomial_profile_log_lik",
    "two_binomial_model",
    "bivnorm_log_lik",
    "mean_diff_profile_log_lik",
    "sd_ratio_profile_log_lik",
    "mean_diff_model",
    "sd_ratio_model",
    "generate_paired_sample",
    "load_paired_csv",
]


@dataclass(frozen=True)
class BinomialData:
    """Success count out of a fixed number of trials."""

    x: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one trial, got n={self.n}")
        if not 0 <= self.x <= self.n:
            raise ValueError(f"successes x={self.x} outside [0, {self.n}]")


@dataclass(frozen=True)
class TwoBinomialData:
    """Two independent binomial groups; the quantity of interest is the
    difference of success rates delta = p1 - p2, with p2 the nuisance."""

    x1: int
    n1: int
    x2: int
    n2: int

    def __post_init__(self) -> None:
        BinomialData(self.x1, self.n1)
        BinomialData(self.x2, self.n2)

    @property
    def delta_hat(self) -> float:
        return self.x1 / self.n1 - self.x2 / self.n2


@dataclass(frozen=True)
class BivariateNormalParams:
    """Means, standard deviations, and correlation of a bivariate normal."""

    mu_t: float
    mu_r: float
    sigma_t: float
    sigma_r: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.sigma_t > 0 and self.sigma_r > 0):
            raise ValueError("standard deviations must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"correlation must be in (-1, 1), got {self.rho}")


class PairedSample:
    """Paired measurements (y_t, y_r), one pair per subject.

    Needs at least 3 pairs so the sample covariance is non-degenerate.
    Sufficient statistics (means and centered scatter) are cached; they
    determine the bivariate-normal likelihood exactly.
    """

    def __init__(self, y_t: Iterable[float], y_r: Iterable[float]):
        self.y_t = np.asarray(list(y_t), dtype=float)
        self.y_r = np.asarray(list(y_r), dtype=float)
        if self.y_t.shape != self.y_r.shape or self.y_t.ndim != 1:
            raise ValueError("y_t and y_r must be equal-length 1-D sequences")
        if self.y_t.size < 3:
            raise ValueError(f"need at least 3 pairs, got {self.y_t.size}")
        if not (np.isfinite(self.y_t).all() and np.isfinite(self.y_r).all()):
            raise ValueError("measurements must be finite")

    @property
    def n(self) -> int:
        return int(self.y_t.size)

    @cached_property
    def mean_t(self) -> float:
        return float(self.y_t.mean())

    @cached_property
    def mean_r(self) -> float:
        return float(self.y_r.mean())

    @cached_property
    def scatter(self) -> tuple[float, float, float]:
        """Centered sums of squares and cross products (s_tt, s_rr, s_tr)."""
        dt = self.y_t - self.mean_t
        dr = self.y_r - self.mean_r
        return float(dt @ dt), float(dr @ dr), float(dt @ dr)

    @cached_property
    def sd_t(self) -> float:
        return math.sqrt(self.scatter[0] / self.n)

    @cached_property
    def sd_r(self) -> float:
        return math.sqrt(self.scatter[1] / self.n)

    @cached_property
    def corr(self) -> float:
        s_tt, s_rr, s_tr = self.scatter
        denom = math.sqrt(s_tt * s_rr)
        return s_tr / denom if denom > 0 else 0.0


# --- binomial ----------------------------------------------------------------


def _binomial_terms(x: int, n: int, p: float, q: float) -> float:
    """x log(p) + (n - x) log(q) for a rate p in [0, 1] and q = 1 - p, with
    0 * log 0 taken as 0; unchecked."""
    out = 0.0
    if x > 0:
        out += -math.inf if p == 0.0 else x * math.log(p)
    if n - x > 0:
        out += -math.inf if q == 0.0 else (n - x) * math.log(q)
    return out


def _binomial_terms_array(x: int, n: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_binomial_terms`."""
    out = np.zeros(p.shape)
    with np.errstate(divide="ignore"):
        if x > 0:
            out += x * np.log(p)
        if n - x > 0:
            out += (n - x) * np.log(q)
    return out


def _check_within(name: str, values: np.ndarray, lo: float, hi: float) -> None:
    if not np.all((values >= lo) & (values <= hi)):
        raise ValueError(f"{name} values outside [{lo}, {hi}]")


def binomial_log_lik(data: BinomialData, theta: float) -> float:
    """x log(theta) + (n - x) log(1 - theta), with 0 * log 0 taken as 0."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta={theta} outside [0, 1]")
    return _binomial_terms(data.x, data.n, theta, 1.0 - theta)


def binomial_model(data: BinomialData) -> LikelihoodModel:
    space = ParameterSpace.from_bounds(theta=(0.0, 1.0))

    def log_lik_array(thetas: np.ndarray) -> np.ndarray:
        _check_within("theta", thetas, 0.0, 1.0)
        return _binomial_terms_array(data.x, data.n, thetas, 1.0 - thetas)

    return LikelihoodModel(
        space=space,
        log_lik=lambda p: binomial_log_lik(data, p["theta"]),
        search_bounds={"theta": (0.0, 1.0)},
        interest="theta",
        name=f"binomial(x={data.x}, n={data.n})",
        log_lik_array=log_lik_array,
    )


# --- difference of two binomial proportions ----------------------------------
#
# With delta = p1 - p2 fixed, the joint log-likelihood is concave in the
# baseline rate p2.  Clearing the denominators of its derivative gives the
# stationarity condition
#     (x1 - n1 p1) p2 (1 - p2) + (x2 - n2 p2) p1 (1 - p1) = 0,  p1 = p2 + delta,
# a cubic in p2 whose interior root is the restricted maximum-likelihood
# estimate (Miettinen & Nurminen 1985, Stat Med 4:213; Farrington & Manning
# 1990, Stat Med 9:1447).  The profile is the best joint log-likelihood over
# the cubic's real roots clipped into the feasible interval and both of its
# endpoints, which also covers x in {0, n} and delta = +-1, where the maximum
# sits on an endpoint.  A negative delta is the same profile with the groups
# swapped, so the kernels below take delta >= 0: then p2 ranges over [0, h]
# with h = 1 - delta, and 1 - p1 = h - p2 keeps its precision when p1 is
# within rounding of 1.  The cubic formulas place a root only to within
# rounding of the largest root's size, which is too coarse when h is tiny,
# so every clipped root takes one Newton step on the unexpanded condition.


def _nuisance_cubic(x1: int, n1: int, x2: int, n2: int, delta):
    """Coefficients (a, b, c) of the monic stationarity cubic
    p2^3 + a p2^2 + b p2 + c; works on floats and arrays alike."""
    total = n1 + n2
    a = -(total + x1 + x2 - (n1 + 2.0 * n2) * delta) / total
    b = (x1 - n1 * delta + x2 * (1.0 - 2.0 * delta)
         - n2 * delta * (1.0 - delta)) / total
    c = x2 * delta * (1.0 - delta) / total
    return a, b, c


_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def _cubic_real_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of p^3 + a p^2 + b p + c: Cardano's formula, written without
    cancellation, for one real root and the trigonometric form for three."""
    s = a / 3.0
    p = b - a * s
    q = (2.0 * s * s - b) * s + c
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0.0:
        u = math.cbrt(-0.5 * q - math.copysign(math.sqrt(disc), q))
        return (u - p / (3.0 * u) - s,)
    if p == 0.0:  # then q == 0 too: a triple root
        return (-s,)
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
    return tuple(m * math.cos(phi - _TWO_THIRDS_PI * k) - s for k in range(3))


def _cubic_real_roots_array(a, b, c) -> np.ndarray:
    """Elementwise :func:`_cubic_real_roots`, stacked on a new first axis of
    length 3; the single real root is repeated where there is only one."""
    s = a / 3.0
    p = b - a * s
    q = (2.0 * s * s - b) * s + c
    disc = 0.25 * q * q + p * p * p / 27.0
    one = disc > 0.0
    u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(np.where(one, disc, 0.0)), q))
    single = u - p / (3.0 * np.where(u == 0.0, 1.0, u)) - s
    m = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0))
    ratio = 3.0 * q / np.where(p * m < 0.0, p * m, -1.0)
    phi = np.arccos(np.clip(ratio, -1.0, 1.0)) / 3.0
    k = np.arange(3.0).reshape((3,) + (1,) * np.ndim(a))
    three = m * np.cos(phi - _TWO_THIRDS_PI * k) - s
    return np.where(one, single, three)


def _select(cond: bool, a: float, b: float) -> float:
    return a if cond else b


def _newton_step(x1, n1, x2, n2, delta, h, p2, where=np.where):
    """One Newton step on the stationarity condition from p2 in [0, h]; may
    leave [0, h].  Works on arrays, and on floats with ``where=_select``."""
    p1 = p2 + delta
    q1 = h - p2
    q2 = 1.0 - p2
    # x - n p, written as (x - n) + n q where p is near 1
    r1 = where(p1 > 0.5, (x1 - n1) + n1 * q1, x1 - n1 * p1)
    r2 = where(p2 > 0.5, (x2 - n2) + n2 * q2, x2 - n2 * p2)
    g = r1 * p2 * q2 + r2 * p1 * q1
    dg = r1 * (q2 - p2) - n1 * p2 * q2 + r2 * (q1 - p1) - n2 * p1 * q1
    return p2 - g / where(dg == 0.0, -math.inf, dg)


def _profile_nonneg(x1: int, n1: int, x2: int, n2: int, delta: float) -> float:
    h = 1.0 - delta

    def joint(p2: float) -> float:
        return (_binomial_terms(x1, n1, min(1.0, p2 + delta), h - p2)
                + _binomial_terms(x2, n2, p2, 1.0 - p2))

    best = max(joint(0.0), joint(h))
    for root in _cubic_real_roots(*_nuisance_cubic(x1, n1, x2, n2, delta)):
        p2 = min(h, max(0.0, root))
        p2 = _newton_step(x1, n1, x2, n2, delta, h, p2, where=_select)
        best = max(best, joint(min(h, max(0.0, p2))))
    return best


def _profile_nonneg_array(
    x1: int, n1: int, x2: int, n2: int, deltas: np.ndarray
) -> np.ndarray:
    h = 1.0 - deltas
    roots = _cubic_real_roots_array(*_nuisance_cubic(x1, n1, x2, n2, deltas))
    roots = _newton_step(x1, n1, x2, n2, deltas, h, np.clip(roots, 0.0, h))
    p2 = np.concatenate([np.zeros_like(h)[None], h[None], np.clip(roots, 0.0, h)])
    joint = (_binomial_terms_array(x1, n1, np.minimum(1.0, p2 + deltas), h - p2)
             + _binomial_terms_array(x2, n2, p2, 1.0 - p2))
    return joint.max(axis=0)


def two_binomial_profile_log_lik(data: TwoBinomialData, delta: float) -> float:
    """Joint log-likelihood at rate difference delta, maximized over the
    baseline rate p2 on its feasible interval [max(0, -delta), min(1, 1-delta)]
    in closed form (see the section comment above)."""
    if not -1.0 <= delta <= 1.0:
        raise ValueError(f"delta={delta} outside [-1, 1]")
    if delta < 0.0:
        return _profile_nonneg(data.x2, data.n2, data.x1, data.n1, -delta)
    return _profile_nonneg(data.x1, data.n1, data.x2, data.n2, delta)


def _two_binomial_profile_log_lik_array(
    data: TwoBinomialData, deltas: np.ndarray
) -> np.ndarray:
    """:func:`two_binomial_profile_log_lik` at every element of ``deltas``."""
    _check_within("delta", deltas, -1.0, 1.0)
    out = np.empty(deltas.shape)
    neg = deltas < 0.0
    out[~neg] = _profile_nonneg_array(data.x1, data.n1, data.x2, data.n2, deltas[~neg])
    out[neg] = _profile_nonneg_array(data.x2, data.n2, data.x1, data.n1, -deltas[neg])
    return out


def two_binomial_model(data: TwoBinomialData) -> LikelihoodModel:
    space = ParameterSpace.from_bounds(delta=(-1.0, 1.0))
    return LikelihoodModel(
        space=space,
        log_lik=lambda p: two_binomial_profile_log_lik(data, p["delta"]),
        search_bounds={"delta": (-1.0, 1.0)},
        interest="delta",
        name=(
            f"two-binomial(x1={data.x1}, n1={data.n1}, "
            f"x2={data.x2}, n2={data.n2})"
        ),
        log_lik_array=lambda deltas: _two_binomial_profile_log_lik_array(data, deltas),
    )


# --- paired bivariate normal --------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def bivnorm_log_lik(sample: PairedSample, params: BivariateNormalParams) -> float:
    """Exact bivariate normal log-density summed over the pairs."""
    st2 = params.sigma_t**2
    sr2 = params.sigma_r**2
    cov = params.rho * params.sigma_t * params.sigma_r
    det = st2 * sr2 - cov * cov
    if det <= 0:
        raise ValueError("covariance matrix is singular")
    dt = sample.y_t - params.mu_t
    dr = sample.y_r - params.mu_r
    quad = (sr2 * dt * dt - 2.0 * cov * dt * dr + st2 * dr * dr) / det
    return float(-sample.n * _LOG_2PI - 0.5 * sample.n * math.log(det)
                 - 0.5 * quad.sum())


def _log_lik_from_stats(
    sample: PairedSample,
    mu_t: float,
    mu_r: float,
    var_t: float,
    var_r: float,
    cov: float,
) -> float:
    """Same value as :func:`bivnorm_log_lik` computed from the cached
    sufficient statistics in O(1); -inf for a non-positive-definite matrix."""
    det = var_t * var_r - cov * cov
    if det <= 0 or var_t <= 0 or var_r <= 0:
        return -math.inf
    s_tt, s_rr, s_tr = sample.scatter
    a = var_r / det
    b = -cov / det
    c = var_t / det
    quad = a * s_tt + 2.0 * b * s_tr + c * s_rr
    et = sample.mean_t - mu_t
    er = sample.mean_r - mu_r
    quad += sample.n * (a * et * et + 2.0 * b * et * er + c * er * er)
    return -sample.n * _LOG_2PI - 0.5 * sample.n * math.log(det) - 0.5 * quad


def _profile_config(cfg: OptimizerConfig) -> OptimizerConfig:
    # Simplex runs need a larger iteration budget than interval searches but
    # converge from few starts in the stabilized coordinates; the moment seed
    # already lands near the optimum.
    return replace(
        cfg,
        max_iters=max(cfg.max_iters, 2000),
        multistart_count=min(cfg.multistart_count, 3),
    )


def mean_diff_profile_log_lik(
    sample: PairedSample,
    gamma: float,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> float:
    """Log-likelihood at mean difference mu_t - mu_r = gamma, maximized over
    the remaining parameters (mu_r and the covariance) numerically.

    The search runs in stabilized coordinates (mu_r, log sigma_t,
    log sigma_r, atanh rho) by bounded simplex multistart.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    d = sample.y_t - sample.y_r
    d_bar = float(d.mean())
    sd_d = float(d.std())
    if sd_d <= 1e-12 * max(1.0, abs(d_bar)):
        raise ValueError("differences are constant; profile is degenerate")
    off = abs(gamma - d_bar)
    sd_t = max(sample.sd_t, 1e-12)
    sd_r = max(sample.sd_r, 1e-12)

    mu_half = 10.0 * sd_r + off * (sd_r / sd_d + 1.0)
    log_hi = math.log(sd_t + sd_r + off) + 3.0
    log_lo = math.log(min(sd_t, sd_r)) - 6.0
    bounds = [
        (sample.mean_r - mu_half, sample.mean_r + mu_half),
        (log_lo, log_hi),
        (log_lo, log_hi),
        (-7.0, 7.0),
    ]

    def f(u) -> float:
        mu_r = u[0]
        st = math.exp(u[1])
        sr = math.exp(u[2])
        rho = math.tanh(u[3])
        return _log_lik_from_stats(
            sample, mu_r + gamma, mu_r, st * st, sr * sr, rho * st * sr
        )

    seeds = [_mean_diff_seed(sample, gamma, bounds)]
    res = maximize_box(f, bounds, _profile_config(cfg), extra_seeds=seeds)
    return res.max_value


def _mean_diff_seed(sample, gamma, bounds) -> list[float]:
    """Moment-based start: project the sample means onto the constraint line
    mu_t = mu_r + gamma in the metric of the sample covariance."""
    s_tt, s_rr, s_tr = (s / sample.n for s in sample.scatter)
    det = s_tt * s_rr - s_tr * s_tr
    if det <= 1e-12 * max(s_tt * s_rr, 1e-300):
        mu_r = 0.5 * ((sample.mean_t - gamma) + sample.mean_r)
    else:
        # minimize (m - mu)' Sigma^-1 (m - mu) over mu = (mu_r + gamma, mu_r)
        a = s_rr / det
        b = -s_tr / det
        c = s_tt / det
        rt = sample.mean_t - gamma
        rr = sample.mean_r
        denom = a + 2.0 * b + c
        mu_r = (a * rt + b * (rt + rr) + c * rr) / denom if denom > 0 else rr
    off = gamma - (sample.mean_t - sample.mean_r)
    st = math.sqrt(max(s_tt, 1e-24) + 0.25 * off * off)
    sr = math.sqrt(max(s_rr, 1e-24) + 0.25 * off * off)
    rho = min(0.999, max(-0.999, sample.corr))
    return [mu_r, math.log(st), math.log(sr), math.atanh(rho)]


def sd_ratio_profile_log_lik(
    sample: PairedSample,
    ratio: float,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> float:
    """Log-likelihood at sigma_t / sigma_r = ratio, maximized over the rest.

    The means are quadratic in the objective for any fixed covariance, so
    they maximize at the sample means; the remaining search is over
    (log sigma_r, atanh rho).
    """
    if not (math.isfinite(ratio) and ratio > 0):
        return -math.inf
    sd_t = max(sample.sd_t, 1e-12)
    sd_r = max(sample.sd_r, 1e-12)
    anchors = (sd_r, sd_t / ratio)
    bounds = [
        (math.log(min(anchors)) - 4.0, math.log(max(anchors)) + 4.0),
        (-7.0, 7.0),
    ]

    def f(v) -> float:
        sr = math.exp(v[0])
        st = ratio * sr
        rho = math.tanh(v[1])
        return _log_lik_from_stats(
            sample, sample.mean_t, sample.mean_r, st * st, sr * sr, rho * st * sr
        )

    z = math.atanh(min(0.999, max(-0.999, sample.corr)))
    seeds = [[math.log(anchors[0]), z], [math.log(anchors[1]), z]]
    res = maximize_box(f, bounds, _profile_config(cfg), extra_seeds=seeds)
    return res.max_value


def mean_diff_model(
    sample: PairedSample,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> LikelihoodModel:
    """Scalar model in gamma = mu_t - mu_r with everything else profiled out."""
    d = sample.y_t - sample.y_r
    d_bar = float(d.mean())
    sd_d = float(d.std())
    if sd_d <= 1e-12 * max(1.0, abs(d_bar)):
        raise ValueError("differences are constant; mean-diff profile degenerate")
    half = 20.0 * sd_d
    space = ParameterSpace((Parameter("gamma"),))
    return LikelihoodModel(
        space=space,
        log_lik=lambda p: mean_diff_profile_log_lik(sample, p["gamma"], cfg),
        search_bounds={"gamma": (d_bar - half, d_bar + half)},
        interest="gamma",
        name=f"paired-normal mean-diff (n={sample.n})",
    )


def sd_ratio_model(
    sample: PairedSample,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> LikelihoodModel:
    """Scalar model in the ratio sigma_t / sigma_r, nuisances profiled out."""
    if sample.sd_t <= 0 or sample.sd_r <= 0:
        raise ValueError("zero sample variance; sd-ratio profile degenerate")
    ratio_hat = sample.sd_t / sample.sd_r
    space = ParameterSpace((Parameter("ratio", 0.0, math.inf, lower_closed=False),))
    return LikelihoodModel(
        space=space,
        log_lik=lambda p: sd_ratio_profile_log_lik(sample, p["ratio"], cfg),
        search_bounds={"ratio": (ratio_hat / 50.0, ratio_hat * 50.0)},
        interest="ratio",
        name=f"paired-normal sd-ratio (n={sample.n})",
    )


# --- data ingestion and synthesis ---------------------------------------------


def generate_paired_sample(
    n: int,
    params: BivariateNormalParams,
    seed: int = 0,
) -> PairedSample:
    """Draw n correlated pairs; deterministic for a given seed."""
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    y_t = params.mu_t + params.sigma_t * z[:, 0]
    y_r = params.mu_r + params.sigma_r * (
        params.rho * z[:, 0] + math.sqrt(1.0 - params.rho**2) * z[:, 1]
    )
    return PairedSample(y_t, y_r)


def load_paired_csv(stream: TextIO) -> PairedSample:
    """Read a paired sample from CSV with the exact header ``y_t,y_r``."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if [h.strip() for h in header] != ["y_t", "y_r"]:
        raise ValueError(f"expected header 'y_t,y_r', got {','.join(header)!r}")
    y_t: list[float] = []
    y_r: list[float] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValueError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            y_t.append(float(row[0]))
            y_r.append(float(row[1]))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value in {row}") from None
    return PairedSample(y_t, y_r)
