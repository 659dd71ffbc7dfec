"""Evidence engine: restricted suprema, generalized likelihood ratios,
support sets, and profile curves.

The guiding rule: data favor one hypothesis region over another when the
supremum of the likelihood over the first exceeds the supremum over the
second, and the ratio of suprema measures the strength.  Everything here is
computed in log space; open regions are optimized over their closures and
the result is flagged ``attained=False`` when the maximizer falls on an
excluded boundary point (the supremum is still reported).

Models are immutable and shareable; all operations are pure functions of
(model, region, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from .optimize import (
    DEFAULT_CONFIG,
    MaxResult,
    NumericError,
    OptimizerConfig,
    find_root_1d,
    maximize_box,
)
from .optimize import maximize_1d  # noqa: F401  (perfbench/tracing.py wraps this name)
from .regions import (
    EmptyRegionError,
    Interval,
    ParameterSpace,
    Region,
    complement,
)

__all__ = [
    "LikelihoodModel",
    "EvidenceReport",
    "SupportSet",
    "ProfileCurve",
    "strength_label",
    "sup_log_lik",
    "glr",
    "evidence_vs_complement",
    "support_set",
    "supported_region_covers_support_set",
    "largest_supported_k",
    "profile_curve",
]

# Conventional benchmarks for describing evidence strength.  Descriptive
# only; nothing downstream branches on them.
FAIRLY_STRONG_RATIO = 8.0
STRONG_RATIO = 32.0


@dataclass(frozen=True)
class LikelihoodModel:
    """An evaluable log-likelihood over a named parameter space.

    ``log_lik`` maps a point (name -> value) to a log-likelihood, -inf where
    the likelihood vanishes.  ``search_bounds`` give, per parameter, a finite
    interval that contains every local maximizer; outside it the
    log-likelihood must be non-increasing away from the interval (all shipped
    models satisfy this), which lets unbounded regions be optimized over a
    finite clip.  ``interest`` names the scalar axis used for support sets
    and profile curves; models with nuisance parameters expose them already
    profiled out inside ``log_lik``.

    ``log_lik_array`` is optional and only for one-parameter models: the same
    log-likelihood evaluated elementwise on a float array of axis values,
    returning an array of the same shape.  Support sets and profile curves
    then scan their grids in one call instead of one ``log_lik`` call per
    point; without it they fall back to that per-point loop.
    """

    space: ParameterSpace
    log_lik: Callable[[Mapping[str, float]], float]
    search_bounds: Mapping[str, tuple[float, float]]
    interest: str | None = None
    name: str = "model"
    log_lik_array: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        for pname in self.space.names:
            lo, hi = self.search_bounds[pname]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(
                    f"search bounds for {pname!r} must be finite, got [{lo}, {hi}]"
                )
        if self.interest is not None:
            self.space.param(self.interest)
        if self.log_lik_array is not None and len(self.space.params) != 1:
            raise ValueError("log_lik_array requires a one-parameter model")

    def scalar_axis(self) -> str:
        if self.interest is not None:
            return self.interest
        if len(self.space.params) == 1:
            return self.space.params[0].name
        raise ValueError(
            "model has several parameters and no designated interest axis; "
            "support sets and profile curves need a scalar coordinate"
        )

    def axis_log_lik(self, axis: str) -> Callable[[float], float]:
        if len(self.space.params) != 1:
            raise ValueError(
                "scalar evaluation requires a one-parameter model; profile "
                "nuisance parameters inside log_lik instead"
            )
        name = self.space.params[0].name
        if axis != name:
            raise ValueError(f"unknown axis {axis!r}")
        f = self.log_lik
        return lambda x: f({name: x})

    def axis_log_lik_values(self, axis: str, xs: np.ndarray) -> np.ndarray:
        """Log-likelihood at every axis value in ``xs``, NaN read as -inf:
        one ``log_lik_array`` call when the model has it, else a loop."""
        f = self.axis_log_lik(axis)
        if self.log_lik_array is None:
            values = np.array([f(x) for x in xs], dtype=float)
        else:
            values = np.asarray(self.log_lik_array(xs), dtype=float)
            if values.shape != xs.shape:
                raise ValueError(
                    f"log_lik_array returned shape {values.shape} for "
                    f"{xs.shape} inputs"
                )
        return np.where(np.isnan(values), -math.inf, values)


def strength_label(ratio: float) -> str:
    """Descriptive label for a likelihood ratio >= 0 (orientation-free)."""
    if ratio < 0 or math.isnan(ratio):
        raise ValueError(f"ratio must be nonnegative, got {ratio}")
    if ratio == 1.0:
        return "neutral"
    folded = ratio if ratio > 1.0 else (math.inf if ratio == 0.0 else 1.0 / ratio)
    if folded >= STRONG_RATIO:
        return "strong"
    if folded >= FAIRLY_STRONG_RATIO:
        return "fairly strong"
    return "weak"


@dataclass(frozen=True)
class EvidenceReport:
    """GLR of hypothesis 1 to hypothesis 2 with the per-hypothesis suprema.

    ``glr = exp(sup1 - sup2)``; swapping the hypotheses negates ``log_glr``
    exactly.  ``direction`` says which hypothesis the data favor ("h1", "h2",
    or "even"); ``strength`` is the descriptive benchmark label.
    """

    glr: float
    log_glr: float
    sup1: float
    sup2: float
    argmax1: dict[str, float]
    argmax2: dict[str, float]
    attained1: bool
    attained2: bool
    direction: str
    strength: str

    def to_json_dict(self) -> dict:
        return {
            "glr": _jsonable(self.glr),
            "log_glr": _jsonable(self.log_glr),
            "sup_log_lik_h1": _jsonable(self.sup1),
            "sup_log_lik_h2": _jsonable(self.sup2),
            "argmax_h1": {k: _jsonable(v) for k, v in self.argmax1.items()},
            "argmax_h2": {k: _jsonable(v) for k, v in self.argmax2.items()},
            "sup_attained_h1": self.attained1,
            "sup_attained_h2": self.attained2,
            "direction": self.direction,
            "strength": self.strength,
        }


@dataclass(frozen=True, eq=False)
class SupportSet:
    """The set of axis values whose likelihood stays within a factor k of
    the maximum: {x : log L(x) > sup log L - log k}.

    Stored as open intervals on the model's scalar axis together with the
    log-likelihood at each boundary (nominally sup - log k).
    """

    k: float
    param: str
    intervals: tuple[tuple[float, float], ...]
    sup_log_lik: float
    argmax: float
    threshold_log_lik: float
    boundary_log_lik: tuple[tuple[float, float], ...]

    def contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.intervals)

    def to_json_dict(self) -> dict:
        return {
            "k": _jsonable(self.k),
            "param": self.param,
            "intervals": [
                {"lo": _jsonable(lo), "hi": _jsonable(hi)} for lo, hi in self.intervals
            ],
            "sup_log_lik": _jsonable(self.sup_log_lik),
            "argmax": _jsonable(self.argmax),
            "threshold_log_lik": _jsonable(self.threshold_log_lik),
            "boundary_log_lik": [
                {"lo": _jsonable(a), "hi": _jsonable(b)}
                for a, b in self.boundary_log_lik
            ],
        }


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Normalized likelihood curve on a grid: values in (0, 1], peak 1 at the
    unconstrained maximizer (within grid resolution)."""

    param: str
    grid: np.ndarray
    normalized_lik: np.ndarray
    peak_index: int
    sup_log_lik: float
    argmax: float

    def write_csv(self, stream: TextIO) -> None:
        stream.write("gamma,normalized_likelihood\n")
        for g, v in zip(self.grid, self.normalized_lik):
            stream.write(f"{g:.12g},{v:.12g}\n")


def _jsonable(x: float) -> float | str:
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else "-inf" if x < 0 else "nan"
    return x


def _check_space(model: LikelihoodModel, region: Region) -> None:
    if region.space.names != model.space.names:
        raise ValueError(
            f"region space {region.space.names} does not match model space "
            f"{model.space.names}"
        )


def _clip_to_search(iv: Interval, search: tuple[float, float]) -> tuple[float, float]:
    """Clip a closed interval to the search bounds.

    When the interval lies entirely beyond the search bounds, collapse it to
    its nearest (finite) endpoint: by the search-bound contract the
    log-likelihood is non-increasing out there, so the supremum over the
    interval sits at that endpoint.
    """
    slo, shi = search
    lo = max(iv.lo, slo)
    hi = min(iv.hi, shi)
    if lo <= hi:
        return lo, hi
    if iv.lo > shi:
        return iv.lo, iv.lo
    return iv.hi, iv.hi


def sup_log_lik(
    model: LikelihoodModel,
    region: Region,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> MaxResult:
    """Supremum of the log-likelihood over a region.

    Optimizes over the closure of the region, cell by cell and interval box
    by interval box, and keeps the best.  ``attained`` is False when the
    maximizer is excluded from the original region (an open endpoint), in
    which case the value is still the supremum.
    """
    _check_space(model, region)
    if region.is_empty:
        raise EmptyRegionError("supremum over an empty region is undefined")
    closed = region.closure()

    names = model.space.names

    def objective(values: Sequence[float]) -> float:
        return model.log_lik(dict(zip(names, values)))

    best: MaxResult | None = None
    total_iters = 0
    all_converged = True
    for cell in closed.cells:
        constraints = dict(cell)
        per_axis: list[list[Interval]] = []
        for p in model.space.params:
            sr = constraints.get(p.name)
            if sr is None:
                per_axis.append([p.domain.closure()])
            else:
                per_axis.append(list(sr.intervals))
        for combo in product(*per_axis):
            box = [
                _clip_to_search(iv, model.search_bounds[p.name])
                for iv, p in zip(combo, model.space.params)
            ]
            result = maximize_box(objective, box, cfg)
            total_iters += result.iterations
            all_converged = all_converged and result.converged
            if best is None or result.max_value > best.max_value:
                best = result
    assert best is not None  # non-empty regions always yield a candidate

    point = dict(zip(names, best.argmax))
    attained = best.max_value == -math.inf or region.contains(point)
    return MaxResult(best.argmax, best.max_value, total_iters, all_converged,
                     attained)


def glr(
    model: LikelihoodModel,
    h1: Region,
    h2: Region,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> EvidenceReport:
    """Generalized likelihood ratio of h1 to h2: exp(sup1 - sup2)."""
    s1 = sup_log_lik(model, h1, cfg)
    s2 = sup_log_lik(model, h2, cfg)
    if s1.max_value == -math.inf and s2.max_value == -math.inf:
        raise NumericError("both hypotheses have likelihood zero everywhere")
    log_ratio = s1.max_value - s2.max_value
    try:
        ratio = math.exp(log_ratio)
    except OverflowError:
        ratio = math.inf
    if log_ratio > 0:
        direction = "h1"
    elif log_ratio < 0:
        direction = "h2"
    else:
        direction = "even"
    names = model.space.names
    return EvidenceReport(
        glr=ratio,
        log_glr=log_ratio,
        sup1=s1.max_value,
        sup2=s2.max_value,
        argmax1=dict(zip(names, s1.argmax)),
        argmax2=dict(zip(names, s2.argmax)),
        attained1=s1.attained,
        attained2=s2.attained,
        direction=direction,
        strength=strength_label(ratio),
    )


def evidence_vs_complement(
    model: LikelihoodModel,
    h: Region,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> EvidenceReport:
    """Evidence for a hypothesis against its complement in the space box."""
    return glr(model, h, complement(h), cfg)


def _axis_search_interval(model: LikelihoodModel) -> tuple[str, float, float]:
    axis = model.scalar_axis()
    lo, hi = model.search_bounds[axis]
    return axis, lo, hi


def support_set(
    model: LikelihoodModel,
    k: float,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> SupportSet:
    """All axis values whose likelihood exceeds the maximum divided by k.

    Scans a grid of ``cfg.scan_points`` over the search interval, refines
    every threshold crossing by bisection, and self-checks that every
    above-threshold grid point landed inside a reported interval.  Raises
    :class:`NumericError` when the set runs into a search bound that lies
    inside the parameter's domain, since it would be cut off there.
    """
    if not k > 1.0:
        raise ValueError(f"support sets require k > 1, got {k}")
    axis, lo, hi = _axis_search_interval(model)
    f = model.axis_log_lik(axis)
    domain = model.space.domain(axis).closure()

    top = sup_log_lik(model, Region.full(model.space), cfg)
    peak_x = top.argmax[0]
    peak_f = top.max_value
    threshold = peak_f - math.log(k)

    xs = np.linspace(lo, hi, cfg.scan_points)
    xs = np.unique(np.append(xs, peak_x))
    fs = model.axis_log_lik_values(axis, xs)
    above = fs > threshold
    if not above.any():
        raise NumericError(
            "no grid point exceeds the support threshold; supremum is suspect"
        )
    for edge, i, inside in ((lo, 0, lo > domain.lo), (hi, -1, hi < domain.hi)):
        if inside and above[i]:
            raise NumericError(
                f"support set is cut off at the search bound {axis}={edge} "
                f"(log lik {fs[i]:.6g} > threshold {threshold:.6g}); the "
                "model's search_bounds are too narrow for this k"
            )

    def g(x: float) -> float:
        v = f(x)
        return (-math.inf if math.isnan(v) else v) - threshold

    intervals: list[tuple[float, float]] = []
    boundary: list[tuple[float, float]] = []
    i = 0
    n = len(xs)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        if i == 0:
            left = float(xs[0])
        else:
            left = float(find_root_1d(g, xs[i - 1], xs[i], cfg))
        if j == n - 1:
            right = float(xs[n - 1])
        else:
            right = float(find_root_1d(g, xs[j], xs[j + 1], cfg))
        intervals.append((left, right))
        boundary.append((float(f(left)), float(f(right))))
        i = j + 1

    result = SupportSet(
        k=k,
        param=axis,
        intervals=tuple(intervals),
        sup_log_lik=peak_f,
        argmax=peak_x,
        threshold_log_lik=threshold,
        boundary_log_lik=tuple(boundary),
    )

    # Guaranteed-superset check: the scan grid must not reveal mass outside.
    slack = cfg.abs_tol_x * max(1.0, hi - lo)
    for x, ok in zip(xs, above):
        if ok and not any(a - slack <= x <= b + slack for a, b in result.intervals):
            raise NumericError(
                f"support-set assembly missed an above-threshold point at {x}"
            )
    return result


def supported_region_covers_support_set(
    model: LikelihoodModel,
    s: Region,
    k: float,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether s beats its complement by at least k; verifies the implied
    containment of the k-support set inside s on the scan grid.

    Returns False when the premise sup L(s) / sup L(s^c) >= k fails (no claim
    is checked then).  When the premise holds, a grid violation of the
    containment would indicate a numerical inconsistency and raises.
    """
    report = evidence_vs_complement(model, s, cfg)
    log_k = math.log(k)
    # tiny slack so a region equal to the support set itself qualifies at
    # exact equality despite root-finding rounding
    if not (report.log_glr >= log_k - 1e-9 * max(1.0, abs(log_k))):
        return False
    axis, lo, hi = _axis_search_interval(model)
    top = sup_log_lik(model, Region.full(model.space), cfg)
    threshold = top.max_value - math.log(k)
    xs = np.linspace(lo, hi, cfg.scan_points)
    values = model.axis_log_lik_values(axis, xs)
    tol = 1e-9 * max(1.0, abs(top.max_value))
    above = values > threshold + tol
    for x, v in zip(xs[above], values[above]):
        if not s.contains({axis: x}):
            raise NumericError(
                f"support set escapes the region at {axis}={x} "
                f"(log lik {v:.6g} > threshold {threshold:.6g})"
            )
    return True


def largest_supported_k(
    model: LikelihoodModel,
    a: Region,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> float:
    """The largest k > 1 whose support set fits inside the region a.

    Equals the region's likelihood ratio against its complement whenever that
    ratio exceeds 1, and 1 otherwise (no qualifying k).
    """
    report = evidence_vs_complement(model, a, cfg)
    return report.glr if report.glr > 1.0 else 1.0


def profile_curve(
    model: LikelihoodModel,
    grid: Sequence[float],
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> ProfileCurve:
    """Normalized likelihood along the model's scalar axis.

    Values are exp(log L(x) - sup log L) with the supremum refined off-grid,
    so the peak is exactly 1 whenever the grid covers the maximizer.
    """
    axis = model.scalar_axis()
    xs = np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise ValueError("profile grid is empty")
    if np.any(np.diff(xs) < 0):
        raise ValueError("profile grid must be ascending")
    domain = model.space.domain(axis).closure()
    if xs[0] < domain.lo or xs[-1] > domain.hi:
        raise ValueError(
            f"grid [{xs[0]}, {xs[-1]}] leaves the feasible range "
            f"[{domain.lo}, {domain.hi}] of {axis!r}"
        )
    top = sup_log_lik(model, Region.full(model.space), cfg)
    values = model.axis_log_lik_values(axis, xs)
    normalized = np.exp(np.minimum(values - top.max_value, 0.0))
    peak_index = int(np.argmax(normalized))
    return ProfileCurve(
        param=axis,
        grid=xs,
        normalized_lik=normalized,
        peak_index=peak_index,
        sup_log_lik=top.max_value,
        argmax=top.argmax[0],
    )
