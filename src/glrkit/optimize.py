"""Numerical kernels: interval/box maximization and bisection root finding.

Everything here works on plain callables in log space.  The 1-D maximizer
seeds a small deterministic grid and refines each local best by golden
section; the box maximizer wraps a bounded simplex (reflect/expand/contract)
search behind multistart.  All functions are pure; multistart seeds derive
deterministically from the config, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "OptimizerConfig",
    "MaxResult",
    "NumericError",
    "BracketError",
    "maximize_1d",
    "maximize_box",
    "find_root_1d",
    "DEFAULT_CONFIG",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class NumericError(RuntimeError):
    """A numeric routine could not produce a usable result."""


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Tolerances and budgets shared by all kernels.

    ``scan_points`` controls the grid resolution used by callers that need a
    guaranteed-superset scan (support sets, containment checks).  ``seed``
    makes the random multistart seeds of the box maximizer reproducible.
    """

    abs_tol_x: float = 1e-10
    abs_tol_f: float = 1e-12
    max_iters: int = 500
    multistart_count: int = 8
    scan_points: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.abs_tol_x > 0 and self.abs_tol_f > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be at least 1")
        if self.scan_points < 16:
            raise ValueError("scan_points must be at least 16")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class MaxResult:
    """Outcome of a maximization: argmax (one coordinate per axis), value,
    iteration count, convergence flag, and whether the supremum is attained
    inside the original (possibly open) feasible set."""

    argmax: tuple[float, ...]
    max_value: float
    iterations: int
    converged: bool
    attained: bool = True


def _safe_eval(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    return -math.inf if math.isnan(v) else v


def _golden_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: OptimizerConfig,
) -> tuple[float, float, int, bool]:
    """Golden-section ascent on [a, b]; returns (x, f(x), iters, converged)."""
    h = b - a
    x1 = a + _INVPHI2 * h
    x2 = a + _INVPHI * h
    f1 = _safe_eval(f, x1)
    f2 = _safe_eval(f, x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    iters = 0
    while h > cfg.abs_tol_x and iters < cfg.max_iters:
        if f1 < f2:
            a = x1
            x1, f1 = x2, f2
            h = b - a
            x2 = a + _INVPHI * h
            f2 = _safe_eval(f, x2)
            if f2 > best_f:
                best_x, best_f = x2, f2
        else:
            b = x2
            x2, f2 = x1, f1
            h = b - a
            x1 = a + _INVPHI2 * h
            f1 = _safe_eval(f, x1)
            if f1 > best_f:
                best_x, best_f = x1, f1
        iters += 1
    return best_x, best_f, iters, h <= cfg.abs_tol_x


def maximize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> MaxResult:
    """Maximize a scalar function on a closed interval.

    ``f`` may return -inf (allowed anywhere, typical at endpoints).  Seeds a
    uniform grid of ``multistart_count`` interior points plus both endpoints,
    then golden-sections every local best among the seeds, so the result is
    within tolerance of the global supremum for unimodal functions and of the
    best seeded basin otherwise.  A degenerate interval returns its point.
    """
    if math.isnan(lo) or math.isnan(hi) or math.isinf(lo) or math.isinf(hi):
        raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    if lo == hi:
        return MaxResult((lo,), _safe_eval(f, lo), 0, True)

    m = cfg.multistart_count
    xs = [lo] + [lo + (hi - lo) * (i + 1) / (m + 1) for i in range(m)] + [hi]
    fs = [_safe_eval(f, x) for x in xs]

    best_i = max(range(len(xs)), key=lambda i: fs[i])
    best_x, best_f = xs[best_i], fs[best_i]

    total_iters = 0
    converged = True
    for i, fx in enumerate(fs):
        if fx == -math.inf:
            continue
        left = fs[i - 1] if i > 0 else -math.inf
        right = fs[i + 1] if i + 1 < len(fs) else -math.inf
        if fx < left or fx < right:
            continue  # not a local best among seeds
        a = xs[i - 1] if i > 0 else xs[0]
        b = xs[i + 1] if i + 1 < len(fs) else xs[-1]
        if b - a <= cfg.abs_tol_x:
            continue
        x, fx_ref, iters, ok = _golden_max(f, a, b, cfg)
        total_iters += iters
        converged = converged and ok
        if fx_ref > best_f:
            best_x, best_f = x, fx_ref

    if best_f == -math.inf:
        raise NumericError("function is -inf everywhere on the interval")
    return MaxResult((best_x,), best_f, total_iters, converged)


def maximize_box(
    f: Callable[[Sequence[float]], float],
    bounds: Sequence[tuple[float, float]],
    cfg: OptimizerConfig = DEFAULT_CONFIG,
    extra_seeds: Sequence[Sequence[float]] = (),
) -> MaxResult:
    """Maximize over a closed box by multistart simplex search.

    Runs a bounded Nelder-Mead style search (repeated reflect/expand/contract
    of a point set) from ``multistart_count`` deterministic random interior
    seeds, the box center, and any caller-supplied ``extra_seeds``, restarting
    once from each run's solution to guard against premature simplex collapse.
    A one-dimensional box delegates to :func:`maximize_1d`.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if math.isnan(lo) or math.isnan(hi) or math.isinf(lo) or math.isinf(hi):
            raise ValueError(f"box bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"invalid box side [{lo}, {hi}]")

    free = [i for i, (lo, hi) in enumerate(bounds) if lo < hi]
    fixed = {i: bounds[i][0] for i, (lo, hi) in enumerate(bounds) if lo == hi}

    def embed(v: Sequence[float]) -> list[float]:
        full = [0.0] * len(bounds)
        for i, val in fixed.items():
            full[i] = val
        for j, i in enumerate(free):
            full[i] = v[j]
        return full

    if not free:
        point = embed(())
        value = f(point)
        value = -math.inf if math.isnan(value) else value
        return MaxResult(tuple(point), value, 0, True)

    if len(free) == 1:
        i = free[0]
        template = embed((bounds[i][0],))

        def along(t: float) -> float:
            # hot loop of every one-axis supremum: cheaper than embed()
            point = template.copy()
            point[i] = t
            return f(point)

        inner = maximize_1d(along, bounds[i][0], bounds[i][1], cfg)
        return MaxResult(
            tuple(embed(inner.argmax)), inner.max_value,
            inner.iterations, inner.converged,
        )

    sub_bounds = [bounds[i] for i in free]
    lo_arr = np.array([b[0] for b in sub_bounds])
    hi_arr = np.array([b[1] for b in sub_bounds])

    def neg(v: np.ndarray) -> float:
        value = f(embed(v))
        return math.inf if math.isnan(value) else -value

    rng = np.random.default_rng(cfg.seed)
    seeds = [0.5 * (lo_arr + hi_arr)]
    for s in extra_seeds:
        sub = np.array([s[i] for i in free], dtype=float)
        seeds.append(np.clip(sub, lo_arr, hi_arr))
    for _ in range(cfg.multistart_count):
        seeds.append(lo_arr + (hi_arr - lo_arr) * rng.uniform(0.05, 0.95, len(free)))

    best_x = None
    best_f = -math.inf
    total_iters = 0
    converged = False
    options = {
        "xatol": cfg.abs_tol_x,
        "fatol": cfg.abs_tol_f,
        "maxiter": cfg.max_iters,
        "maxfev": 4 * cfg.max_iters,
    }

    def attempt(x0: np.ndarray) -> None:
        nonlocal best_x, best_f, total_iters, converged
        res = minimize(neg, x0, method="Nelder-Mead", bounds=sub_bounds,
                       options=options)
        total_iters += int(res.nit)
        value = -res.fun
        if value > best_f:
            best_x, best_f = np.array(res.x), value
            converged = bool(res.success)
        elif value == best_f and bool(res.success):
            converged = True

    for seed in seeds:
        attempt(np.asarray(seed, dtype=float))
    if best_x is not None and best_f > -math.inf:
        attempt(np.array(best_x))  # fresh simplex guards against early collapse

    if best_x is None or best_f == -math.inf:
        raise NumericError("function is -inf everywhere on the box")
    return MaxResult(tuple(embed(best_x)), best_f, total_iters, converged)


def find_root_1d(
    g: Callable[[float], float],
    a: float,
    b: float,
    cfg: OptimizerConfig = DEFAULT_CONFIG,
) -> float:
    """Bisect g on [a, b] down to a bracket of width ``abs_tol_x``.

    Requires g(a) * g(b) <= 0; returns the midpoint of the final bracket.
    """
    if a > b:
        a, b = b, a
    ga = g(a)
    gb = g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga > 0) == (gb > 0):
        raise BracketError(
            f"bracket [{a}, {b}] does not straddle a sign change "
            f"(g(a)={ga:.3g}, g(b)={gb:.3g})"
        )
    iters = 0
    while (b - a) > cfg.abs_tol_x and iters < 10_000:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break  # float resolution reached
        gm = g(m)
        if gm == 0.0:
            return m
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b, gb = m, gm
        iters += 1
    return 0.5 * (a + b)
