"""Verification of every recorded response: exit code, JSON schema, oracle.

The oracles do not call glrkit.  They rest on facts the program's own tests
use as references:

- binomial: closed-form log-likelihood; the log-likelihood is concave, so
  the supremum over an interval sits at x/n clipped into its closure;
- two-binomial: the profile over the baseline rate by a dense two-stage grid
  (as in tests/test_models.py); the profile is concave in delta, so interval
  suprema again sit at the clipped maximizer;
- paired mean difference: the one-sample-t reduction, kept absolute by the
  regression of y_r on the differences;
- paired sd ratio: the nested-grid search over (log sigma_r, atanh rho) of
  tests/test_acceptance.py, with the profile's unique stationary point at
  sd_t / sd_r;
- reduced data: the closed forms of the power-function archetypes and of the
  normal p-value;
- Monte Carlo: each replication's 2 log GLR depends only on x ~ Bin(n,
  theta0), so every draw must be one of the n + 1 exact atoms, and the
  empirical CDF must lie inside a DKW band (level 1e-6) around the exact
  finite-n CDF built from the binomial pmf.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from statistics import NormalDist

import jsonschema
import numpy as np
from scipy.optimize import brentq
from scipy.special import xlog1py, xlogy
from scipy.stats import binom, chi2

from workloads import closure, contains

DKW_ALPHA = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)

SCHEMAS = {
    "glr": "evidence_report.schema.json",
    "support": "support_set.schema.json",
    "simulate": "simulate_summary.schema.json",
    "reduced-test": "reduced_result.schema.json",
    "reduced-pvalue": "reduced_result.schema.json",
}
# `profile` ships no schema; its keys are fixed here instead.
PROFILE_KEYS = {"model", "out", "rows", "peak_gamma", "argmax", "sup_log_lik", "manifest"}

# Absolute log-likelihood tolerance per model, fixed before measuring: exact
# closed forms for the binomial, a grid oracle for two binomials, and numeric
# simplex profiles against closed or grid forms for the paired models.
LL_TOL = {"binomial": 1e-7, "two-binomial": 1e-6, "mean-diff": 1e-5, "sd-ratio": 1e-5}


class Problem(Exception):
    pass


def _num(v) -> float:
    if isinstance(v, str):
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[v]
    return float(v)


def _close(got, want, tol, what):
    got = _num(got)
    if math.isinf(want) or math.isinf(got):
        if got != want:
            raise Problem(f"{what}: got {got}, want {want}")
        return
    if not abs(got - want) <= tol + 1e-9 * abs(want):
        raise Problem(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def strength(ratio: float) -> str:
    if ratio == 1.0:
        return "neutral"
    folded = ratio if ratio > 1.0 else (math.inf if ratio == 0.0 else 1.0 / ratio)
    return "strong" if folded >= 32 else "fairly strong" if folded >= 8 else "weak"


def _check_label(got, log_ratio, tol, what):
    """The strength label, accepting either side of a threshold the oracle
    cannot resolve within its tolerance."""
    near = [abs(abs(log_ratio) - math.log(t)) <= tol for t in (1.0, 8.0, 32.0)]
    if any(near):
        return
    ratio = math.exp(log_ratio) if log_ratio < 700 else math.inf
    if got != strength(ratio):
        raise Problem(f"{what}: got {got!r}, want {strength(ratio)!r}")


def _direction(log_ratio, tol):
    if abs(log_ratio) <= tol:
        return None
    return "h1" if log_ratio > 0 else "h2"


# --- model oracles ---------------------------------------------------------------


def binom_ll(x, n, theta):
    theta = np.asarray(theta, dtype=float)
    return xlogy(x, theta) + xlog1py(n - x, -theta)


class BinomialOracle:
    axis = "theta"
    domain = (0.0, 1.0)

    def __init__(self, e):
        self.x, self.n = e["x"], e["n"]
        self.mle = self.x / self.n
        self.tol = LL_TOL["binomial"]

    def profile(self, theta):
        return binom_ll(self.x, self.n, theta)

    def root(self, threshold, a, b):
        return brentq(lambda t: float(self.profile(t)) - threshold, a, b, xtol=1e-14)


class TwoBinomialOracle:
    axis = "delta"
    domain = (-1.0, 1.0)
    GRID = 2001

    def __init__(self, e):
        self.x1, self.n1, self.x2, self.n2 = e["x1"], e["n1"], e["x2"], e["n2"]
        self.mle = self.x1 / self.n1 - self.x2 / self.n2
        self.tol = LL_TOL["two-binomial"]

    def _joint(self, p2, delta):
        p1 = np.clip(p2 + delta, 0.0, 1.0)
        return binom_ll(self.x1, self.n1, p1) + binom_ll(self.x2, self.n2, p2)

    def profile(self, delta):
        """Dense grid over the baseline rate, then a second grid around the
        best cell; the joint log-likelihood is concave in p2."""
        delta = np.atleast_1d(np.asarray(delta, dtype=float))
        lo = np.maximum(0.0, -delta)[:, None]
        hi = np.minimum(1.0, 1.0 - delta)[:, None]
        u = np.linspace(0.0, 1.0, self.GRID)[None, :]
        best = None
        for _ in range(2):
            p2 = lo + (hi - lo) * u
            vals = self._joint(p2, delta[:, None])
            vals = np.where(np.isnan(vals), -np.inf, vals)
            j = np.argmax(vals, axis=1)
            best = vals[np.arange(len(delta)), j]
            step = (hi - lo)[:, 0] / (self.GRID - 1)
            centre = p2[np.arange(len(delta)), j]
            new_lo = np.maximum(np.maximum(0.0, -delta), centre - 2 * step)
            new_hi = np.minimum(np.minimum(1.0, 1.0 - delta), centre + 2 * step)
            lo, hi = new_lo[:, None], new_hi[:, None]
        return best

    def root(self, threshold, a, b):
        return brentq(lambda d: float(self.profile(d)[0]) - threshold, a, b, xtol=1e-12)


def _read_pairs(path):
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, 0], arr[:, 1]


class MeanDiffOracle:
    axis = "gamma"
    domain = (-math.inf, math.inf)

    def __init__(self, e):
        y_t, y_r = _read_pairs(e["data"])
        self.n = n = y_t.size
        self.d = y_t - y_r
        self.mle = float(self.d.mean())
        design = np.column_stack([np.ones(n), self.d])
        coef, *_ = np.linalg.lstsq(design, y_r, rcond=None)
        rss = float(np.sum((y_r - design @ coef) ** 2))
        self.const = -n * _LOG_2PI - n - 0.5 * n * math.log(rss / n)
        self.tol = LL_TOL["mean-diff"]

    def profile(self, gamma):
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        ss = np.mean((self.d[None, :] - gamma[:, None]) ** 2, axis=1)
        return self.const - 0.5 * self.n * np.log(ss)


class SdRatioOracle:
    axis = "ratio"
    domain = (0.0, math.inf)

    def __init__(self, e):
        y_t, y_r = _read_pairs(e["data"])
        self.n = y_t.size
        dt, dr = y_t - y_t.mean(), y_r - y_r.mean()
        self.s_tt, self.s_rr, self.s_tr = float(dt @ dt), float(dr @ dr), float(dt @ dr)
        self.sd_t = math.sqrt(self.s_tt / self.n)
        self.sd_r = math.sqrt(self.s_rr / self.n)
        self.mle = self.sd_t / self.sd_r
        self.tol = LL_TOL["sd-ratio"]

    def _ll(self, ratio, log_sr, z):
        sr = np.exp(log_sr)
        st = ratio * sr
        rho = np.tanh(z)
        var_t, var_r, cov = st * st, sr * sr, rho * st * sr
        det = var_t * var_r - cov * cov
        quad = (var_r * self.s_tt - 2.0 * cov * self.s_tr + var_t * self.s_rr) / det
        return -self.n * _LOG_2PI - 0.5 * self.n * np.log(det) - 0.5 * quad

    def _one(self, ratio, stages=5, pts=61):
        lo_l = math.log(min(self.sd_r, self.sd_t / ratio)) - 3.0
        hi_l = math.log(max(self.sd_r, self.sd_t / ratio)) + 3.0
        lo_z, hi_z = -4.0, 4.0
        best = -math.inf
        for _ in range(stages):
            ls, zs = np.meshgrid(np.linspace(lo_l, hi_l, pts), np.linspace(lo_z, hi_z, pts))
            vals = self._ll(ratio, ls, zs)
            j = np.unravel_index(np.argmax(vals), vals.shape)
            best = float(vals[j])
            dl, dz = (hi_l - lo_l) / (pts - 1), (hi_z - lo_z) / (pts - 1)
            lo_l, hi_l = ls[j] - 2 * dl, ls[j] + 2 * dl
            lo_z, hi_z = zs[j] - 2 * dz, zs[j] + 2 * dz
        return best

    def profile(self, ratio):
        ratio = np.atleast_1d(np.asarray(ratio, dtype=float))
        return np.array([self._one(float(r)) if r > 0 else -math.inf for r in ratio])


ORACLES = {
    "binomial": BinomialOracle,
    "two-binomial": TwoBinomialOracle,
    "mean-diff": MeanDiffOracle,
    "sd-ratio": SdRatioOracle,
}


def _sup(oracle, region):
    """Supremum over the closure of a union of intervals: the concave (or
    unimodal) profile peaks at the maximizer clipped into each piece."""
    return max(_val(oracle, min(max(oracle.mle, lo), hi)) for lo, hi, _, _ in closure(region))


def _val(oracle, t):
    return float(np.atleast_1d(oracle.profile(t))[0])


# --- per-command checks -------------------------------------------------------------


def check_glr(req, payload, _csv):
    e = req["expect"]
    oracle = ORACLES[e["model"]](e)
    rep = payload["report"]
    tol = oracle.tol
    sup1 = _sup(oracle, e["h1"])
    sup2 = _sup(oracle, e["h2"])
    _close(rep["sup_log_lik_h1"], sup1, tol, "sup_log_lik_h1")
    _close(rep["sup_log_lik_h2"], sup2, tol, "sup_log_lik_h2")
    log_ratio = sup1 - sup2
    _close(rep["log_glr"], log_ratio, 2 * tol, "log_glr")
    if log_ratio > 700:
        if not _num(rep["glr"]) >= 1e300:
            raise Problem(f"glr: got {rep['glr']}, want overflow")
    else:
        want = math.exp(log_ratio)
        if not abs(_num(rep["glr"]) - want) <= 4 * tol * want + 1e-300:
            raise Problem(f"glr: got {rep['glr']}, want {want}")
    d = _direction(log_ratio, 2 * tol)
    if d is not None and rep["direction"] != d:
        raise Problem(f"direction: got {rep['direction']}, want {d}")
    _check_label(rep["strength"], log_ratio, 2 * tol, "strength")
    for h, region, sup in (("h1", e["h1"], sup1), ("h2", e["h2"], sup2)):
        arg = _num(rep[f"argmax_{h}"][oracle.axis])
        near = [_at(arg, lo) or _at(arg, hi) for lo, hi, _, _ in region]
        if not (contains(closure(region), arg) or any(near)):
            raise Problem(f"argmax_{h}={arg} outside the closure of {h}")
        if sup > -math.inf:
            _close(_val(oracle, arg), sup, 2 * tol, f"log-likelihood at argmax_{h}")
        if rep[f"sup_attained_{h}"] != _attained(region, arg):
            raise Problem(f"sup_attained_{h}={rep[f'sup_attained_{h}']} at {arg}")


def _at(x, end):
    return math.isfinite(end) and abs(x - end) <= 1e-9 * max(1, abs(end))


def _attained(region, x):
    """Membership of a printed maximizer: within printing precision of an
    endpoint, the endpoint's own open/closed flag decides."""
    for lo, hi, lc, hc in region:
        if _at(x, lo):
            if lc:
                return True
        elif _at(x, hi):
            if hc:
                return True
        elif lo < x < hi:
            return True
    return False


def check_support(req, payload, _csv):
    e = req["expect"]
    oracle = ORACLES[e["model"]](e)
    ss = payload["support_set"]
    tol = oracle.tol
    if ss["param"] != oracle.axis or _num(ss["k"]) != e["k"]:
        raise Problem(f"support set echoes param={ss['param']} k={ss['k']}")
    peak = _val(oracle, oracle.mle)
    threshold = peak - math.log(e["k"])
    _close(ss["sup_log_lik"], peak, tol, "sup_log_lik")
    _close(ss["threshold_log_lik"], threshold, tol, "threshold_log_lik")
    _close(_val(oracle, _num(ss["argmax"])), peak, 2 * tol, "log-likelihood at argmax")
    if len(ss["intervals"]) != 1:
        raise Problem(f"a concave profile has one support interval, got {ss['intervals']}")
    lo, hi = _num(ss["intervals"][0]["lo"]), _num(ss["intervals"][0]["hi"])
    dlo, dhi = oracle.domain
    if not dlo <= lo <= oracle.mle <= hi <= dhi:
        raise Problem(f"interval [{lo}, {hi}] misses the maximizer {oracle.mle}")
    for end, edge, name in ((lo, dlo, "lo"), (hi, dhi, "hi")):
        if end == edge:
            if _val(oracle, edge) < threshold - tol:
                raise Problem(f"{name}={end} sits on the domain edge below the threshold")
            continue
        if _val(oracle, edge) >= threshold:
            raise Problem(f"{name}={end} but the domain edge {edge} is above the threshold")
        want = oracle.root(threshold, min(edge, oracle.mle), max(edge, oracle.mle))
        _close(end, want, 1e-7, f"support endpoint {name}")
        _close(ss["boundary_log_lik"][0][name], _val(oracle, end), tol,
               f"boundary_log_lik {name}")


def check_profile(req, payload, csv):
    e = req["expect"]
    if set(payload) != PROFILE_KEYS:
        raise Problem(f"profile keys {sorted(payload)}")
    oracle = ORACLES[e["model"]](e)
    tol = oracle.tol
    lo, hi, steps = e["grid"]
    grid = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
    if payload["rows"] != steps or csv is None or csv.shape != (steps, 2):
        raise Problem(f"profile rows {payload['rows']} for {steps} grid points")
    if not np.allclose(csv[:, 0], grid, rtol=1e-11, atol=1e-12):
        raise Problem("profile grid column differs from lo:hi:steps")
    peak = _val(oracle, oracle.mle)
    _close(payload["sup_log_lik"], peak, tol, "sup_log_lik")
    _close(_val(oracle, _num(payload["argmax"])), peak, 2 * tol, "log-likelihood at argmax")
    want = np.exp(np.minimum(oracle.profile(grid) - peak, 0.0))
    err = float(np.max(np.abs(csv[:, 1] - want)))
    if not err <= 1e-6 + 2 * tol:
        raise Problem(f"normalized likelihood off by {err:.3g}")
    i = int(np.argmax(csv[:, 1]))
    if abs(_num(payload["peak_gamma"]) - csv[i, 0]) > 1e-11 * max(1, abs(csv[i, 0])):
        raise Problem(f"peak_gamma {payload['peak_gamma']} is not the CSV's peak row")


def _binomial_atoms(scenario, theta0, n):
    """Exact finite-n law of 2 log GLR: one atom per success count."""
    x = np.arange(n + 1)
    mle = x / n
    if scenario == "boundary":
        values = 2 * (binom_ll(x, n, np.minimum(mle, theta0))
                      - binom_ll(x, n, np.maximum(mle, theta0)))
    elif scenario == "point-null":
        values = 2 * (binom_ll(x, n, theta0) - binom_ll(x, n, mle))
    else:  # consistency: log GLR of "theta <= 0.2" against its complement
        values = (binom_ll(x, n, np.minimum(mle, 0.2))
                  - binom_ll(x, n, np.maximum(mle, 0.2)))
    probs = binom.pmf(x, n, theta0)
    order = np.argsort(values, kind="stable")
    return values[order], probs[order]


def _dkw(m):
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * m))


def check_simulate(req, payload, csv):
    e = req["expect"]
    cfg = payload["config"]
    if payload["scenario"] != e["scenario"]:
        raise Problem(f"scenario {payload['scenario']}")
    sizes = e.get("sizes", [e.get("n")])
    if (cfg["theta0"] != e["theta0"] or cfg["reps"] != e["reps"]
            or cfg["seed"] != e["seed"] or cfg["sample_sizes"] != sizes):
        raise Problem(f"config echo {cfg}")
    if e["scenario"] == "consistency":
        trend = payload["trend"]
        if trend["sample_sizes"] != sizes:
            raise Problem(f"trend sizes {trend['sample_sizes']}")
        eps = _dkw(e["reps"])
        bands = []
        for n, med in zip(sizes, trend["median_log_glr"]):
            values, probs = _binomial_atoms("consistency", e["theta0"], n)
            cdf = np.cumsum(probs)
            q_lo = values[min(np.searchsorted(cdf, 0.5 - eps), len(values) - 1)]
            q_hi = values[min(np.searchsorted(cdf, 0.5 + eps), len(values) - 1)]
            if not q_lo - 1e-7 <= med <= q_hi + 1e-7:
                raise Problem(f"median log GLR {med} at n={n} outside [{q_lo}, {q_hi}]")
            bands.append((q_lo, q_hi))
        meds = trend["median_log_glr"]
        diffs = [b - a for a, b in zip(meds, meds[1:])]
        if all(d > 0 for d in diffs):
            want = "toward_h1"
        elif all(d < 0 for d in diffs):
            want = "toward_h2"
        else:
            want = "flat" if all(m == 0 for m in meds) else "mixed"
        if trend["direction"] != want or trend["strictly_monotone"] != want.startswith("toward"):
            raise Problem(f"trend direction {trend['direction']} for medians {meds}")
        if all(b[1] < c[0] for b, c in zip(bands, bands[1:])) and want != "toward_h1":
            raise Problem("exact medians increase but the trend does not")
        return
    if payload["limit"] != {"boundary": "0.5 * (-chisq(1)) + 0.5 * (+chisq(1))",
                            "point-null": "-chisq(1)"}[e["scenario"]]:
        raise Problem(f"limit {payload['limit']}")
    if csv is None or csv.shape != (e["reps"],):
        raise Problem("csv-out does not hold one value per replication")
    draws = np.sort(csv)
    values, probs = _binomial_atoms(e["scenario"], e["theta0"], e["n"])
    tol = 1e-6 + 1e-9 * np.abs(draws)
    j = np.clip(np.searchsorted(values, draws), 1, len(values) - 1)
    nearest = np.where(np.abs(values[j - 1] - draws) <= np.abs(values[j] - draws),
                       values[j - 1], values[j])
    bad = np.abs(nearest - draws) > tol
    if bad.any():
        raise Problem(f"{int(bad.sum())} draws are not exact atoms, e.g. {draws[bad][0]!r}")
    edges = np.append(np.nonzero(np.diff(values) > 1e-5)[0], len(values) - 1)
    exact_cdf = np.cumsum(probs)[edges]
    emp_cdf = np.searchsorted(draws, values[edges] + 1e-5 + 1e-9 * np.abs(values[edges]),
                              side="right") / draws.size
    gap = float(np.max(np.abs(emp_cdf - exact_cdf)))
    if gap > _dkw(draws.size):
        raise Problem(f"empirical CDF {gap:.4f} from the exact CDF (DKW band {_dkw(draws.size):.4f})")
    qs = payload["quantiles"]
    want_q = np.quantile(draws, [0.05, 0.25, 0.5, 0.75, 0.95])
    for key, want in zip(("q05", "q25", "q50", "q75", "q95"), want_q):
        _close(qs[key], float(want), 1e-9, key)
    _close(payload["fraction_positive"], float(np.mean(draws > 0)), 1e-12, "fraction_positive")
    if e["scenario"] == "boundary":
        f = 0.5 * np.where(draws >= 0, 1.0, 1.0 - chi2.cdf(np.maximum(-draws, 0), 1)) \
            + 0.5 * np.where(draws >= 0, chi2.cdf(np.maximum(draws, 0), 1), 0.0)
    else:
        f = np.where(draws >= 0, 1.0, 1.0 - chi2.cdf(np.maximum(-draws, 0), 1))
    i = np.arange(1, draws.size + 1)
    ks = max(np.max(i / draws.size - f), np.max(f - (i - 1) / draws.size))
    _close(payload["ks_distance"], float(ks), 1e-8, "ks_distance")


def check_reduced_test(req, payload, _csv):
    e = req["expect"]
    a, reject = e["alpha"], e["result"] == "reject"
    want = {
        "one-sided": (1 / a, 1 - a),
        "point-null-one-sided": (1 / a, 1.0),
        "two-sided-point-null": (1 / a, 1.0),
        "equivalence": ((e["pi_max"] or 0) / a, 1 - a),
    }[e["kind"]][0 if reject else 1]
    if (payload["kind"], payload["alpha"], payload["result"]) != (e["kind"], a, e["result"]):
        raise Problem("reduced test echo differs from the request")
    _check_ratio(payload, want)


def check_reduced_pvalue(req, payload, _csv):
    u = req["expect"]["u"]
    q = NormalDist().inv_cdf(1.0 - u)
    want = math.exp(q * q / 2) if u <= 0.5 else math.exp(-q * q / 2)
    if payload["u"] != u:
        raise Problem("reduced pvalue echo differs from the request")
    _check_ratio(payload, want)


def _check_ratio(payload, want):
    got = _num(payload["glr"])
    if not abs(got - want) <= 1e-9 * want:
        raise Problem(f"glr: got {got!r}, want {want!r}")
    direction = "h2" if want > 1 else "h1" if want < 1 else "even"
    if payload["direction"] != direction:
        raise Problem(f"direction {payload['direction']}, want {direction}")
    if payload["strength_label"] != strength(want):
        raise Problem(f"strength {payload['strength_label']}, want {strength(want)}")


CHECKS = {
    "glr": check_glr,
    "support": check_support,
    "profile": check_profile,
    "simulate": check_simulate,
    "reduced-test": check_reduced_test,
    "reduced-pvalue": check_reduced_pvalue,
}


# --- checking a run ---------------------------------------------------------------


def load_csv(path, kind):
    header = {"profile": "gamma,normalized_likelihood", "simulate": "two_log_glr"}[kind]
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != header:
            raise Problem(f"CSV header of {path} is not {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2 if kind == "profile" else 1)


class Verifier:
    def __init__(self, schema_dir: Path):
        self.validators = {}
        for kind, name in SCHEMAS.items():
            with open(schema_dir / name, "r", encoding="utf-8") as fh:
                self.validators[kind] = jsonschema.Draft7Validator(json.load(fh))

    def check(self, request, payload, csv) -> None:
        kind = request["kind"]
        if kind in self.validators:
            err = jsonschema.exceptions.best_match(self.validators[kind].iter_errors(payload))
            if err is not None:
                raise Problem(f"schema: {err.message}")
        CHECKS[kind](request, payload, csv)

    def check_record(self, request, record):
        """Return (payload, csv) for a passing record; raise Problem otherwise."""
        if record["error"] is not None or record["rc"] != 0:
            raise Problem(f"exit {record['rc']} {record['error'] or record['stderr'].strip()}")
        try:
            payload = json.loads(record["stdout"])
        except json.JSONDecodeError as exc:
            raise Problem(f"stdout is not JSON: {exc}") from None
        csv = None
        if record["out_path"] and Path(record["out_path"]).exists():
            csv = load_csv(record["out_path"], request["kind"])
        self.check(request, payload, csv)
        return payload, csv

    def self_check(self, samples) -> list[str]:
        """Perturb one passing output of each kind; the oracle must reject it."""
        missed = []
        for label, (request, payload, csv) in samples.items():
            payload, csv = copy.deepcopy(payload), None if csv is None else csv.copy()
            kind = request["kind"]
            if kind == "glr":
                payload["report"]["log_glr"] = _num(payload["report"]["log_glr"]) + 0.01
            elif kind == "support":
                payload["support_set"]["sup_log_lik"] = _num(payload["support_set"]["sup_log_lik"]) + 0.01
            elif kind == "profile":
                mid = csv.shape[0] // 2
                csv[mid, 1] += 0.01 if csv[mid, 1] < 0.5 else -0.01
            elif kind == "simulate" and csv is not None:
                csv[0] += 0.5
            elif kind == "simulate":
                payload["trend"]["median_log_glr"][0] += 10.0
            else:
                payload["glr"] = _num(payload["glr"]) * 1.01
            try:
                self.check(request, payload, csv)
            except Problem:
                continue
            missed.append(label)
        return missed


def verify(records, pool, schema_dir: Path):
    """Check every record; return (failures, self-check misses, kinds
    covered by the self-check)."""
    verifier = Verifier(schema_dir)
    failures = []
    samples = {}
    for rec in records:
        request = pool[rec["block"]][rec["index"]]
        try:
            payload, csv = verifier.check_record(request, rec)
        except Problem as exc:
            failures.append({"attempt": rec["attempt"], "argv": request["argv"],
                             "problem": str(exc)})
            continue
        label = request["kind"] + ":" + str(request["expect"].get("model", request["expect"].get("scenario", "")))
        samples.setdefault(label, (request, payload, csv))
    return failures, verifier.self_check(samples), sorted(samples)
