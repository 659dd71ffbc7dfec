"""Seeded request streams for the glrkit benchmark.

A workload is a pool of blocks.  Every block holds the same request kinds in
the same order; only the data, predicates and sizes inside a block come from
the seed.  The timed loop replays whole blocks, so every run of a workload
sees the same mix of request kinds whatever the seed, and the spread between
seeds measures the program rather than the luck of the draw.

Each request is a plain dict:

- ``kind``: which verifier applies (``glr``, ``support``, ``profile``,
  ``simulate``, ``reduced-test``, ``reduced-pvalue``);
- ``argv``: the command line handed to ``glrkit.cli.main``;
- ``out_flag``: ``--out`` or ``--csv-out`` when the command writes a CSV, so
  the runner can append a per-attempt path;
- ``expect``: what the oracle needs (the data and the intended regions as
  interval lists), computed here independently of the program's parser.

Nothing here imports glrkit except the paired-sample generator, which the
paired workload calls during set-up to write its input CSVs.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

INF = math.inf

# Per-workload pool sizes.  The loop cycles through the pool, so a faster
# program replays blocks instead of running out of requests.
POOL_BLOCKS = {
    "binomial-mix": 128,
    "two-binomial-mix": 32,
    "paired-normal-glr": 64,
    "montecarlo": 16,
}

# Requests replayed, untraced and then traced, by a ``--trace 1`` run.  A
# fixed count keeps every counter identical between traced runs of a seed.
TRACE_REQUESTS = {
    "binomial-mix": 1600,
    "two-binomial-mix": 40,
    "paired-normal-glr": 32,
    "montecarlo": 45,
}

WORKLOADS = tuple(POOL_BLOCKS)

_WORKLOAD_SALT = {name: i for i, name in enumerate(WORKLOADS)}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# --- interval sets: the oracle's own reading of each predicate -----------------
#
# An interval is (lo, hi, lo_closed, hi_closed).  These helpers are the
# independent reference for what a predicate means; the verifier compares the
# program's suprema against them.


def _norm(ivs):
    out = []
    for lo, hi, lc, hc in ivs:
        if math.isinf(lo):
            lc = False
        if math.isinf(hi):
            hc = False
        if lo < hi or (lo == hi and lc and hc):
            out.append((lo, hi, lc, hc))
    return out


def intersect(a, b):
    out = []
    for lo1, hi1, lc1, hc1 in a:
        for lo2, hi2, lc2, hc2 in b:
            if lo1 > lo2:
                lo, lc = lo1, lc1
            elif lo2 > lo1:
                lo, lc = lo2, lc2
            else:
                lo, lc = lo1, lc1 and lc2
            if hi1 < hi2:
                hi, hc = hi1, hc1
            elif hi2 < hi1:
                hi, hc = hi2, hc2
            else:
                hi, hc = hi1, hc1 and hc2
            out.append((lo, hi, lc, hc))
    return _norm(out)


def complement(ivs, domain):
    """Complement of a union of intervals within one domain interval."""
    rest = [domain]
    for lo, hi, lc, hc in ivs:
        outside = _norm([(-INF, lo, False, not lc), (hi, INF, not hc, False)])
        rest = [piece for r in rest for piece in intersect([r], outside)]
    return _norm(rest)


def closure(ivs):
    return [(lo, hi, not math.isinf(lo), not math.isinf(hi)) for lo, hi, _, _ in ivs]


def contains(ivs, x):
    for lo, hi, lc, hc in ivs:
        if (lo < x or (lc and x == lo)) and (x < hi or (hc and x == hi)):
            return True
    return False


# --- predicate generation -------------------------------------------------------


PREDICATE_FORMS = 6


def predicate(rng, name, domain, center, scale, form):
    """A random predicate of one of the ``PREDICATE_FORMS`` shapes on one
    parameter, and the intervals it selects.

    The caller fixes the shape, so every seed gets the same mix of shapes
    (and so of interval counts); the constants sit near ``center`` in units
    of ``scale``.  Every predicate selects a non-empty proper part of
    ``domain``.
    """
    while True:
        text, ivs = _draw_predicate(rng, name, center, scale, form)
        region = intersect(ivs, [domain])
        if region and complement(region, domain):
            return text, region


def _draw_predicate(rng, name, center, scale, form):
    c = float(_fmt(center + scale * rng.uniform(-1.5, 1.5)))
    r = float(_fmt(scale * rng.uniform(0.2, 1.0)))
    op = ("<", "<=", ">", ">=")[int(rng.integers(4))]
    if form == 0:
        return f"{name} {op} {_fmt(c)}", _comparison(op, c)
    if form == 1:
        closed = bool(rng.integers(2))
        band = [(c - r, c + r, closed, closed)]
        sym = "<=" if closed else "<"
        return f"abs({name} - {_fmt(c)}) {sym} {_fmt(r)}", band
    if form == 2:
        outside = [(-INF, c - r, False, False), (c + r, INF, False, False)]
        return f"abs({name} - {_fmt(c)}) > {_fmt(r)}", outside
    if form == 3:
        inner = _comparison(op, c)
        return f"not({name} {op} {_fmt(c)})", complement(inner, (-INF, INF, False, False))
    if form == 4:
        lo, hi = sorted((c, float(_fmt(c + r))))
        text = f"{name} >= {_fmt(lo)} and {name} < {_fmt(hi)}"
        return text, [(lo, hi, True, False)]
    return f"{name} == {_fmt(c)}", [(c, c, True, True)]


def _comparison(op, c):
    return {
        "<": [(-INF, c, False, False)],
        "<=": [(-INF, c, False, True)],
        ">": [(c, INF, False, False)],
        ">=": [(c, INF, True, False)],
    }[op]


# --- workloads --------------------------------------------------------------------

THETA = (0.0, 1.0, True, True)
DELTA = (-1.0, 1.0, True, True)


def _glr_pair(rng, name, domain, center, scale, model_argv, complement_h2, forms):
    h1_text, h1 = predicate(rng, name, domain, center, scale, next(forms) % PREDICATE_FORMS)
    if complement_h2:
        return (
            model_argv + ["--h1", h1_text, "--complement"],
            {"h1": h1, "h2": complement(h1, domain)},
        )
    h2_text, h2 = predicate(rng, name, domain, center, scale, next(forms) % PREDICATE_FORMS)
    return model_argv + ["--h1", h1_text, "--h2", h2_text], {"h1": h1, "h2": h2}


def _strata(block, count, rng):
    """Stratified uniform draw: block b covers the b-th of ``count`` slices."""
    return ((block % count) + rng.uniform()) / count


def _binomial_data(rng):
    n = int(round(math.exp(rng.uniform(math.log(2), math.log(3000)))))
    return int(rng.integers(0, n + 1)), n


def _binomial_block(rng, block):
    def data():
        x, n = _binomial_data(rng)
        center = x / n
        scale = max(0.02, 3.0 * math.sqrt(max(center * (1 - center), 0.25 / n) / n))
        argv = ["--model", "binomial", "--x", str(x), "--n", str(n)]
        return x, n, center, scale, argv

    requests = []
    forms = itertools.count(block)
    for complement_h2 in (False, True, False, True):
        x, n, center, scale, argv = data()
        glr_argv, regions = _glr_pair(rng, "theta", THETA, center, scale, argv,
                                      complement_h2, forms)
        requests.append({
            "kind": "glr", "argv": ["glr"] + glr_argv,
            "expect": {"model": "binomial", "x": x, "n": n, **regions},
        })

    x, n, _, _, argv = data()
    k = (8.0, 32.0, 100.0)[block % 3]
    requests.append({
        "kind": "support", "argv": ["support"] + argv + ["--k", _fmt(k)],
        "expect": {"model": "binomial", "x": x, "n": n, "k": k},
    })

    x, n, center, _, argv = data()
    steps = int(round(200 * 15.0 ** _strata(block, 8, rng)))
    lo = float(_fmt(rng.uniform(0.0, 0.5) * center))
    hi = float(_fmt(1.0 - rng.uniform(0.0, 0.5) * (1.0 - center)))
    requests.append({
        "kind": "profile",
        "argv": ["profile"] + argv + [f"--grid={_fmt(lo)}:{_fmt(hi)}:{steps}"],
        "out_flag": "--out",
        "expect": {"model": "binomial", "x": x, "n": n, "grid": [lo, hi, steps]},
    })

    kinds = ("one-sided", "point-null-one-sided", "two-sided-point-null", "equivalence")
    kind = kinds[block % 4]
    alpha = float(_fmt(math.exp(rng.uniform(math.log(0.001), math.log(0.2)))))
    result = ("reject", "accept")[int(rng.integers(2))]
    argv = ["reduced", "test", "--alpha", _fmt(alpha), "--kind", kind, "--result", result]
    pi_max = None
    if kind == "equivalence":
        pi_max = float(_fmt(rng.uniform(min(1.0, 2 * alpha), 1.0)))
        argv += ["--pi-max", _fmt(pi_max)]
    requests.append({
        "kind": "reduced-test", "argv": argv,
        "expect": {"kind": kind, "alpha": alpha, "pi_max": pi_max, "result": result},
    })

    if block % 2:
        u = math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
    else:
        u = rng.uniform(0.5, 0.999)
    u = float(_fmt(u))
    requests.append({
        "kind": "reduced-pvalue", "argv": ["reduced", "pvalue", "--u", _fmt(u)],
        "expect": {"u": u},
    })
    return requests


def _two_binomial_data(rng, groups):
    """Two groups of 10 to 500 trials.  One group in ten has zero successes
    and one in ten has full successes, on a fixed rotation: the cost of a
    profile evaluation depends on the data, so every seed gets the same share
    of degenerate groups."""
    def group():
        n = int(round(math.exp(rng.uniform(math.log(10), math.log(500)))))
        kind = next(groups) % 10
        if kind == 0:
            return 0, n
        if kind == 5:
            return n, n
        return int(rng.integers(0, n + 1)), n

    (x1, n1), (x2, n2) = group(), group()
    delta_hat = x1 / n1 - x2 / n2
    argv = ["--model", "two-binomial", "--x1", str(x1), "--n1", str(n1),
            "--x2", str(x2), "--n2", str(n2)]
    data = {"model": "two-binomial", "x1": x1, "n1": n1, "x2": x2, "n2": n2}
    return data, delta_hat, argv


def _two_binomial_block(rng, block):
    requests = []
    forms = itertools.count(9 * block)
    groups = itertools.count(16 * block + 3)
    for complement_h2 in (False, True) * 3:
        data, delta_hat, argv = _two_binomial_data(rng, groups)
        scale = 0.15 + 0.1 * rng.uniform()
        glr_argv, regions = _glr_pair(rng, "delta", DELTA, delta_hat, scale, argv,
                                      complement_h2, forms)
        requests.append({"kind": "glr", "argv": ["glr"] + glr_argv,
                         "expect": {**data, **regions}})

    data, delta_hat, argv = _two_binomial_data(rng, groups)
    steps = int(round(200 * 5.0 ** _strata(block, 4, rng)))
    lo = float(_fmt(max(-1.0, delta_hat - rng.uniform(0.2, 0.5))))
    hi = float(_fmt(min(1.0, delta_hat + rng.uniform(0.2, 0.5))))
    requests.append({
        "kind": "profile",
        "argv": ["profile"] + argv + [f"--grid={_fmt(lo)}:{_fmt(hi)}:{steps}"],
        "out_flag": "--out",
        "expect": {**data, "grid": [lo, hi, steps]},
    })

    data, _, argv = _two_binomial_data(rng, groups)
    k = (8.0, 32.0, 100.0)[block % 3]
    requests.append({"kind": "support", "argv": ["support"] + argv + ["--k", _fmt(k)],
                     "expect": {**data, "k": k}})
    return requests


PAIRS = 40


def _paired_block(rng, block, input_dir: Path):
    """Two fixed-size paired samples, each asked for one simple-versus-simple
    GLR on its mean difference and three on its sd ratio.

    A point hypothesis costs one profile evaluation (one simplex multistart
    in ``maximize_box``), so every request runs the stabilized-coordinate
    profiles twice and no interval search; bands and one-sided pairs would
    wrap each profile in a golden-section search and cost seconds a request.
    A mean-diff evaluation costs about three sd-ratio ones, so the 1:3 mix
    gives both interests the same share of the run and keeps the median
    latency inside one cluster of request costs.
    """
    import glrkit

    requests = []
    for j in range(2):
        params = glrkit.BivariateNormalParams(
            mu_t=float(rng.uniform(-0.05, 0.05)), mu_r=0.0,
            sigma_t=0.12 * float(math.exp(rng.uniform(-0.35, 0.35))), sigma_r=0.12,
            rho=float(rng.uniform(0.2, 0.8)),
        )
        sample = glrkit.generate_paired_sample(PAIRS, params, seed=int(rng.integers(2**31)))
        path = input_dir / f"pairs-{block}-{j}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y_t,y_r\n")
            for t, r in zip(sample.y_t, sample.y_r):
                fh.write(f"{float(t)!r},{float(r)!r}\n")
        d = sample.y_t - sample.y_r
        ratio_hat = float(sample.y_t.std() / sample.y_r.std())
        mean_diff = ("mean-diff", "gamma", float(d.mean()), 2.0 * float(d.std()) / math.sqrt(PAIRS))
        sd_ratio = ("sd-ratio", "ratio", ratio_hat, 0.15 * ratio_hat)
        for interest, name, center, scale in (mean_diff, sd_ratio, sd_ratio, sd_ratio):
            a, b = (float(_fmt(center + scale * rng.uniform(-1.5, 1.5))) for _ in range(2))
            argv = ["glr", "--model", "paired-normal", "--data", str(path),
                    "--interest", interest,
                    "--h1", f"{name} == {_fmt(a)}", "--h2", f"{name} == {_fmt(b)}"]
            requests.append({
                "kind": "glr", "argv": argv,
                "expect": {"model": interest, "data": str(path),
                           "h1": [(a, a, True, True)], "h2": [(b, b, True, True)]},
            })
    return requests


def _montecarlo_block(rng, block):
    sizes = (250, 1000, 2500)
    requests = []
    for scenario in ("boundary", "point-null"):
        n = sizes[(block + (scenario == "point-null")) % 3]
        if scenario == "boundary":
            theta0 = float(_fmt(rng.uniform(0.1, 0.5)))
        else:
            theta0 = float(_fmt(rng.uniform(0.2, 0.6)))
        reps = 8000
        seed = int(rng.integers(2**31))
        requests.append({
            "kind": "simulate",
            "argv": ["simulate", "--scenario", scenario, "--theta0", _fmt(theta0),
                     "--n", str(n), "--reps", str(reps), "--seed", str(seed)],
            "out_flag": "--csv-out",
            "expect": {"scenario": scenario, "theta0": theta0, "n": n, "reps": reps,
                       "seed": seed},
        })
    theta0 = float(_fmt(rng.uniform(0.05, 0.15)))
    seed = int(rng.integers(2**31))
    requests.append({
        "kind": "simulate",
        "argv": ["simulate", "--scenario", "consistency", "--theta0", _fmt(theta0),
                 "--sizes", "50,200,800", "--reps", "2000", "--seed", str(seed)],
        "expect": {"scenario": "consistency", "theta0": theta0, "boundary": 0.2,
                   "sizes": [50, 200, 800], "reps": 2000, "seed": seed},
    })
    return requests


def replications(request) -> int:
    """Monte Carlo replications one request asks for (0 for other commands)."""
    if request["kind"] != "simulate":
        return 0
    e = request["expect"]
    return e["reps"] * len(e.get("sizes", [e.get("n")]))


def build_pool(workload: str, seed: int, input_dir: Path) -> list[list[dict]]:
    """The workload's blocks for one seed; identical seeds give identical pools."""
    if workload not in POOL_BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, _WORKLOAD_SALT[workload]])
    blocks = []
    for b in range(POOL_BLOCKS[workload]):
        if workload == "binomial-mix":
            blocks.append(_binomial_block(rng, b))
        elif workload == "two-binomial-mix":
            blocks.append(_two_binomial_block(rng, b))
        elif workload == "paired-normal-glr":
            blocks.append(_paired_block(rng, b, input_dir))
        else:
            blocks.append(_montecarlo_block(rng, b))
    return blocks
