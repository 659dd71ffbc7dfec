"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces the public functions of glrkit's modules at the
module attributes their callers look up (``glrkit.evidence.maximize_1d``,
``glrkit.models.binomial_log_lik``, ``glrkit.asymptotics.binomial_model``,
...) with wrappers that record spans or bump counters.  Nothing inside
glrkit changes; ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, request]`` kept in memory; the self
time of a layer is the duration of its spans minus the time covered by their
child spans.  Functions called once per likelihood evaluation get counters
instead of spans, so tracing does not swamp the cheapest models.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import glrkit.asymptotics
import glrkit.cli
import glrkit.evidence
import glrkit.models
import glrkit.optimize
import glrkit.reduced
import glrkit.regions

SPAN_LAYERS = (
    "cli.main",
    "regions.parse_region",
    "regions.complement",
    "models.build",
    "models.profile",
    "optimize.maximize_1d",
    "optimize.maximize_box",
    "optimize.find_root_1d",
    "evidence.glr",
    "evidence.sup_log_lik",
    "evidence.support_set",
    "evidence.profile_curve",
    "asymptotics.simulate",
    "reduced",
)

# Reported counters.  ``optimize.converged`` and ``asymptotics.sup_calls``
# are counted too, but only to form the two ratios of ``metrics``.
COUNTERS = (
    "models.log_lik.calls",
    "models.binomial_log_lik.calls",
    "optimize.maximize_1d.iterations",
    "optimize.maximize_box.iterations",
    "optimize.objective_evals",
    "evidence.scan_log_lik_calls",
    "asymptotics.reps",
)

# (span layer, how the wrapper treats the call, attribute sites it replaces)
_SITES = (
    ("cli.main", "span", [(glrkit.cli, "main")]),
    ("regions.parse_region", "span", [
        (glrkit.regions, "parse_region"), (glrkit.cli, "parse_region"),
        (glrkit.asymptotics, "parse_region"),
    ]),
    ("regions.complement", "span", [
        (glrkit.regions, "complement"), (glrkit.cli, "complement"),
        (glrkit.asymptotics, "complement"), (glrkit.evidence, "complement"),
    ]),
    ("models.build", "factory", [
        (glrkit.models, "binomial_model"), (glrkit.models, "two_binomial_model"),
        (glrkit.models, "mean_diff_model"), (glrkit.models, "sd_ratio_model"),
        (glrkit.asymptotics, "binomial_model"),
    ]),
    ("models.build", "span", [(glrkit.models, "load_paired_csv")]),
    ("models.profile", "span", [
        (glrkit.models, "two_binomial_profile_log_lik"),
        (glrkit.models, "mean_diff_profile_log_lik"),
        (glrkit.models, "sd_ratio_profile_log_lik"),
    ]),
    ("models.binomial_log_lik.calls", "counter", [(glrkit.models, "binomial_log_lik")]),
    ("optimize.maximize_1d", "maximize", [
        (glrkit.optimize, "maximize_1d"), (glrkit.evidence, "maximize_1d"),
        (glrkit.models, "maximize_1d"),
    ]),
    ("optimize.maximize_box", "maximize", [
        (glrkit.optimize, "maximize_box"), (glrkit.evidence, "maximize_box"),
        (glrkit.models, "maximize_box"),
    ]),
    ("optimize.find_root_1d", "root", [
        (glrkit.optimize, "find_root_1d"), (glrkit.evidence, "find_root_1d"),
    ]),
    ("evidence.glr", "span", [(glrkit.evidence, "glr")]),
    ("evidence.sup_log_lik", "sup", [(glrkit.evidence, "sup_log_lik")]),
    ("evidence.support_set", "span", [(glrkit.evidence, "support_set")]),
    ("evidence.profile_curve", "span", [(glrkit.evidence, "profile_curve")]),
    ("asymptotics.simulate", "simulate", [
        (glrkit.asymptotics, "simulate_glr"), (glrkit.asymptotics, "consistency_trend"),
    ]),
    ("reduced", "span", [
        (glrkit.reduced, "glr_from_test"), (glrkit.reduced, "glr_from_pvalue_normal"),
        (glrkit.reduced, "glr_from_pvalue_general"),
    ]),
)

_SCAN_SPANS = ("evidence.support_set", "evidence.profile_curve")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, after=None, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap_log_lik(self, fn):
        counts = self.counts

        def log_lik(point):
            counts["models.log_lik.calls"] += 1
            if self._innermost() in _SCAN_SPANS:
                counts["evidence.scan_log_lik_calls"] += 1
            return fn(point)

        return log_lik

    def _make(self, name, how, fn):
        counts = self.counts
        if how == "span":
            return self._span(name, fn)
        if how == "counter":
            return self._counted(fn, name)
        if how == "factory":
            def after(args, model):
                object.__setattr__(model, "log_lik", self._wrap_log_lik(model.log_lik))
            return self._span(name, fn, after=after)
        if how in ("maximize", "root"):
            def before(args, kwargs):
                return (self._counted(args[0], "optimize.objective_evals"),) + args[1:], kwargs
            after = None
            if how == "maximize":
                def after(args, result):
                    counts[name + ".iterations"] += result.iterations
                    counts["optimize.converged"] += bool(result.converged)
            return self._span(name, fn, after=after, before=before)
        if how == "sup":
            spans, stack = self.spans, self.stack

            def before(args, kwargs):
                if any(spans[i][0] == "asymptotics.simulate" for i in stack):
                    counts["asymptotics.sup_calls"] += 1
                return args, kwargs
            return self._span(name, fn, before=before)
        if how == "simulate":
            def before(args, kwargs):
                cfg = args[0]
                sizes = 1 if fn.__name__ == "simulate_glr" else len(cfg.sample_sizes)
                counts["asymptotics.reps"] += cfg.reps * sizes
                return args, kwargs
            return self._span(name, fn, before=before)
        raise ValueError(how)

    def install(self) -> None:
        wrapped: dict[tuple[int, str], object] = {}
        for name, how, sites in _SITES:
            for module, attr in sites:
                fn = getattr(module, attr, None)
                if fn is None:
                    # A renamed or inlined entry point would otherwise report
                    # zero calls and zero time, which reads as a gain.
                    self.uninstall()
                    raise LookupError(f"{module.__name__}.{attr} is gone; update _SITES")
                key = (id(fn), name)
                if key not in wrapped:
                    wrapped[key] = self._make(name, how, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[key])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # --- results ----------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the counters and their ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out: dict[str, float] = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in COUNTERS:
            out[key] = self.counts[key]
        maximizes = calls["optimize.maximize_1d"] + calls["optimize.maximize_box"]
        out["optimize.converged_ratio"] = (
            self.counts["optimize.converged"] / maximizes if maximizes else 0.0
        )
        reps = self.counts["asymptotics.reps"]
        out["asymptotics.sup_per_rep"] = (
            self.counts["asymptotics.sup_calls"] / reps if reps else 0.0
        )
        return out
