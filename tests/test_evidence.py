"""Restricted suprema, likelihood ratios, support sets, and their laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glrkit as gk
from glrkit.evidence import strength_label
from glrkit.regions import Region, parse_region

from conftest import binomial_grid_loglik, random_binomial_instance, random_subinterval

M917 = gk.binomial_model(gk.BinomialData(9, 17))
LL_AT_02 = 9 * math.log(0.2) + 8 * math.log(0.8)
LL_AT_MLE = 9 * math.log(9 / 17) + 8 * math.log(8 / 17)


def region(text, model=M917):
    return parse_region(text, model.space)


def offset_model(model, c):
    return gk.LikelihoodModel(
        space=model.space,
        log_lik=lambda p, f=model.log_lik: f(p) + c,
        search_bounds=model.search_bounds,
        interest=model.interest,
        name=f"{model.name}+{c}",
    )


class TestSupLogLik:
    def test_monotone_piece(self):
        res = gk.sup_log_lik(M917, region("theta <= 0.2"))
        assert res.argmax[0] == 0.2
        assert res.max_value == LL_AT_02

    def test_full_space(self):
        res = gk.sup_log_lik(M917, Region.full(M917.space))
        assert res.argmax[0] == pytest.approx(9 / 17, abs=1e-8)
        assert res.max_value == pytest.approx(LL_AT_MLE, abs=1e-12)

    def test_point_region(self):
        res = gk.sup_log_lik(M917, region("theta == 0.35"))
        assert res.argmax == (0.35,)
        assert res.max_value == 9 * math.log(0.35) + 8 * math.log(0.65)

    def test_open_region_reports_unattained_supremum(self):
        res = gk.sup_log_lik(M917, region("theta < 0.2"))
        assert res.max_value == LL_AT_02
        assert res.argmax[0] == 0.2
        assert not res.attained

    def test_union_region_takes_best_piece(self):
        res = gk.sup_log_lik(M917, region("not(abs(theta - 0.5) < 0.2)"))
        # pieces [0, 0.3] and [0.7, 1]; the peak 9/17 is excluded
        assert res.argmax[0] in (pytest.approx(0.3), pytest.approx(0.7))
        grid = np.linspace(0, 1, 100001)
        lls = binomial_grid_loglik(9, 17, grid)
        keep = (grid <= 0.3) | (grid >= 0.7)
        assert res.max_value == pytest.approx(lls[keep].max(), abs=1e-9)

    def test_space_mismatch_rejected(self):
        other = gk.two_binomial_model(gk.TwoBinomialData(1, 2, 1, 2))
        with pytest.raises(ValueError):
            gk.sup_log_lik(M917, parse_region("delta > 0", other.space))


class TestGlr:
    def test_headline_binomial_ratio(self):
        rep = gk.glr(M917, region("theta > 0.2"), region("theta <= 0.2"))
        assert rep.glr == pytest.approx(math.exp(LL_AT_MLE - LL_AT_02), rel=1e-9)
        assert 89.5 < rep.glr < 92.5
        assert rep.direction == "h1"
        assert rep.strength == "strong"

    def test_identical_hypotheses_are_even(self):
        rep = gk.glr(M917, region("theta <= 0.2"), region("theta <= 0.2"))
        assert rep.glr == 1.0
        assert rep.direction == "even"
        assert rep.strength == "neutral"

    def test_reciprocity_exact(self):
        h1, h2 = region("theta > 0.3"), region("theta <= 0.3")
        a = gk.glr(M917, h1, h2)
        b = gk.glr(M917, h2, h1)
        assert a.log_glr == -b.log_glr
        assert a.glr == pytest.approx(1.0 / b.glr, rel=1e-12)

    def test_json_round_trip(self):
        rep = gk.glr(M917, region("theta > 0.2"), region("theta <= 0.2"))
        blob = rep.to_json_dict()
        assert blob["direction"] == "h1"
        assert blob["argmax_h2"] == {"theta": 0.2}
        assert isinstance(blob["glr"], float)


class TestEvidenceVsComplement:
    def test_reciprocal_of_headline_value(self):
        rep = gk.evidence_vs_complement(M917, region("theta <= 0.2"))
        assert rep.glr == pytest.approx(math.exp(LL_AT_02 - LL_AT_MLE), rel=1e-9)
        assert rep.direction == "h2"

    def test_point_hypothesis_never_beats_complement(self):
        for theta in (0.1, 9 / 17, 0.8):
            rep = gk.evidence_vs_complement(M917, region(f"theta == {theta}"))
            assert rep.glr <= 1.0 + 1e-12

    def test_band_with_peak_inside_wins(self):
        params = gk.BivariateNormalParams(0.0, 0.0, 0.05, 0.05, 0.3)
        sample = gk.generate_paired_sample(12, params, seed=3)
        cfg = gk.OptimizerConfig(abs_tol_x=1e-7, abs_tol_f=1e-9, multistart_count=2)
        model = gk.mean_diff_model(sample, cfg)
        band = parse_region("abs(gamma - 0) < 0.223", model.space)
        rep = gk.evidence_vs_complement(model, band, cfg)
        assert rep.glr > 1.0
        assert rep.direction == "h1"


class TestSupportSet:
    def test_endpoints_match_brute_force_grid(self):
        ss = gk.support_set(M917, 8.0)
        assert len(ss.intervals) == 1
        thetas = np.arange(0.0, 1.0 + 1e-7, 1e-7)
        lls = binomial_grid_loglik(9, 17, thetas)
        above = thetas[lls > lls.max() - math.log(8.0)]
        assert ss.intervals[0][0] == pytest.approx(above.min(), abs=1e-6)
        assert ss.intervals[0][1] == pytest.approx(above.max(), abs=1e-6)

    def test_boundary_values_sit_at_threshold(self):
        ss = gk.support_set(M917, 8.0)
        for lo_ll, hi_ll in ss.boundary_log_lik:
            assert lo_ll == pytest.approx(ss.threshold_log_lik, abs=1e-7)
            assert hi_ll == pytest.approx(ss.threshold_log_lik, abs=1e-7)

    def test_nesting(self):
        s8 = gk.support_set(M917, 8.0)
        s32 = gk.support_set(M917, 32.0)
        (lo8, hi8), (lo32, hi32) = s8.intervals[0], s32.intervals[0]
        assert lo32 <= lo8 and hi8 <= hi32

    def test_shrinks_to_peak_as_k_drops_to_one(self):
        tiny = gk.support_set(M917, 1.0 + 1e-7)
        lo, hi = tiny.intervals[0]
        assert hi - lo < 1e-3
        assert lo < 9 / 17 < hi

    def test_k_must_exceed_one(self):
        with pytest.raises(ValueError):
            gk.support_set(M917, 1.0)

    def test_boundary_mle_gives_one_sided_interval(self):
        model = gk.binomial_model(gk.BinomialData(0, 10))
        ss = gk.support_set(model, 8.0)
        lo, hi = ss.intervals[0]
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - math.exp(-math.log(8.0) / 10.0), abs=1e-8)

    def test_cut_off_at_a_search_bound_inside_the_domain_raises(self):
        # log lik -mu^2/2 is -0.5 at the bounds +-1, far above the 1e3
        # threshold -6.91: the reported set would be silently truncated
        narrow = gk.LikelihoodModel(
            space=gk.ParameterSpace((gk.Parameter("mu"),)),
            log_lik=lambda p: -0.5 * p["mu"] ** 2,
            search_bounds={"mu": (-1.0, 1.0)},
        )
        with pytest.raises(gk.NumericError, match="search bound"):
            gk.support_set(narrow, 1e3)
        # with k small enough the set ends inside the bounds
        lo, hi = gk.support_set(narrow, 1.5).intervals[0]
        half = math.sqrt(2.0 * math.log(1.5))
        assert lo == pytest.approx(-half, abs=1e-8)
        assert hi == pytest.approx(half, abs=1e-8)

    def test_search_bound_on_the_domain_edge_is_not_a_cut(self):
        # theta = 1 closes the binomial domain; nothing lies beyond it
        model = gk.binomial_model(gk.BinomialData(10, 10))
        lo, hi = gk.support_set(model, 8.0).intervals[0]
        assert hi == 1.0
        assert lo == pytest.approx(math.exp(-math.log(8.0) / 10.0), abs=1e-8)


class TestCoverage:
    def test_region_beating_complement_covers_its_support_set(self):
        s = region("theta >= 0.3 and theta <= 0.8")
        rep = gk.evidence_vs_complement(M917, s)
        assert rep.glr > 1.0
        assert gk.supported_region_covers_support_set(M917, s, rep.glr)

    def test_support_set_region_covers_itself(self):
        ss = gk.support_set(M917, 8.0)
        lo, hi = ss.intervals[0]
        s = region(f"theta > {lo!r} and theta < {hi!r}")
        assert gk.supported_region_covers_support_set(M917, s, 8.0)

    def test_premise_failure_returns_false(self):
        s = region("theta <= 0.1")  # far from the peak, ratio < 1
        assert not gk.supported_region_covers_support_set(M917, s, 8.0)


class TestLargestSupportedK:
    def test_matches_ratio_against_complement(self):
        a = region("theta > 0.2")
        k = gk.largest_supported_k(M917, a)
        rep = gk.evidence_vs_complement(M917, a)
        assert k == pytest.approx(rep.glr, rel=1e-12)
        assert k == pytest.approx(91.47, abs=0.5)

    def test_region_missing_the_peak_gives_one(self):
        assert gk.largest_supported_k(M917, region("theta <= 0.1")) == 1.0

    def test_grid_bisection_cross_check(self):
        # independent route: the largest k whose support set stays inside the
        # region, located by bisection over k with grid membership
        a = region("theta > 0.2")
        direct = gk.largest_supported_k(M917, a)
        thetas = np.linspace(0.0, 1.0, 10001)
        lls = binomial_grid_loglik(9, 17, thetas)
        peak = lls.max()

        def support_inside(k):
            above = thetas[lls > peak - math.log(k)]
            return bool(np.all(above > 0.2))

        lo_k, hi_k = 1.0 + 1e-9, 1e6
        assert support_inside(lo_k) and not support_inside(hi_k)
        for _ in range(60):
            mid = math.sqrt(lo_k * hi_k)
            if support_inside(mid):
                lo_k = mid
            else:
                hi_k = mid
        assert direct == pytest.approx(lo_k, rel=2e-3)

    def test_full_space_minus_far_point(self):
        a = region("not(theta == 0.05)")
        direct = gk.largest_supported_k(M917, a)
        rep = gk.evidence_vs_complement(M917, a)
        assert direct == pytest.approx(rep.glr, rel=1e-6)


class TestProfileCurve:
    def test_binomial_peak_at_mle(self):
        curve = gk.profile_curve(M917, np.linspace(0.0, 1.0, 1001))
        assert curve.grid[curve.peak_index] == pytest.approx(9 / 17, abs=1e-3)
        assert curve.normalized_lik.max() == pytest.approx(1.0, abs=1e-5)
        assert curve.normalized_lik.max() <= 1.0

    def test_single_point_grid_at_mle_is_one(self):
        mle = gk.sup_log_lik(M917, Region.full(M917.space)).argmax[0]
        curve = gk.profile_curve(M917, np.array([mle]))
        assert curve.normalized_lik[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_binomial_value_at_margin(self):
        model = gk.two_binomial_model(gk.TwoBinomialData(83, 88, 69, 76))
        curve = gk.profile_curve(model, np.linspace(-0.2, 0.2, 401))
        at_margin = curve.normalized_lik[np.argmin(np.abs(curve.grid + 0.1))]
        assert at_margin == pytest.approx(1.0 / 138.0, rel=0.05)

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            gk.profile_curve(M917, np.linspace(-0.5, 0.5, 11))

    def test_csv_header_exact(self, tmp_path):
        curve = gk.profile_curve(M917, np.linspace(0.0, 1.0, 11))
        out = tmp_path / "curve.csv"
        with open(out, "w") as fh:
            curve.write_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,normalized_likelihood"
        assert len(lines) == 12


class TestStrengthLabel:
    def test_benchmarks(self):
        assert strength_label(1.0) == "neutral"
        assert strength_label(5.0) == "weak"
        assert strength_label(8.0) == "fairly strong"
        assert strength_label(31.9) == "fairly strong"
        assert strength_label(32.0) == "strong"
        assert strength_label(1 / 40) == "strong"
        assert strength_label(0.0) == "strong"
        assert strength_label(math.inf) == "strong"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            strength_label(-0.1)


# --- randomized laws ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    data=st.tuples(st.integers(1, 40), st.integers(0, 40)),
    cut=st.floats(min_value=0.05, max_value=0.95),
)
def test_reciprocity_and_offset_invariance(data, cut):
    n, x_raw = data
    x = min(x_raw, n)
    model = gk.binomial_model(gk.BinomialData(x, n))
    h1 = parse_region(f"theta > {cut!r}", model.space)
    h2 = parse_region(f"theta <= {cut!r}", model.space)
    a = gk.glr(model, h1, h2)
    b = gk.glr(model, h2, h1)
    assert a.log_glr == -b.log_glr

    shifted = offset_model(model, 17.25)
    c = gk.glr(shifted, h1, h2)
    assert c.glr == pytest.approx(a.glr, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    data=st.tuples(st.integers(1, 40), st.integers(0, 40)),
    bounds=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_nested_regions_order_suprema_and_glr(data, bounds):
    n, x_raw = data
    x = min(x_raw, n)
    model = gk.binomial_model(gk.BinomialData(x, n))
    inner_lo, inner_hi = sorted(bounds[:2])
    if inner_hi - inner_lo < 1e-6:
        inner_hi = min(1.0, inner_lo + 1e-6)
        inner_lo = inner_hi - 1e-6
    pad_lo, pad_hi = bounds[2] * inner_lo, inner_hi + bounds[3] * (1 - inner_hi)
    inner = Region.from_intervals(
        model.space, theta=[gk.Interval(inner_lo, inner_hi)]
    )
    outer = Region.from_intervals(model.space, theta=[gk.Interval(pad_lo, pad_hi)])
    s_inner = gk.sup_log_lik(model, inner).max_value
    s_outer = gk.sup_log_lik(model, outer).max_value
    assert s_inner <= s_outer + 1e-9
    # a narrower hypothesis can never be strictly supported over one
    # containing it
    rep = gk.glr(model, inner, outer)
    assert rep.glr <= 1.0 + 1e-12


def test_dominating_region_wins_and_witness_exists():
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 1.0, 4001)
    checked_dominance = 0
    for _ in range(200):
        x, n = random_binomial_instance(rng)
        model = gk.binomial_model(gk.BinomialData(x, n))
        a1, b1 = random_subinterval(rng)
        a2, b2 = random_subinterval(rng)
        h1 = Region.from_intervals(model.space, theta=[gk.Interval(a1, b1)])
        h2 = Region.from_intervals(model.space, theta=[gk.Interval(a2, b2)])
        lls = binomial_grid_loglik(x, n, grid)
        in1 = (grid >= a1) & (grid <= b1)
        in2 = (grid >= a2) & (grid <= b2)
        rep = gk.glr(model, h1, h2)
        # whenever the whole of h1 sits above the best of h2, h1 must win
        if lls[in1].min() > lls[in2].max():
            checked_dominance += 1
            assert rep.glr > 1.0
        # whenever h1 wins, some point of h1 beats everything in h2
        if rep.glr > 1.0:
            assert lls[in1].max() > lls[in2].max() - 1e-9
    assert checked_dominance > 0


class TestExtremeRatios:
    def test_vanishing_denominator_gives_infinite_ratio(self):
        model = gk.binomial_model(gk.BinomialData(0, 10))
        h1 = region("theta == 0", model)
        h2 = region("theta == 1", model)
        rep = gk.glr(model, h1, h2)
        assert rep.glr == math.inf
        assert rep.log_glr == math.inf
        assert rep.direction == "h1"
        assert rep.strength == "strong"
        assert rep.to_json_dict()["glr"] == "inf"

    def test_both_hypotheses_vanishing_is_an_error(self):
        model = gk.binomial_model(gk.BinomialData(5, 10))
        with pytest.raises(gk.NumericError):
            gk.glr(model, region("theta == 0", model), region("theta == 1", model))
