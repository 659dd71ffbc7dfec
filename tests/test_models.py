"""Binomial, two-group binomial profile, and paired bivariate-normal models."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glrkit as gk
from glrkit.models import _log_lik_from_stats

from conftest import binomial_grid_loglik


@pytest.fixture(scope="module")
def sample():
    params = gk.BivariateNormalParams(
        mu_t=0.02, mu_r=0.0, sigma_t=0.10, sigma_r=0.12, rho=0.6
    )
    return gk.generate_paired_sample(20, params, seed=7)


class TestBinomial:
    def test_direct_value(self):
        d = gk.BinomialData(9, 17)
        assert gk.binomial_log_lik(d, 0.2) == 9 * math.log(0.2) + 8 * math.log(0.8)

    def test_zero_log_zero_convention(self):
        assert gk.binomial_log_lik(gk.BinomialData(0, 5), 0.0) == 0.0
        assert gk.binomial_log_lik(gk.BinomialData(5, 5), 1.0) == 0.0

    def test_vanishing_likelihood_is_minus_inf(self):
        assert gk.binomial_log_lik(gk.BinomialData(3, 5), 0.0) == -math.inf
        assert gk.binomial_log_lik(gk.BinomialData(3, 5), 1.0) == -math.inf

    def test_difference_reproduces_headline_ratio(self):
        d = gk.BinomialData(9, 17)
        diff = gk.binomial_log_lik(d, 9 / 17) - gk.binomial_log_lik(d, 0.2)
        assert math.exp(diff) == pytest.approx(91.47, abs=0.01)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            gk.binomial_log_lik(gk.BinomialData(9, 17), 1.2)
        with pytest.raises(ValueError):
            gk.BinomialData(18, 17)
        with pytest.raises(ValueError):
            gk.BinomialData(0, 0)


class TestTwoBinomial:
    D = gk.TwoBinomialData(83, 88, 69, 76)

    def test_peak_value_is_sum_of_separate_maxima(self):
        peak = gk.two_binomial_profile_log_lik(self.D, self.D.delta_hat)
        separate = gk.binomial_log_lik(
            gk.BinomialData(83, 88), 83 / 88
        ) + gk.binomial_log_lik(gk.BinomialData(69, 76), 69 / 76)
        assert peak == pytest.approx(separate, abs=1e-9)

    def test_noninferiority_margin_ratio(self):
        peak = gk.two_binomial_profile_log_lik(self.D, self.D.delta_hat)
        at_margin = gk.two_binomial_profile_log_lik(self.D, -0.1)
        assert math.exp(peak - at_margin) == pytest.approx(138.0, rel=0.05)

    def test_zero_difference_ratio(self):
        peak = gk.two_binomial_profile_log_lik(self.D, self.D.delta_hat)
        at_zero = gk.two_binomial_profile_log_lik(self.D, 0.0)
        assert math.exp(peak - at_zero) == pytest.approx(1.4, abs=0.1)

    def test_profile_continuous_on_grid(self):
        deltas = np.linspace(-0.3, 0.3, 121)
        values = np.array(
            [gk.two_binomial_profile_log_lik(self.D, d) for d in deltas]
        )
        assert np.all(np.isfinite(values))
        assert np.abs(np.diff(values)).max() < 2.0  # no jumps at this spacing

    def test_matches_nuisance_grid_oracle(self):
        # oracle: brute-force maximization over the baseline rate
        for delta in (-0.15, -0.1, 0.0, 0.0353, 0.2):
            lo, hi = max(0.0, -delta), min(1.0, 1.0 - delta)
            p2 = np.linspace(lo, hi, 200001)
            joint = binomial_grid_loglik(83, 88, np.clip(p2 + delta, 0, 1)) \
                + binomial_grid_loglik(69, 76, p2)
            oracle = joint.max()
            got = gk.two_binomial_profile_log_lik(self.D, delta)
            assert got == pytest.approx(oracle, abs=1e-7)

    def test_extreme_differences_have_vanishing_likelihood(self):
        assert gk.two_binomial_profile_log_lik(self.D, 1.0) == -math.inf
        with pytest.raises(ValueError):
            gk.two_binomial_profile_log_lik(self.D, 1.5)

    def test_array_form_rejects_out_of_range_deltas(self):
        model = gk.two_binomial_model(self.D)
        with pytest.raises(ValueError):
            model.log_lik_array(np.array([0.0, 1.5]))


def golden_section_profile(data, delta):
    """The former numeric profile, kept as an oracle: golden-section search
    of the joint log-likelihood over the baseline rate p2."""
    lo, hi = max(0.0, -delta), min(1.0, 1.0 - delta)

    def joint(p2):
        p1 = min(1.0, max(0.0, p2 + delta))
        return gk.binomial_log_lik(
            gk.BinomialData(data.x1, data.n1), p1
        ) + gk.binomial_log_lik(gk.BinomialData(data.x2, data.n2), p2)

    return gk.maximize_1d(joint, lo, hi).max_value


def counts(draw, n):
    """Successes out of n, mostly the degenerate 0 and n."""
    return draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))


@st.composite
def two_binomial_data(draw):
    n1 = draw(st.integers(1, 400))
    n2 = draw(st.integers(1, 400))
    return gk.TwoBinomialData(counts(draw, n1), n1, counts(draw, n2), n2)


class TestTwoBinomialClosedForm:
    # The oracle forms p1 = p2 + delta in floating point, which cannot
    # resolve 1 - p1 when delta is within rounding of +-1 (see the next
    # test), so the random delta keeps 1e-3 away from +-1; the exact
    # endpoints are always checked.
    @settings(max_examples=150, deadline=None)
    @given(data=two_binomial_data(), other=st.floats(-0.999, 0.999))
    def test_matches_golden_section_oracle(self, data, other):
        for delta in (-1.0, 0.0, 1.0, data.delta_hat, other):
            got = gk.two_binomial_profile_log_lik(data, delta)
            want = golden_section_profile(data, delta)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_keeps_precision_next_to_delta_one(self):
        # delta = 1 - 2^-53 leaves p2 in [0, 2^-53]; with one success in
        # group 2 and one failure in group 1 the profile is
        # max log(p2) + log(2^-53 - p2) = 2 log(2^-54)
        data = gk.TwoBinomialData(0, 1, 1, 1)
        delta = 1.0 - 2.0**-53
        expected = -108.0 * math.log(2.0)
        assert gk.two_binomial_profile_log_lik(data, delta) == pytest.approx(
            expected, abs=1e-9)
        mirrored = gk.TwoBinomialData(1, 1, 0, 1)
        assert gk.two_binomial_profile_log_lik(mirrored, -delta) == pytest.approx(
            expected, abs=1e-9)
        arr = gk.two_binomial_model(data).log_lik_array(np.array([delta]))
        assert arr[0] == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=two_binomial_data())
    def test_array_form_matches_scalar_form(self, data):
        deltas = np.concatenate(
            [[-1.0, 0.0, 1.0, data.delta_hat], np.linspace(-1.0, 1.0, 201)]
        )
        arr = gk.two_binomial_model(data).log_lik_array(deltas)
        for delta, a in zip(deltas, arr):
            s = gk.two_binomial_profile_log_lik(data, float(delta))
            if math.isinf(s):
                assert a == s
            else:
                # a last-bit difference between numpy's and math's log or
                # cube root is all that may separate the two forms
                assert abs(a - s) <= 1e-12 * max(1.0, abs(s))

    def test_binomial_array_form_matches_scalar_form(self):
        for x, n in ((0, 7), (7, 7), (9, 17)):
            model = gk.binomial_model(gk.BinomialData(x, n))
            thetas = np.linspace(0.0, 1.0, 101)
            arr = model.log_lik_array(thetas)
            for theta, a in zip(thetas, arr):
                s = gk.binomial_log_lik(gk.BinomialData(x, n), float(theta))
                assert a == s or abs(a - s) <= 1e-12 * max(1.0, abs(s))


def scan_models():
    return [
        gk.binomial_model(gk.BinomialData(9, 17)),
        gk.binomial_model(gk.BinomialData(0, 10)),
        gk.two_binomial_model(gk.TwoBinomialData(83, 88, 69, 76)),
        gk.two_binomial_model(gk.TwoBinomialData(12, 12, 0, 30)),
    ]


class TestArrayScans:
    @pytest.mark.parametrize("model", scan_models(), ids=lambda m: m.name)
    def test_support_set_same_through_array_and_loop(self, model):
        loop = dataclasses.replace(model, log_lik_array=None)
        for k in (8.0, 100.0):
            a = gk.support_set(model, k)
            b = gk.support_set(loop, k)
            assert len(a.intervals) == len(b.intervals)
            for (alo, ahi), (blo, bhi) in zip(a.intervals, b.intervals):
                assert alo == pytest.approx(blo, abs=1e-12)
                assert ahi == pytest.approx(bhi, abs=1e-12)
            assert a.boundary_log_lik == b.boundary_log_lik

    @pytest.mark.parametrize("model", scan_models(), ids=lambda m: m.name)
    def test_profile_curve_same_through_array_and_loop(self, model):
        loop = dataclasses.replace(model, log_lik_array=None)
        lo, hi = model.search_bounds[model.interest]
        grid = np.linspace(lo, hi, 801)
        a = gk.profile_curve(model, grid)
        b = gk.profile_curve(loop, grid)
        np.testing.assert_allclose(a.normalized_lik, b.normalized_lik,
                                   rtol=1e-10, atol=0.0)
        assert a.peak_index == b.peak_index

    def test_support_set_does_not_scan_point_by_point(self):
        # guard against sliding back to one scalar log_lik call per grid point
        model = gk.two_binomial_model(gk.TwoBinomialData(83, 88, 69, 76))
        calls = 0
        scalar = model.log_lik

        def counted(point):
            nonlocal calls
            calls += 1
            return scalar(point)

        gk.support_set(dataclasses.replace(model, log_lik=counted), 8.0)
        assert 0 < calls < gk.OptimizerConfig().scan_points

    def test_array_form_must_keep_the_grid_shape(self):
        model = gk.binomial_model(gk.BinomialData(9, 17))
        broken = dataclasses.replace(model, log_lik_array=lambda xs: 0.0)
        with pytest.raises(ValueError, match="shape"):
            gk.profile_curve(broken, np.linspace(0.0, 1.0, 11))

    def test_array_form_needs_a_one_parameter_model(self):
        space = gk.ParameterSpace.from_bounds(a=(0.0, 1.0), b=(0.0, 1.0))
        with pytest.raises(ValueError):
            gk.LikelihoodModel(
                space=space,
                log_lik=lambda p: 0.0,
                search_bounds={"a": (0.0, 1.0), "b": (0.0, 1.0)},
                interest="a",
                log_lik_array=lambda xs: np.zeros_like(xs),
            )


class TestBivariateNormalDensity:
    def test_suffstat_form_matches_direct_sum(self, sample):
        p = gk.BivariateNormalParams(0.01, -0.02, 0.11, 0.13, 0.45)
        direct = gk.bivnorm_log_lik(sample, p)
        fast = _log_lik_from_stats(
            sample, p.mu_t, p.mu_r, p.sigma_t**2, p.sigma_r**2,
            p.rho * p.sigma_t * p.sigma_r,
        )
        assert fast == pytest.approx(direct, abs=1e-9)

    def test_value_at_sample_mle_matches_closed_form(self, sample):
        n = sample.n
        s_tt, s_rr, s_tr = (v / n for v in sample.scatter)
        det = s_tt * s_rr - s_tr**2
        closed = -n * (math.log(2 * math.pi) + 1.0 + 0.5 * math.log(det))
        at_mle = gk.bivnorm_log_lik(
            sample,
            gk.BivariateNormalParams(
                sample.mean_t, sample.mean_r,
                math.sqrt(s_tt), math.sqrt(s_rr),
                s_tr / math.sqrt(s_tt * s_rr),
            ),
        )
        assert at_mle == pytest.approx(closed, abs=1e-10)

    def test_zero_correlation_factorizes(self, sample):
        p = gk.BivariateNormalParams(0.0, 0.01, 0.1, 0.12, 0.0)
        joint = gk.bivnorm_log_lik(sample, p)

        def univariate(y, mu, sigma):
            z = (y - mu) / sigma
            return float(
                (-0.5 * z * z - math.log(sigma) - 0.5 * math.log(2 * math.pi)).sum()
            )

        split = univariate(sample.y_t, 0.0, 0.1) + univariate(sample.y_r, 0.01, 0.12)
        assert joint == pytest.approx(split, abs=1e-9)

    def test_translation_invariance(self, sample):
        p = gk.BivariateNormalParams(0.02, 0.0, 0.1, 0.12, 0.6)
        shift = 0.37
        shifted = gk.PairedSample(sample.y_t + shift, sample.y_r + shift)
        p_shift = gk.BivariateNormalParams(
            p.mu_t + shift, p.mu_r + shift, p.sigma_t, p.sigma_r, p.rho
        )
        assert gk.bivnorm_log_lik(shifted, p_shift) == pytest.approx(
            gk.bivnorm_log_lik(sample, p), abs=1e-9
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            gk.BivariateNormalParams(0, 0, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gk.BivariateNormalParams(0, 0, 1.0, 1.0, 1.0)


class TestMeanDiffProfile:
    def test_peak_at_mean_difference(self, sample):
        d_bar = float((sample.y_t - sample.y_r).mean())
        peak = gk.mean_diff_profile_log_lik(sample, d_bar)
        nearby = gk.mean_diff_profile_log_lik(sample, d_bar + 0.01)
        assert peak > nearby

    def test_matches_univariate_reduction_oracle(self, sample):
        # oracle: with the mean difference pinned, the joint likelihood
        # factorizes into the within-pair differences (univariate normal with
        # profiled variance) times a gamma-free regression term, so the
        # normalized profile is a pure function of the one-sample t statistic
        d = sample.y_t - sample.y_r
        n = sample.n
        d_bar = float(d.mean())
        sd1 = float(d.std(ddof=1))
        peak = gk.mean_diff_profile_log_lik(sample, d_bar)
        for gamma in np.linspace(d_bar - 5 * sd1, d_bar + 5 * sd1, 21):
            t = (d_bar - gamma) / (sd1 / math.sqrt(n))
            oracle = -(n / 2.0) * math.log1p(t * t / (n - 1))
            got = gk.mean_diff_profile_log_lik(sample, gamma) - peak
            assert got == pytest.approx(oracle, abs=1e-8)

    def test_location_shift_invariance(self, sample):
        shift = 1.7
        shifted = gk.PairedSample(sample.y_t + shift, sample.y_r + shift)
        g = 0.05
        a = gk.mean_diff_profile_log_lik(sample, g)
        b = gk.mean_diff_profile_log_lik(shifted, g)
        assert b == pytest.approx(a, abs=1e-7)

    def test_degenerate_differences_rejected(self):
        y_r = np.array([0.0, 0.5, 1.0, 1.5])
        with pytest.raises(ValueError):
            gk.mean_diff_model(gk.PairedSample(y_r + 0.3, y_r))


class TestSdRatioProfile:
    def test_peak_at_mle_ratio(self, sample):
        r_hat = sample.sd_t / sample.sd_r
        peak = gk.sd_ratio_profile_log_lik(sample, r_hat)
        assert peak > gk.sd_ratio_profile_log_lik(sample, r_hat * 1.2)
        assert peak > gk.sd_ratio_profile_log_lik(sample, r_hat / 1.2)

    def test_matches_decorrelation_closed_form(self, sample):
        # oracle: with sigma_t = r sigma_r, the rotated variables
        # w1 = y_t - r y_r and w2 = y_t + r y_r are uncorrelated, so the
        # constrained supremum is two univariate profiled normals plus the
        # log-Jacobian n log(2 r)
        n = sample.n

        def closed(r):
            w1 = sample.y_t - r * sample.y_r
            w2 = sample.y_t + r * sample.y_r
            v1, v2 = float(w1.var()), float(w2.var())
            return (
                n * math.log(2.0 * r)
                - n * math.log(2.0 * math.pi)
                - 0.5 * n * (math.log(v1) + math.log(v2))
                - n
            )

        r_hat = sample.sd_t / sample.sd_r
        for r in np.exp(np.linspace(math.log(r_hat / 2), math.log(r_hat * 2), 9)):
            assert gk.sd_ratio_profile_log_lik(sample, r) == pytest.approx(
                closed(r), abs=1e-7
            )

    def test_scaling_equivariance(self, sample):
        c = 1.8
        scaled = gk.PairedSample(c * sample.y_t, sample.y_r)
        assert scaled.sd_t / scaled.sd_r == pytest.approx(
            c * sample.sd_t / sample.sd_r, rel=1e-12
        )
        r = sample.sd_t / sample.sd_r
        base_drop = gk.sd_ratio_profile_log_lik(sample, r) - gk.sd_ratio_profile_log_lik(
            sample, 1.3 * r
        )
        scaled_drop = gk.sd_ratio_profile_log_lik(
            scaled, c * r
        ) - gk.sd_ratio_profile_log_lik(scaled, 1.3 * c * r)
        assert scaled_drop == pytest.approx(base_drop, abs=1e-7)

    def test_nonpositive_ratio_vanishes(self, sample):
        assert gk.sd_ratio_profile_log_lik(sample, 0.0) == -math.inf
        assert gk.sd_ratio_profile_log_lik(sample, -1.0) == -math.inf


class TestDataHandling:
    def test_generator_is_deterministic(self):
        p = gk.BivariateNormalParams(0.1, 0.0, 0.2, 0.3, -0.4)
        a = gk.generate_paired_sample(10, p, seed=42)
        b = gk.generate_paired_sample(10, p, seed=42)
        assert np.array_equal(a.y_t, b.y_t) and np.array_equal(a.y_r, b.y_r)

    def test_generator_moments(self):
        p = gk.BivariateNormalParams(0.5, -0.25, 0.2, 0.4, 0.7)
        s = gk.generate_paired_sample(60000, p, seed=1)
        assert s.mean_t == pytest.approx(0.5, abs=0.01)
        assert s.mean_r == pytest.approx(-0.25, abs=0.01)
        assert s.sd_t == pytest.approx(0.2, abs=0.01)
        assert s.sd_r == pytest.approx(0.4, abs=0.01)
        assert s.corr == pytest.approx(0.7, abs=0.02)

    def test_csv_round_trip(self):
        buf = io.StringIO("y_t,y_r\n0.1,0.2\n0.3,0.4\n-0.5,0.6\n")
        s = gk.load_paired_csv(buf)
        assert s.n == 3
        assert s.y_t.tolist() == [0.1, 0.3, -0.5]

    def test_csv_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            gk.load_paired_csv(io.StringIO("a,b\n1,2\n3,4\n5,6\n"))

    def test_csv_bad_value(self):
        with pytest.raises(ValueError, match="line 3"):
            gk.load_paired_csv(io.StringIO("y_t,y_r\n1,2\nx,4\n5,6\n"))

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            gk.PairedSample([1.0, 2.0], [0.5, 1.5])


class TestBinomialSupportScaling:
    def test_maximizer_sits_exactly_at_the_observed_rate(self):
        for x, n in ((9, 17), (3, 10), (40, 50)):
            model = gk.binomial_model(gk.BinomialData(x, n))
            top = gk.sup_log_lik(model, gk.Region.full(model.space))
            assert top.argmax[0] == pytest.approx(x / n, abs=1e-8)

    def test_support_interval_shrinks_as_n_grows_at_fixed_rate(self):
        widths = []
        for scale in (1, 2, 4, 8):
            model = gk.binomial_model(gk.BinomialData(9 * scale, 17 * scale))
            lo, hi = gk.support_set(model, 8.0).intervals[0]
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2] > widths[3]
