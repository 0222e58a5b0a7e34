"""Tests for the posterior-predictive failure-count distribution."""

import numpy as np
import pytest

from repro import obs
from repro.backend import special as sc
from repro.bayes.laplace import fit_laplace
from repro.bayes.mcmc.chains import ChainSettings
from repro.bayes.mcmc.gibbs_failure_time import gibbs_failure_time
from repro.core import prediction
from repro.core.prediction import predict_failure_counts
from repro.core.reliability import reliability_increment
from repro.core.vb1 import fit_vb1


class TestVBPredictive:
    def test_pmf_is_probability_vector(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 10_000.0)
        assert np.all(pred.pmf >= 0.0)
        assert pred.pmf.sum() + pred.tail_mass == pytest.approx(1.0, abs=1e-8)

    def test_zero_count_probability_equals_reliability(
        self, vb2_times, times_data
    ):
        # P(K = 0) is the software reliability by definition (Eq. 3).
        pred = predict_failure_counts(vb2_times, times_data.horizon, 10_000.0)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        assert pred.probability_of_no_failure() == pytest.approx(
            vb2_times.reliability_point(c), rel=1e-9
        )

    def test_mean_matches_posterior_expectation(self, vb2_times, times_data, rng):
        # E[K] = E[omega c(beta)] under the posterior.
        u = 10_000.0
        pred = predict_failure_counts(vb2_times, times_data.horizon, u)
        draws = vb2_times.sample(400_000, rng)
        c = reliability_increment(1.0, times_data.horizon, u)
        expected = float(np.mean(draws[:, 0] * np.asarray(c(draws[:, 1]))))
        assert pred.mean() == pytest.approx(expected, rel=0.01)

    def test_predictive_is_overdispersed(self, vb2_times, times_data):
        # Parameter uncertainty makes Var[K] > E[K] (negative binomial).
        pred = predict_failure_counts(vb2_times, times_data.horizon, 100_000.0)
        support = pred.support
        mean = float(support @ pred.pmf)
        var = float((support - mean) ** 2 @ pred.pmf)
        assert var > mean

    def test_quantiles_monotone(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 50_000.0)
        q50 = pred.quantile(0.5)
        q95 = pred.quantile(0.95)
        q999 = pred.quantile(0.999)
        assert q50 <= q95 <= q999
        assert pred.cdf(q95) >= 0.95

    def test_zero_window(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 0.0)
        assert pred.probability_of_no_failure() == pytest.approx(1.0)

    def test_quantile_validation(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 1000.0)
        with pytest.raises(ValueError):
            pred.quantile(0.0)

    def test_cdf_below_support(self, vb2_times, times_data):
        pred = predict_failure_counts(vb2_times, times_data.horizon, 1000.0)
        assert pred.cdf(-1) == 0.0


class TestOtherPosteriorTypes:
    def test_empirical_predictive(self, times_data, info_prior_times):
        posterior = gibbs_failure_time(
            times_data,
            info_prior_times,
            settings=ChainSettings(n_samples=4000, burn_in=1500, thin=2, seed=41),
        ).posterior()
        pred = predict_failure_counts(posterior, times_data.horizon, 10_000.0)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        assert pred.probability_of_no_failure() == pytest.approx(
            posterior.reliability_point(c), rel=1e-9
        )

    def test_laplace_predictive_is_plugin_poisson(
        self, times_data, info_prior_times
    ):
        posterior = fit_laplace(times_data, info_prior_times)
        pred = predict_failure_counts(posterior, times_data.horizon, 10_000.0)
        c = reliability_increment(1.0, times_data.horizon, 10_000.0)
        mean = posterior.mean("omega") * float(c(posterior.mean("beta")))
        assert pred.probability_of_no_failure() == pytest.approx(
            np.exp(-mean), rel=1e-9
        )

    def test_agreement_between_vb_and_mcmc_predictives(
        self, vb2_times, times_data, info_prior_times
    ):
        posterior = gibbs_failure_time(
            times_data,
            info_prior_times,
            settings=ChainSettings(n_samples=8000, burn_in=2000, thin=2, seed=42),
        ).posterior()
        u = 10_000.0
        vb_pred = predict_failure_counts(vb2_times, times_data.horizon, u)
        mc_pred = predict_failure_counts(posterior, times_data.horizon, u)
        size = min(vb_pred.pmf.size, mc_pred.pmf.size, 6)
        assert vb_pred.pmf[:size] == pytest.approx(mc_pred.pmf[:size], abs=0.01)


def _dense_vb_predictive(posterior, te, u, max_count=1000, tail_eps=1e-10):
    """The VB predictive as one dense ``(rows, max_count + 1)`` matrix,
    truncated afterwards: the formula the blocked evaluation replaces."""
    c = reliability_increment(1.0, te, u)
    quad_w, c_values, a_omega, b_omega = posterior.reliability_tables(c)
    k = np.arange(max_count + 1)
    flat_w = quad_w.ravel()
    flat_c = np.clip(c_values.ravel(), 0.0, None)
    flat_a = np.broadcast_to(a_omega, c_values.shape).ravel()
    flat_b = np.broadcast_to(b_omega, c_values.shape).ravel()
    pmf = np.zeros(max_count + 1)
    zero = flat_c <= 0.0
    if np.any(zero):
        pmf[0] += float(flat_w[zero].sum())
    pos = ~zero
    if np.any(pos):
        a = flat_a[pos][:, None]
        log_odds = np.log(flat_c[pos] / (flat_b[pos] + flat_c[pos]))[:, None]
        log_base = (flat_a * np.log(flat_b / (flat_b + flat_c)))[pos][:, None]
        log_comb = (
            sc.gammaln(a + k[None, :])
            - sc.gammaln(a)
            - sc.gammaln(k + 1.0)[None, :]
        )
        contributions = np.exp(log_comb + log_base + k[None, :] * log_odds)
        pmf += flat_w[pos] @ contributions
    pmf = prediction._truncate(pmf, tail_eps)
    return pmf, max(1.0 - float(pmf.sum()), 0.0)


@pytest.fixture(scope="module")
def vb_posteriors(vb2_times, vb1_times, vb2_grouped, grouped_data, info_prior_grouped):
    return {
        "VB2-times": vb2_times,
        "VB1-times": vb1_times,
        "VB2-grouped": vb2_grouped,
        "VB1-grouped": fit_vb1(grouped_data, info_prior_grouped, alpha0=1.0),
    }


POSTERIORS = ["VB2-times", "VB1-times", "VB2-grouped", "VB1-grouped"]


class TestBlockedVBPredictive:
    """The blocked, early-stopped pmf equals the dense one bit for bit.

    The kept supports here stay below 100 counts, so only the leading
    columns of the dense matrix-vector product are compared."""

    @staticmethod
    def _horizon(name, times_data, grouped_data):
        return (times_data if "times" in name else grouped_data).horizon

    @pytest.mark.parametrize("name", POSTERIORS)
    @pytest.mark.parametrize("u", [1e3, 1e4, 1e5, 1e6, 1e7])
    def test_matches_dense_reference(
        self, vb_posteriors, times_data, grouped_data, name, u
    ):
        te = self._horizon(name, times_data, grouped_data)
        posterior = vb_posteriors[name]
        pmf, tail = _dense_vb_predictive(posterior, te, u)
        pred = predict_failure_counts(posterior, te, u)
        assert np.array_equal(pred.pmf, pmf)
        assert pred.tail_mass == tail

    @pytest.mark.parametrize("name", POSTERIORS)
    def test_loop_runs_to_the_end(
        self, vb_posteriors, times_data, grouped_data, name
    ):
        # The kept support at u = 1e7 is wider than 38 counts, so the
        # cumulative mass never reaches 1 - tail_eps and both blocks run.
        te = self._horizon(name, times_data, grouped_data)
        posterior = vb_posteriors[name]
        max_count = prediction._BLOCK + 5
        pmf, tail = _dense_vb_predictive(posterior, te, 1e7, max_count=max_count)
        pred = predict_failure_counts(posterior, te, 1e7, max_count=max_count)
        assert pred.pmf.size == max_count + 1
        assert np.array_equal(pred.pmf, pmf)
        assert pred.tail_mass == tail

    @pytest.mark.parametrize("name", POSTERIORS)
    def test_stops_inside_the_first_block(
        self, vb_posteriors, times_data, grouped_data, name
    ):
        te = self._horizon(name, times_data, grouped_data)
        posterior = vb_posteriors[name]
        pmf, tail = _dense_vb_predictive(posterior, te, 1e4, tail_eps=0.5)
        with obs.capture() as summary:
            pred = predict_failure_counts(posterior, te, 1e4, tail_eps=0.5)
        assert pmf.size < prediction._BLOCK
        assert np.array_equal(pred.pmf, pmf)
        assert pred.tail_mass == tail
        (span,) = [e for e in summary.events if e.get("name") == "prediction.counts"]
        assert span["columns"] == prediction._BLOCK


class TestPredictionSpan:
    def test_span_attributes(self, vb2_times, times_data):
        with obs.capture() as summary:
            pred = predict_failure_counts(vb2_times, times_data.horizon, 1e4)
        (span,) = [e for e in summary.events if e.get("name") == "prediction.counts"]
        assert span["method"] == "VB2"
        assert span["support"] == pred.pmf.size
        assert span["columns"] == prediction._BLOCK
        assert "wall_s" not in span

    def test_dense_paths_report_every_column(self, times_data, info_prior_times):
        posterior = fit_laplace(times_data, info_prior_times)
        with obs.capture() as summary:
            pred = predict_failure_counts(
                posterior, times_data.horizon, 1e4, max_count=200
            )
        (span,) = [e for e in summary.events if e.get("name") == "prediction.counts"]
        assert span["method"] == posterior.method_name
        assert span["support"] == pred.pmf.size
        assert span["columns"] == 201
