import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import (
    MlEstimates,
    confidence_bounds,
    infer_channel,
)
from cvqkdsim.estimation import _chi2_ppf
from reference import ml_estimate, xi_pir, xi_under_calibration


def simulate_linear_model(m, t, sigma2, va, rng):
    x = rng.standard_normal(m) * math.sqrt(va)
    y = t * x + rng.standard_normal(m) * math.sqrt(sigma2)
    return x, y


class TestMlEstimate:
    def test_exact_line(self):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        est = ml_estimate(x, 2.0 * x)
        assert est.t_hat == pytest.approx(2.0, abs=1e-15)
        assert est.sigma2_hat == pytest.approx(0.0, abs=1e-15)
        assert est.va_hat == pytest.approx(np.mean(x**2))
        assert est.m == 4

    def test_all_zero_x_degenerate(self):
        with pytest.raises(ValueError, match=r"sum of x\^2 is zero; t_hat undefined"):
            ml_estimate(np.zeros(10), np.ones(10))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ml_estimate(np.ones(5), np.ones(6))

    def test_slope_concentrates(self):
        rng = np.random.default_rng(20)
        m, t, sigma2, va = 100_000, 0.5, 1.2, 5.0
        x, y = simulate_linear_model(m, t, sigma2, va, rng)
        est = ml_estimate(x, y)
        assert abs(est.t_hat - t) <= 4.0 * math.sqrt(sigma2 / est.sum_x2)

    def test_scaled_residual_variance_is_chi_square(self):
        # m * sigma2_hat / sigma2 has mean m - 1 over repetitions
        rng = np.random.default_rng(21)
        m, trials, sigma2 = 100, 1000, 1.2
        values = []
        for _ in range(trials):
            x, y = simulate_linear_model(m, 0.5, sigma2, 5.0, rng)
            values.append(m * ml_estimate(x, y).sigma2_hat / sigma2)
        tolerance = 4.0 * math.sqrt(2.0 * (m - 1) / trials)
        assert abs(np.mean(values) - (m - 1)) < tolerance

    def test_estimator_independence(self):
        rng = np.random.default_rng(23)
        trials, m = 1000, 200
        t_hats, s2_hats = [], []
        for _ in range(trials):
            x, y = simulate_linear_model(m, 0.5, 1.2, 5.0, rng)
            est = ml_estimate(x, y)
            t_hats.append(est.t_hat)
            s2_hats.append(est.sigma2_hat)
        corr = np.corrcoef(t_hats, s2_hats)[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(trials)

    def test_noise_free_lines_give_zero_not_negative_variance(self):
        # sum(y^2) - sum(xy)^2/sum(x^2) rounds below zero on about a third of these
        rng = np.random.default_rng(24)
        for _ in range(2000):
            x = rng.standard_normal(int(rng.integers(2, 50)))
            y = rng.uniform(-3.0, 3.0) * x
            est = ml_estimate(x, y)
            assert 0.0 <= est.sigma2_hat <= 1e-14 * float(y @ y) / est.m


class TestConfidenceBounds:
    def test_zero_residual_gives_zero_width_t_interval(self):
        est = MlEstimates(t_hat=2.0, sigma2_hat=0.0, va_hat=1.0, m=100)
        low, high = confidence_bounds(est, 0.05)["t"]
        assert low == high == 2.0

    def test_intervals_bracket_estimates(self):
        est = MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=1000)
        bounds = confidence_bounds(est, 0.05)
        for key, point in (("t", 0.5), ("sigma2", 1.2), ("va", 5.0)):
            low, high = bounds[key]
            assert low < point < high

    def test_coverage_matches_nominal(self):
        rng = np.random.default_rng(24)
        trials, m, eps = 400, 500, 0.1
        t, sigma2, va = 0.5, 1.2, 5.0
        hits = {"t": 0, "sigma2": 0, "va": 0}
        for _ in range(trials):
            x, y = simulate_linear_model(m, t, sigma2, va, rng)
            bounds = confidence_bounds(ml_estimate(x, y), eps)
            for key, truth in (("t", t), ("sigma2", sigma2), ("va", va)):
                low, high = bounds[key]
                hits[key] += low <= truth <= high
        sigma_binomial = math.sqrt(eps * (1.0 - eps) / trials)
        for key in hits:
            assert abs(hits[key] / trials - (1.0 - eps)) < 3.0 * sigma_binomial, key

    def test_width_scales_as_inverse_sqrt_m(self):
        # quadrupling m halves the widths; also exercises the large-m
        # normal approximation of the chi-square quantiles
        small = MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=50_000)
        large = MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=200_000)
        for key in ("t", "sigma2", "va"):
            w_small = np.diff(confidence_bounds(small, 0.05)[key])[0]
            w_large = np.diff(confidence_bounds(large, 0.05)[key])[0]
            assert w_small / w_large == pytest.approx(2.0, rel=0.1)

    def test_epsilon_validation(self):
        est = MlEstimates(t_hat=0.5, sigma2_hat=1.0, va_hat=1.0, m=10)
        with pytest.raises(ValueError):
            confidence_bounds(est, 0.0)

    def test_an_epsilon_whose_quantile_rounds_to_1_is_refused(self):
        # 1 - 1e-16/2 is 1.0, a quantile the normal and chi-square laws do not have
        est = MlEstimates(t_hat=0.5, sigma2_hat=1.0, va_hat=1.0, m=10)
        with pytest.raises(ValueError, match=r"^epsilon must be in \[2\*\*-52, 1\), got 1e-16$"):
            confidence_bounds(est, 1e-16)
        assert confidence_bounds(est, 2.0**-52)["sigma2"][0] > 0.0


class TestInferChannel:
    def test_transmittance_from_slope(self):
        est = MlEstimates(t_hat=0.5, sigma2_hat=1.0, va_hat=5.0, m=100)
        t_hat, _ = infer_channel(est, n0_assumed=1.0, eta=0.5, v_el=0.0)
        assert t_hat == pytest.approx(0.5)

    def test_zero_excess_when_noise_accounted(self):
        est = MlEstimates(t_hat=0.5, sigma2_hat=1.06, va_hat=5.0, m=100)
        _, xi_hat = infer_channel(est, n0_assumed=1.05, eta=0.5, v_el=0.01)
        assert xi_hat == pytest.approx(0.0, abs=1e-12)

    def test_zero_slope_rejected(self):
        est = MlEstimates(t_hat=0.0, sigma2_hat=1.0, va_hat=5.0, m=100)
        with pytest.raises(ValueError, match="t_hat is zero; excess noise undefined"):
            infer_channel(est, 1.0, 0.5, 0.0)

    def test_monte_carlo_round_trip(self):
        # unattacked channel: estimation recovers the configured excess noise
        from cvqkdsim import AttackParams, ChannelParams, DetectorModel, generate_alice, simulate_bob

        ch = ChannelParams(va=5.0, transmittance=0.5, eta=0.5, xi=0.1, v_el=0.01)
        m = 1_000_000
        x = generate_alice(m, ch.va, seed=25)
        batch = simulate_bob(x, ch, AttackParams(), DetectorModel(), seed=25)
        est = ml_estimate(batch.x, batch.y)
        _, xi_hat = infer_channel(est, 1.0, ch.eta, ch.v_el)
        sigma2 = est.sigma2_hat
        se = math.sqrt(2.0 / m) * sigma2 / est.t_hat**2
        assert abs(xi_hat - ch.xi) < 5.0 * se


class TestBiasFormulas:
    @given(xi=st.floats(-2.0, 5.0), t2=st.floats(0.01, 2.0))
    @settings(max_examples=50)
    def test_identity_without_bias(self, xi, t2):
        assert xi_under_calibration(xi, 1.0, t2) == pytest.approx(xi, rel=1e-12, abs=1e-12)

    def test_quantitative_example_value(self):
        # (1/1.5) * (2.1 - 2) with t^2 = 0.25
        value = xi_under_calibration(2.1, 1.5, 0.25)
        assert value == pytest.approx((2.1 - 2.0) / 1.5, abs=1e-12)
        assert value == pytest.approx(0.0667, abs=1e-4)

    def test_negative_estimates_are_representable(self):
        assert xi_under_calibration(0.1, 1.5, 0.25) == pytest.approx(-1.2667, abs=1e-3)

    @given(
        xi1=st.floats(-1.0, 3.0),
        xi2=st.floats(-1.0, 3.0),
        lam=st.floats(0.0, 1.0),
        ratio=st.floats(0.2, 3.0),
        t2=st.floats(0.05, 1.0),
    )
    @settings(max_examples=50)
    def test_affine_in_true_excess_noise(self, xi1, xi2, lam, ratio, t2):
        blend = lam * xi1 + (1.0 - lam) * xi2
        f = lambda xi: xi_under_calibration(xi, ratio, t2)
        assert f(blend) == pytest.approx(
            lam * f(xi1) + (1.0 - lam) * f(xi2), rel=1e-9, abs=1e-9
        )

    def test_intercept_resend_noise(self):
        assert xi_pir(0.1, 0.0) == pytest.approx(0.1)
        assert xi_pir(0.1, 1.0) == pytest.approx(2.1, abs=1e-12)
        assert xi_pir(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            xi_pir(0.1, 1.5)
        with pytest.raises(ValueError):
            xi_under_calibration(0.1, 0.0, 0.25)
        with pytest.raises(ValueError):
            xi_under_calibration(0.1, 1.0, 0.0)


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )


class TestScipyOnlyForExactQuantiles:
    def test_large_scenario_never_imports_scipy(self):
        proc = _run_python(
            "import sys\n"
            "import cvqkdsim\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "report = cvqkdsim.run_scenario(cvqkdsim.parse_config('pulses = 30000\\n'))\n"
            "assert report.m_estimation > cvqkdsim.estimation.CHI2_EXACT_MAX_M\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("pulses,m,loaded", [(20_002, 10_001, False), (20_000, 10_000, True)])
    def test_a_run_is_exact_up_to_ten_thousand_samples(self, pulses, m, loaded):
        # m samples give m - 1 degrees of freedom: m = CHI2_EXACT_MAX_M is still exact
        proc = _run_python(
            "import sys\n"
            "import cvqkdsim\n"
            f"report = cvqkdsim.run_scenario(cvqkdsim.parse_config('pulses = {pulses}\\n'))\n"
            f"assert report.m_estimation == {m} == report.estimation.m\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        assert proc.stdout.strip() == str(loaded)

    def test_exact_branch_loads_scipy_stats(self):
        proc = _run_python(
            "import sys\n"
            "import cvqkdsim\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "est = cvqkdsim.MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=500)\n"
            "cvqkdsim.confidence_bounds(est, 1e-3)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        assert proc.stdout.strip() == "True"

    @pytest.mark.parametrize("m", [2, 101, 10_000])
    def test_exact_bounds_equal_scipy_chi2(self, m):
        from scipy import stats

        est = MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=m)
        eps = 1e-3
        bounds = confidence_bounds(est, eps)
        chi_low = stats.chi2.ppf(eps / 2.0, m - 1)
        chi_high = stats.chi2.ppf(1.0 - eps / 2.0, m - 1)
        for key, value in (("sigma2", est.sigma2_hat), ("va", est.va_hat)):
            assert bounds[key] == (m * value / chi_high, m * value / chi_low)

    def test_exact_path_calls_a_replaced_stats(self, monkeypatch):
        # the benchmark tracer swaps in a counting proxy the same way
        import types

        import cvqkdsim.estimation as estimation

        real = estimation.stats
        calls = []

        def ppf(q, df):
            calls.append((q, df))
            return real.chi2.ppf(q, df)

        proxy = types.SimpleNamespace(chi2=types.SimpleNamespace(ppf=ppf))
        monkeypatch.setattr(estimation, "stats", proxy)
        confidence_bounds(MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=500), 1e-3)
        assert [df for _, df in calls] == [499, 499]
        confidence_bounds(MlEstimates(t_hat=0.5, sigma2_hat=1.2, va_hat=5.0, m=50_000), 1e-3)
        assert len(calls) == 2

    @pytest.mark.parametrize("eps", np.geomspace(1e-12, 0.5, 25))
    def test_normal_quantile_matches_scipy(self, eps):
        from scipy import stats

        # t_hat = 0 makes the upper bound the half-width itself, free of cancellation
        est = MlEstimates(t_hat=0.0, sigma2_hat=1.2, va_hat=5.0, m=50_000)
        z = float(stats.norm.ppf(1.0 - eps / 2.0))
        _, high = confidence_bounds(est, eps)["t"]
        half_width = z * math.sqrt(est.sigma2_hat / est.sum_x2)
        assert high == pytest.approx(half_width, rel=1e-14, abs=0)
        for q in (eps / 2.0, 1.0 - eps / 2.0):
            z = float(stats.norm.ppf(q))
            df = 49_999
            h = 2.0 / (9.0 * df)
            expected = df * (1.0 - h + z * math.sqrt(h)) ** 3
            assert _chi2_ppf(q, df) == pytest.approx(expected, rel=1e-14, abs=0)
