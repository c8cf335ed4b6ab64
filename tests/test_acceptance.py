"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest
with -s to see them).  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from cvqkdsim import (
    AttackParams,
    ChannelParams,
    DetectorModel,
    SwitchModel,
    detect_attack,
    detector_gain,
    confidence_bounds,
    craft_equal_power_pulse,
    fit_calibration_line,
    generate_alice,
    infer_channel,
    max_secure_distance,
    measure_power,
    realtime_shot_noise,
    simulate_bob,
    simulate_calibration_points,
    trigger_time,
)
from cvqkdsim.keyrate import KeyRateParams, rate_at_distance, secret_key_rate
from cvqkdsim.scenario import default_lo_pulse
from reference import (
    discharge_tau,
    mean_attack_gain,
    ml_estimate,
    simulate_monitor,
    xi_pir,
    xi_under_calibration,
)

FIG5 = dict(eta=0.6, v_el=0.01, beta=0.948, snr_target=0.075, xi_bob=0.001)

# Quantitative-example channel: T = 0.5, eta = 0.5, xi = 0.1 SNU.
QE_CHANNEL = ChannelParams(va=5.0, transmittance=0.5, eta=0.5, xi=0.1, v_el=0.01)
QE_DETECTOR = DetectorModel(window_ns=100.0, tau_ns=discharge_tau(10.0, 1.0 / 1.5))


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _xi_standard_error(x, y, est, n0_assumed, v_el):
    """Delta-method standard error of the excess-noise estimate."""
    m = est.m
    residuals = y - est.t_hat * x
    var_sigma2 = (np.mean(residuals**4) - np.mean(residuals**2) ** 2) / m
    var_t = float(np.sum(x**2 * residuals**2)) / est.sum_x2**2
    d_xi_d_t = -2.0 * (est.sigma2_hat - n0_assumed - v_el) / est.t_hat**3
    return math.sqrt(var_sigma2 / est.t_hat**4 + d_xi_d_t**2 * var_t)


def _estimate_xi(batch, v_el, n0_assumed=1.0, eta=0.5):
    est = ml_estimate(batch.x, batch.y)
    _, xi_hat = infer_channel(est, n0_assumed, eta, v_el)
    se = _xi_standard_error(batch.x, batch.y, est, n0_assumed, v_el)
    return est, xi_hat, se


def test_criterion_1_quantitative_example_reproduction():
    start = time.perf_counter()

    # formula path is exact
    pir = xi_pir(0.1, 1.0)
    assert pir == pytest.approx(2.1, abs=1e-12)
    biased = xi_under_calibration(pir, 1.5, 0.25)
    assert biased == pytest.approx((2.1 - 2.0) / 1.5, abs=1e-12)
    assert biased == pytest.approx(0.0667, abs=1e-4)

    # Monte Carlo path at m = 1e6, within 5 standard errors
    m = 1_000_000
    x = generate_alice(m, QE_CHANNEL.va, seed=101)

    ir_only = simulate_bob(x, QE_CHANNEL, AttackParams(mu=1.0), QE_DETECTOR, seed=101)
    _, xi_hat_pir, se_pir = _estimate_xi(ir_only, QE_CHANNEL.v_el)
    assert abs(xi_hat_pir - 2.1) < 5.0 * se_pir

    attack = AttackParams(mu=1.0, nu=1.0, delta_ns=10.0)
    assert detector_gain(110.0, QE_DETECTOR) == pytest.approx(1.0 / 1.5, abs=1e-12)
    breached = simulate_bob(x, QE_CHANNEL, attack, QE_DETECTOR, seed=102)
    _, xi_hat_biased, se_biased = _estimate_xi(breached, QE_CHANNEL.v_el)
    assert abs(xi_hat_biased - 0.0667) < 5.0 * se_biased

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(
        1,
        True,
        f"xi_pir = 2.1 exact, biased = {biased:.4f} exact; Monte Carlo "
        f"{xi_hat_pir:.4f} / {xi_hat_biased:.4f} within 5 SE; {elapsed:.1f} s",
    )


def test_criterion_2_keyrate_distance_endpoints():
    start = time.perf_counter()
    d_plain = max_secure_distance(**FIG5)
    d_protected = max_secure_distance(
        **FIG5, monitor_fraction=0.1, switch=SwitchModel(loss_db=2.7)
    )
    gap = d_plain - d_protected
    assert 75.0 <= d_plain <= 85.0
    assert 65.0 <= d_protected <= 75.0
    assert 7.0 <= gap <= 13.0
    # deterministic
    assert d_plain == max_secure_distance(**FIG5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _verdict(
        2,
        True,
        f"max secure distance {d_plain:.1f} km -> {d_protected:.1f} km "
        f"(gap {gap:.1f} km); {elapsed:.2f} s",
    )


def test_criterion_3_entanglement_breaking_noise():
    start = time.perf_counter()
    worst = -math.inf
    for xi in (2.0, 2.1, 2.5):
        for d in np.arange(0.0, 201.0, 2.0):
            t = 10.0 ** (-0.2 * float(d) / 10.0)
            for va in (1.0, 5.0, 20.0):
                p = KeyRateParams(va=va, transmittance=t, eta=0.6, xi=xi,
                                  v_el=0.01, beta=0.948)
                worst = max(worst, secret_key_rate(p).key_rate)
    assert worst < 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _verdict(
        3,
        True,
        f"K < 0 on the whole 0-200 km grid for xi >= 2 (max K = {worst:.4f}); "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_estimator_distribution_suite():
    rng = np.random.default_rng(401)
    trials, m = 1000, 10_000
    t_true, sigma2_true, va_true, eps = 0.5, 1.2, 5.0, 0.05
    scaled_sigma2 = np.empty(trials)
    t_hats = np.empty(trials)
    hits = {"t": 0, "sigma2": 0, "va": 0}
    for i in range(trials):
        x = rng.standard_normal(m) * math.sqrt(va_true)
        y = t_true * x + rng.standard_normal(m) * math.sqrt(sigma2_true)
        est = ml_estimate(x, y)
        scaled_sigma2[i] = m * est.sigma2_hat / sigma2_true
        t_hats[i] = est.t_hat
        bounds = confidence_bounds(est, eps)
        for key, truth in (("t", t_true), ("sigma2", sigma2_true), ("va", va_true)):
            low, high = bounds[key]
            hits[key] += low <= truth <= high

    mean_tolerance = 4.0 * math.sqrt(2.0 * (m - 1) / trials)
    assert abs(scaled_sigma2.mean() - (m - 1)) < mean_tolerance

    t_var_expected = sigma2_true / (m * va_true)
    ratio = t_hats.var(ddof=1) / t_var_expected
    assert 0.9 < ratio < 1.1

    sigma_binomial = math.sqrt(eps * (1.0 - eps) / trials)
    coverages = {k: hits[k] / trials for k in hits}
    for key, coverage in coverages.items():
        assert abs(coverage - (1.0 - eps)) < 3.0 * sigma_binomial, key

    _verdict(
        4,
        True,
        f"mean(m*s2/sigma2) = {scaled_sigma2.mean():.1f} (target {m - 1}), "
        f"var(t_hat) ratio {ratio:.3f}, coverage "
        + "/".join(f"{coverages[k]:.3f}" for k in ("t", "sigma2", "va")),
    )


def test_criterion_5_equal_power_pulse_construction():
    start = time.perf_counter()
    base, trig, window_ns = default_lo_pulse()
    shaped = craft_equal_power_pulse(base, 10.0, trig, window_ns)
    p_base = measure_power(base, window_ns)
    p_shaped = measure_power(shaped, window_ns)
    relative = abs(p_shaped - p_base) / p_base
    shift = trigger_time(shaped, trig) - trigger_time(base, trig)
    assert relative <= 1e-6
    assert shift >= 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _verdict(
        5,
        True,
        f"equal-energy pulses: power difference {relative:.2e}, trigger shift "
        f"{shift:.1f} ns; {elapsed:.2f} s",
    )


def test_criterion_6_detector_gain_anchor():
    tau = discharge_tau(10.0, 1.0 / 1.5)
    det = DetectorModel(window_ns=100.0, tau_ns=tau)
    gain = detector_gain(110.0, det)
    assert gain == pytest.approx(1.0 / 1.5, abs=1e-12)

    powers = np.linspace(0.5, 1.5, 1000)
    nominal = simulate_calibration_points(powers, det, gain=1.0, seed=601)
    delayed = simulate_calibration_points(powers, det, gain=gain, seed=602)
    ratio = fit_calibration_line(delayed).slope / fit_calibration_line(nominal).slope
    assert ratio == pytest.approx(0.667, abs=0.01)
    _verdict(
        6,
        True,
        f"g(window + 10 ns) = {gain:.12f} by construction; fitted slope ratio "
        f"{ratio:.4f} within 0.667 +- 0.01",
    )


def _alarm_trial(attacked: bool, seed: int, z_threshold: float = 5.0) -> bool:
    """One seeded monitoring round of the criterion-1 breach scenario."""
    n_monitor, n_open = 10_000, 10_000
    atk = AttackParams(mu=1.0, nu=1.0, delta_ns=10.0) if attacked else AttackParams()
    x = generate_alice(n_monitor + n_open, QE_CHANNEL.va, seed)
    open_batch = simulate_bob(x[:n_open], QE_CHANNEL, atk, QE_DETECTOR, seed)
    monitor_batch = simulate_monitor(
        x[n_open:], QE_CHANNEL, atk, QE_DETECTOR, extinction=0.0, seed=seed
    )
    n0_rt, _ = realtime_shot_noise(
        float(np.mean(open_batch.y**2)),
        float(np.mean(monitor_batch.y**2)),
        0.0,
        QE_CHANNEL.v_el,
    )
    alarm, _ = detect_attack(n0_rt, 1.0, n_monitor, z_threshold)
    return alarm


def test_criterion_7_countermeasure_efficacy():
    trials = 1000
    alarms = sum(_alarm_trial(True, seed=70_000 + i) for i in range(trials))
    false_alarms = sum(_alarm_trial(False, seed=80_000 + i) for i in range(trials))
    assert alarms >= 999
    assert false_alarms <= 1
    _verdict(
        7,
        True,
        f"alarm rate {alarms}/{trials} under attack, "
        f"false alarms {false_alarms}/{trials} without",
    )


def test_criterion_8_formula_simulation_closure():
    rng = np.random.default_rng(801)
    m = 1_000_000
    worst_pull = 0.0
    for i in range(20):
        mu = float(rng.uniform(0.0, 1.0))
        nu = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(2.0, 30.0))
        atk = AttackParams(mu=mu, nu=nu, delta_ns=delta)
        x = generate_alice(m, QE_CHANNEL.va, seed=810 + i)
        batch = simulate_bob(x, QE_CHANNEL, atk, QE_DETECTOR, seed=810 + i)
        est, xi_hat, se = _estimate_xi(batch, QE_CHANNEL.v_el)
        g_mean = mean_attack_gain(atk, QE_DETECTOR)
        predicted = xi_under_calibration(
            xi_pir(QE_CHANNEL.xi, mu), 1.0 / g_mean, est.t_hat**2
        )
        pull = abs(xi_hat - predicted) / se
        worst_pull = max(worst_pull, pull)
        assert pull < 5.0, f"config {i}: mu={mu:.3f} nu={nu:.3f} delta={delta:.1f}"
    _verdict(
        8,
        True,
        f"20 randomized (mu, nu, delta) configs match the bias formulas; "
        f"worst deviation {worst_pull:.2f} SE",
    )
