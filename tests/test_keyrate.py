import math

import numpy as np
import pytest

from cvqkdsim import (
    KeyRateParams,
    SwitchModel,
    holevo_bound,
    max_secure_distance,
    mutual_information,
    rate_at_distance,
    secret_key_rate,
    va_for_snr,
)
from cvqkdsim.cli import main
from cvqkdsim.keyrate import SEARCH_RESOLUTION_KM, _entropy_g, discounted_rate

FIG5 = dict(eta=0.6, v_el=0.01, beta=0.948, snr_target=0.075, xi_bob=0.001)


def snr(p: KeyRateParams) -> float:
    eta_t = p.eta * p.transmittance
    return eta_t * p.va / (1.0 + p.v_el + eta_t * p.xi)


class TestMutualInformation:
    def test_lossless_noiseless_channel(self):
        p = KeyRateParams(va=3.0, transmittance=1.0, eta=1.0, xi=0.0, v_el=0.0, beta=1.0)
        assert mutual_information(p) == pytest.approx(1.0, abs=1e-12)

    def test_equals_half_log_one_plus_snr_on_grid(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            p = KeyRateParams(
                va=float(rng.uniform(0.1, 30.0)),
                transmittance=float(rng.uniform(0.01, 1.0)),
                eta=float(rng.uniform(0.1, 1.0)),
                xi=float(rng.uniform(0.0, 2.0)),
                v_el=float(rng.uniform(0.0, 0.3)),
                beta=0.95,
            )
            expected = 0.5 * math.log2(1.0 + snr(p))
            assert mutual_information(p) == pytest.approx(expected, abs=1e-12)

    def test_target_snr_rate(self):
        # 0.5*log2(1.075) = 0.052169 bits per pulse
        p = KeyRateParams(va=va_for_snr(0.075, 0.5, 0.6, 0.01, 0.01),
                          transmittance=0.5, eta=0.6, xi=0.01, v_el=0.01, beta=0.948)
        assert mutual_information(p) == pytest.approx(0.5 * math.log2(1.075), abs=1e-12)
        assert mutual_information(p) == pytest.approx(0.052169, abs=1e-5)

    def test_zero_transmittance_has_zero_rate(self):
        p = KeyRateParams(va=5.0, transmittance=0.0, eta=0.5, xi=0.0, v_el=0.01, beta=0.9)
        assert mutual_information(p) == 0.0


class TestHolevoBound:
    def test_perfect_channel_leaks_nothing(self):
        p = KeyRateParams(va=5.0, transmittance=1.0, eta=1.0, xi=0.0, v_el=0.0, beta=1.0)
        chi_be, eigenvalues = holevo_bound(p)
        assert chi_be == pytest.approx(0.0, abs=1e-9)
        assert eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert eigenvalues[1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("va, eta, v_el", [(7.3, 0.6, 0.0), (10.0, 0.6, 0.0), (20.0, 0.6, 0.1)])
    def test_pure_channel_has_double_roots_despite_rounding(self, va, eta, v_el):
        # T = 1, xi = 0: the conditional pair's discriminant is 0 up to rounding,
        # which sqrt alone would turn into an eigenvalue 1e-8 below 1
        p = KeyRateParams(va=va, transmittance=1.0, eta=eta, xi=0.0, v_el=v_el, beta=1.0)
        chi_be, eigenvalues = holevo_bound(p)
        assert chi_be == pytest.approx(0.0, abs=1e-9)
        assert eigenvalues == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-9)

    def test_eigenvalues_physical_over_random_parameters(self):
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            p = KeyRateParams(
                va=float(rng.uniform(0.05, 50.0)),
                transmittance=float(rng.uniform(1e-3, 1.0)),
                eta=float(rng.uniform(0.05, 1.0)),
                xi=float(rng.uniform(0.0, 3.0)),
                v_el=float(rng.uniform(0.0, 0.5)),
                beta=1.0,
            )
            chi_be, eigenvalues = holevo_bound(p)
            assert chi_be >= -1e-9
            assert all(lam >= 1.0 - 1e-9 for lam in eigenvalues)

    def test_requires_positive_transmittance(self):
        p = KeyRateParams(va=5.0, transmittance=0.0, eta=0.5, xi=0.0, v_el=0.0, beta=1.0)
        with pytest.raises(ValueError):
            holevo_bound(p)


class TestSecretKeyRate:
    def test_zero_reconciliation_cannot_beat_eve(self):
        p = KeyRateParams(va=5.0, transmittance=0.5, eta=0.6, xi=0.05, v_el=0.01, beta=0.0)
        b = secret_key_rate(p)
        assert b.key_rate == pytest.approx(-b.chi_be)
        assert b.key_rate <= 0.0

    def test_entanglement_breaking_noise_kills_rate_everywhere(self):
        for d in np.arange(0.0, 201.0, 2.0):
            t = 10.0 ** (-0.2 * float(d) / 10.0)
            for va in (1.0, 5.0, 20.0):
                p = KeyRateParams(va=va, transmittance=t, eta=0.6, xi=2.1, v_el=0.01, beta=0.948)
                assert secret_key_rate(p).key_rate < 0.0

    def test_positive_at_25_km_with_reference_parameters(self):
        assert rate_at_distance(25.0, **FIG5).key_rate > 0.0

    def test_rate_non_increasing_with_distance(self):
        rates = [rate_at_distance(float(d), **FIG5).key_rate for d in range(0, 121, 5)]
        assert all(r1 >= r2 for r1, r2 in zip(rates, rates[1:]))

    def test_no_positive_rate_at_high_loss(self, tmp_path, capsys):
        # below T ~ 1e-12 the SNR-targeted va passes 1e11; G((l-1)/2) must keep its digits
        # there, or chi_BE collapses and the rate reads +0.0443
        for d in range(100, 2001):
            assert rate_at_distance(float(d), **FIG5).key_rate < 0.0, d
        cfg_path = tmp_path / "far.cfg"
        cfg_path.write_text("pulses = 1000\nsweep_d_max_km = 800\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert printed["grid_last_positive_no_countermeasure_km"] == "78.0"
        assert printed["grid_last_positive_countermeasure_km"] == "66.0"
        # an 80-digit evaluation of the rate at 800 km gives -0.0078660
        last = (tmp_path / "keyrate_no_countermeasure.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[-1]) == pytest.approx(-0.0078660, abs=1e-7)

    @pytest.mark.parametrize("config, last_positive", [
        ("loss_db_per_km = 10\n", "1.0"),
        ("sweep_d_max_km = 3900\nsweep_step_km = 10\n", "70.0"),
        ("loss_db_per_km = 13\n", "1.0"),
        ("loss_db_per_km = 20\n", "0.0"),
        ("sweep_d_max_km = 10000\nsweep_step_km = 100\n", "0.0"),
        ("loss_db_per_km = 1e300\n", "0.0"),
    ], ids=["loss-10-db-per-km", "3900-km", "loss-13-db-per-km", "loss-20-db-per-km",
            "10000-km", "loss-1e300-db-per-km"])
    def test_sweep_past_t_1e_77_does_not_overflow(self, config, last_positive, tmp_path, capsys):
        # T falls to 1e-120 and 1e-78, where trace_like**2 of the symplectic spectrum overflows,
        # and below 1e-152, where the Holevo terms themselves could pass the float range
        cfg_path = tmp_path / "far.cfg"
        cfg_path.write_text("pulses = 1000\n" + config)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert printed["grid_last_positive_no_countermeasure_km"] == last_positive
        for curve in ("no_countermeasure", "countermeasure"):
            path = tmp_path / f"keyrate_{curve}.csv"
            assert "nan" not in path.read_text(), curve
            d, k = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 5)).T
            assert np.all(np.isfinite(k)), curve
            assert np.all(k[d > float(printed[f"max_secure_distance_{curve}_km"])] <= 0.0), curve

    @pytest.mark.parametrize("switch", [None, SwitchModel()], ids=["plain", "switch"])
    def test_every_distance_reads_a_finite_non_positive_rate_past_the_limit(self, switch):
        # up to T ~ 1e-152 a far point reads its negative rate, past it V_A = inf and K = 0
        rates = []
        for d in range(100, 17000, 5):
            p = rate_at_distance(float(d), **FIG5, switch=switch)
            assert all(math.isfinite(v) for v in (p.i_ab, p.chi_be, p.key_rate)), p
            far = (p.i_ab, p.chi_be, p.key_rate) == (0.0, 0.0, 0.0)
            assert p.key_rate < 0.0 if p.va < math.inf else far, p
            rates.append(p.key_rate)
        assert rates[-1] == 0.0 and min(rates) < 0.0

    def test_entropy_forms_agree_at_their_cut(self):
        above = _entropy_g(math.nextafter(1e3, math.inf))
        assert above == pytest.approx(_entropy_g(1e3), rel=1e-12)

    def test_rate_non_increasing_with_excess_noise(self):
        rates = []
        for xi in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0):
            p = KeyRateParams(va=5.0, transmittance=0.5, eta=0.6, xi=xi, v_el=0.01, beta=0.948)
            rates.append(secret_key_rate(p).key_rate)
        assert all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))


class TestVaForSnr:
    def test_zero_snr_zero_modulation(self):
        assert va_for_snr(0.0, 0.5, 0.6, 0.1, 0.01) == 0.0

    def test_reference_distance_arithmetic(self):
        # T = 10^-1.6, eta = 0.6, eta*T*xi = 0.001, v_el = 0.01
        t = 10.0 ** (-1.6)
        eta = 0.6
        xi = 0.001 / (eta * t)
        va = va_for_snr(0.075, t, eta, xi, 0.01)
        expected = 0.075 * (1.0 + 0.01 + 0.001) / (eta * t)
        assert va == pytest.approx(expected, rel=1e-12)
        assert va == pytest.approx(5.031, abs=0.01)

    def test_round_trip_through_mutual_information(self):
        t, eta, xi, v_el = 0.2, 0.55, 0.08, 0.015
        va = va_for_snr(0.075, t, eta, xi, v_el)
        p = KeyRateParams(va=va, transmittance=t, eta=eta, xi=xi, v_el=v_el, beta=0.9)
        assert mutual_information(p) == pytest.approx(0.5 * math.log2(1.075), abs=1e-12)

    def test_infeasible_at_zero_transmission(self):
        with pytest.raises(ValueError):
            va_for_snr(0.075, 0.0, 0.6, 0.1, 0.01)


class TestMaxSecureDistance:
    def test_reference_range_without_countermeasure(self):
        d = max_secure_distance(**FIG5)
        assert 75.0 <= d <= 85.0

    def test_reference_range_with_countermeasure(self):
        d = max_secure_distance(
            **FIG5, monitor_fraction=0.1, switch=SwitchModel(loss_db=2.7)
        )
        assert 65.0 <= d <= 75.0

    def test_no_secure_distance_result(self):
        assert max_secure_distance(
            eta=0.6, v_el=0.01, beta=0.01, snr_target=0.075, xi_bob=0.001
        ) is None

    def test_monitoring_fraction_does_not_move_the_crossing(self):
        base = max_secure_distance(**FIG5)
        discounted = max_secure_distance(**FIG5, monitor_fraction=0.5)
        assert abs(base - discounted) <= 0.2

    def test_link_loss_is_forwarded(self):
        # transmittance depends on loss*distance only, so doubling the loss halves the distance
        base = max_secure_distance(**FIG5)
        lossy = max_secure_distance(**FIG5, loss_db_per_km=0.4)
        assert abs(lossy - base / 2.0) <= SEARCH_RESOLUTION_KM

    @pytest.mark.parametrize("snr_target", [0.0, -1.0])
    def test_non_positive_snr_target_rejected(self, snr_target):
        with pytest.raises(ValueError, match="snr_target"):
            max_secure_distance(**{**FIG5, "snr_target": snr_target})


@pytest.mark.parametrize("rate", [0.25, 1e-12])
def test_monitoring_discount_scales_a_positive_rate(rate):
    assert discounted_rate(rate, 0.1) == rate * 0.9
    assert discounted_rate(rate, 0.0) == rate


@pytest.mark.parametrize("rate", [0.0, -0.3])
def test_monitoring_discount_leaves_a_non_positive_rate(rate):
    assert discounted_rate(rate, 0.1) == rate
    assert discounted_rate(rate, 0.0) == rate


def test_link_model():
    def transmittance(distance_km, loss_db_per_km=0.2):
        return rate_at_distance(distance_km, **FIG5, loss_db_per_km=loss_db_per_km).transmittance

    assert transmittance(0.0) == 1.0
    assert transmittance(80.0) == pytest.approx(10.0 ** (-1.6), rel=1e-12)
    with pytest.raises(ValueError, match="distance must be >= 0"):
        transmittance(-1.0)
    with pytest.raises(ValueError, match="loss_db_per_km must be > 0"):
        transmittance(80.0, loss_db_per_km=0.0)


def test_keyrate_params_validation():
    with pytest.raises(ValueError):
        KeyRateParams(va=-1.0, transmittance=0.5, eta=0.5, xi=0.0, v_el=0.0, beta=0.9)
    with pytest.raises(ValueError):
        KeyRateParams(va=1.0, transmittance=0.5, eta=0.5, xi=0.0, v_el=0.0, beta=1.5)
