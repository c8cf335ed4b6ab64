import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import (
    AttackParams,
    ChannelParams,
    DetectorModel,
    SwitchModel,
    detect_attack,
    effective_eta,
    generate_alice,
    realtime_shot_noise,
)
from cvqkdsim.protocol import BLOCK_SIZE, pulse_blocks
from reference import mean_attack_gain, monitor_mask_block, simulate_monitor


def _mask(n: int, fraction: float, seed: int, order=None) -> np.ndarray:
    """The mask over ``n`` pulses, its blocks drawn in ``order`` (block order by default)."""
    blocks = list(pulse_blocks(n))
    mask = np.empty(n, dtype=bool)
    for block, start, size in blocks if order is None else (blocks[k] for k in order):
        mask[start : start + size] = monitor_mask_block(fraction, seed, block, size)
    return mask


class TestPlanMonitor:
    """The reference per-pulse run's monitoring mask, drawn block by block."""

    def test_zero_fraction_selects_nothing(self):
        assert not _mask(1000, 0.0, seed=1).any()

    def test_count_within_binomial_bound(self):
        n, fraction = 100_000, 0.1
        n_monitor = int(_mask(n, fraction, seed=2).sum())
        sigma = math.sqrt(n * fraction * (1.0 - fraction))
        assert abs(n_monitor - n * fraction) < 5.0 * sigma

    def test_deterministic_for_seed(self):
        np.testing.assert_array_equal(_mask(5000, 0.1, seed=3), _mask(5000, 0.1, seed=3))

    def test_blocks_join_to_one_draw_of_the_seeded_generator(self):
        # blocks of BLOCK_SIZE, BLOCK_SIZE and 5 pulses, drawn in every order
        n = 2 * BLOCK_SIZE + 5
        expected = np.random.default_rng(6).random(n) < 0.1
        for order in itertools.permutations(range(3)):
            np.testing.assert_array_equal(_mask(n, 0.1, seed=6, order=order), expected)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            monitor_mask_block(1.5, 1, 0, 10)
        with pytest.raises(ValueError):
            monitor_mask_block(-0.1, 1, 0, 10)


class TestRealtimeShotNoise:
    def test_ideal_blocking_is_triangular(self):
        n0_rt, s_rt = realtime_shot_noise(3.51, 1.51, extinction=0.0, v_el=0.01)
        assert n0_rt == pytest.approx(1.5)
        assert s_rt == pytest.approx(2.0)

    def test_equal_variances_mean_no_signal(self):
        _, s_rt = realtime_shot_noise(1.2, 1.2, extinction=0.0, v_el=0.01)
        assert s_rt == 0.0

    @given(
        s=st.floats(0.0, 10.0),
        n0=st.floats(0.1, 3.0),
        v_el=st.floats(0.0, 0.5),
        extinction=st.floats(0.0, 0.95),
    )
    @settings(max_examples=100)
    def test_inverts_forward_model_exactly(self, s, n0, v_el, extinction):
        var_open = s + n0 + v_el
        var_closed = extinction * s + n0 + v_el
        n0_rt, s_rt = realtime_shot_noise(var_open, var_closed, extinction, v_el)
        assert n0_rt == pytest.approx(n0, rel=1e-9, abs=1e-9)
        assert s_rt == pytest.approx(s, rel=1e-9, abs=1e-9)

    def test_unit_extinction_is_singular(self):
        with pytest.raises(ValueError, match=r"extinction must be in \[0, 1\), got 1.0"):
            realtime_shot_noise(2.0, 2.0, extinction=1.0, v_el=0.0)

    @pytest.mark.parametrize("extinction", [1.5, -0.2, math.nan])
    def test_extinction_outside_the_unit_interval_rejected(self, extinction):
        with pytest.raises(ValueError, match=r"extinction must be in \[0, 1\)"):
            realtime_shot_noise(2.0, 1.5, extinction=extinction, v_el=0.0)

    @given(
        var_open=st.floats(-1e6, 1e6),
        var_closed=st.floats(0.0, 1e3),
        v_el=st.floats(0.0, 0.5),
    )
    @settings(max_examples=100)
    def test_without_leakage_the_shot_noise_does_not_read_the_open_variance(
        self, var_open, var_closed, v_el
    ):
        n0_rt, _ = realtime_shot_noise(var_open, var_closed, extinction=0.0, v_el=v_el)
        assert math.copysign(1.0, n0_rt) == math.copysign(1.0, var_closed - v_el)
        assert n0_rt == var_closed - v_el

    def test_non_finite_estimate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            realtime_shot_noise(2.0, float("nan"), 0.0, 0.0)


class TestEffectiveEta:
    def test_no_loss_is_identity(self):
        assert effective_eta(0.6, 0.0) == pytest.approx(0.6)

    def test_switch_loss_reproduces_derated_efficiency(self):
        assert effective_eta(0.6, 2.7) == pytest.approx(0.322, abs=5e-4)

    def test_half_power_point(self):
        assert effective_eta(0.8, 3.0103) == pytest.approx(0.4, abs=1e-4)

    @given(
        eta=st.floats(0.05, 1.0),
        a=st.floats(0.0, 5.0),
        b=st.floats(0.0, 5.0),
    )
    @settings(max_examples=100)
    def test_cascaded_losses_multiply(self, eta, a, b):
        assert effective_eta(eta, a + b) == pytest.approx(
            effective_eta(effective_eta(eta, a), b), rel=1e-12
        )


class TestDetectAttack:
    def test_no_discrepancy_no_alarm(self):
        alarm, statistic = detect_attack(1.0, 1.0, m_monitor=10_000, z_threshold=5.0)
        assert not alarm
        assert statistic == 0.0

    def test_calibration_attack_far_above_threshold(self):
        # true shot noise 2/3 of the calibration prediction
        rng = np.random.default_rng(31)
        m = 10_000
        n0_rt = (2.0 / 3.0) * rng.chisquare(m) / m
        alarm, statistic = detect_attack(float(n0_rt), 1.0, m, z_threshold=5.0)
        assert alarm
        assert statistic > 20.0

    def test_false_alarm_rate_is_gaussian_tail(self):
        rng = np.random.default_rng(32)
        m, trials = 10_000, 200
        alarms = 0
        for _ in range(trials):
            n0_rt = rng.chisquare(m) / m
            alarm, _ = detect_attack(float(n0_rt), 1.0, m, z_threshold=5.0)
            alarms += alarm
        assert alarms == 0

    def test_nonpositive_estimate_always_alarms(self):
        alarm, statistic = detect_attack(-0.1, 1.0, 100, 5.0)
        assert alarm
        assert math.isinf(statistic)


class TestMonitoredShotNoiseInvariant:
    def _realtime_n0(self, nu, delta_ns, seed):
        ch = ChannelParams(va=5.0, transmittance=0.5, eta=0.5, xi=0.1, v_el=0.01)
        det = DetectorModel()
        atk = AttackParams(nu=nu, delta_ns=delta_ns)
        m = 200_000
        x = generate_alice(m, ch.va, seed)
        batch = simulate_monitor(x, ch, atk, det, extinction=0.0, seed=seed)
        n0_rt, _ = realtime_shot_noise(
            float(np.mean(batch.y**2)) + 1.0,  # open variance unused at zero extinction
            float(np.mean(batch.y**2)),
            0.0,
            ch.v_el,
        )
        return n0_rt, mean_attack_gain(atk, det)

    @pytest.mark.parametrize("nu,delta", [(0.3, 10.0), (1.0, 10.0), (0.5, 25.0)])
    def test_attacked_estimate_below_calibration_line(self, nu, delta):
        n0_rt, gbar = self._realtime_n0(nu, delta, seed=33)
        se = math.sqrt(2.0 / 200_000)
        assert n0_rt < 1.0 - 5.0 * se
        assert n0_rt == pytest.approx(gbar, abs=5.0 * se)

    def test_no_attack_agrees_with_line(self):
        n0_rt, _ = self._realtime_n0(0.0, 0.0, seed=34)
        assert n0_rt == pytest.approx(1.0, abs=5.0 * math.sqrt(2.0 / 200_000))


def test_switch_model_validation():
    with pytest.raises(ValueError):
        SwitchModel(loss_db=-1.0)
    with pytest.raises(ValueError):
        SwitchModel(extinction=1.0)
