import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim import (
    DetectorModel,
    Waveform,
    attenuate_leading_edge,
    craft_equal_power_pulse,
    default_lo_pulse,
    detector_gain,
    fit_calibration_line,
    measure_power,
    simulate_calibration_points,
    trigger_time,
)
from cvqkdsim import pulses
from cvqkdsim.cli import main
from cvqkdsim.errors import InfeasiblePulseError
from reference import discharge_tau


def square_pulse(n=120, dt=1.0, level=1.0):
    return Waveform(np.full(n, level), dt=dt)


class TestWaveform:
    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, -1.0, 2.0]), dt=1.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), dt=0.0)

    def test_rejects_short_trace(self):
        with pytest.raises(ValueError):
            Waveform(np.array([1.0]), dt=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Waveform(np.array([1.0, np.inf]), dt=1.0)

    def test_samples_are_frozen(self):
        w = square_pulse()
        with pytest.raises(ValueError):
            w.samples[0] = 5.0


class TestMeasurePower:
    def test_zero_waveform(self):
        w = Waveform(np.zeros(120), dt=1.0)
        assert measure_power(w, 100.0) == 0.0

    def test_uniform_window_integrates_to_window_length(self):
        w = square_pulse(n=120, dt=1.0, level=1.0)
        assert measure_power(w, 100.0) == pytest.approx(100.0)

    def test_window_longer_than_waveform(self):
        w = square_pulse(n=50)
        with pytest.raises(ValueError):
            measure_power(w, 100.0)

    @pytest.mark.parametrize("window_ns", [0.0, -1.0, 0.4])
    def test_window_of_no_sample(self, window_ns):
        with pytest.raises(ValueError, match="does not fit"):
            measure_power(square_pulse(), window_ns)

    @given(a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0))
    @settings(max_examples=50)
    def test_linearity(self, a, b):
        rng = np.random.default_rng(42)
        s1 = rng.random(60)
        s2 = rng.random(60)
        window_ns = 40.0
        combined = Waveform(a * s1 + b * s2, dt=1.0)
        p_combined = measure_power(combined, window_ns)
        p_parts = (a * measure_power(Waveform(s1, 1.0), window_ns)
                   + b * measure_power(Waveform(s2, 1.0), window_ns))
        assert p_combined == pytest.approx(p_parts, rel=1e-12, abs=1e-12)


class TestTriggerTime:
    def test_u1_below_threshold_never_fires(self):
        w = Waveform(np.full(50, 0.3), dt=1.0)
        assert trigger_time(w, 0.5) is None

    def test_u1_step_with_delay(self):
        samples = np.zeros(20)
        samples[5:] = 1.0
        w = Waveform(samples, dt=1.0)
        assert trigger_time(w, 0.5) == 4.5

    def test_crossing_in_units_of_dt_from_t0(self):
        w = Waveform(np.array([0.0, 0.2, 0.8]), dt=2.0, t0=1.0)
        assert trigger_time(w, 0.5) == 4.0
        # a trace already above the threshold fires at its first sample
        assert trigger_time(Waveform(np.full(4, 1.0), dt=0.5, t0=3.0), 0.5) == 3.0

    def test_u1_never_earlier_under_leading_edge_attenuation(self):
        base, trig, window_ns = _ramp_pulse()
        t_base = trigger_time(base, trig)
        for alpha in np.arange(0.0, 1.01, 0.25):
            shaped = attenuate_leading_edge(base, float(alpha), 10.0, window_ns)
            t_shaped = trigger_time(shaped, trig)
            assert t_shaped is not None
            assert t_shaped >= t_base

    def test_trigger_config_validation(self):
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="threshold must be > 0"):
                trigger_time(square_pulse(), threshold)


def _ramp_pulse():
    ramp = np.arange(30) / 30
    samples = np.concatenate([ramp, np.ones(75), np.zeros(15)])
    return (
        Waveform(samples, dt=1.0),
        0.5,
        100.0,
    )


class TestDetectorGain:
    def test_maximum_at_window_end(self):
        det = DetectorModel(window_ns=100.0)
        assert detector_gain(100.0, det) == 1.0

    def test_quadratic_ramp_midpoint(self):
        det = DetectorModel(window_ns=100.0)
        assert detector_gain(50.0, det) == pytest.approx(0.25)

    def test_ten_ns_delay_gives_two_thirds(self):
        det = DetectorModel(window_ns=100.0, tau_ns=49.33)
        assert detector_gain(110.0, det) == pytest.approx(0.6667, abs=1e-4)

    def test_discharge_tau_hits_target_exactly(self):
        tau = discharge_tau(10.0, 1.0 / 1.5)
        det = DetectorModel(window_ns=100.0, tau_ns=tau)
        assert detector_gain(110.0, det) == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_rejects_nonpositive_time(self):
        det = DetectorModel()
        with pytest.raises(ValueError):
            detector_gain(0.0, det)

    def test_continuous_at_window_end_and_decreasing_after(self):
        det = DetectorModel(window_ns=100.0, tau_ns=49.33)
        assert detector_gain(100.0 - 1e-9, det) == pytest.approx(1.0, abs=1e-9)
        assert detector_gain(100.0 + 1e-9, det) == pytest.approx(1.0, abs=1e-9)
        times = np.linspace(100.001, 400.0, 200)
        gains = [detector_gain(float(t), det) for t in times]
        assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))
        assert all(g < 1.0 for g in gains)

    def test_unique_maximum_on_grid(self):
        det = DetectorModel(window_ns=100.0)
        times = np.linspace(0.5, 300.0, 600)
        gains = np.array([detector_gain(float(t), det) for t in times])
        assert gains.max() <= 1.0
        assert detector_gain(100.0, det) == 1.0


class TestCalibrationLine:
    def test_exactly_collinear_points(self):
        points = [(p, 2.0 * p + 0.01) for p in (0.5, 1.0, 1.5, 2.0)]
        line = fit_calibration_line(points)
        assert line.slope == pytest.approx(2.0, abs=1e-12)
        assert line.intercept == pytest.approx(0.01, abs=1e-12)

    def test_noisy_fit_within_four_standard_errors(self):
        rng = np.random.default_rng(11)
        det = DetectorModel(slope_cal=2.0, v_el=0.05)
        powers = rng.uniform(0.5, 1.5, 1000)
        noise_sd = 0.02
        points = [(p, det.slope_cal * p + det.v_el + rng.normal(0.0, noise_sd)) for p in powers]
        line = fit_calibration_line(points)
        slope_se = noise_sd / math.sqrt(np.sum((powers - powers.mean()) ** 2))
        assert abs(line.slope - det.slope_cal) < 4.0 * slope_se

    def test_delayed_trigger_scales_fitted_slope(self):
        det = DetectorModel(window_ns=100.0, tau_ns=discharge_tau(10.0, 1.0 / 1.5))
        gain = detector_gain(110.0, det)
        powers = np.linspace(0.5, 1.5, 1000)
        nominal = simulate_calibration_points(powers, det, gain=1.0, seed=5)
        delayed = simulate_calibration_points(powers, det, gain=gain, seed=6)
        ratio = fit_calibration_line(delayed).slope / fit_calibration_line(nominal).slope
        assert ratio == pytest.approx(0.667, abs=0.01)

    def test_calibration_points_match_per_point_draws(self):
        det = DetectorModel(slope_cal=2.0, v_el=0.05)
        powers = np.linspace(0.5, 1.5, 257)
        k = 300
        # the per-point scalar loop the array draw replaced, kept as the reference
        rng = np.random.default_rng(9)
        reference = []
        for p in powers:
            true_var = 1.3 * det.slope_cal * p + det.v_el
            reference.append((float(p), float(true_var * rng.chisquare(k) / k)))
        points = simulate_calibration_points(powers, det, gain=1.3, samples_per_point=k, seed=9)
        assert points == reference
        assert all(type(v) is float for point in points for v in point)

    def test_calibration_points_need_two_samples_a_point(self):
        with pytest.raises(ValueError, match=r"^samples_per_point must be >= 2, got 1$"):
            simulate_calibration_points(np.ones(3), DetectorModel(), samples_per_point=1)

    def test_identical_powers_degenerate(self):
        with pytest.raises(ValueError, match="all calibration powers identical"):
            fit_calibration_line([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])

    def test_a_negative_slope_is_reported_as_fitted(self):
        # the slope is an estimate, which noise can push below 0; nothing reads its sign
        assert fit_calibration_line([(0.5, 2.0), (1.5, 1.0)]).slope == pytest.approx(-1.0)


class TestAttenuateLeadingEdge:
    def test_alpha_one_is_identity(self):
        base, _, window_ns = _ramp_pulse()
        shaped = attenuate_leading_edge(base, 1.0, 20.0, window_ns)
        np.testing.assert_allclose(shaped.samples, base.samples)

    def test_full_attenuation_delays_trigger(self):
        base, trig, window_ns = _ramp_pulse()
        t_base = trigger_time(base, trig)
        shaped = attenuate_leading_edge(base, 0.0, 25.0, window_ns)
        t_shaped = trigger_time(shaped, trig)
        assert t_shaped > t_base

    def test_power_preserved_to_tolerance(self):
        base, _, window_ns = _ramp_pulse()
        for alpha in (0.0, 0.3, 0.7):
            shaped = attenuate_leading_edge(base, alpha, 25.0, window_ns)
            assert measure_power(shaped, window_ns) == pytest.approx(
                measure_power(base, window_ns), rel=1e-9
            )

    def test_infeasible_when_tail_has_no_weight(self):
        base, _, window_ns = _ramp_pulse()
        with pytest.raises(InfeasiblePulseError):
            attenuate_leading_edge(base, 0.5, base.duration, window_ns)

    def test_span_out_of_range(self):
        base, _, window_ns = _ramp_pulse()
        with pytest.raises(ValueError):
            attenuate_leading_edge(base, 0.5, base.duration + 1.0, window_ns)


class TestCraftEqualPowerPulse:
    def test_zero_shift_returns_base(self):
        base, trig, window_ns = _ramp_pulse()
        assert craft_equal_power_pulse(base, 0.0, trig, window_ns) is base

    def test_ten_ns_shift_preserves_power(self):
        base, trig, window_ns = _ramp_pulse()
        shaped = craft_equal_power_pulse(base, 10.0, trig, window_ns)
        assert measure_power(shaped, window_ns) == pytest.approx(
            measure_power(base, window_ns), rel=1e-6
        )
        assert trigger_time(shaped, trig) - trigger_time(base, trig) >= 10.0

    def test_non_finite_shift_rejected_before_the_search(self):
        base, trig, window_ns = _ramp_pulse()
        for shift in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                craft_equal_power_pulse(base, shift, trig, window_ns)

    def test_shift_beyond_duration_infeasible(self):
        base, trig, window_ns = _ramp_pulse()
        with pytest.raises(InfeasiblePulseError):
            craft_equal_power_pulse(base, base.duration + 10.0, trig, window_ns)

    @pytest.mark.parametrize("shift", [0.12, 0.36, 0.59, 1.18, 2.0, 10.0, 14.0, 20.0])
    def test_every_requested_shift_is_realized(self, shift, monkeypatch):
        # 0.12-1.18 ns are the delays that hide an intercept of mu = 0.01-0.1
        base, trig, window_ns = default_lo_pulse()
        calls = []

        def counted(*args):
            calls.append(args)
            return attenuate_leading_edge(*args)

        monkeypatch.setattr(pulses, "attenuate_leading_edge", counted)
        shaped = craft_equal_power_pulse(base, shift, trig, window_ns)
        realized = trigger_time(shaped, trig) - trigger_time(base, trig)
        assert shift <= realized < shift + 1e-9
        assert measure_power(shaped, window_ns) == pytest.approx(
            measure_power(base, window_ns), rel=1e-12
        )
        # a span scan plus one bisection of alpha, not a grid of candidates
        assert len(calls) <= len(base) + 64

    @pytest.mark.parametrize("shift", [*range(1, 15), 20])
    def test_whole_ns_shifts_move_the_first_sample_above_threshold_as_far(self, shift):
        # a grid-sampled trigger, as a scope would read it, sees the whole request
        base, trig, window_ns = default_lo_pulse()
        shaped = craft_equal_power_pulse(base, float(shift), trig, window_ns)
        first_above = [int(np.flatnonzero(w.samples > trig)[0]) for w in (base, shaped)]
        assert first_above[1] - first_above[0] == shift


class TestWaveformCsv:
    def test_writes_header_times_and_samples(self, tmp_path, capsys):
        assert main(["pulse-demo", "--shift-ns", "10", "--out", str(tmp_path)]) == 0
        base, trig, window_ns = default_lo_pulse()
        shaped = craft_equal_power_pulse(base, 10.0, trig, window_ns)
        for name, wave in (("base_pulse.csv", base), ("shaped_pulse.csv", shaped)):
            path = tmp_path / name
            assert path.read_text().splitlines()[0] == "time_ns,intensity"
            written = np.loadtxt(path, delimiter=",", skiprows=1)
            np.testing.assert_array_equal(written[:, 0], base.times())
            np.testing.assert_array_equal(written[:, 1], wave.samples)
