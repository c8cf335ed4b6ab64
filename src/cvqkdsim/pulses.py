"""Local-oscillator pulse physics on Bob's side.

Models the sampled LO intensity waveform, the threshold clock trigger that
fires on it, the windowed power measurement used to predict the shot noise,
the homodyne gain as a function of the measurement instant, and the
calibrated variance-vs-power line.  Also contains the adversarial
construction of equal-energy pulses with shifted trigger times.

All operations are pure functions of immutable value objects; waveforms
are discrete with a fixed sample spacing, and the trigger interpolates
linearly between the two samples around its threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasiblePulseError
from .ranges import NON_NEGATIVE, POSITIVE, UNIT, checked, param

@checked
class Waveform:
    """Sampled LO pulse intensity trace.

    Attributes:
        samples: non-negative intensity values, one per sample instant.
        dt: sample spacing in ns (> 0).
        t0: time of the first sample in ns.
    """

    samples: np.ndarray
    dt: float = param(within=POSITIVE)
    t0: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("waveform needs at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite")
        if np.any(samples < 0):
            raise ValueError("waveform samples must be >= 0")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Total covered time in ns (each sample spans one dt bin)."""
        return self.samples.size * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) * self.dt


@checked
class DetectorModel:
    """Homodyne detector timing and calibration constants.

    Attributes:
        window_ns: integration period of the differential photocurrent.
        tau_ns: exponential discharge constant after the window ends.
        slope_cal: calibrated shot-noise variance per unit LO power.
        v_el: electronic noise variance (shot-noise units).
    """

    window_ns: float = param(100.0, within=POSITIVE)
    # chosen so that a 10 ns trigger delay on a 100 ns integration window
    # reduces the measured variance by the factor 1/1.5
    tau_ns: float = param(49.33, within=POSITIVE)
    slope_cal: float = param(1.0, within=POSITIVE)
    v_el: float = param(0.01, within=NON_NEGATIVE)


@checked
class CalibrationLine:
    """Least-squares line of measurement variance against LO power; noise can make slope <= 0."""

    slope: float
    intercept: float


def measure_power(waveform: Waveform, window_ns: float) -> float:
    """LO power meter reading: the sum over the trailing ``window_ns`` of the trace, times dt.

    Linear in the waveform.  A window that does not fit the trace, 0 or less included, is refused.
    """
    return _window_power(waveform.samples, waveform.dt, window_ns)


def _window_power(samples: np.ndarray, dt: float, window_ns: float) -> float:
    """``measure_power`` of the trace ``samples`` with spacing ``dt``, unchecked and uncopied."""
    n_window = int(round(window_ns / dt))
    if n_window < 1 or n_window > samples.size:
        raise ValueError(
            f"power window {window_ns} ns does not fit waveform of "
            f"duration {samples.size * dt} ns"
        )
    tail = samples[::-1][:n_window]
    # a dot with ones, not tail.sum(): they round differently, and the pinned outputs are a dot's
    return float(np.dot(tail, np.ones(n_window)) * dt)


def trigger_time(waveform: Waveform, threshold: float) -> float | None:
    """Time at which the intensity first exceeds ``threshold``, or None if it never does.

    This is the clock trigger: a level threshold on the LO intensity, its
    crossing interpolated linearly from the last sample at or below it.
    """
    POSITIVE.check("threshold", threshold)
    hits = np.flatnonzero(waveform.samples > threshold)
    if hits.size == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(waveform.t0)
    below, above = waveform.samples[i - 1 : i + 1]
    return float(waveform.t0 + (i - 1 + (threshold - below) / (above - below)) * waveform.dt)


def detector_gain(t_measure_ns: float, det: DetectorModel) -> float:
    """Variance gain of a homodyne sample taken ``t_measure_ns`` after pulse start.

    The integrator output amplitude ramps linearly over the integration
    window (variance gain (t/window)^2), peaks at exactly 1 when the
    window ends, and afterwards the capacitor discharges exponentially
    (variance gain exp(-2*(t - window)/tau)).
    """
    POSITIVE.check("measurement time", t_measure_ns)
    if t_measure_ns <= det.window_ns:
        return (t_measure_ns / det.window_ns) ** 2
    return math.exp(-2.0 * (t_measure_ns - det.window_ns) / det.tau_ns)


def fit_calibration_line(points: list[tuple[float, float]]) -> CalibrationLine:
    """Least-squares line through (power, variance) calibration points."""
    if len(points) < 2:
        raise ValueError("need at least 2 calibration points")
    powers = np.array([p for p, _ in points], dtype=float)
    variances = np.array([v for _, v in points], dtype=float)
    if np.ptp(powers) == 0:
        raise ValueError("all calibration powers identical")
    slope, intercept = np.polyfit(powers, variances, deg=1)
    return CalibrationLine(slope=float(slope), intercept=float(intercept))


def simulate_calibration_points(
    powers: np.ndarray,
    det: DetectorModel,
    gain: float = 1.0,
    samples_per_point: int = 2000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Synthetic variance-vs-power calibration data.

    Each point is the sample variance of ``samples_per_point`` vacuum
    measurements whose true variance is ``gain * slope_cal * power + v_el``;
    the chi-square sampling noise of the variance estimate is included.
    """
    if samples_per_point < 2:
        raise ValueError(f"samples_per_point must be >= 2, got {samples_per_point}")
    rng = np.random.default_rng(seed)
    k = samples_per_point
    powers = np.asarray(powers, dtype=float)
    true_var = gain * det.slope_cal * powers + det.v_el
    variances = true_var * rng.chisquare(k, size=powers.size) / k
    return list(zip(powers.tolist(), variances.tolist()))


def attenuate_leading_edge(
    waveform: Waveform,
    alpha: float,
    span_ns: float,
    window_ns: float,
) -> Waveform:
    """Scale the first ``span_ns`` of the pulse by ``alpha``.

    The remaining samples are rescaled by the unique factor that keeps
    ``measure_power`` unchanged, so the shaping is invisible to the LO
    power meter.
    """
    UNIT.check("alpha", alpha)
    if not 0.0 <= span_ns <= waveform.duration:
        raise ValueError(
            f"span_ns must be in [0, {waveform.duration}], got {span_ns}"
        )
    # the leading samples, those whose time offset lies in [0, span_ns)
    n_head = min(math.ceil(span_ns / waveform.dt - 1e-12), len(waveform))
    shaped = waveform.samples.copy()
    shaped[:n_head] *= alpha
    target = measure_power(waveform, window_ns)
    head_only = shaped.copy()
    head_only[n_head:] = 0.0
    tail_only = waveform.samples.copy()
    tail_only[:n_head] = 0.0
    # bare arrays: a Waveform per part would copy and check them for every candidate
    p_head = _window_power(head_only, waveform.dt, window_ns) if n_head else 0.0
    p_tail = _window_power(tail_only, waveform.dt, window_ns)
    if p_tail <= 0.0:
        raise InfeasiblePulseError(
            "cannot preserve power: tail carries no weight in the window"
        )
    shaped[n_head:] *= (target - p_head) / p_tail
    result = Waveform(shaped, waveform.dt, waveform.t0)
    achieved = measure_power(result, window_ns)
    assert math.isclose(achieved, target, rel_tol=1e-9, abs_tol=1e-12)
    return result


def craft_equal_power_pulse(
    base: Waveform,
    target_shift_ns: float,
    threshold: float,
    window_ns: float,
) -> Waveform:
    """Pulse with the same measured power whose trigger fires ``target_shift_ns`` later.

    The first span of whole samples whose blanking (alpha = 0, with the
    power-preserving rescale) delays the trigger enough is kept, and alpha
    is bisected there to float resolution; of the last bracket, the end
    that delays the trigger by at least the request is returned.
    """
    if not 0 <= target_shift_ns < math.inf:
        raise ValueError(f"target_shift_ns must be finite and >= 0, got {target_shift_ns}")
    if target_shift_ns == 0:
        return base
    t_base = trigger_time(base, threshold)
    if t_base is None:
        raise InfeasiblePulseError("base pulse never triggers")

    def late_enough(candidate: Waveform) -> bool:
        t_new = trigger_time(candidate, threshold)
        return t_new is not None and t_new - t_base >= target_shift_ns

    for k_steps in range(1, len(base)):
        span = k_steps * base.dt
        try:
            blanked = attenuate_leading_edge(base, 0.0, span, window_ns)
        except InfeasiblePulseError:
            continue
        if late_enough(blanked):
            break
    else:
        raise InfeasiblePulseError(
            f"no leading-edge shaping achieves a {target_shift_ns} ns trigger shift"
        )
    # alpha = 1 leaves the trigger where it was, short of any positive request
    lo, hi, shaped = 0.0, 1.0, blanked
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        candidate = attenuate_leading_edge(base, mid, span, window_ns)
        if late_enough(candidate):
            lo, shaped = mid, candidate
        else:
            hi = mid
    return shaped
