"""Real-time shot-noise monitoring and attack detection.

An optical switch blocks the signal path on a random subset of pulses,
whose count a scenario draws with its moments (``scenario.draw_moments``).
The noise measured with the switch open and closed is inverted as a
linear system to separate the shot noise from the signal-plus-excess
variance, and the real-time shot noise is compared against the
calibration-line prediction.
"""

from __future__ import annotations

import math

from .ranges import NON_NEGATIVE, UNIT_ABOVE_0, UNIT_BELOW_1, checked, param


@checked
class SwitchModel:
    """Optical switch on Bob's signal path."""

    loss_db: float = param(2.7, within=NON_NEGATIVE)
    extinction: float = param(0.0, within=UNIT_BELOW_1)


def realtime_shot_noise(
    var_open: float, var_closed: float, extinction: float, v_el: float
) -> tuple[float, float]:
    """Solve the two-measurement system for (shot noise, signal noise).

    var_open   = S + N0 + v_el        (switch open)
    var_closed = extinction*S + N0 + v_el   (switch closed)

    v_el is taken from calibration and trusted; ``extinction`` must be
    in [0, 1), as in ``SwitchModel``.  Returns (n0_rt, s_rt).  At
    extinction 0, n0_rt = var_closed - v_el bit for bit, whatever
    ``var_open`` is.
    """
    UNIT_BELOW_1.check("extinction", extinction)
    s_rt = (var_open - var_closed) / (1.0 - extinction)
    n0_rt = var_closed - v_el - extinction * s_rt
    if not math.isfinite(n0_rt):
        raise ValueError("n0_rt must be finite")
    return n0_rt, s_rt


def effective_eta(eta: float, loss_db: float) -> float:
    """Detection efficiency after inserting a lossy component."""
    UNIT_ABOVE_0.check("eta", eta)
    NON_NEGATIVE.check("loss_db", loss_db)
    return eta * 10.0 ** (-loss_db / 10.0)


def detect_attack(
    n0_rt: float, n0_line: float, m_monitor: int, z_threshold: float
) -> tuple[bool, float]:
    """One-sided z-test of the real-time shot noise against the calibration line.

    The statistic is (n0_line - n0_rt)/se with se = n0_rt*sqrt(2/m_monitor);
    the alarm fires when the statistic exceeds ``z_threshold``.  A
    non-positive real-time estimate is itself an anomaly and alarms
    unconditionally.
    """
    if m_monitor < 2:
        raise ValueError(f"m_monitor must be >= 2, got {m_monitor}")
    if n0_rt <= 0:
        return True, math.inf
    se = n0_rt * math.sqrt(2.0 / m_monitor)
    statistic = (n0_line - n0_rt) / se
    return statistic > z_threshold, statistic
