"""Closed forms and whole-array references that only the tests call.

They sit beside the tests that check the package against them, not in
the package, so that a change to the code under test cannot change its
oracle with it.  The bias law they state: a delayed trigger scales the
shot noise by the timing gain, and the calibrated relationship then
turns intercept-resend noise into a smaller excess-noise estimate.
"""

import math

import numpy as np

from cvqkdsim.estimation import MlEstimates, dot, ml_from_moments
from cvqkdsim.protocol import (
    AttackParams,
    ChannelParams,
    PulseBatch,
    attack_gain,
    monitor_block,
    pulse_blocks,
)
from cvqkdsim.pulses import DetectorModel


def discharge_tau(delay_ns: float, gain_target: float) -> float:
    """Discharge constant giving ``detector_gain(window + delay) == gain_target``.

    Inverts gain = exp(-2*delay/tau) for tau.
    """
    if delay_ns <= 0:
        raise ValueError(f"delay_ns must be > 0, got {delay_ns}")
    if not 0.0 < gain_target < 1.0:
        raise ValueError(f"gain_target must be in (0, 1), got {gain_target}")
    return 2.0 * delay_ns / math.log(1.0 / gain_target)


def ml_estimate(x: np.ndarray, y: np.ndarray) -> MlEstimates:
    """Maximum-likelihood estimates for y = t*x + z on centred samples (see ``ml_from_moments``)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    return ml_from_moments(
        x.size, dot(x, x), dot(x, y), dot(y, y), float(x.sum()), float(y.sum())
    )


def xi_pir(xi_snu: float, mu: float) -> float:
    """Excess noise after a partial intercept-resend on a fraction ``mu``.

    Eve's double-quadrature measurement and re-preparation add two
    shot-noise units on the intercepted fraction: xi + 2*mu.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return xi_snu + 2.0 * mu


def xi_under_calibration(xi_true_snu: float, n0_ratio: float, t_squared: float) -> float:
    """Excess-noise estimate (in assumed-shot-noise units) under a biased shot noise.

    ``n0_ratio`` is assumed-over-true shot noise; the true excess noise
    ``xi_true_snu`` is expressed in true shot-noise units.  Identity at
    n0_ratio = 1; affine in xi_true_snu; negative outputs are meaningful
    and returned as-is.
    """
    if not n0_ratio > 0:
        raise ValueError(f"n0_ratio must be > 0, got {n0_ratio}")
    if not t_squared > 0:
        raise ValueError(f"t_squared must be > 0, got {t_squared}")
    return (xi_true_snu + (1.0 - n0_ratio) / t_squared) / n0_ratio


def mean_attack_gain(atk: AttackParams, det: DetectorModel) -> float:
    """Population-average noise gain nu*g + (1 - nu) of the attacked run."""
    g = attack_gain(atk, det)
    return atk.nu * g + (1.0 - atk.nu)


def simulate_monitor(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    det: DetectorModel,
    extinction: float,
    seed: int,
) -> PulseBatch:
    """Outcomes of monitoring pulses measured with the signal path blocked.

    See ``protocol.monitor_block``, drawn block by block on the calling
    thread; electronic noise is unchanged.
    """
    if not 0.0 <= extinction < 1.0:
        raise ValueError(f"extinction must be in [0, 1), got {extinction}")
    x = np.asarray(x, dtype=float)
    gain = attack_gain(atk, det)
    y = np.empty(x.size)
    intercepted = np.empty(x.size, dtype=bool)
    lo_attacked = np.empty(x.size, dtype=bool)
    for block, start, size in pulse_blocks(x.size):
        sl = slice(start, start + size)
        y[sl], intercepted[sl], lo_attacked[sl] = monitor_block(
            x[sl], ch, atk, gain, extinction, seed, block
        )
    return PulseBatch(x=x, y=y, intercepted=intercepted, lo_attacked=lo_attacked)
