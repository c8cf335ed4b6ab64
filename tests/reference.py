"""Closed forms and whole-array references that only the tests call.

They sit beside the tests that check the package against them, not in
the package, so that a change to the code under test cannot change its
oracle with it.  The bias law they state: a delayed trigger scales the
shot noise by the timing gain, and the calibrated relationship then
turns intercept-resend noise into a smaller excess-noise estimate.

The per-pulse scenario (``run_pulses``) draws every pulse of a scenario,
its monitoring mask included, and adds up the sums its report reads.  It
is an oracle independent of the package's draw of those sums from their
law (``scenario.draw_moments``): the two agree in distribution, not in
bits.
"""

import math

import numpy as np

from cvqkdsim.estimation import MlEstimates, dot, ml_from_moments
from cvqkdsim.protocol import (
    BLOCK_SIZE,
    AttackParams,
    ChannelParams,
    PulseBatch,
    _rng,
    _simulate_block,
    alice_block,
    attack_gain,
    bob_block,
    outcome_law,
    pulse_blocks,
)
from cvqkdsim.pulses import DetectorModel
from cvqkdsim.ranges import UNIT
from cvqkdsim.scenario import (
    Moments,
    _key_target,
    _resolve_attack,
    analyse_scenario,
)

# The seed stream of the closed-switch outcomes, beside Alice's (0) and Bob's (1),
# and the seed-stream tag of the monitoring mask.
STREAM_MONITOR = 2
TAG_MONITOR_MASK = 100


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
    return ml_from_moments(x.size, dot(x, x), dot(x, y), dot(y, y))


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

    See ``monitor_block``, drawn block by block on the calling thread;
    electronic noise is unchanged.
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


def monitor_block(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    gain: float,
    extinction: float,
    seed: int,
    block: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-switch outcomes for the pulses ``x`` of block ``block``.

    Drawn as Bob's block is, from stream ``STREAM_MONITOR``, under
    ``outcome_law(ch, gain, extinction)``.
    """
    rng = _rng(seed, STREAM_MONITOR, block)
    return _simulate_block(rng, x, atk, outcome_law(ch, gain, extinction))


def monitor_mask_block(fraction: float, seed: int, block: int, size: int) -> np.ndarray:
    """Block ``block``, of ``size`` pulses, of the i.i.d. Bernoulli(fraction) monitoring mask.

    The whole mask is one draw of ``default_rng(seed).random(n) <
    fraction``, cut into ``BLOCK_SIZE`` blocks: block k's generator
    steps past the k*BLOCK_SIZE uniforms of the blocks before it (a
    PCG64 double takes one 64-bit output), so the blocks join to the same
    mask whatever the order they are drawn in.
    """
    UNIT.check("fraction", fraction)
    bits = np.random.PCG64(seed)
    bits.advance(block * BLOCK_SIZE)
    return np.random.Generator(bits).random(size) < fraction


def mask_seed(seed: int) -> int:
    """The seed of a scenario's monitoring mask, drawn from its master seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(TAG_MONITOR_MASK,)).generate_state(1)[0])


def add_open(moments: Moments, key_target: int, x: np.ndarray, y: np.ndarray) -> None:
    """Add the next open-switch pulses, in pulse order: the first ``key_target`` are the key set."""
    split = min(max(key_target - moments.n_open, 0), x.size)
    key_y, est_x, est_y = y[:split], x[split:], y[split:]
    moments.n_open += x.size
    est_yy = dot(est_y, est_y)
    moments.open_yy += dot(key_y, key_y) + est_yy
    if est_x.size:
        moments.m_est += est_x.size
        moments.est_xx += dot(est_x, est_x)
        moments.est_xy += dot(est_x, est_y)
        moments.est_yy += est_yy


def add_monitor(moments: Moments, y: np.ndarray) -> None:
    """Add closed-switch outcomes."""
    moments.m_monitor += y.size
    moments.monitor_yy += dot(y, y)


def draw_pulses(cfg, on_open=None) -> Moments:
    """A scenario's ``Moments`` with every pulse drawn, one ``BLOCK_SIZE`` block after the other.

    Per block: Alice's modulation, the block's monitor mask, Bob's
    attacked outcomes on the open-switch pulses and the monitoring
    outcomes on the closed-switch ones, added to the moments in pulse
    order.  ``on_open`` receives each block's open-switch pulses.
    """
    ch, atk = cfg.channel, _resolve_attack(cfg)
    gain = attack_gain(atk, cfg.detector)
    moments, key_target = Moments(atk, gain), _key_target(cfg)
    for block, _, size in pulse_blocks(cfg.pulses):
        x = alice_block(ch.va, cfg.seed, block, size)
        closed = np.zeros(size, dtype=bool)
        if cfg.countermeasure_enabled:
            closed = monitor_mask_block(cfg.monitor_fraction, mask_seed(cfg.seed), block, size)
        y, intercepted, lo_attacked = bob_block(x[~closed], ch, atk, gain, cfg.seed, block)
        add_open(moments, key_target, x[~closed], y)
        if closed.any():
            y_closed, _, _ = monitor_block(
                x[closed], ch, atk, gain, cfg.switch.extinction, cfg.seed, block
            )
            add_monitor(moments, y_closed)
        if on_open is not None:
            on_open(PulseBatch(x[~closed], y, intercepted, lo_attacked))
    return moments


def run_pulses(cfg, on_open=None):
    """The report of a scenario whose every pulse is drawn (``draw_pulses``)."""
    return analyse_scenario(cfg, draw_pulses(cfg, on_open))
