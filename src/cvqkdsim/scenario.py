"""End-to-end scenario orchestration.

Runs calibrate -> attack -> estimate -> countermeasure -> key rate on a
validated configuration and produces a deterministic report: channel
estimates, real-time shot-noise section and a security verdict comparing
the key rate Alice and Bob believe in against the one the true channel
supports.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .countermeasure import detect_attack, monitor_mask_block, realtime_shot_noise
from .errors import ConfigError, ScenarioStageError
from .estimation import (
    EstimationReport,
    confidence_bounds,
    dot,
    infer_channel,
    ml_from_moments,
    record_lines,
)
from .keyrate import (
    KeyRateParams,
    LinkModel,
    SweepPoint,
    discounted_rate,
    rate_at_distance,
    secret_key_rate,
)
from .protocol import (
    AttackParams,
    PulseBatch,
    alice_block,
    attack_gain,
    bob_block,
    monitor_block,
    outcome_law,
    pulse_blocks,
)
from .pulses import (
    PowerMeterConfig,
    Waveform,
    attenuate_leading_edge,
    trigger_time,
)

# Exit codes of the command-line front end.
EXIT_SECURE = 0
EXIT_ERROR = 1
EXIT_ABORT = 2
EXIT_BREACHED = 3

VERDICT_EXIT_CODES = {"secure": EXIT_SECURE, "abort": EXIT_ABORT, "breached": EXIT_BREACHED}

# Seed-stream tags of the scenario-level draws: the monitor mask of a pulse
# draw, and the moments drawn without one.
_TAG_MONITOR_MASK = 100
_TAG_MOMENTS = 101

# Nominal LO pulse: linear rise, flat top, linear fall (ns grid).
_RISE_NS = 30
_PLATEAU_NS = 75
_FALL_NS = 15


def default_lo_pulse() -> tuple[Waveform, float, PowerMeterConfig]:
    """Nominal LO pulse with its trigger threshold and power-meter settings."""
    rise = np.arange(_RISE_NS) / _RISE_NS
    plateau = np.ones(_PLATEAU_NS)
    fall = 1.0 - (np.arange(_FALL_NS) + 1.0) / _FALL_NS
    samples = np.concatenate([rise, plateau, fall])
    waveform = Waveform(samples, dt=1.0, t0=0.0)
    pm = PowerMeterConfig(window_ns=100.0)
    return waveform, 0.5, pm


def trigger_delay_from_attenuation(alpha: float) -> float:
    """Trigger delay induced by power-preserving attenuation of the rising edge.

    Continuous in alpha: 15/alpha - 15 ns while the attenuated rise still crosses the threshold.
    """
    base, threshold, pm = default_lo_pulse()
    shaped = attenuate_leading_edge(base, alpha, float(_RISE_NS), pm)
    return trigger_time(shaped, threshold) - trigger_time(base, threshold)


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(tag,)).generate_state(1)[0])


@contextmanager
def _stage(name: str):
    """Re-raise component failures with the failing stage named."""
    try:
        yield
    except ScenarioStageError:
        raise
    except Exception as exc:
        reason = str(exc) or type(exc).__name__
        raise ScenarioStageError(f"stage '{name}' failed: {reason}") from exc


@dataclass
class ScenarioReport:
    """Deterministic scenario outcome."""

    verdict: str
    k_estimated: float
    k_true: float
    i_ab_estimated: float
    chi_be_estimated: float
    transmittance_hat: float
    xi_hat_snu: float
    n0_line: float
    n0_rt: float | None
    alarm: bool | None
    alarm_statistic: float | None
    m_monitor: int
    m_estimation: int
    n_key: int
    delta_ns: float
    gain: float
    seed: int
    config_hash: str
    estimation: EstimationReport = field(metadata={"prefix": "est_"})

    @property
    def exit_code(self) -> int:
        return VERDICT_EXIT_CODES[self.verdict]

    def to_text(self) -> str:
        """Flat key=value block; bit-identical for identical seed and config."""
        return "\n".join(record_lines(self))


def _resolve_attack(cfg: ScenarioConfig):
    """Derive the trigger delay from alpha through the pulse model; no config sets both."""
    atk = cfg.attack
    if atk.alpha < 1.0:
        atk = replace(atk, delta_ns=trigger_delay_from_attenuation(atk.alpha))
    return atk


@dataclass
class Moments:
    """Counts and sums of one scenario's pulses: all that the analysis reads.

    ``est_*`` cover the estimation set, ``n_open`` and ``open_yy`` every
    open-switch pulse, and ``monitor_yy`` the closed-switch pulses.  Open
    pulses are added in pulse order; the first ``key_target`` of them
    form the key set and the rest the estimation set.
    """

    key_target: int
    n_open: int = 0
    open_yy: float = 0.0
    m_est: int = 0
    est_xx: float = 0.0
    est_xy: float = 0.0
    est_yy: float = 0.0
    est_x: float = 0.0
    est_y: float = 0.0
    m_monitor: int = 0
    monitor_yy: float = 0.0

    def add_open(self, x: np.ndarray, y: np.ndarray) -> None:
        """Add the next open-switch pulses, in pulse order."""
        split = min(max(self.key_target - self.n_open, 0), x.size)
        key_y, est_x, est_y = y[:split], x[split:], y[split:]
        self.n_open += x.size
        est_yy = dot(est_y, est_y)
        self.open_yy += dot(key_y, key_y) + est_yy
        if est_x.size:
            self.m_est += est_x.size
            self.est_xx += dot(est_x, est_x)
            self.est_xy += dot(est_x, est_y)
            self.est_yy += est_yy
            self.est_x += float(est_x.sum())
            self.est_y += float(est_y.sum())

    def add_monitor(self, y: np.ndarray) -> None:
        """Add closed-switch outcomes."""
        self.m_monitor += y.size
        self.monitor_yy += dot(y, y)


def _key_target(cfg: ScenarioConfig) -> int:
    """The size of the key set, the first open pulses; the estimation set is the rest.

    Eve's per-pulse choices are i.i.d. and independent of position, so this
    positional split is as good as a random one; an attack that depended
    on position would need a random split again.
    """
    return int(round(cfg.key_fraction * cfg.pulses))


def _class_counts(rng: np.random.Generator, n: int, atk: AttackParams) -> list[int]:
    """How many of ``n`` pulses fall in each attack class, indexed by intercepted + 2*lo_attacked.

    One binomial splits the pulses by the intercept flag, one more (on
    both parts at once) by the LO flag; a flag of probability 0 or 1
    draws nothing.
    """
    counts = [n]
    for p in (atk.mu, atk.nu):
        if p in (0.0, 1.0):
            hits = counts if p == 1.0 else [0] * len(counts)
        else:
            hits = rng.binomial(counts, p).tolist()
        counts = [k - h for k, h in zip(counts, hits)] + hits
    return counts


def _chi2(rng: np.random.Generator, df: int) -> float:
    """A chi-square variate with ``df`` >= 0 degrees of freedom; 0, drawing nothing, at 0."""
    return float(rng.chisquare(df)) if df > 0 else 0.0


def _standard_sums(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """(Σu², Σuz, Σz², Σu, Σz) over ``n`` >= 1 i.i.d. pairs (u, z) of standard normals.

    The sums (Σu, Σz) are N(0, n) each; the centred scatter, independent
    of them, is Wishart(n - 1, I), drawn by the Bartlett decomposition
    [[a, 0], [c, b]] times its transpose, with a² ~ χ²(n - 1), b² ~
    χ²(n - 2) and c ~ N(0, 1).  A single pair has zero scatter.
    """
    su, sz = (float(v) for v in rng.standard_normal(2) * math.sqrt(n))
    suu, suz, szz = su * su / n, su * sz / n, sz * sz / n
    if n > 1:
        a2, b2, c = _chi2(rng, n - 1), _chi2(rng, n - 2), float(rng.standard_normal())
        suu += a2
        suz += math.sqrt(a2) * c
        szz += c * c + b2
    return suu, suz, szz, su, sz


def draw_moments(cfg: ScenarioConfig, atk: AttackParams, gain: float) -> Moments:
    """The scenario's ``Moments``, drawn from their exact law in O(1) time and memory.

    They have the distribution of the moments of the per-pulse draw
    (``_draw_pulses``), not its bits.  The open count is Binomial(N, 1 -
    monitor_fraction) with the countermeasure on, N otherwise; the key
    set is its first ``key_target`` pulses and the estimation set the
    rest.  In each set the pulses of each attack class (``_class_counts``)
    are i.i.d. with x = sqrt(va)*u and y = slope*x + sd*z, for standard
    normals u and z and the class's ``protocol.outcome_law``; an
    estimation class draws the sums of its pairs (``_standard_sums``), a
    key-set or closed-switch class only its sum of y², (slope²*va +
    sd²) times χ²(n).  Draw order, from one generator seeded from (seed,
    ``_TAG_MOMENTS``): the closed count, then the estimation set's class
    counts and each non-empty class's sums, the key set's class counts
    and χ² variates, and the closed-switch pulses' likewise.  A class of
    no pulses draws nothing, so neither does a certain flag.
    """
    ch = cfg.channel
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(_TAG_MOMENTS,)))
    n_closed = 0
    with _stage("monitoring"):
        if cfg.countermeasure_enabled:
            n_closed = int(rng.binomial(cfg.pulses, cfg.monitor_fraction))
    n_open = cfg.pulses - n_closed
    moments = Moments(key_target=_key_target(cfg), n_open=n_open)
    n_key = min(moments.key_target, n_open)

    def sum_y2(n: int, law) -> float:
        slope, sd = law
        return sum(
            float(slope**2 * ch.va + s * s) * _chi2(rng, k)
            for k, s in zip(_class_counts(rng, n, atk), sd.tolist())
            if k
        )

    with _stage("channel-simulation"):
        law = outcome_law(ch, gain)
        slope, sqrt_va = float(law[0]), math.sqrt(ch.va)
        moments.m_est = n_open - n_key
        for k, sd in zip(_class_counts(rng, moments.m_est, atk), law[1].tolist()):
            if k:
                suu, suz, szz, su, sz = _standard_sums(rng, k)
                xx, xz, zz = ch.va * suu, sqrt_va * sd * suz, sd * sd * szz
                moments.est_xx += xx
                moments.est_xy += slope * xx + xz
                moments.est_yy += slope * slope * xx + 2.0 * slope * xz + zz
                moments.est_x += sqrt_va * su
                moments.est_y += slope * sqrt_va * su + sd * sz
        moments.open_yy = moments.est_yy + sum_y2(n_key, law)
    if n_closed:
        with _stage("monitoring"):
            moments.m_monitor = n_closed
            moments.monitor_yy = sum_y2(n_closed, outcome_law(ch, gain, cfg.switch.extinction))
    return moments


def _draw_pulses(
    cfg: ScenarioConfig, atk: AttackParams, gain: float, on_open: Callable[[PulseBatch], None]
) -> Moments:
    """Draw every pulse, one block after the other, and hand ``on_open`` each block's open ones.

    Per block: Alice's modulation, the block's monitor mask, Bob's
    attacked outcomes on the open-switch pulses and the monitoring
    outcomes on the closed-switch ones, added to the moments in pulse
    order.  ``on_open`` receives each block's open-switch pulses.  Memory
    does not grow with the pulse count.
    """
    ch = cfg.channel
    moments = Moments(key_target=_key_target(cfg))
    mask_seed = _sub_seed(cfg.seed, _TAG_MONITOR_MASK)

    # a function, so that its arrays are freed when it returns; a loop body would
    # keep them alive while the next block draws
    def draw_block(block: int, size: int) -> None:
        with _stage("modulation"):
            x = alice_block(ch.va, cfg.seed, block, size)
        closed = None
        if cfg.countermeasure_enabled:
            with _stage("monitoring"):
                closed = monitor_mask_block(cfg.monitor_fraction, mask_seed, block, size)
        with _stage("channel-simulation"):
            x_open = x if closed is None else x[~closed]
            y, intercepted, lo_attacked = bob_block(x_open, ch, atk, gain, cfg.seed, block)
        moments.add_open(x_open, y)
        if closed is not None:
            with _stage("monitoring"):
                y_closed, _, _ = monitor_block(
                    x[closed], ch, atk, gain, cfg.switch.extinction, cfg.seed, block
                )
            moments.add_monitor(y_closed)
        on_open(PulseBatch(x=x_open, y=y, intercepted=intercepted, lo_attacked=lo_attacked))

    for block, _, size in pulse_blocks(cfg.pulses):
        draw_block(block, size)
    return moments


@dataclass
class ScenarioSample:
    """The resolved attack, its timing gain and the moments of the scenario's pulses."""

    attack: AttackParams
    gain: float
    moments: Moments


def sample_scenario(
    cfg: ScenarioConfig, on_open: Callable[[PulseBatch], None] | None = None
) -> ScenarioSample:
    """Draw the scenario's moments: every pulse with ``on_open``, their exact law without.

    With ``on_open`` (a pulse dump) every pulse is drawn and handed to it
    (``_draw_pulses``); without, the moments are drawn directly, in O(1)
    time and memory (``draw_moments``).  The two give moments of the same
    distribution, not the same bits.
    """
    with _stage("pulse-model"):
        atk = _resolve_attack(cfg)
        gain = attack_gain(atk, cfg.detector)
    if on_open is None:
        moments = draw_moments(cfg, atk, gain)
    else:
        moments = _draw_pulses(cfg, atk, gain, on_open)
    return ScenarioSample(attack=atk, gain=gain, moments=moments)


def _snu_params(
    cfg: ScenarioConfig, va: float, transmittance: float, xi: float, n0: float
) -> KeyRateParams:
    """Key-rate inputs of the configured receiver, variances divided by the shot noise ``n0``."""
    return KeyRateParams(
        va=va / n0,
        transmittance=transmittance,
        eta=cfg.channel.eta,
        xi=xi / n0,
        v_el=cfg.channel.v_el / n0,
        beta=cfg.beta,
    )


def analyse_scenario(cfg: ScenarioConfig, sample: ScenarioSample) -> ScenarioReport:
    """Estimation, monitoring, key rates and verdict on a drawn sample."""
    ch = cfg.channel
    atk = sample.attack
    moments = sample.moments
    n0_line = cfg.n0_assumed

    # m_est >= 2 also gives monitoring the open pulses it divides by
    with _stage("estimation"):
        m_est = moments.m_est
        if m_est < 2:
            raise ConfigError(f"too few pulses left for estimation: {m_est}, need at least 2")
        n_key = moments.n_open - m_est
        estimates = ml_from_moments(
            m_est, moments.est_xx, moments.est_xy, moments.est_yy, moments.est_x, moments.est_y
        )
        intervals = confidence_bounds(estimates, cfg.epsilon)
        t_hat, xi_hat = infer_channel(estimates, n0_line, ch.eta, ch.v_el)
        report = EstimationReport(
            estimates=estimates,
            transmittance_hat=t_hat,
            xi_hat=xi_hat,
            intervals=intervals,
            n0_assumed=n0_line,
            epsilon=cfg.epsilon,
        )

    n0_rt = alarm = statistic = None
    m_monitor = moments.m_monitor
    if cfg.countermeasure_enabled:
        with _stage("monitoring"):
            if m_monitor < 2:
                # the shot noise cannot be checked, so the key cannot be trusted
                alarm = True
            else:
                n0_rt, _ = realtime_shot_noise(
                    moments.open_yy / moments.n_open,
                    moments.monitor_yy / m_monitor,
                    cfg.switch.extinction,
                    ch.v_el,
                )
                alarm, statistic = detect_attack(n0_rt, n0_line, m_monitor, cfg.z_threshold)

    monitor_fraction = cfg.monitor_fraction if cfg.countermeasure_enabled else 0.0

    with _stage("key-rate"):
        # Alice and Bob normalize by the calibration line, the truth by the real shot noise.
        est_params = _snu_params(
            cfg, estimates.va_hat, min(max(t_hat, 0.0), 1.0), max(xi_hat, 0.0), n0_line
        )
        est_breakdown = secret_key_rate(est_params)
        k_estimated = discounted_rate(est_breakdown.key_rate, monitor_fraction)

        true_params = _snu_params(
            cfg, ch.va, ch.transmittance, ch.xi + 2.0 * atk.mu * ch.n0, ch.n0
        )
        k_true = discounted_rate(secret_key_rate(true_params).key_rate, monitor_fraction)

    if alarm:
        verdict = "abort"
    elif k_estimated <= 0.0:
        verdict = "abort"
    elif k_true <= 0.0:
        verdict = "breached"
    else:
        verdict = "secure"

    return ScenarioReport(
        verdict=verdict,
        k_estimated=k_estimated,
        k_true=k_true,
        i_ab_estimated=est_breakdown.i_ab,
        chi_be_estimated=est_breakdown.chi_be,
        transmittance_hat=t_hat,
        xi_hat_snu=xi_hat / n0_line,
        estimation=report,
        n0_line=n0_line,
        n0_rt=n0_rt,
        alarm=alarm,
        alarm_statistic=statistic,
        m_monitor=m_monitor,
        m_estimation=m_est,
        n_key=n_key,
        delta_ns=atk.delta_ns,
        gain=sample.gain,
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
    )


def run_scenario(
    cfg: ScenarioConfig, on_open: Callable[[PulseBatch], None] | None = None
) -> ScenarioReport:
    """Execute the full pipeline on one configuration.

    Stage order: Alice's modulation, Bob's attacked outcomes, optional
    monitoring pulses with the switch closed, maximum-likelihood channel
    estimation on the non-key pulses against the calibration-line shot
    noise, attack detection, and the key-rate comparison that yields the
    verdict: "secure" (both the estimated and the true rate are
    positive), "abort" (alarm raised or estimated rate non-positive) or
    "breached" (Alice and Bob believe in a positive rate that the true
    channel does not support).  ``on_open``, a pulse dump, is passed on
    to ``sample_scenario``: with it every pulse is drawn, without it the
    moments are drawn from their exact law.
    """
    return analyse_scenario(cfg, sample_scenario(cfg, on_open))


def sweep_receivers(cfg: ScenarioConfig) -> tuple[dict, dict]:
    """Receiver keywords of ``rate_at_distance`` and ``max_secure_distance`` for the sweep.

    The first set is the configured receiver on the configured fibre;
    the second adds the countermeasure's monitoring fraction and switch.
    """
    plain = dict(
        eta=cfg.channel.eta,
        v_el=cfg.channel.v_el,
        beta=cfg.beta,
        snr_target=cfg.sweep.snr_target,
        xi_bob=cfg.sweep.xi_bob,
        link=LinkModel(loss_db_per_km=cfg.sweep.loss_db_per_km),
    )
    return plain, {**plain, "monitor_fraction": cfg.monitor_fraction, "switch": cfg.switch}


def sweep_keyrate(cfg: ScenarioConfig) -> tuple[list[SweepPoint], list[SweepPoint]]:
    """Key-rate curves over distance, without and with the countermeasure.

    The grid runs from 0 in steps of ``step_km`` and never past ``d_max_km``.
    """
    sweep = cfg.sweep
    # floor, with a tolerance so that 0.3 / 0.1 = 2.9999999999999996 still gives 3 steps
    n_steps = int(sweep.d_max_km / sweep.step_km + 1e-9)
    distances = [i * sweep.step_km for i in range(n_steps + 1)]
    plain, protected = sweep_receivers(cfg)
    return (
        [rate_at_distance(d, **plain) for d in distances],
        [rate_at_distance(d, **protected) for d in distances],
    )


def write_sweep_csv(points: list[SweepPoint], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d_km", "T", "V_A", "i_ab", "chi_be", "K"])
        writer.writerows(map(repr, astuple(p)) for p in points)


def last_positive_distance(points: list[SweepPoint]) -> float | None:
    """Largest grid distance with a positive rate, None if none is positive."""
    best = None
    for p in points:
        if p.key_rate > 0.0:
            best = p.distance_km
    return best
