"""End-to-end scenario orchestration.

Runs a validated configuration through attack, estimation, monitoring
and key rate, to a deterministic report and a verdict comparing the key
rate Alice and Bob believe in with the one the true channel supports.
The report reads only sums of the pulses, drawn from their exact law; a
pulse dump is drawn given those sums, so ``run --csv`` prints the same.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from .config import ScenarioConfig
from .countermeasure import detect_attack, realtime_shot_noise
from .errors import ScenarioStageError
from .estimation import MlEstimates, confidence_bounds, dot, infer_channel, ml_from_moments
from .keyrate import (
    KeyRateParams,
    SweepPoint,
    discounted_rate,
    rate_at_distance,
    secret_key_rate,
)
from .protocol import (
    AttackParams,
    _rng,
    attack_gain,
    outcome_law,
    pulse_blocks,
)
from .pulses import (
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

# Seed-stream tags of the scenario-level draws: the moments, and the pulse
# dump that expands them.
_TAG_MOMENTS = 101
_TAG_DUMP = 102

# Pulses per block of a pulse dump, which holds a few arrays of this size.
_DUMP_BLOCK = 1 << 14

# Nominal LO pulse: linear rise, flat top, linear fall (ns grid).
_RISE_NS = 30
_PLATEAU_NS = 75
_FALL_NS = 15


def default_lo_pulse() -> tuple[Waveform, float, float]:
    """Nominal LO pulse, its trigger threshold and the power meter's window in ns."""
    rise = np.arange(_RISE_NS) / _RISE_NS
    plateau = np.ones(_PLATEAU_NS)
    fall = 1.0 - (np.arange(_FALL_NS) + 1.0) / _FALL_NS
    samples = np.concatenate([rise, plateau, fall])
    waveform = Waveform(samples, dt=1.0, t0=0.0)
    return waveform, 0.5, 100.0


def trigger_delay_from_attenuation(alpha: float) -> float:
    """Trigger delay induced by power-preserving attenuation of the rising edge.

    Continuous in alpha: 15/alpha - 15 ns while the attenuated rise still crosses the threshold.
    """
    base, threshold, window_ns = default_lo_pulse()
    shaped = attenuate_leading_edge(base, alpha, float(_RISE_NS), window_ns)
    return trigger_time(shaped, threshold) - trigger_time(base, threshold)


class _stage:
    """Re-raise component failures (an ``Exception``, not an interrupt) with the stage named."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, Exception):
            reason = str(exc) or kind.__name__
            raise ScenarioStageError(f"stage '{self.name}' failed: {reason}") from exc


def record_lines(record) -> list[str]:
    """``name=value`` lines of a report record, one per field, in field order.

    A nested record contributes its own lines in place, and an interval
    map ``{key: (low, high)}`` the lines ``key_low`` and ``key_high``, each
    prefixed with its field's ``metadata["prefix"]``.  Strings print bare,
    every other value through ``repr``.
    """
    lines = []
    for f in fields(record):
        value, prefix = getattr(record, f.name), f.metadata.get("prefix", "")
        if is_dataclass(value):
            lines += [prefix + line for line in record_lines(value)]
        elif isinstance(value, dict):
            lines += [
                f"{prefix}{key}_{side}={bound!r}"
                for key, bounds in value.items()
                for side, bound in zip(("low", "high"), bounds)
            ]
        else:
            lines.append(f"{f.name}={value if isinstance(value, str) else repr(value)}")
    return lines


@dataclass
class ScenarioReport:
    """Deterministic scenario outcome.

    ``estimation`` holds the estimator's point estimates and ``intervals``
    maps "t", "sigma2" and "va" to their (low, high) bounds at confidence
    1 - epsilon; both print with the prefix ``est_``.  ``xi_hat_snu`` may
    be negative and is never clamped here.
    """

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
    estimation: MlEstimates = field(metadata={"prefix": "est_"})
    intervals: dict[str, tuple[float, float]] = field(metadata={"prefix": "est_"})

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
    """One draw of a scenario (``draw_moments``): exactly what its analysis and its dump read.

    ``attack`` is the resolved attack (the delay derived from ``alpha``)
    and ``gain`` its timing gain; the rest are counts and sums of the
    pulses.  ``n_open`` and ``open_yy`` cover every open-switch pulse: the
    first ``n_open - m_est`` form the key set, the rest the estimation set,
    which ``est_xx``, ``est_xy`` and ``est_yy`` (the estimator's three sums)
    cover; ``monitor_yy`` covers the closed-switch pulses.  ``key_classes``
    and ``est_classes`` hold, per attack class of each set, its pulse count
    and what was drawn for it: Σw² of w = y/sd(y), and ``_standard_sums``.
    ``dump_pulses`` expands them into the blocks that ``run --csv`` writes
    once the report is computed.
    """

    attack: AttackParams
    gain: float
    n_open: int = 0
    open_yy: float = 0.0
    m_est: int = 0
    est_xx: float = 0.0
    est_xy: float = 0.0
    est_yy: float = 0.0
    m_monitor: int = 0
    monitor_yy: float = 0.0
    key_classes: tuple = ()
    est_classes: tuple = ()


def _key_target(cfg: ScenarioConfig) -> int:
    """The size of the key set, the first open pulses; the estimation set is the rest.

    Eve's per-pulse choices are i.i.d. and independent of position, so this
    positional split is as good as a random one; an attack that depended
    on position would need a random split again.
    """
    return int(round(cfg.key_fraction * cfg.pulses))


def _class_counts(rng: np.random.Generator, n: int, atk: AttackParams) -> list[int]:
    """How many of ``n`` pulses fall in each attack class, indexed by intercepted + 2*lo_attacked.

    One binomial splits the pulses by the intercept flag, one more per
    part by the LO flag; a flag of probability 0 or 1 draws nothing.
    """
    counts = [n]
    for p in (atk.mu, atk.nu):
        if p in (0.0, 1.0):
            hits = counts if p == 1.0 else [0] * len(counts)
        else:
            hits = [rng.binomial(k, p) for k in counts]
        counts = [k - h for k, h in zip(counts, hits)] + hits
    return counts


def _chi2(rng: np.random.Generator, df: int) -> float:
    """A chi-square variate with ``df`` >= 0 degrees of freedom; 0, drawing nothing, at 0."""
    return float(rng.chisquare(df)) if df > 0 else 0.0


def _standard_sums(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """The sums of ``n`` >= 1 i.i.d. pairs (u, z) of standard normals, as (Σu, Σz, a², c, b²).

    The sums (Σu, Σz) are N(0, n) each; the centred scatter, independent
    of them, is Wishart(n - 1, I), drawn as L Lᵀ for the Bartlett factor
    L = [[a, 0], [c, b]], with a² ~ χ²(n - 1), b² ~ χ²(n - 2) and c ~
    N(0, 1).  A single pair has zero scatter.
    """
    su, sz = rng.standard_normal() * math.sqrt(n), rng.standard_normal() * math.sqrt(n)
    if n == 1:
        return su, sz, 0.0, 0.0, 0.0
    a2, b2, c = _chi2(rng, n - 1), _chi2(rng, n - 2), rng.standard_normal()
    return su, sz, a2, c, b2


def draw_moments(cfg: ScenarioConfig) -> Moments:
    """The scenario's ``Moments``, drawn from their exact law in O(1) time and memory.

    First the resolved attack and its gain (the pulse-model stage).  The
    open count is Binomial(N, 1 - monitor_fraction) with the countermeasure
    on, N otherwise; the key set is its first ``_key_target`` pulses (all of
    them if fewer) and the estimation set the rest.  In each set the pulses
    of each attack class (``_class_counts``) are i.i.d. with x = sqrt(va)*u
    and y = slope*x + sd*z, for standard normals u and z and the class's
    ``protocol.outcome_law``; an estimation class draws the sums of its
    pairs (u, z) (``_standard_sums``), kept for the dump and folded into
    Σx², Σxy and Σy², a key-set or closed-switch class only Σw² ~ χ²(n) of
    w = y/sd(y).  Draw order, from one generator seeded from (seed,
    ``_TAG_MOMENTS``): the closed count, then the estimation set's class
    counts and each non-empty class's sums, the key set's class counts and
    χ² variates, and the closed-switch pulses' likewise.  A class of no
    pulses draws nothing, so neither does a certain flag.
    """
    with _stage("pulse-model"):
        atk = _resolve_attack(cfg)
        gain = attack_gain(atk, cfg.detector)
    ch = cfg.channel
    rng = _rng(cfg.seed, _TAG_MOMENTS)
    n_closed = 0
    with _stage("monitoring"):
        if cfg.countermeasure_enabled:
            n_closed = int(rng.binomial(cfg.pulses, cfg.monitor_fraction))
    n_open = cfg.pulses - n_closed
    moments = Moments(atk, gain, n_open=n_open)
    n_key = min(_key_target(cfg), n_open)

    def chi2_classes(n: int) -> tuple:
        return tuple([(k, _chi2(rng, k)) for k in _class_counts(rng, n, atk)])

    def sum_y2(classes: tuple, law) -> float:
        slope, sd = law
        return sum((slope**2 * ch.va + s * s) * w2 for (k, w2), s in zip(classes, sd) if k)

    with _stage("channel-simulation"):
        law = outcome_law(ch, gain)
        slope, sqrt_va = law[0], math.sqrt(ch.va)
        moments.m_est = n_open - n_key
        est_classes = []
        for k, sd in zip(_class_counts(rng, moments.m_est, atk), law[1]):
            stats = _standard_sums(rng, k) if k else ()
            est_classes.append((k, stats))
            if k:
                su, sz, a2, c, b2 = stats
                suu, suz = su * su / k + a2, su * sz / k + math.sqrt(a2) * c
                szz = sz * sz / k + (c * c + b2)
                xx, xz, zz = ch.va * suu, sqrt_va * sd * suz, sd * sd * szz
                moments.est_xx += xx
                moments.est_xy += slope * xx + xz
                moments.est_yy += slope * slope * xx + 2.0 * slope * xz + zz
        moments.est_classes = tuple(est_classes)
        moments.key_classes = chi2_classes(n_key)
        moments.open_yy = moments.est_yy + sum_y2(moments.key_classes, law)
    if n_closed:
        with _stage("monitoring"):
            moments.m_monitor = n_closed
            law = outcome_law(ch, gain, cfg.switch.extinction)
            moments.monitor_yy = sum_y2(chi2_classes(n_closed), law)
    return moments


def _pool(pooled: tuple, u: np.ndarray, z: np.ndarray) -> tuple:
    """``pooled``, a class's (n, m_u, m_z, a, c, b), with the pairs (u, z) added.

    n counts the pairs, m is their mean and L = [[a, 0], [c, b]] the
    Bartlett (Cholesky) factor of their centred scatter.  The new pairs'
    own factor (Gram-Schmidt on their centred values) and the shift of
    their mean join L as rows through Givens rotations, a QR update: no
    scatter is formed from sums, so a nearly singular one keeps its digits.
    """
    n, mu, mz, a, c, b = pooled
    k = u.size
    if not k:
        return pooled
    bu, bz = float(u.mean()), float(z.mean())
    du, dz = u - bu, z - bz
    ka = math.sqrt(dot(du, du))
    e = du * (1.0 / ka if ka else 0.0)
    kc = dot(e, dz)
    dz -= kc * e
    g = math.sqrt(n * k / (n + k))
    for p, q in ((ka, kc), (0.0, math.sqrt(dot(dz, dz))), (g * (bu - mu), g * (bz - mz))):
        h = math.hypot(a, p)
        cos, sin = (a / h, p / h) if h else (1.0, 0.0)
        a, c, q = h, cos * c + sin * q, cos * q - sin * c
        b = math.hypot(b, q)
    w = k / (n + k)
    return n + k, mu + (bu - mu) * w, mz + (bz - mz) * w, a, c, b


def _onto(pooled: tuple, target: tuple, u: np.ndarray, z: np.ndarray):
    """L_t L_r⁻¹ (v - m_r) + m_t: a class's raw pairs v = (u, z) onto its ``target`` sums.

    m_r and L_r are the mean and Bartlett factor of all of the class's raw
    pairs (``_pool``), m_t and L_t those of ``target``, the class's
    ``_standard_sums``.  L_r has rank n - 1 below 3; its inverse is 0
    past that rank.
    """
    n, mu, mz, ra, rc, rb = pooled
    tu, tz, ta2, tc, tb2 = target
    e1 = (u - mu) * (1.0 / ra if ra else 0.0)
    e2 = (z - mz - rc * e1) * (1.0 / rb if rb and n > 2 else 0.0)
    return math.sqrt(ta2) * e1 + tu / n, tc * e1 + math.sqrt(tb2) * e2 + tz / n


def dump_pulses(cfg: ScenarioConfig) -> list[tuple[int, Callable[[], tuple[np.ndarray, ...]]]]:
    """``(rows, draw)`` of each block of the open-switch pulses of ``cfg``'s run, in order.

    ``draw()`` returns the block's pulses ``(x, y, attack_class)``, the
    class a uint8 intercepted + 2*lo_attacked, drawn from their exact law
    given the moments the run's report reads (``draw_moments``).  The key
    set comes first, then the estimation set, each in blocks of
    ``_DUMP_BLOCK`` pulses.  Block k of set s (0 key, 1 estimation) draws
    from a generator seeded from (seed, ``_TAG_DUMP``, s, k): its class
    counts (``multivariate_hypergeometric`` from the counts still left), two
    standard normals (u, z) per pulse, class by class, then one permutation
    of its rows.  This call draws each block's counts and normals and pools
    each class's pairs (``_pool``) into the factors that every ``draw()``
    reads.  A ``draw()`` redraws its block alone, in any order or process,
    and maps each estimation class's pairs with one affine map onto its sums
    (``_onto``); in the key set it scales y = u onto the class's Σy² by its
    pooled Σu² and draws x from its law given y.  A Gaussian sample's
    standardized configuration is independent of its sums (Basu), so each
    pulse keeps the law of ``outcome_law``; the rows add up to the report.
    """
    moments = draw_moments(cfg)
    va, (slope, sds) = cfg.channel.va, outcome_law(cfg.channel, moments.gain)

    def raw(part, block, left, size):
        rng = _rng(cfg.seed, _TAG_DUMP, part, block)
        counts = rng.multivariate_hypergeometric(left, size).tolist()
        return rng, counts, [rng.standard_normal((2, k)) for k in counts]

    def draw(part, classes, pooled, block, left, size):
        rng, counts, pairs = raw(part, block, left, size)
        x, y, start = np.empty(size), np.empty(size), 0
        for c, (u, z) in enumerate(pairs):
            if not u.size:
                continue
            rows, start, sd = slice(start, start + u.size), start + u.size, sds[c]
            if part:
                u, z = _onto(pooled[c], classes[c][1], u, z)
                x[rows] = math.sqrt(va) * u
                y[rows] = slope * x[rows] + sd * z
            else:
                n, mu, _, ra, _, _ = pooled[c]
                s2 = slope * slope * va + sd * sd
                y[rows] = u * math.sqrt(s2 * classes[c][1] / (ra * ra + n * mu * mu))
                x[rows] = slope * va / s2 * y[rows] + math.sqrt(va / s2) * sd * z
        order = rng.permutation(size)
        return x[order], y[order], np.repeat(np.arange(4, dtype=np.uint8), counts)[order]

    blocks = []
    for part, classes in enumerate((moments.key_classes, moments.est_classes)):
        pooled, left = [(0,) * 6] * 4, [k for k, _ in classes]
        for block, _, size in pulse_blocks(sum(left), _DUMP_BLOCK):
            blocks.append((size, partial(draw, part, classes, pooled, block, left, size)))
            _, counts, pairs = raw(part, block, left, size)
            pooled[:] = [_pool(p, u, z) for p, (u, z) in zip(pooled, pairs)]
            left = [k - c for k, c in zip(left, counts)]
    return blocks


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


def analyse_scenario(cfg: ScenarioConfig, moments: Moments) -> ScenarioReport:
    """Estimation, monitoring, key rates and verdict on one draw (``draw_moments``)."""
    ch = cfg.channel
    atk = moments.attack
    n0_line = cfg.n0_assumed

    # m_est >= 2 also gives monitoring the open pulses it divides by
    with _stage("estimation"):
        m_est = moments.m_est
        if m_est < 2:
            raise ValueError(f"too few pulses left for estimation: {m_est}, need at least 2")
        n_key = moments.n_open - m_est
        estimates = ml_from_moments(m_est, moments.est_xx, moments.est_xy, moments.est_yy)
        intervals = confidence_bounds(estimates, cfg.epsilon)
        t_hat, xi_hat = infer_channel(estimates, n0_line, ch.eta, ch.v_el)

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

    if alarm or k_estimated <= 0.0:
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
        n0_line=n0_line,
        n0_rt=n0_rt,
        alarm=alarm,
        alarm_statistic=statistic,
        m_monitor=m_monitor,
        m_estimation=m_est,
        n_key=n_key,
        delta_ns=atk.delta_ns,
        gain=moments.gain,
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        estimation=estimates,
        intervals=intervals,
    )


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Execute the full pipeline on one configuration.

    One draw (``draw_moments``), then its analysis (``analyse_scenario``).
    Stages: pulse-model (the trigger delay and its gain), channel-simulation
    and monitoring (the open- and closed-switch moments), then estimation
    (maximum likelihood against the calibration-line shot noise),
    monitoring (the real-time shot noise and alarm) and key-rate, which
    yields the verdict: "secure" (both the estimated and the true rate are
    positive), "abort" (alarm raised or estimated rate non-positive) or
    "breached" (Alice and Bob believe in a positive rate that the true
    channel does not support).
    """
    return analyse_scenario(cfg, draw_moments(cfg))


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
        loss_db_per_km=cfg.sweep.loss_db_per_km,
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


def last_positive_distance(points: list[SweepPoint]) -> float | None:
    """Largest grid distance with a positive rate, None if none is positive."""
    return max((p.distance_km for p in points if p.key_rate > 0.0), default=None)
