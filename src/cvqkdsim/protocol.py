"""Per-pulse Monte Carlo of the Gaussian-modulated coherent-state link.

Alice draws centred Gaussian quadratures, Bob's homodyne outcomes are
simulated under a combined attack: a partial intercept-resend on a
fraction mu of the signal pulses and a trigger-delay (LO shaping) attack
on a fraction nu of the pulses that rescales the optical noise seen by
the detector.

The attack couples to the measurement exactly as the bias equations of
the estimation layer model it: the vacuum and channel noise of an
attacked pulse are scaled by the timing gain while the signal covariance
and the electronic noise are left untouched (the electronic noise is
assumed identical during calibration and the run).  This keeps the slope
estimator unbiased and makes the simulated bias agree with the
closed-form bias formulas for every (mu, nu, delay) configuration.

Draw-order contract.  Pulses are processed in blocks of ``BLOCK_SIZE``,
and block k of each stream draws from its own generator, seeded from
(seed, stream, k), so a block's draws do not depend on how many blocks
precede or follow it.  Alice's block k draws one standard normal per
pulse.  Bob's block k (stream 1), given the block's pulses, draws one
uniform per pulse for the intercept flags, one per pulse for the
LO-attack flags, then one standard normal per pulse; the monitor's
block k (stream 2) draws the same way for its closed-switch pulses.
``simulate_bob`` and ``simulate_monitor`` cut their input into blocks of
``BLOCK_SIZE``; a scenario hands block k only the open (or closed)
pulses of its k-th block of Alice's pulses.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .pulses import DetectorModel, detector_gain

# Pulses per independently-seeded generation block.
BLOCK_SIZE = 1 << 16

# Stream identifiers for seed splitting; fixed for reproducibility.
_STREAM_ALICE = 0
_STREAM_BOB = 1
_STREAM_MONITOR = 2


@dataclass
class ChannelParams:
    """True protocol parameters, all noise variances in shot-noise units.

    Attributes:
        va: Alice's modulation variance.
        transmittance: channel transmittance T in [0, 1].
        eta: homodyne detection efficiency in (0, 1].
        xi: excess noise referred to the channel input.
        v_el: electronic noise of the homodyne detection.
        n0: true shot-noise variance during the run (1 when unattacked).
    """

    va: float
    transmittance: float
    eta: float
    xi: float
    v_el: float
    n0: float = 1.0

    def __post_init__(self):
        if self.va < 0:
            raise ValueError(f"va must be >= 0, got {self.va}")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance must be in [0, 1], got {self.transmittance}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.xi < 0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if self.v_el < 0:
            raise ValueError(f"v_el must be >= 0, got {self.v_el}")
        if not self.n0 > 0:
            raise ValueError(f"n0 must be > 0, got {self.n0}")


@dataclass
class AttackParams:
    """Eve's knobs.

    Attributes:
        mu: fraction of signal pulses intercepted and resent.
        nu: fraction of pulses whose LO is reshaped.
        alpha: leading-edge attenuation applied to reshaped LO pulses.
        delta_ns: trigger delay induced on reshaped pulses.
    """

    mu: float = 0.0
    nu: float = 0.0
    alpha: float = 1.0
    delta_ns: float = 0.0

    def __post_init__(self):
        for name in ("mu", "nu", "alpha"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delta_ns < 0:
            raise ValueError(f"delta_ns must be >= 0, got {self.delta_ns}")


@dataclass
class PulseBatch:
    """Correlated per-pulse samples with the attack flags that produced them."""

    x: np.ndarray
    y: np.ndarray
    intercepted: np.ndarray
    lo_attacked: np.ndarray

    def __len__(self) -> int:
        return self.x.size


def _rng(seed: int, stream: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))


def alice_block(size: int, va: float, seed: int, block: int) -> np.ndarray:
    """Alice's quadratures for pulse block ``block`` (``size`` pulses)."""
    x = _rng(seed, _STREAM_ALICE, block).standard_normal(size)
    x *= np.sqrt(va)
    return x


def generate_alice(n: int, va: float, seed: int) -> np.ndarray:
    """Alice's i.i.d. centred Gaussian quadratures with variance ``va``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if va < 0:
        raise ValueError(f"va must be >= 0, got {va}")
    out = np.empty(n)
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        size = min(BLOCK_SIZE, n - start)
        out[start : start + size] = alice_block(size, va, seed, block)
    return out


def attack_gain(atk: AttackParams, det: DetectorModel) -> float:
    """Variance gain applied to LO-reshaped pulses for the configured delay."""
    if atk.delta_ns == 0.0:
        return 1.0
    return detector_gain(det.window_ns + atk.delta_ns, det)


def mean_attack_gain(atk: AttackParams, det: DetectorModel) -> float:
    """Population-average noise gain nu*g + (1 - nu) of the attacked run."""
    g = attack_gain(atk, det)
    return atk.nu * g + (1.0 - atk.nu)


def _simulate_block(
    rng: np.random.Generator,
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    gain: float,
    signal_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One seeded block of Bob outcomes.

    Draw order, part of the reproducibility contract: ``x.size``
    uniforms for the intercept flags, ``x.size`` uniforms for the
    LO-attack flags, then ``x.size`` standard normals, one per pulse.
    Given its flags, a pulse's outcome is
    ``signal_scale*sqrt(eta*T)*x`` plus that normal scaled by the
    standard deviation of its class,

        sqrt(g*(signal_scale**2*eta*T*2*n0*intercepted + n0 + eta*T*xi) + v_el),

    with g the timing gain on LO-attacked pulses and 1 otherwise: the
    law of the resend, optical and electronic noise summed.
    """
    size = x.size
    eta_t = ch.eta * ch.transmittance
    intercepted = rng.random(size) < atk.mu
    lo_attacked = rng.random(size) < atk.nu
    z = rng.standard_normal(size)
    resend = signal_scale**2 * eta_t * 2.0 * ch.n0
    optical = ch.n0 + eta_t * ch.xi
    # noise standard deviation per class, indexed by intercepted + 2*lo_attacked
    sd = np.sqrt([g * (r + optical) + ch.v_el for g in (1.0, gain) for r in (0.0, resend)])
    z *= sd[intercepted + 2 * lo_attacked]
    z += signal_scale * np.sqrt(eta_t) * x
    return z, intercepted, lo_attacked


def bob_block(
    x: np.ndarray, ch: ChannelParams, atk: AttackParams, gain: float, seed: int, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's outcomes, intercept and LO-attack flags for the pulses ``x`` of block ``block``."""
    return _simulate_block(_rng(seed, _STREAM_BOB, block), x, ch, atk, gain, 1.0)


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

    The switch transmits the fraction ``extinction`` of the signal-path
    variance (signal, resend noise and channel excess); shot noise
    arises at the detector and keeps the pulse's timing gain.
    """
    blocked = replace(ch, xi=ch.xi * extinction)
    rng = _rng(seed, _STREAM_MONITOR, block)
    return _simulate_block(rng, x, blocked, atk, gain, float(np.sqrt(extinction)))


def _batch(x, simulate) -> PulseBatch:
    """Outcomes of ``simulate(x_block, block)`` over the ``BLOCK_SIZE`` blocks of ``x``."""
    y = np.empty(x.size)
    intercepted = np.empty(x.size, dtype=bool)
    lo_attacked = np.empty(x.size, dtype=bool)
    for block, start in enumerate(range(0, x.size, BLOCK_SIZE)):
        sl = slice(start, start + BLOCK_SIZE)
        y[sl], intercepted[sl], lo_attacked[sl] = simulate(x[sl], block)
    return PulseBatch(x=x, y=y, intercepted=intercepted, lo_attacked=lo_attacked)


def simulate_bob(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    det: DetectorModel,
    seed: int,
) -> PulseBatch:
    """Bob's homodyne outcomes for Alice's quadratures under the attack.

    Per pulse, independently: intercepted with probability mu (Eve
    measures both quadratures and resends, adding optical noise of
    variance 2*n0 on the quadrature), LO-reshaped with probability nu
    (the pulse's optical noise is scaled by the timing gain).  The
    unintercepted, unshaped population reproduces the nominal second
    moments eta*T*va + n0 + eta*T*xi + v_el.
    """
    x = np.asarray(x, dtype=float)
    gain = attack_gain(atk, det)
    return _batch(x, lambda xb, block: bob_block(xb, ch, atk, gain, seed, block))


def simulate_monitor(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    det: DetectorModel,
    extinction: float,
    seed: int,
) -> PulseBatch:
    """Outcomes of monitoring pulses measured with the signal path blocked.

    See ``monitor_block``; electronic noise is unchanged.
    """
    if not 0.0 <= extinction < 1.0:
        raise ValueError(f"extinction must be in [0, 1), got {extinction}")
    x = np.asarray(x, dtype=float)
    gain = attack_gain(atk, det)
    return _batch(
        x, lambda xb, block: monitor_block(xb, ch, atk, gain, extinction, seed, block)
    )


@contextmanager
def pulses_csv(path: str | Path):
    """Open a pulse dump (index, x, y, intercepted, lo_attacked) for appending.

    Yields a function that appends one batch's rows, numbered on from
    the rows already written, with shortest-repr floats and CRLF line
    endings, the bytes ``csv.writer`` would write.  The scenario loop
    hands it one pulse block at a time, which bounds the rows in memory.
    """
    row = "{},{!r},{!r},{:d},{:d}\r\n".format
    with open(path, "w", newline="") as fh:
        fh.write("index,x,y,intercepted,lo_attacked\r\n")
        written = 0

        def append(batch: PulseBatch) -> None:
            nonlocal written
            fh.writelines(
                map(
                    row,
                    range(written, written + len(batch)),
                    np.asarray(batch.x, dtype=float).tolist(),
                    np.asarray(batch.y, dtype=float).tolist(),
                    batch.intercepted.tolist(),
                    batch.lo_attacked.tolist(),
                )
            )
            written += len(batch)

        yield append
