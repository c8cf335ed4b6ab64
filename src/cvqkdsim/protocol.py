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

Generation is blocked and each block is seeded independently from the
top-level seed, so results are bit-identical regardless of how the blocks
would be scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def generate_alice(n: int, va: float, seed: int) -> np.ndarray:
    """Alice's i.i.d. centred Gaussian quadratures with variance ``va``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if va < 0:
        raise ValueError(f"va must be >= 0, got {va}")
    out = np.empty(n)
    scale = np.sqrt(va)
    for block in range(0, n, BLOCK_SIZE):
        size = min(BLOCK_SIZE, n - block)
        rng = _rng(seed, _STREAM_ALICE, block // BLOCK_SIZE)
        out[block : block + size] = rng.standard_normal(size) * scale
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
    """One seeded block of Bob outcomes; draw order is part of the contract."""
    size = x.size
    eta_t = ch.eta * ch.transmittance
    intercepted = rng.random(size) < atk.mu
    lo_attacked = rng.random(size) < atk.nu
    resend = rng.standard_normal(size) * np.sqrt(2.0 * ch.n0)
    optical = rng.standard_normal(size) * np.sqrt(ch.n0 + eta_t * ch.xi)
    electronic = rng.standard_normal(size) * np.sqrt(ch.v_el)
    noise_scale = np.where(lo_attacked, np.sqrt(gain), 1.0)
    amp = np.sqrt(eta_t)
    y = (
        signal_scale * amp * x
        + noise_scale * (signal_scale * amp * resend * intercepted + optical)
        + electronic
    )
    return y, intercepted, lo_attacked


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
    y = np.empty(x.size)
    intercepted = np.empty(x.size, dtype=bool)
    lo_attacked = np.empty(x.size, dtype=bool)
    for block in range(0, x.size, BLOCK_SIZE):
        size = min(BLOCK_SIZE, x.size - block)
        rng = _rng(seed, _STREAM_BOB, block // BLOCK_SIZE)
        sl = slice(block, block + size)
        y[sl], intercepted[sl], lo_attacked[sl] = _simulate_block(
            rng, x[sl], ch, atk, gain, signal_scale=1.0
        )
    return PulseBatch(x=x, y=y, intercepted=intercepted, lo_attacked=lo_attacked)


def simulate_monitor(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    det: DetectorModel,
    extinction: float,
    seed: int,
) -> PulseBatch:
    """Outcomes of monitoring pulses measured with the signal path blocked.

    The switch transmits the residual fraction ``extinction`` of the
    signal-path variance (signal, resend noise and channel excess); shot
    noise arises at the detector and keeps the per-pulse timing gain,
    electronic noise is unchanged.
    """
    if not 0.0 <= extinction < 1.0:
        raise ValueError(f"extinction must be in [0, 1), got {extinction}")
    x = np.asarray(x, dtype=float)
    gain = attack_gain(atk, det)
    eta_t = ch.eta * ch.transmittance
    blocked = ChannelParams(
        va=ch.va,
        transmittance=ch.transmittance,
        eta=ch.eta,
        xi=ch.xi * extinction,
        v_el=ch.v_el,
        n0=ch.n0,
    )
    y = np.empty(x.size)
    intercepted = np.empty(x.size, dtype=bool)
    lo_attacked = np.empty(x.size, dtype=bool)
    for block in range(0, x.size, BLOCK_SIZE):
        size = min(BLOCK_SIZE, x.size - block)
        rng = _rng(seed, _STREAM_MONITOR, block // BLOCK_SIZE)
        sl = slice(block, block + size)
        y[sl], intercepted[sl], lo_attacked[sl] = _simulate_block(
            rng, x[sl], blocked, atk, gain, signal_scale=np.sqrt(extinction)
        )
    return PulseBatch(x=x, y=y, intercepted=intercepted, lo_attacked=lo_attacked)


def write_pulses_csv(batch: PulseBatch, path: str | Path) -> None:
    """Dump a pulse batch as CSV (index, x, y, intercepted, lo_attacked).

    Written one ``BLOCK_SIZE`` slice at a time, with shortest-repr floats
    and CRLF line endings, the bytes ``csv.writer`` would write.
    """
    row = "{},{!r},{!r},{:d},{:d}\r\n".format
    with open(path, "w", newline="") as fh:
        fh.write("index,x,y,intercepted,lo_attacked\r\n")
        for start in range(0, len(batch), BLOCK_SIZE):
            sl = slice(start, start + BLOCK_SIZE)
            x = np.asarray(batch.x[sl], dtype=float).tolist()
            y = np.asarray(batch.y[sl], dtype=float).tolist()
            fh.writelines(
                map(
                    row,
                    range(start, start + len(x)),
                    x,
                    y,
                    batch.intercepted[sl].tolist(),
                    batch.lo_attacked[sl].tolist(),
                )
            )
