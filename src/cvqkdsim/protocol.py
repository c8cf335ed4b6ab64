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
precede or follow it, nor on when or on which thread they are drawn.
Alice's block k draws one standard normal per pulse.  Bob's block k
(stream 1), given the block's pulses, draws one uniform per pulse for
the intercept flags, one per pulse for the LO-attack flags, then one
standard normal per pulse; the monitor's block k (stream 2) draws the
same way for its closed-switch pulses.  A flag of probability 0 or 1
still owns its block of uniforms, and the generator steps past them
(``BitGenerator.advance``), so the normals that follow are the same.
The references ``generate_alice``, ``simulate_bob`` and
``simulate_monitor`` draw their input's ``BLOCK_SIZE`` blocks one after
the other on the calling thread; a scenario hands block k only the open
(or closed) pulses of its k-th block of Alice's pulses.  Only a scenario
draws blocks at once: ``map_blocks`` draws up to one block per CPU (at
most ``MAX_LANES``) and hands their results back in block order, so
whatever is summed over blocks is summed in the same order on any host.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .pulses import DetectorModel, detector_gain

# Pulses per independently-seeded generation block.
BLOCK_SIZE = 1 << 16


def pulse_blocks(n: int) -> Iterable[tuple[int, int, int]]:
    """(block, start, size) of each ``BLOCK_SIZE`` block of ``n`` pulses, in order."""
    starts = range(0, n, BLOCK_SIZE)
    return ((k, start, min(BLOCK_SIZE, n - start)) for k, start in enumerate(starts))


# Most blocks drawn at once, whatever the CPU count.  Each holds a block's
# arrays, 2.2 MiB traced in a scenario, so four keep a scenario's traced
# peak under 10 MiB.
MAX_LANES = 4


def _lanes() -> int:
    """The CPUs this process may use, at most ``MAX_LANES``."""
    if hasattr(os, "sched_getaffinity"):  # Linux; macOS and Windows lack it
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_LANES)


def map_blocks(fn: Callable, jobs: Iterable, fold: Callable, scratch: Callable) -> None:
    """Run ``fn(job, buffers)`` for every job, ``_lanes()`` at once; ``fold`` results in job order.

    numpy's generators and ufuncs release the GIL, so the jobs run at
    the same time.  Each lane has a slot whose ``buffers`` are made
    once, up front, by ``scratch()``: job k gets slot k mod lanes,
    handed to job k + lanes only after ``fold(result of job k)`` has
    returned.  So a run's memory depends on the lane count, not on the
    job count or on timing.  ``jobs`` is read and ``fold`` called
    on the calling thread only.  An exception raised by ``fn`` or
    ``fold`` is raised here once every pool thread has stopped.  One
    lane, or one job, runs on the calling thread alone.  A scenario's
    pulse blocks are its only jobs; the references draw block by block.
    """
    lanes = _lanes()
    jobs = iter(jobs)
    first = list(islice(jobs, 2))
    jobs = chain(first, jobs)
    if lanes == 1 or len(first) < 2:
        slot = scratch()
        for job in jobs:
            fold(fn(job, slot))
        return

    from concurrent.futures import ThreadPoolExecutor

    slots = [scratch() for _ in range(lanes)]
    with ThreadPoolExecutor(lanes) as pool:
        window = deque((slot, pool.submit(fn, job, slot)) for slot, job in zip(slots, jobs))
        while window:
            slot, future = window.popleft()
            fold(future.result())
            del future  # so that its result is freed before the slot's next job runs
            for job in islice(jobs, 1):  # the next job, if there is one
                window.append((slot, pool.submit(fn, job, slot)))


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


def alice_block(va: float, seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """Alice's quadratures for pulse block ``block``, one per element of ``out``, into ``out``."""
    x = _rng(seed, _STREAM_ALICE, block).standard_normal(out=out)
    x *= np.sqrt(va)
    return x


def generate_alice(n: int, va: float, seed: int) -> np.ndarray:
    """Alice's i.i.d. centred Gaussian quadratures with variance ``va``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if va < 0:
        raise ValueError(f"va must be >= 0, got {va}")
    out = np.empty(n)
    for block, start, size in pulse_blocks(n):
        alice_block(va, seed, block, out[start : start + size])
    return out


def attack_gain(atk: AttackParams, det: DetectorModel) -> float:
    """Variance gain applied to LO-reshaped pulses for the configured delay."""
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
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One seeded block of Bob outcomes, written to ``out`` (y, intercepted, lo_attacked).

    Draw order, part of the reproducibility contract: ``x.size``
    uniforms for the intercept flags, ``x.size`` uniforms for the
    LO-attack flags, then ``x.size`` standard normals, one per pulse.
    A flag of probability 0 or 1 still owns its ``x.size`` uniforms: its
    outcome is certain, so the generator steps past them unread.
    Given its flags, a pulse's outcome is
    ``signal_scale*sqrt(eta*T)*x`` plus that normal scaled by the
    standard deviation of its class,

        sqrt(g*(signal_scale**2*eta*T*2*n0*intercepted + n0 + eta*T*xi) + v_el),

    with g the timing gain on LO-attacked pulses and 1 otherwise: the
    law of the resend, optical and electronic noise summed.  ``scratch``,
    a float array of at least ``x.size``, holds the uniforms and the
    per-pulse factors, so that the block allocates no array of its size.
    """
    size = x.size
    y, intercepted, lo_attacked = out
    scratch = scratch[:size]
    eta_t = ch.eta * ch.transmittance
    certain = atk.mu in (0.0, 1.0) and atk.nu in (0.0, 1.0)
    for flags, p in ((intercepted, atk.mu), (lo_attacked, atk.nu)):
        if p in (0.0, 1.0):
            # a uniform in [0, 1) is below p exactly when p is 1; a PCG64
            # double takes one 64-bit output, so the normals get the same bits
            rng.bit_generator.advance(size)
            flags.fill(p == 1.0)
        else:
            np.less(rng.random(out=scratch), p, out=flags)
    rng.standard_normal(out=y)
    resend = signal_scale**2 * eta_t * 2.0 * ch.n0
    optical = ch.n0 + eta_t * ch.xi
    # noise standard deviation per class, indexed by intercepted + 2*lo_attacked
    sd = np.sqrt([g * (r + optical) + ch.v_el for g in (1.0, gain) for r in (0.0, resend)])
    if certain:  # every pulse is of one class
        y *= sd[int(atk.mu) + 2 * int(atk.nu)]
    else:
        index = lo_attacked.view(np.uint8) << 1
        index |= intercepted.view(np.uint8)
        # "clip" never buffers ``out``, as the default "raise" does; index is 0-3
        y *= np.take(sd, index, out=scratch, mode="clip")
    y += np.multiply(x, signal_scale * np.sqrt(eta_t), out=scratch)
    return y, intercepted, lo_attacked


def bob_block(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    gain: float,
    seed: int,
    block: int,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's outcomes, intercept and LO-attack flags for the pulses ``x`` of block ``block``.

    ``out`` and ``scratch`` as in ``_simulate_block``.
    """
    rng = _rng(seed, _STREAM_BOB, block)
    return _simulate_block(rng, x, ch, atk, gain, 1.0, out, scratch)


def monitor_block(
    x: np.ndarray,
    ch: ChannelParams,
    atk: AttackParams,
    gain: float,
    extinction: float,
    seed: int,
    block: int,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-switch outcomes for the pulses ``x`` of block ``block``.

    The switch transmits the fraction ``extinction`` of the signal-path
    variance (signal, resend noise and channel excess); shot noise
    arises at the detector and keeps the pulse's timing gain.  ``out``
    and ``scratch`` as in ``_simulate_block``.
    """
    blocked = replace(ch, xi=ch.xi * extinction)
    rng = _rng(seed, _STREAM_MONITOR, block)
    return _simulate_block(rng, x, blocked, atk, gain, float(np.sqrt(extinction)), out, scratch)


def _batch(x, block_fn, *args) -> PulseBatch:
    """Outcomes of ``block_fn(x_block, *args, block, out, scratch)`` over the blocks of ``x``."""
    y = np.empty(x.size)
    intercepted = np.empty(x.size, dtype=bool)
    lo_attacked = np.empty(x.size, dtype=bool)
    scratch = np.empty(min(BLOCK_SIZE, x.size))
    for block, start, size in pulse_blocks(x.size):
        sl = slice(start, start + size)
        block_fn(x[sl], *args, block, (y[sl], intercepted[sl], lo_attacked[sl]), scratch)
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
    return _batch(x, bob_block, ch, atk, gain, seed)


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
    return _batch(x, monitor_block, ch, atk, gain, extinction, seed)


@contextmanager
def pulses_csv(path: str | Path):
    """Open a pulse dump (index, x, y, intercepted, lo_attacked) for appending.

    Yields a function that appends one batch's rows, numbered on from
    the rows already written, with shortest-repr floats and CRLF line
    endings, the bytes ``csv.writer`` would write.  The scenario loop
    hands it one pulse block at a time, and it converts the block's rows
    a part at a time, which bounds the rows in memory.
    """
    row = "{},{!r},{!r},{:d},{:d}\r\n".format
    with open(path, "w", newline="") as fh:
        fh.write("index,x,y,intercepted,lo_attacked\r\n")
        written = 0

        def append(batch: PulseBatch) -> None:
            nonlocal written
            # 8192 rows at a time: a block's rows as Python objects take 5 MB
            for start in range(0, len(batch), 8192):
                part = slice(start, start + 8192)
                x = np.asarray(batch.x[part], dtype=float)
                fh.writelines(
                    map(
                        row,
                        range(written, written + x.size),
                        x.tolist(),
                        np.asarray(batch.y[part], dtype=float).tolist(),
                        batch.intercepted[part].tolist(),
                        batch.lo_attacked[part].tolist(),
                    )
                )
                written += x.size

        yield append
