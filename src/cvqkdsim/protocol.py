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

Draw-order contract of the whole-array references ``generate_alice``
and ``simulate_bob``.  Pulses are processed in blocks of ``BLOCK_SIZE``,
and block k of each stream draws from its own generator, seeded from
(seed, stream, k), so a block's draws do not depend on how many blocks
precede or follow it.  Alice's block k draws one standard normal per
pulse.  Bob's block k (stream 1), given the block's pulses, draws one
uniform per pulse for the intercept flags, one per pulse for the
LO-attack flags, then one standard normal per pulse; a flag of
probability 0 or 1 draws its uniforms too.  Each block returns fresh
arrays, drawn on the calling thread.  A scenario draws no pulse this
way: it draws the sums of its pulses from their exact law
(``scenario.draw_moments``), and a pulse dump draws the pulses given
those sums (``scenario.dump_pulses``) in the blocks ``pulses_csv(path,
blocks)`` writes; ``outcome_law`` states the law once for all of them.
The writer forks one process, which draws and formats only the second
half's blocks, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pulses import DetectorModel, detector_gain
from .ranges import NON_NEGATIVE, POSITIVE, UNIT, UNIT_ABOVE_0, checked, param

# Pulses per independently-seeded generation block.
BLOCK_SIZE = 1 << 16


def pulse_blocks(n: int, size: int = BLOCK_SIZE) -> Iterable[tuple[int, int, int]]:
    """(block, start, size) of each block of ``size`` of ``n`` pulses, in order."""
    return ((k, start, min(size, n - start)) for k, start in enumerate(range(0, n, size)))


# Stream identifiers for seed splitting; fixed for reproducibility.
_STREAM_ALICE = 0
_STREAM_BOB = 1


@checked
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

    va: float = param(5.0, within=NON_NEGATIVE)
    transmittance: float = param(0.5, within=UNIT)
    eta: float = param(0.5, within=UNIT_ABOVE_0)
    xi: float = param(0.1, within=NON_NEGATIVE)
    v_el: float = param(0.01, within=NON_NEGATIVE)
    n0: float = param(1.0, within=POSITIVE)


@checked
class AttackParams:
    """Eve's knobs.

    Attributes:
        mu: fraction of signal pulses intercepted and resent.
        nu: fraction of pulses whose LO is reshaped.
        alpha: leading-edge attenuation applied to reshaped LO pulses.
        delta_ns: trigger delay induced on reshaped pulses.
    """

    mu: float = param(0.0, within=UNIT)
    nu: float = param(0.0, within=UNIT)
    alpha: float = param(1.0, within=UNIT)
    delta_ns: float = param(0.0, within=NON_NEGATIVE)


@dataclass
class PulseBatch:
    """Correlated per-pulse samples with the attack flags that produced them."""

    x: np.ndarray
    y: np.ndarray
    intercepted: np.ndarray
    lo_attacked: np.ndarray


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of the seed stream ``key`` of ``seed``, e.g. (stream, block)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def alice_block(va: float, seed: int, block: int, size: int) -> np.ndarray:
    """Alice's ``size`` quadratures of pulse block ``block``."""
    x = _rng(seed, _STREAM_ALICE, block).standard_normal(size)
    x *= np.sqrt(va)
    return x


def generate_alice(n: int, va: float, seed: int) -> np.ndarray:
    """Alice's i.i.d. centred Gaussian quadratures with variance ``va``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    NON_NEGATIVE.check("va", va)
    out = np.empty(n)
    for block, start, size in pulse_blocks(n):
        out[start : start + size] = alice_block(va, seed, block, size)
    return out


def attack_gain(atk: AttackParams, det: DetectorModel) -> float:
    """Variance gain applied to LO-reshaped pulses for the configured delay."""
    return detector_gain(det.window_ns + atk.delta_ns, det)


def outcome_law(
    ch: ChannelParams, gain: float, transmission: float = 1.0
) -> tuple[float, tuple[float, ...]]:
    """The law of Bob's outcome given Alice's quadrature x and the pulse's attack class.

    Returns ``(slope, sd)``: the outcome is ``slope*x`` plus a standard
    normal scaled by ``sd[c]``, the noise standard deviation of class
    ``c = intercepted + 2*lo_attacked``,

        sqrt(g*(s**2*eta*T*2*n0*intercepted + n0 + eta*T*xi*s**2) + v_el),

    with ``slope = s*sqrt(eta*T)``, s = sqrt(``transmission``) and g the
    timing ``gain`` on LO-attacked pulses (1 otherwise): the law of the
    resend, optical and electronic noise summed.  The switch transmits the
    fraction ``transmission`` of the signal-path variance: 1 when open, the
    extinction when closed; shot noise arises at the detector and keeps
    the pulse's timing gain.
    """
    signal_scale, xi = math.sqrt(transmission), ch.xi * transmission
    eta_t = ch.eta * ch.transmittance
    resend = signal_scale**2 * eta_t * 2.0 * ch.n0
    optical = ch.n0 + eta_t * xi
    var = [g * (r + optical) + ch.v_el for g in (1.0, gain) for r in (0.0, resend)]
    return signal_scale * math.sqrt(eta_t), tuple(map(math.sqrt, var))


def _simulate_block(
    rng: np.random.Generator, x: np.ndarray, atk: AttackParams, law: tuple[float, tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One seeded block of outcomes under ``law``, from ``outcome_law``.

    Draw order, part of the reproducibility contract: ``x.size``
    uniforms for the intercept flags, ``x.size`` uniforms for the
    LO-attack flags, then ``x.size`` standard normals, one per pulse.
    """
    slope, sd = law
    intercepted = rng.random(x.size) < atk.mu
    lo_attacked = rng.random(x.size) < atk.nu
    y = rng.standard_normal(x.size)
    # a uint8 class index, 0-3: an int64 one would take eight times the memory
    y *= np.asarray(sd)[lo_attacked.view(np.uint8) << 1 | intercepted]
    y += slope * x
    return y, intercepted, lo_attacked


def bob_block(
    x: np.ndarray, ch: ChannelParams, atk: AttackParams, gain: float, seed: int, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's outcomes, intercept and LO-attack flags for the pulses ``x`` of block ``block``."""
    rng = _rng(seed, _STREAM_BOB, block)
    return _simulate_block(rng, x, atk, outcome_law(ch, gain))


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
    for block, start, size in pulse_blocks(x.size):
        sl = slice(start, start + size)
        y[sl], intercepted[sl], lo_attacked[sl] = bob_block(x[sl], ch, atk, gain, seed, block)
    return PulseBatch(x=x, y=y, intercepted=intercepted, lo_attacked=lo_attacked)


# A dump row's flag columns, indexed by intercepted + 2*lo_attacked.
_ROW_ENDS = (",0,0\r\n", ",1,0\r\n", ",0,1\r\n", ",1,1\r\n")

# Rows formatted and joined at once, so a part's strings are alive together
# (about 0.1 MB for 1024 rows).  Parts of 8192 rows wrote no faster and
# raised the peak RSS of a ``run --csv`` process by about 2 MB.
_CSV_PART = 1024


def _write_rows(fh, blocks: Sequence[tuple[int, Callable]], first: int) -> None:
    """Draw and format the ``(rows, draw)`` blocks into ``fh``, numbering rows from ``first``."""
    for _, draw in blocks:
        x, y, classes = draw()
        for start in range(0, x.size, _CSV_PART):
            part = slice(start, start + _CSV_PART)
            rows = zip(range(first + start, first + x.size), x[part].tolist(),
                       y[part].tolist(), classes[part].tolist())
            fh.write("".join([f"{i},{a!r},{b!r}{_ROW_ENDS[k]}" for i, a, b, k in rows]))
        first += x.size


def pulses_csv(path: str | Path, blocks: Sequence[tuple[int, Callable]]) -> None:
    """Write a pulse dump (index, x, y, intercepted, lo_attacked) of ``(rows, draw)`` blocks.

    Each ``draw()`` returns ``rows`` pulses as ``(x, y, class)``, numbered
    on across the blocks and written with shortest-repr floats and CRLF
    line endings, the bytes ``csv.writer`` would write, 1024
    (``_CSV_PART``) rows to one f-string join and one write, so that only
    one part's strings are in memory at once.  One ``os.fork`` splits the
    dump at the first block that starts at or after its middle row.  The
    child draws only the blocks from there on, formats them into an
    unnamed temporary file in the dump's directory and leaves through
    ``os._exit`` on every path, with the error's text in that file if it
    failed; a failed child is an ``OSError`` that names it.  The parent
    draws and formats the blocks before the split, reaps the child and
    appends the file; if the parent fails, it kills and reaps the child
    first.  A failed dump deletes ``path`` before its error propagates.

    Python 3.12 and later warn of a fork in a process with threads, such
    as numpy's OpenBLAS pool (``DeprecationWarning``, silenced around the
    fork alone).  This fork is safe: the child calls no BLAS (the dump's
    sums of products are ``estimation.dot``, an einsum, and its maps plain
    floats), starts no thread and never returns into the caller's code.
    """
    import os
    import signal
    import tempfile
    import warnings

    path, starts = Path(path), np.cumsum([0, *(rows for rows, _ in blocks)]).tolist()
    half = next(k for k, start in enumerate(starts) if start >= starts[-1] // 2)
    fh = open(path, "w", newline="")
    try:
        with fh, tempfile.TemporaryFile(dir=path.parent) as tail:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                        DeprecationWarning)
                pid = os.fork()
            if not pid:
                code = 1
                try:
                    with open(tail.fileno(), "w", newline="", closefd=False) as out:
                        _write_rows(out, blocks[half:], starts[half])
                    code = 0
                except BaseException as exc:
                    import traceback

                    error = traceback.format_exception_only(exc)[-1].strip()
                    os.ftruncate(tail.fileno(), 0)
                    os.pwrite(tail.fileno(), error.encode(), 0)
                finally:
                    os._exit(code)
            try:
                fh.write("index,x,y,intercepted,lo_attacked\r\n")
                _write_rows(fh, blocks[:half], 0)
                fh.flush()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            size = os.fstat(tail.fileno()).st_size
            if status:  # 1 with the error's text in the file, or minus the signal that killed it
                error = (os.pread(tail.fileno(), size, 0).decode(errors="replace") if status == 1
                         else f"killed by signal {-status}")
                raise OSError(f"pulse dump writer (child {pid}) failed: {error}")
            offset = 0
            while offset < size:
                offset += os.sendfile(fh.fileno(), tail.fileno(), offset, size - offset)
    except BaseException:
        path.unlink()
        raise
