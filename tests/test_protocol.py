import csv
import math
import os
import re
import signal
import warnings

import numpy as np
import pytest

from cvqkdsim import (
    AttackParams,
    ChannelParams,
    DetectorModel,
    cli,
    generate_alice,
    protocol,
    simulate_bob,
)
from cvqkdsim.protocol import (
    BLOCK_SIZE,
    alice_block,
    attack_gain,
    bob_block,
    pulse_blocks,
    pulses_csv,
)
from reference import mean_attack_gain, monitor_block, simulate_monitor

CH = ChannelParams(va=5.0, transmittance=0.5, eta=0.5, xi=0.1, v_el=0.01)
DET = DetectorModel()


def var_se(true_var, n):
    """Standard error of a sample second moment of Gaussians."""
    return true_var * math.sqrt(2.0 / n)


def _outcomes_as_first_written(rng, x, ch, atk, gain, signal_scale):
    """Bob's block outcomes computed with fresh arrays and an int64 class index.

    Draws every flag's uniforms, also where the flag's probability is 0 or 1.
    """
    size = x.size
    eta_t = ch.eta * ch.transmittance
    intercepted = rng.random(size) < atk.mu
    lo_attacked = rng.random(size) < atk.nu
    z = rng.standard_normal(size)
    resend = signal_scale**2 * eta_t * 2.0 * ch.n0
    optical = ch.n0 + eta_t * ch.xi
    sd = np.sqrt([g * (r + optical) + ch.v_el for g in (1.0, gain) for r in (0.0, resend)])
    z *= sd[intercepted + 2 * lo_attacked]
    z += signal_scale * np.sqrt(eta_t) * x
    return z, intercepted, lo_attacked


def test_samplers_draw_the_bits_of_the_first_writing():
    n, seed, extinction = 2 * BLOCK_SIZE + 777, 21, 0.05
    atk = AttackParams(mu=0.3, nu=0.6, delta_ns=10.0)
    gain = attack_gain(atk, DET)
    x = generate_alice(n, CH.va, seed)
    bob = simulate_bob(x, CH, atk, DET, seed)
    monitor = simulate_monitor(x, CH, atk, DET, extinction, seed)
    blocked = ChannelParams(va=CH.va, transmittance=CH.transmittance, eta=CH.eta,
                            xi=CH.xi * extinction, v_el=CH.v_el)
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        sl = slice(start, start + BLOCK_SIZE)
        np.testing.assert_array_equal(x[sl], alice_block(CH.va, seed, block, x[sl].size))
        for batch, stream, ch, scale in ((bob, 1, CH, 1.0),
                                         (monitor, 2, blocked, math.sqrt(extinction))):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))
            expected = _outcomes_as_first_written(rng, x[sl], ch, atk, gain, scale)
            for got, want in zip((batch.y, batch.intercepted, batch.lo_attacked), expected):
                np.testing.assert_array_equal(got[sl], want)


@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.4, 1.0)])
@pytest.mark.parametrize("size", [BLOCK_SIZE, 777])
def test_certain_flags_draw_the_bits_of_the_first_writing(mu, nu, size):
    seed, block, extinction = 23, 3, 0.05
    atk = AttackParams(mu=mu, nu=nu, delta_ns=10.0)
    gain = attack_gain(atk, DET)
    x = alice_block(CH.va, seed, block, size)
    blocked = ChannelParams(va=CH.va, transmittance=CH.transmittance, eta=CH.eta,
                            xi=CH.xi * extinction, v_el=CH.v_el)
    got = {
        1: bob_block(x, CH, atk, gain, seed, block),
        2: monitor_block(x, CH, atk, gain, extinction, seed, block),
    }
    for stream, ch, scale in ((1, CH, 1.0), (2, blocked, math.sqrt(extinction))):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))
        expected = _outcomes_as_first_written(rng, x, ch, atk, gain, scale)
        for have, want in zip(got[stream], expected):
            np.testing.assert_array_equal(have, want)


def test_references_draw_block_by_block_without_the_pool():
    n, seed, extinction = 2 * BLOCK_SIZE + 777, 24, 0.05
    atk = AttackParams(mu=0.3, nu=0.6, delta_ns=10.0)
    gain = attack_gain(atk, DET)
    x = generate_alice(n, CH.va, seed)
    bob = simulate_bob(x, CH, atk, DET, seed)
    monitor = simulate_monitor(x, CH, atk, DET, extinction, seed)
    for block, start, size in pulse_blocks(n):
        sl = slice(start, start + size)
        np.testing.assert_array_equal(x[sl], alice_block(CH.va, seed, block, size))
        expected = (
            (bob, bob_block(x[sl], CH, atk, gain, seed, block)),
            (monitor, monitor_block(x[sl], CH, atk, gain, extinction, seed, block)),
        )
        for batch, want in expected:
            for got, arrays in zip((batch.y, batch.intercepted, batch.lo_attacked), want):
                np.testing.assert_array_equal(got[sl], arrays)


class TestGenerateAlice:
    def test_zero_variance_gives_zeros(self):
        assert not generate_alice(1000, 0.0, seed=1).any()

    def test_sample_variance_concentrates(self):
        n, va = 1_000_000, 5.0
        x = generate_alice(n, va, seed=2)
        assert abs(np.mean(x**2) - va) < 4.0 * va * math.sqrt(2.0 / n)

    def test_deterministic_for_seed(self):
        a = generate_alice(70_000, 3.0, seed=3)
        b = generate_alice(70_000, 3.0, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_block_seeding_gives_prefix_stability(self):
        # outputs for the first pulses do not depend on how many follow
        short = generate_alice(BLOCK_SIZE + 10, 2.0, seed=4)
        long = generate_alice(2 * BLOCK_SIZE, 2.0, seed=4)
        np.testing.assert_array_equal(short, long[: BLOCK_SIZE + 10])

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_alice(0, 1.0, seed=1)
        with pytest.raises(ValueError):
            generate_alice(10, -1.0, seed=1)


class TestSimulateBob:
    def test_nominal_variance_matches_channel_model(self):
        ch = ChannelParams(va=5.0, transmittance=0.5, eta=0.5, xi=0.0, v_el=0.0)
        n = 1_000_000
        x = generate_alice(n, ch.va, seed=5)
        batch = simulate_bob(x, ch, AttackParams(), DET, seed=5)
        expected = ch.eta * ch.transmittance * ch.va + 1.0
        assert abs(np.mean(batch.y**2) - expected) < 5.0 * var_se(expected, n)

    def test_full_intercept_resend_variance(self):
        # intercepted population adds two shot-noise units through the channel
        n = 1_000_000
        x = generate_alice(n, CH.va, seed=6)
        batch = simulate_bob(x, CH, AttackParams(mu=1.0), DET, seed=6)
        eta_t = CH.eta * CH.transmittance
        expected = eta_t * (CH.va + 2.0) + 1.0 + eta_t * CH.xi + CH.v_el
        assert abs(np.mean(batch.y**2) - expected) < 5.0 * var_se(expected, n)
        assert batch.intercepted.all()

    def test_zero_transmittance_decouples(self):
        ch = ChannelParams(va=5.0, transmittance=0.0, eta=0.5, xi=0.1, v_el=0.01)
        n = 500_000
        x = generate_alice(n, ch.va, seed=7)
        batch = simulate_bob(x, ch, AttackParams(), DET, seed=7)
        expected = 1.0 + ch.v_el
        assert abs(np.mean(batch.y**2) - expected) < 5.0 * var_se(expected, n)
        cov = float(np.mean(batch.x * batch.y))
        assert abs(cov) < 5.0 * math.sqrt(ch.va * expected / n)

    @pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (0.5, 0.0), (0.3, 0.5), (1.0, 1.0)])
    def test_covariance_unbiased_for_any_attack(self, mu, nu):
        # the trigger-delay attack rescales noise, not the signal covariance,
        # so the slope estimator stays unbiased for every (mu, nu)
        n = 1_000_000
        x = generate_alice(n, CH.va, seed=8)
        batch = simulate_bob(x, CH, AttackParams(mu=mu, nu=nu, delta_ns=10.0), DET, seed=8)
        expected = math.sqrt(CH.eta * CH.transmittance) * CH.va
        var_y = float(np.mean(batch.y**2))
        se = math.sqrt((CH.va * var_y + expected**2) / n)
        assert abs(float(np.mean(batch.x * batch.y)) - expected) < 5.0 * se

    def test_mixture_law_without_lo_attack(self):
        mu = 0.3
        n = 1_000_000
        x = generate_alice(n, CH.va, seed=9)
        batch = simulate_bob(x, CH, AttackParams(mu=mu), DET, seed=9)
        eta_t = CH.eta * CH.transmittance
        var_ir = eta_t * (CH.va + 2.0) + 1.0 + eta_t * CH.xi + CH.v_el
        var_bs = eta_t * CH.va + 1.0 + eta_t * CH.xi + CH.v_el
        expected = mu * var_ir + (1.0 - mu) * var_bs
        assert abs(np.mean(batch.y**2) - expected) < 5.0 * var_se(expected, n)

    def test_lo_attack_scales_noise_variance_by_gain(self):
        # isolate the optical noise: no modulation, no electronic noise
        ch = ChannelParams(va=0.0, transmittance=0.5, eta=0.5, xi=0.0, v_el=0.0)
        atk = AttackParams(nu=0.5, delta_ns=10.0)
        n = 1_000_000
        x = generate_alice(n, ch.va, seed=10)
        batch = simulate_bob(x, ch, atk, DET, seed=10)
        gain = attack_gain(atk, DET)
        var_attacked = float(np.mean(batch.y[batch.lo_attacked] ** 2))
        var_normal = float(np.mean(batch.y[~batch.lo_attacked] ** 2))
        ratio = var_attacked / var_normal
        n_sub = batch.lo_attacked.sum()
        assert abs(ratio - gain) < 5.0 * gain * math.sqrt(2.0 / n_sub + 2.0 / (n - n_sub))

    def test_attack_flag_fractions_are_binomial(self):
        n = 200_000
        atk = AttackParams(mu=0.25, nu=0.6, delta_ns=5.0)
        x = generate_alice(n, CH.va, seed=11)
        batch = simulate_bob(x, CH, atk, DET, seed=11)
        for flag, p in ((batch.intercepted, atk.mu), (batch.lo_attacked, atk.nu)):
            assert abs(flag.mean() - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)

    def test_bit_identical_for_same_seed(self):
        x = generate_alice(80_000, CH.va, seed=12)
        atk = AttackParams(mu=0.5, nu=0.5, delta_ns=10.0)
        a = simulate_bob(x, CH, atk, DET, seed=12)
        b = simulate_bob(x, CH, atk, DET, seed=12)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.intercepted, b.intercepted)

    def test_gain_helpers(self):
        atk = AttackParams(nu=0.4, delta_ns=10.0)
        g = attack_gain(atk, DET)
        assert 0.0 < g < 1.0
        assert mean_attack_gain(atk, DET) == pytest.approx(0.4 * g + 0.6)
        assert attack_gain(AttackParams(), DET) == 1.0

    def test_attack_params_validation(self):
        with pytest.raises(ValueError):
            AttackParams(mu=1.5)
        with pytest.raises(ValueError):
            AttackParams(delta_ns=-1.0)


class TestSimulateMonitor:
    def test_blocked_path_leaves_scaled_shot_noise(self):
        atk = AttackParams(nu=1.0, delta_ns=10.0)
        n = 500_000
        x = generate_alice(n, CH.va, seed=13)
        batch = simulate_monitor(x, CH, atk, DET, extinction=0.0, seed=13)
        gain = attack_gain(atk, DET)
        expected = gain * 1.0 + CH.v_el
        assert abs(np.mean(batch.y**2) - expected) < 5.0 * var_se(expected, n)

    def test_residual_extinction_leaks_signal(self):
        extinction = 0.05
        n = 500_000
        x = generate_alice(n, CH.va, seed=14)
        batch = simulate_monitor(x, CH, AttackParams(), DET, extinction=extinction, seed=14)
        eta_t = CH.eta * CH.transmittance
        expected = extinction * (eta_t * CH.va + eta_t * CH.xi) + 1.0 + CH.v_el
        assert abs(np.mean(batch.y**2) - expected) < 5.0 * var_se(expected, n)

    def test_extinction_validation(self):
        with pytest.raises(ValueError):
            simulate_monitor(np.ones(10), CH, AttackParams(), DET, extinction=1.0, seed=1)


@pytest.mark.parametrize("extinction", [None, 0.3])
def test_each_attack_class_follows_its_gaussian_law(extinction):
    """Per (intercepted, LO-attacked) class: mean y^2 and mean xy against closed forms.

    ``None`` is ``simulate_bob``; a number is ``simulate_monitor`` at that
    extinction, which passes that share of the signal-path variance.  The
    electronic noise is large, so that a timing gain applied to it shows.
    """
    ch = ChannelParams(va=5.0, transmittance=0.5, eta=0.5, xi=0.1, v_el=0.5)
    atk = AttackParams(mu=0.5, nu=0.5, delta_ns=10.0)
    n = 400_000
    x = generate_alice(n, ch.va, seed=17)
    if extinction is None:
        batch = simulate_bob(x, ch, atk, DET, seed=17)
        share = 1.0
    else:
        batch = simulate_monitor(x, ch, atk, DET, extinction=extinction, seed=17)
        share = extinction
    g = attack_gain(atk, DET)
    eta_t = ch.eta * ch.transmittance
    for intercepted in (False, True):
        for lo_attacked in (False, True):
            sel = (batch.intercepted == intercepted) & (batch.lo_attacked == lo_attacked)
            m = int(sel.sum())
            gain = g if lo_attacked else 1.0
            noise = gain * (share * eta_t * (2.0 * ch.n0 * intercepted + ch.xi) + ch.n0)
            var_y = share * eta_t * ch.va + noise + ch.v_el
            cov = math.sqrt(share * eta_t) * ch.va
            mean_y2 = float(np.mean(batch.y[sel] ** 2))
            mean_xy = float(np.mean(batch.x[sel] * batch.y[sel]))
            assert abs(mean_y2 - var_y) < 5.0 * var_se(var_y, m)
            assert abs(mean_xy - cov) < 5.0 * math.sqrt((ch.va * var_y + cov**2) / m)


def test_pulse_csv_dump(tmp_path):
    x = generate_alice(500, CH.va, seed=15)
    batch = simulate_bob(x, CH, AttackParams(mu=0.5), DET, seed=15)
    path = tmp_path / "pulses.csv"
    pulses_csv(path, [(batch.x, batch.y, batch.intercepted + 2 * batch.lo_attacked)], 500)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,y,intercepted,lo_attacked"
    assert len(lines) == 501
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(batch.x[0])


def _reference_pulses_csv(batch, path):
    """The original row-by-row csv.writer dump, kept as the byte reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "intercepted", "lo_attacked"])
        for i in range(batch.x.size):
            writer.writerow(
                [
                    i,
                    repr(float(batch.x[i])),
                    repr(float(batch.y[i])),
                    int(batch.intercepted[i]),
                    int(batch.lo_attacked[i]),
                ]
            )


def test_pulse_csv_dump_matches_row_by_row_writer(tmp_path):
    short, long = 1000, 2 * protocol._CSV_PART + 37
    x = generate_alice(short + long, CH.va, seed=16)
    batch = simulate_bob(x, CH, AttackParams(mu=0.5, nu=0.5, delta_ns=10.0), DET, seed=16)
    special = [-0.0, 5e-324, 1e300, float("inf"), float("nan"), 1.0]
    batch.x[:6] = special
    batch.y[10:16] = special
    batch.y[short + protocol._CSV_PART - 3 : short + protocol._CSV_PART + 3] = special
    assert len(set(zip(batch.intercepted.tolist(), batch.lo_attacked.tolist()))) == 4
    _reference_pulses_csv(batch, tmp_path / "reference.csv")
    # small blocks, so that the row numbering crosses several blocks, then
    # one that crosses two part boundaries and ends on an uneven tail
    cuts = [*range(0, short, 64), short, short + long]
    classes = batch.intercepted + 2 * batch.lo_attacked
    blocks = ((batch.x[sl], batch.y[sl], classes[sl]) for sl in map(slice, cuts, cuts[1:]))
    pulses_csv(tmp_path / "pulses.csv", blocks, short + long)
    assert (tmp_path / "pulses.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


SPECIAL = [-0.0, 5e-324, float("inf"), float("nan")]


def _batch(n, seed):
    """A batch of ``n`` attacked pulses, every attack class among them."""
    x = generate_alice(n, CH.va, seed=seed)
    return simulate_bob(x, CH, AttackParams(mu=0.5, nu=0.5, delta_ns=10.0), DET, seed=seed)


def _stream(batch, sizes, drawn, fail=None):
    """The batch's ``(x, y, class)`` blocks of ``sizes``, each index appended to ``drawn``.

    ``fail`` is ``(block, exception)``: the stream raises it in place of that block.
    """
    classes = batch.intercepted + 2 * batch.lo_attacked
    cuts = np.cumsum([0, *sizes])
    for k, sl in enumerate(map(slice, cuts, cuts[1:])):
        if fail and fail[0] == k:
            raise fail[1]
        drawn.append(k)
        yield batch.x[sl], batch.y[sl], classes[sl]


@pytest.fixture
def one_process():
    """Leave at once in a forked writer that returned into the test; check no child is left."""
    pid = os.getpid()
    yield
    if os.getpid() != pid:
        os._exit(70)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "sizes, special_rows, drawn_here",
    [
        pytest.param([500], [], [0], id="one-block"),
        pytest.param([300, 300, 300, 300], [], [0, 1], id="split-on-a-boundary"),
        pytest.param([333, 334, 334], [], [0, 1], id="odd-rows"),
        pytest.param([2100, 1000, 37], [0, 2096, 2100, 3133], [0], id="special-floats"),
    ],
)
def test_a_dump_split_between_two_processes_has_the_reference_bytes(
    tmp_path, one_process, sizes, special_rows, drawn_here
):
    rows = sum(sizes)
    batch = _batch(rows, seed=18)
    for row in special_rows:
        batch.x[row : row + 4] = SPECIAL
        batch.y[row : row + 4] = SPECIAL[::-1]
    _reference_pulses_csv(batch, tmp_path / "reference.csv")
    drawn = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the fork warning of Python 3.12 and later included
        pulses_csv(tmp_path / "pulses.csv", _stream(batch, sizes, drawn), rows)
    assert [str(w.message) for w in caught] == []
    # this process draws the blocks before the first one that starts at or after rows // 2
    assert drawn == drawn_here
    assert (tmp_path / "pulses.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pulses.csv", "reference.csv"]


# block sizes 300 each, so rows 0-599 are formatted here and 600-1199 by the forked writer
FAILURES = [
    pytest.param(1, ValueError("broken block"), ValueError, "^broken block$", id="here"),
    pytest.param(1, KeyboardInterrupt(), KeyboardInterrupt, "^$", id="here-interrupted"),
    pytest.param(
        3, ValueError("broken block"), OSError,
        r"^pulse dump writer \(child \d+\) failed: ValueError: broken block$",
        id="in-the-child",
    ),
    pytest.param(
        2, KeyboardInterrupt(), OSError,
        r"^pulse dump writer \(child \d+\) failed: KeyboardInterrupt$",
        id="in-the-child-interrupted",
    ),
]


@pytest.mark.parametrize("block, error, raised, message", FAILURES)
def test_a_failed_dump_raises_in_the_caller_and_leaves_no_process_or_file(
    tmp_path, one_process, block, error, raised, message
):
    batch = _batch(1200, seed=19)
    with pytest.raises(raised, match=message):
        pulses_csv(tmp_path / "pulses.csv", _stream(batch, [300] * 4, [], (block, error)), 1200)
    assert [p.name for p in tmp_path.iterdir()] == ["pulses.csv"]


def test_a_killed_writer_is_named(tmp_path, one_process):
    batch = _batch(1200, seed=21)
    pid = os.getpid()

    def stream():
        for k, block in enumerate(_stream(batch, [300] * 4, [])):
            if k == 2 and os.getpid() != pid:
                os.kill(os.getpid(), signal.SIGKILL)
            yield block

    message = r"^pulse dump writer \(child \d+\) failed: killed by signal 9$"
    with pytest.raises(OSError, match=message):
        pulses_csv(tmp_path / "pulses.csv", stream(), 1200)
    assert [p.name for p in tmp_path.iterdir()] == ["pulses.csv"]


@pytest.mark.parametrize("block, error, raised, message", FAILURES[::2])
def test_a_failed_dump_exits_1_without_a_traceback(
    tmp_path, monkeypatch, capsys, one_process, block, error, raised, message
):
    batch = _batch(1200, seed=20)
    monkeypatch.setattr(
        cli, "dump_pulses", lambda cfg: _stream(batch, [300] * 4, [], (block, error))
    )
    (tmp_path / "run.cfg").write_text("pulses = 1200\n")  # 600 key and 600 estimation rows
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--out", str(out), "--csv"])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert re.fullmatch(f"error \\(run\\): {message.strip('^$')}\n", err), err
    assert [p.name for p in out.iterdir()] == ["pulses.csv"]
