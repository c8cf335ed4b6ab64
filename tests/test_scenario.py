import copy
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvqkdsim import (
    AttackParams,
    KeyRateParams,
    generate_alice,
    load_config,
    mutual_information,
    parse_config,
    run_scenario,
    secret_key_rate,
    serialize_config,
    simulate_bob,
    sweep_keyrate,
)
from cvqkdsim import scenario
from cvqkdsim.cli import main
from cvqkdsim.countermeasure import monitor_mask_blocks
from cvqkdsim.errors import ConfigError, ScenarioStageError
from cvqkdsim.protocol import BLOCK_SIZE, alice_block, attack_gain, bob_block, monitor_block
from cvqkdsim.scenario import (
    EXIT_ABORT,
    EXIT_BREACHED,
    EXIT_ERROR,
    EXIT_SECURE,
    _TAG_MONITOR_MASK,
    Moments,
    _sub_seed,
    analyse_scenario,
    last_positive_distance,
    sample_scenario,
    trigger_delay_from_attenuation,
)

BREACH = """
# full intercept-resend hidden by a 10 ns trigger delay
pulses = 400000
seed = 7
mu = 1.0
nu = 1.0
delta_ns = 10.0
xi = 0.1
"""


def _keep(blocks: list):
    """An ``on_open`` that keeps a copy of each batch, whose arrays the sampler reuses."""
    return lambda batch: blocks.append(copy.deepcopy(batch))


DEFAULT = parse_config("pulses = 1000\n")
DEFAULT_TEXT = serialize_config(DEFAULT)

# config key -> (value text, parsed value, the ScenarioConfig fields it sets);
# every value is in range and differs from the default
KEY_CASES = {
    "pulses": ("1234", 1234, ["pulses"]),
    "seed": ("9", 9, ["seed"]),
    "key_fraction": ("0.3", 0.3, ["key_fraction"]),
    "epsilon": ("0.01", 0.01, ["epsilon"]),
    "va": ("4.0", 4.0, ["channel.va"]),
    "transmittance": ("0.25", 0.25, ["channel.transmittance"]),
    "eta": ("0.75", 0.75, ["channel.eta"]),
    "xi": ("0.2", 0.2, ["channel.xi"]),
    "vel": ("0.02", 0.02, ["channel.v_el", "detector.v_el"]),
    "n0": ("1.5", 1.5, ["channel.n0"]),
    "mu": ("0.25", 0.25, ["attack.mu"]),
    "nu": ("0.5", 0.5, ["attack.nu"]),
    "alpha": ("0.75", 0.75, ["attack.alpha"]),
    "delta_ns": ("5.0", 5.0, ["attack.delta_ns"]),
    "window_ns": ("80.0", 80.0, ["detector.window_ns"]),
    "tau_ns": ("40.0", 40.0, ["detector.tau_ns"]),
    "slope_cal": ("2.0", 2.0, ["detector.slope_cal"]),
    "n0_assumed": ("1.25", 1.25, ["n0_assumed"]),
    "countermeasure": ("on", True, ["countermeasure_enabled"]),
    "monitor_fraction": ("0.2", 0.2, ["monitor_fraction"]),
    "switch_loss_db": ("1.5", 1.5, ["switch.loss_db"]),
    "extinction": ("0.05", 0.05, ["switch.extinction"]),
    "z_threshold": ("4.0", 4.0, ["z_threshold"]),
    "beta": ("0.9", 0.9, ["beta"]),
    "snr_target": ("0.1", 0.1, ["sweep.snr_target"]),
    "xi_bob": ("0.002", 0.002, ["sweep.xi_bob"]),
    "loss_db_per_km": ("0.25", 0.25, ["sweep.loss_db_per_km"]),
    "sweep_d_max_km": ("100.0", 100.0, ["sweep.d_max_km"]),
    "sweep_step_km": ("2.0", 2.0, ["sweep.step_km"]),
}


def _flat_fields(cfg) -> dict:
    """Every leaf field of a config, keyed by its dotted path."""
    flat = {}
    for name, value in dataclasses.asdict(cfg).items():
        if isinstance(value, dict):
            flat.update({f"{name}.{leaf}": v for leaf, v in value.items()})
        else:
            flat[name] = value
    return flat


class TestParseConfig:
    def test_minimal_file_applies_defaults(self):
        cfg = parse_config("pulses = 1000\n")
        assert cfg.pulses == 1000
        assert cfg.channel.va == 5.0
        assert cfg.channel.eta == 0.5
        assert cfg.attack.mu == 0.0
        assert cfg.detector.window_ns == 100.0
        assert not cfg.countermeasure_enabled
        assert cfg.beta == 0.948

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("pulses = 1000\nbogus = 3\n")

    def test_range_error_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2: mu must be in \[0, 1\], got 1.5"):
            parse_config("pulses = 1000\nmu = 1.5\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'pulses'"):
            parse_config("mu = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("pulses = 1000\npulses = 2000\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("pulses = many\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("pulses = 2e6\n", "line 1: pulses must be an integer >= 10, got '2e6'"),
            ("pulses = 1000\nseed = 1.5\n", "line 2: seed must be an integer >= 0, got '1.5'"),
        ],
        ids=["pulses", "seed"],
    )
    def test_integer_keys_say_they_take_an_integer(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", ["inf", "1e999"])
    @pytest.mark.parametrize("key", ["sweep_d_max_km", "va", "delta_ns", "xi"])
    def test_non_finite_number_names_key_and_line(self, key, value, tmp_path, capsys):
        message = f"line 2: {key} must be finite, got inf"
        with pytest.raises(ConfigError) as info:
            parse_config(f"pulses = 1000\n{key} = {value}\n")
        assert str(info.value) == message
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(f"pulses = 1000\n{key} = {value}\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "text,line",
        [
            ("key_fraction = 0.9\npulses = 1000\ncountermeasure = on\n", 1),
            ("monitor_fraction = 0.5\ncountermeasure = on\npulses = 10\nkey_fraction = 0.5\n", 4),
            ("pulses = 100\nkey_fraction = 0.5\nmonitor_fraction = 0.6\ncountermeasure = on\n", 3),
        ],
        ids=["key_fraction-alone", "key_fraction-later", "monitor_fraction-later"],
    )
    def test_fraction_sum_of_one_names_the_later_line(self, text, line):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == (
            f"line {line}: key_fraction + monitor_fraction must be < 1 with the countermeasure on"
        )
        assert parse_config(text.replace("= on", "= off")).countermeasure_enabled is False

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="countermeasure"):
            parse_config("pulses = 1000\ncountermeasure = maybe\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\npulses = 1000  # trailing\n")
        assert cfg.pulses == 1000

    def test_serialize_parse_round_trip(self):
        cfg = parse_config(BREACH + "countermeasure = on\nextinction = 0.02\n")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_config_hash_stable(self):
        cfg = parse_config(BREACH)
        assert cfg.config_hash() == parse_config(BREACH).config_hash()
        other = parse_config(BREACH.replace("seed = 7", "seed = 8"))
        assert cfg.config_hash() != other.config_hash()

    def test_key_cases_cover_every_config_key(self):
        default_keys = [line.split(" = ")[0] for line in DEFAULT_TEXT.splitlines()]
        assert list(KEY_CASES) == default_keys

    @pytest.mark.parametrize("key", list(KEY_CASES))
    def test_every_key_lands_on_its_path(self, key):
        text, value, paths = KEY_CASES[key]
        base = "pulses = 1000\n" if key != "pulses" else ""
        cfg = parse_config(f"{base}{key} = {text}\n")
        flat, flat_default = _flat_fields(cfg), _flat_fields(DEFAULT)
        assert {path for path in flat if flat[path] != flat_default[path]} == set(paths)
        for path in paths:
            assert flat[path] == value
        assert f"\n{key} = {text}\n" in "\n" + serialize_config(cfg)
        assert cfg.config_hash() != DEFAULT.config_hash()

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        rows = [line.split(" | ")[:2] for line in table.split("\n\n", 1)[0].splitlines()]
        documented = [(key.strip("|` "), default.strip("`")) for key, default in rows]
        expected = [tuple(line.split(" = ")) for line in DEFAULT_TEXT.splitlines()]
        expected[0] = ("pulses", "required")
        assert documented == expected


class TestTriggerDelayFromAttenuation:
    def test_no_attenuation_no_delay(self):
        assert trigger_delay_from_attenuation(1.0) == 0.0

    def test_stronger_attenuation_delays_more(self):
        assert trigger_delay_from_attenuation(0.4) >= trigger_delay_from_attenuation(0.8) > 0.0

    def test_alpha_only_config_resolves_delay(self):
        cfg = parse_config("pulses = 50000\nmu = 1.0\nnu = 1.0\nalpha = 0.55\n")
        report = run_scenario(cfg)
        assert report.delta_ns > 0.0
        assert report.gain < 1.0


class TestRunScenario:
    def test_clean_channel_is_secure(self):
        cfg = parse_config("pulses = 400000\nxi = 0.1\nseed = 1\n")
        report = run_scenario(cfg)
        assert report.verdict == "secure"
        assert report.exit_code == EXIT_SECURE
        assert report.xi_hat_snu == pytest.approx(0.1, abs=0.05)
        assert report.k_true > 0.0

    def test_bare_intercept_resend_aborts(self):
        cfg = parse_config("pulses = 400000\nmu = 1.0\nxi = 0.1\nseed = 2\n")
        report = run_scenario(cfg)
        assert report.verdict == "abort"
        assert report.exit_code == EXIT_ABORT
        assert report.xi_hat_snu == pytest.approx(2.1, abs=0.1)

    def test_calibration_attack_breaches(self):
        report = run_scenario(parse_config(BREACH))
        assert report.verdict == "breached"
        assert report.exit_code == EXIT_BREACHED
        assert report.xi_hat_snu == pytest.approx(0.0667, abs=0.05)
        assert report.k_estimated > 0.0
        assert report.k_true < 0.0

    def test_countermeasure_raises_alarm(self):
        report = run_scenario(parse_config(BREACH + "countermeasure = on\n"))
        assert report.verdict == "abort"
        assert report.alarm is True
        assert report.alarm_statistic > 5.0
        assert report.n0_rt < report.n0_line
        assert report.m_monitor > 0

    def test_no_attack_countermeasure_stays_quiet(self):
        cfg = parse_config("pulses = 400000\nseed = 3\ncountermeasure = on\n")
        report = run_scenario(cfg)
        assert report.alarm is False
        assert report.verdict == "secure"

    def test_reports_bit_identical_for_same_seed(self):
        text_a = run_scenario(parse_config(BREACH)).to_text()
        text_b = run_scenario(parse_config(BREACH)).to_text()
        assert text_a == text_b

    def test_seed_changes_report(self):
        other = BREACH.replace("seed = 7", "seed = 8")
        assert run_scenario(parse_config(BREACH)).to_text() != run_scenario(parse_config(other)).to_text()

    def test_estimation_key_split_counts(self):
        cfg = parse_config("pulses = 100000\nkey_fraction = 0.25\nseed = 4\n")
        report = run_scenario(cfg)
        assert report.n_key == 25000
        assert report.m_estimation == 75000

    def test_fractions_leaving_no_estimation_set_fail_at_parse_time(self, tmp_path, capsys):
        # key_fraction + monitor_fraction > 1: once this reported "secure" from two pulses
        cfg_path = tmp_path / "no-estimation.cfg"
        cfg_path.write_text(
            "pulses = 20000\nseed = 5\ncountermeasure = on\nkey_fraction = 0.95\n"
        )
        assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "config error: line 4: key_fraction + monitor_fraction must be < 1"
            " with the countermeasure on\n"
        )

    def test_an_estimation_set_of_one_pulse_fails_its_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "one-left.cfg"
        cfg_path.write_text("pulses = 10\nkey_fraction = 0.9\n")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error (run): stage 'estimation' failed:"
            " too few pulses left for estimation: 1, need at least 2\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "pulses = 10\nepsilon = 0.9\n",
            "pulses = 2000\nepsilon = 0.999\n",
            "pulses = 10\nepsilon = 0.5\ncountermeasure = on\n",
        ],
    )
    def test_a_sigma2_interval_above_its_point_estimate_still_gives_a_verdict(self, text):
        # the chi-square interval lies above the ML point when the (1 - eps/2)
        # quantile of chi2(m - 1) is below m: at large epsilon or small m
        above = 0
        for seed in range(8):
            report = run_scenario(parse_config(f"{text}seed = {seed}\n"))
            assert report.exit_code in (EXIT_SECURE, EXIT_ABORT, EXIT_BREACHED)
            low, _ = report.estimation.intervals["sigma2"]
            above += low > report.estimation.estimates.sigma2_hat
        assert above >= 5

    def test_key_set_is_the_first_open_pulses_estimation_the_rest(self):
        reports = 0
        for pulses, key_fraction, countermeasure, seed in itertools.product(
            (10, 37, 200), (0.1, 0.5, 0.8), ("off", "on"), range(6)
        ):
            cfg = parse_config(
                f"pulses = {pulses}\nkey_fraction = {key_fraction}\nseed = {seed}\n"
                f"countermeasure = {countermeasure}\n"
            )
            try:
                report = run_scenario(cfg)
            except ScenarioStageError as exc:
                assert str(exc).startswith("stage 'estimation' failed: too few")
                continue
            reports += 1
            n_open = pulses - report.m_monitor
            assert report.n_key == min(round(key_fraction * pulses), n_open)
            assert report.n_key + report.m_estimation == n_open
        assert reports >= 100

    def test_open_pulses_are_the_protocol_samplers_draws(self):
        cfg = parse_config(BREACH.replace("pulses = 400000", "pulses = 150000"))
        blocks = []
        sample_scenario(cfg, on_open=_keep(blocks))
        x = generate_alice(cfg.pulses, cfg.channel.va, cfg.seed)
        batch = simulate_bob(x, cfg.channel, cfg.attack, cfg.detector, cfg.seed)
        np.testing.assert_array_equal(np.concatenate([b.x for b in blocks]), x)
        np.testing.assert_array_equal(np.concatenate([b.y for b in blocks]), batch.y)

    def test_monitor_mask_is_the_planned_one(self):
        cfg = parse_config(BREACH.replace("pulses = 400000", "pulses = 150000")
                           + "countermeasure = on\n")
        blocks = []
        sample = sample_scenario(cfg, on_open=_keep(blocks))
        mask = np.concatenate(list(monitor_mask_blocks(
            cfg.pulses, cfg.monitor_fraction, _sub_seed(cfg.seed, _TAG_MONITOR_MASK))))
        x = generate_alice(cfg.pulses, cfg.channel.va, cfg.seed)
        np.testing.assert_array_equal(np.concatenate([b.x for b in blocks]), x[~mask])
        assert sample.moments.m_monitor == mask.sum()

    @pytest.mark.parametrize("seed", range(5))
    def test_too_few_monitor_pulses_abort(self, seed):
        # about one monitor pulse expected: seeds 0, 2 and 4 draw fewer than two
        cfg = parse_config(
            f"pulses = 100\ncountermeasure = on\nmonitor_fraction = 0.01\nseed = {seed}\n"
        )
        report = run_scenario(cfg)
        if seed in (0, 2, 4):
            assert report.m_monitor < 2
            assert (report.verdict, report.exit_code, report.alarm) == ("abort", EXIT_ABORT, True)
            assert report.n0_rt is None and report.alarm_statistic is None
        else:
            expected = {1: ("abort", 2, 0.39208509960008564), 3: ("secure", 3, 1.4150670945022328)}
            assert (report.verdict, report.m_monitor, report.n0_rt) == expected[seed]
            assert report.alarm is False


    @pytest.mark.parametrize("seed", range(6))
    def test_too_few_open_pulses_fail_before_monitoring(self, seed, tmp_path, capsys):
        # about one open pulse expected; the split is rejected whatever the seed
        cfg_path = tmp_path / "few.cfg"
        cfg_path.write_text(
            f"pulses = 10\ncountermeasure = on\nmonitor_fraction = 0.9\nseed = {seed}\n"
        )
        assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "",
            "config error: line 3: key_fraction + monitor_fraction must be < 1"
            " with the countermeasure on\n",
        )


class TestMoments:
    X = np.arange(1.0, 11.0)
    Y = 0.5 * X - 3.0

    @pytest.mark.parametrize("key_target,first_est", [(0, 0), (4, 4), (8, 8), (9, 9), (20, 10)])
    @pytest.mark.parametrize("chunks", [1, 3, 10])
    def test_key_set_first_then_estimation_set(self, key_target, first_est, chunks):
        moments = Moments(key_target=key_target)
        for idx in np.array_split(np.arange(self.X.size), chunks):
            moments.add_open(self.X[idx], self.Y[idx])
        x, y = self.X[first_est:], self.Y[first_est:]
        expected = (x.size, x @ x, x @ y, y @ y, x.sum(), y.sum())
        got = (
            moments.m_est, moments.est_xx, moments.est_xy, moments.est_yy, moments.est_x,
            moments.est_y,
        )
        assert got == pytest.approx(expected, rel=1e-15)
        assert moments.n_open == self.X.size
        assert moments.open_yy == pytest.approx(self.Y @ self.Y, rel=1e-15)


# The key/estimation split falls inside block 1 and the last block is partial.
SPLIT_MID_BLOCK = (
    f"pulses = {3 * BLOCK_SIZE + 1234}\nseed = 11\nkey_fraction = 0.5\nmu = 0.5\nnu = 0.5\n"
    "delta_ns = 10.0\nextinction = 0.05\ncountermeasure = on\n"
)


def _fresh(block_fn, x, *args):
    """``block_fn``'s outcomes for the pulses ``x``, drawn into fresh arrays."""
    out = (np.empty(x.size), np.empty(x.size, dtype=bool), np.empty(x.size, dtype=bool))
    return block_fn(x, *args, out, np.empty(x.size))


def _serial_fold(cfg):
    """The scenario's moments, added one block after the other on this thread alone."""
    ch, atk = cfg.channel, cfg.attack
    gain = attack_gain(atk, cfg.detector)
    moments = Moments(key_target=int(round(cfg.key_fraction * cfg.pulses)))
    masks = None
    if cfg.countermeasure_enabled:
        masks = monitor_mask_blocks(
            cfg.pulses, cfg.monitor_fraction, _sub_seed(cfg.seed, _TAG_MONITOR_MASK)
        )
    opened, splits = [], []
    for block, start in enumerate(range(0, cfg.pulses, BLOCK_SIZE)):
        x = alice_block(ch.va, cfg.seed, block, np.empty(min(BLOCK_SIZE, cfg.pulses - start)))
        closed = np.zeros(x.size, dtype=bool) if masks is None else next(masks)
        y, intercepted, lo_attacked = _fresh(bob_block, x[~closed], ch, atk, gain, cfg.seed, block)
        splits.append(min(max(moments.key_target - moments.n_open, 0), y.size))
        moments.add_open(x[~closed], y)
        opened.append((x[~closed], y, intercepted, lo_attacked))
        y_closed, _, _ = _fresh(
            monitor_block, x[closed], ch, atk, gain, cfg.switch.extinction, cfg.seed, block
        )
        moments.add_monitor(y_closed)
    return moments, opened, splits


@pytest.mark.parametrize(
    "cpus,text",
    [
        pytest.param(cpus, text, id=f"{prefix}{cpus}")
        for prefix, text in [
            ("", SPLIT_MID_BLOCK),
            ("countermeasure-off-", SPLIT_MID_BLOCK.replace("= on", "= off")),
        ]
        for cpus in (1, 2, 4)
    ],
)
def test_moments_are_the_serial_fold_bit_for_bit_on_any_cpu_count(cpus, text, monkeypatch):
    cfg = parse_config(text)
    serial, opened, splits = _serial_fold(cfg)
    assert cfg.pulses % BLOCK_SIZE and 0 < splits[1] < opened[1][0].size
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    blocks = []
    drawn = sample_scenario(cfg, on_open=_keep(blocks)).moments
    for f in dataclasses.fields(Moments):
        np.testing.assert_array_equal(getattr(drawn, f.name), getattr(serial, f.name), f.name)
        assert type(getattr(drawn, f.name)) is type(getattr(serial, f.name))
    # on_open saw each block's open pulses, in pulse order
    assert len(blocks) == len(opened)
    for batch, expected in zip(blocks, opened):
        for got, want in zip((batch.x, batch.y, batch.intercepted, batch.lo_attacked), expected):
            np.testing.assert_array_equal(got, want)


def test_a_block_failing_on_a_pool_thread_fails_its_stage_and_leaves_no_thread(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real_bob_block = scenario.bob_block
    failed = threading.Event()

    def bob_block_failing_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            failed.wait(10.0)  # leaves the next block to the pool thread
            return real_bob_block(*args, **kwargs)
        failed.set()
        raise MemoryError

    monkeypatch.setattr(scenario, "bob_block", bob_block_failing_off_the_main_thread)
    cfg_path = tmp_path / "four-blocks.cfg"
    cfg_path.write_text(f"pulses = {4 * BLOCK_SIZE}\n")
    before = set(threading.enumerate())
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
    assert failed.is_set()
    err = capsys.readouterr().err
    assert err == "error (run): stage 'channel-simulation' failed: MemoryError\n"
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize(
    "exc,message", [(MemoryError(), "out of memory"), (KeyError("x"), "KeyError: 'x'")]
)
def test_unexpected_errors_exit_1_without_a_traceback(exc, message, tmp_path, capsys, monkeypatch):
    def fail(cfg, on_open=None):
        raise exc

    monkeypatch.setattr("cvqkdsim.cli.run_scenario", fail)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("pulses = 1000\n")
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error (run): {message}\n"


def _peak_traced_bytes(pulses: int) -> int:
    cfg = parse_config(
        f"pulses = {pulses}\nseed = 3\nmu = 0.5\nnu = 0.5\ndelta_ns = 10.0\n"
        "countermeasure = on\n"
    )
    tracemalloc.start()
    try:
        run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_pulse_count():
    small = _peak_traced_bytes(2**17)
    large = _peak_traced_bytes(2**20)
    assert large < 16 * 2**20
    assert large <= 1.5 * small


@pytest.mark.parametrize("cpus", [8, 12, 64])
def test_memory_does_not_grow_with_the_cpu_count(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    test_memory_does_not_grow_with_the_pulse_count()


class TestSweep:
    def test_grid_row_count_and_crossings(self):
        cfg = parse_config("pulses = 1000\neta = 0.6\n")
        plain, protected = sweep_keyrate(cfg)
        assert len(plain) == len(protected) == 121
        assert 75.0 <= last_positive_distance(plain) <= 85.0
        assert 65.0 <= last_positive_distance(protected) <= 75.0

    @pytest.mark.parametrize(
        "d_max,step,last,count", [(10.0, 6.0, 6.0, 2), (0.3, 0.1, 0.3, 4), (120.0, 1.0, 120.0, 121)]
    )
    def test_grid_ends_at_or_before_d_max(self, d_max, step, last, count):
        cfg = parse_config(f"pulses = 1000\nsweep_d_max_km = {d_max}\nsweep_step_km = {step}\n")
        for curve in sweep_keyrate(cfg):
            assert len(curve) == count
            assert curve[-1].distance_km == pytest.approx(last, rel=1e-12)

    def test_unprotected_curve_dominates(self):
        cfg = parse_config("pulses = 1000\neta = 0.6\n")
        plain, protected = sweep_keyrate(cfg)
        for a, b in zip(plain, protected):
            assert a.key_rate >= b.key_rate


class TestCli:
    def test_run_returns_breach_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "breach.cfg"
        cfg_path.write_text(BREACH)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--csv"])
        out = capsys.readouterr().out
        assert code == EXIT_BREACHED
        assert "verdict=breached" in out
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "pulses.csv").exists()

    def test_run_seed_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "breach.cfg"
        cfg_path.write_text(BREACH)
        main(["run", "--config", str(cfg_path), "--seed", "99"])
        out = capsys.readouterr().out
        assert "seed=99" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("pulses = 1000\nmu = 1.5\n")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "mu" in capsys.readouterr().err

    def test_sweep_writes_csv_curves(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("pulses = 1000\neta = 0.6\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        for name in ("keyrate_no_countermeasure.csv", "keyrate_countermeasure.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "d_km,T,V_A,i_ab,chi_be,K"
            assert len(lines) == 122
        assert "max_secure_distance" in capsys.readouterr().out

    def test_sweep_distances_use_the_configured_fibre_loss(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("pulses = 1000\neta = 0.6\nloss_db_per_km = 0.4\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        for curve in ("no_countermeasure", "countermeasure"):
            grid_last = float(printed[f"grid_last_positive_{curve}_km"])
            assert grid_last < 50.0
            assert grid_last <= float(printed[f"max_secure_distance_{curve}_km"]) < grid_last + 1.0

    def test_run_csv_needs_out(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("pulses = 1000\n")
        assert main(["run", "--config", str(cfg_path), "--csv"]) == EXIT_ERROR
        assert "--out" in capsys.readouterr().err

    def test_pulse_demo(self, tmp_path, capsys):
        assert main(["pulse-demo", "--shift-ns", "10", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trigger_shift_ns=10.0" in out
        assert (tmp_path / "base_pulse.csv").exists()
        assert (tmp_path / "shaped_pulse.csv").exists()

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--points", "200", "--delay-ns", "10"]) == 0
        out = capsys.readouterr().out
        assert "slope_ratio=" in out

    def test_module_entry_point(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("pulses = 1000\nseed = 5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cvqkdsim", "run", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (EXIT_SECURE, EXIT_ABORT)
        assert "verdict=" in proc.stdout


def test_component_errors_name_the_failing_stage():
    cfg = parse_config("pulses = 1000\nva = 0.0\n")
    with pytest.raises(ScenarioStageError, match="stage 'estimation'"):
        run_scenario(cfg)


def test_scenario_text_carries_countermeasure_results():
    report = run_scenario(parse_config(BREACH + "countermeasure = on\n"))
    entries = dict(line.split("=", 1) for line in report.to_text().splitlines())
    for key in ("n0_rt", "n0_line", "alarm", "alarm_statistic"):
        assert entries[key] == repr(getattr(report, key))
    assert entries["alarm"] == "True"


def test_monitoring_discards_pulses_from_estimation():
    cfg = parse_config(BREACH + "countermeasure = on\nmonitor_fraction = 0.2\n")
    report = run_scenario(cfg)
    assert report.m_monitor == pytest.approx(0.2 * cfg.pulses, rel=0.05)
    assert report.m_estimation + report.n_key + report.m_monitor == cfg.pulses


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["quantitative-example", "countermeasure-example"])
def test_shipped_config_report_matches_its_golden_file(name):
    report = run_scenario(load_config(CONFIGS / f"{name}.cfg"))
    assert (report.to_text() + "\n").encode() == (GOLDEN / f"{name}.txt").read_bytes()


def test_unattacked_twin_report_matches_its_golden_file():
    # the shipped configs attack every pulse; this pins the mu = nu = 0 draws
    cfg = parse_config("pulses = 2000000\nseed = 11\nn0 = 1\nn0_assumed = 1\n")
    report = run_scenario(cfg)
    assert (report.to_text() + "\n").encode() == (GOLDEN / "unattacked-twin.txt").read_bytes()


@pytest.mark.parametrize("name", ["quantitative-example", "countermeasure-example"])
def test_shipped_config_report_is_the_same_without_cpu_affinity(name, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; the lanes come from os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    report = run_scenario(load_config(CONFIGS / f"{name}.cfg"))
    assert (report.to_text() + "\n").encode() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize(
    "name,code", [("quantitative-example", EXIT_BREACHED), ("countermeasure-example", EXIT_ABORT)]
)
def test_shipped_config_report_does_not_depend_on_the_blas_thread_count(name, code, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "cvqkdsim", "run", "--config", str(CONFIGS / f"{name}.cfg"),
         "--out", str(tmp_path)],
        capture_output=True, env=env,
    )
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "report.txt").read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


def test_run_csv_dumps_the_pulses_the_report_used(tmp_path, capsys):
    cfg_path = tmp_path / "countermeasure.cfg"
    text = (CONFIGS / "countermeasure-example.cfg").read_text()
    cfg_path.write_text(text.replace("pulses = 2000000", "pulses = 20000"))
    out = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out", str(out), "--csv"])
    printed = capsys.readouterr().out.strip()
    report = dict(line.split("=", 1) for line in printed.splitlines())
    rows = np.loadtxt(out / "pulses.csv", delimiter=",", skiprows=1)
    assert int(report["m_monitor"]) > 0
    assert len(rows) == int(report["m_estimation"]) + int(report["n_key"])

    cfg = load_config(cfg_path)
    blocks = []
    sample = sample_scenario(cfg, on_open=_keep(blocks))
    x, y = np.ascontiguousarray(rows[:, 1]), np.ascontiguousarray(rows[:, 2])
    np.testing.assert_array_equal(x, np.concatenate([b.x for b in blocks]))
    np.testing.assert_array_equal(y, np.concatenate([b.y for b in blocks]))
    np.testing.assert_array_equal(rows[:, 3] == 1, np.concatenate([b.intercepted for b in blocks]))
    np.testing.assert_array_equal(rows[:, 4] == 1, np.concatenate([b.lo_attacked for b in blocks]))
    # the dumped columns alone, added block by block as the run added them,
    # reproduce the printed report
    drawn = sample.moments
    dumped = Moments(
        key_target=drawn.key_target, m_monitor=drawn.m_monitor, monitor_yy=drawn.monitor_yy
    )
    cuts = np.cumsum([len(b) for b in blocks])[:-1]
    for xb, yb in zip(np.split(x, cuts), np.split(y, cuts)):
        dumped.add_open(xb, yb)
    reanalysed = analyse_scenario(cfg, dataclasses.replace(sample, moments=dumped))
    assert reanalysed.to_text() == printed == run_scenario(cfg).to_text()


NO_ATTACK = "pulses = 400000\nseed = 3\nva = 5.0\nxi = 0.1\nvel = 0.01\n"


def _scaled(text: str, c: float) -> str:
    """The same channel with every variance, shot noise included, multiplied by c."""
    return text.replace("va = 5.0", f"va = {5.0 * c!r}").replace(
        "xi = 0.1", f"xi = {0.1 * c!r}"
    ).replace("vel = 0.01", f"vel = {0.01 * c!r}") + f"n0 = {c!r}\nn0_assumed = {c!r}\n"


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_rates_do_not_depend_on_the_unit_of_variance(c):
    base = run_scenario(parse_config(_scaled(NO_ATTACK, 1.0)))
    scaled = run_scenario(parse_config(_scaled(NO_ATTACK, c)))
    for key in ("k_estimated", "k_true", "i_ab_estimated", "chi_be_estimated", "xi_hat_snu"):
        assert getattr(scaled, key) == pytest.approx(getattr(base, key), rel=1e-9, abs=1e-12)


def _estimated_se(report, cfg, fn):
    """Delta-method SE of fn(estimated key-rate inputs) over (va_hat, t_hat, sigma2_hat)."""
    est = report.estimation.estimates
    ch, n0, m = cfg.channel, cfg.n0_assumed, est.m
    point = [est.va_hat, est.t_hat, est.sigma2_hat]
    se = [point[0] * math.sqrt(2.0 / m), math.sqrt(point[2] / (m * point[0])),
          point[2] * math.sqrt(2.0 / m)]

    def at(va, t, s2):
        xi = (s2 - n0 - ch.v_el) / t**2
        return fn(KeyRateParams(va=va / n0, transmittance=min(t * t / ch.eta, 1.0), eta=ch.eta,
                                xi=max(xi, 0.0) / n0, v_el=ch.v_el / n0, beta=cfg.beta))

    var = 0.0
    for i, s in enumerate(se):
        up, down = list(point), list(point)
        up[i] += 1e-3 * s
        down[i] -= 1e-3 * s
        var += ((at(*up) - at(*down)) / 2e-3) ** 2
    return math.sqrt(var)


@pytest.mark.parametrize("n0", [0.5, 2.0])
def test_estimated_rates_track_truth_when_shot_noise_rescaled(n0):
    cfg = parse_config(NO_ATTACK + f"n0 = {n0!r}\nn0_assumed = {n0!r}\n")
    report = run_scenario(cfg)
    ch = cfg.channel
    truth = KeyRateParams(va=ch.va / n0, transmittance=ch.transmittance, eta=ch.eta,
                          xi=ch.xi / n0, v_el=ch.v_el / n0, beta=cfg.beta)
    i_true = mutual_information(truth)
    se_i = _estimated_se(report, cfg, mutual_information)
    assert abs(report.i_ab_estimated - i_true) <= 5.0 * se_i
    se_k = _estimated_se(report, cfg, lambda p: secret_key_rate(p).key_rate)
    assert abs(report.k_estimated - report.k_true) <= 5.0 * se_k
