import ast
import copy
import dataclasses
import functools
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cvqkdsim
from cvqkdsim import (
    AttackParams,
    DetectorModel,
    KeyRateParams,
    ScenarioConfig,
    SweepSettings,
    load_config,
    mutual_information,
    parse_config,
    run_scenario,
    secret_key_rate,
    serialize_config,
    simulate_calibration_points,
    sweep_keyrate,
)
from cvqkdsim import config, scenario
from cvqkdsim.cli import main
from cvqkdsim.errors import ConfigError, ScenarioStageError
from cvqkdsim.estimation import dot
from cvqkdsim.protocol import (
    BLOCK_SIZE,
    attack_gain,
    generate_alice,
    outcome_law,
    pulses_csv,
    simulate_bob,
)
from cvqkdsim.scenario import (
    _DUMP_BLOCK,
    EXIT_ABORT,
    EXIT_BREACHED,
    EXIT_ERROR,
    EXIT_SECURE,
    Moments,
    _onto,
    _pool,
    draw_moments,
    dump_pulses,
    last_positive_distance,
    trigger_delay_from_attenuation,
)
from reference import add_open, draw_pulses, mask_seed, run_pulses

BREACH = """
# full intercept-resend hidden by a 10 ns trigger delay
pulses = 400000
seed = 7
mu = 1.0
nu = 1.0
delta_ns = 10.0
xi = 0.1
"""


def _dumped(cfg, on_block=lambda block: None):
    """The report of a run after its pulse dump, each block handed to ``on_block``."""
    for _, draw in dump_pulses(cfg):
        on_block(draw())
    return run_scenario(cfg)


# the package's run, whose moments are drawn from their law, and the reference run
# that draws every pulse (tests/reference.py)
PATHS = [pytest.param(run_scenario, id="moments"), pytest.param(run_pulses, id="pulses")]


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
    "vel": ("0.02", 0.02, ["channel.v_el"]),
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


# config key -> (value text, the value set through the record), each out of its range
OUT_OF_RANGE = {
    "pulses": ("5", 5),
    "seed": ("-1", -1),
    "key_fraction": ("1.0", 1.0),
    "epsilon": ("0.0", 0.0),
    "va": ("-1.0", -1.0),
    "transmittance": ("1.5", 1.5),
    "eta": ("0.0", 0.0),
    "xi": ("-0.1", -0.1),
    "vel": ("-0.01", -0.01),
    "n0": ("0.0", 0.0),
    "mu": ("1.5", 1.5),
    "nu": ("-0.5", -0.5),
    "alpha": ("1.5", 1.5),
    "delta_ns": ("-1.0", -1.0),
    "window_ns": ("0.0", 0.0),
    "tau_ns": ("-1.0", -1.0),
    "slope_cal": ("0.0", 0.0),
    "n0_assumed": ("0.0", 0.0),
    "countermeasure": ("maybe", "maybe"),
    "monitor_fraction": ("1.0", 1.0),
    "switch_loss_db": ("-1.0", -1.0),
    "extinction": ("1", 1.0),
    "z_threshold": ("-1.0", -1.0),
    "beta": ("1.5", 1.5),
    "snr_target": ("0.0", 0.0),
    "xi_bob": ("-0.001", -0.001),
    "loss_db_per_km": ("0.0", 0.0),
    "sweep_d_max_km": ("-1.0", -1.0),
    "sweep_step_km": ("0", 0.0),
}


def _key_field(key: str) -> dataclasses.Field:
    """The record field that config ``key`` sets."""
    group, _, name = KEY_CASES[key][2][0].rpartition(".")
    record = getattr(DEFAULT, group) if group else DEFAULT
    return {f.name: f for f in dataclasses.fields(record)}[name]


def _key_range(key: str):
    """The range that the field set by config ``key`` states, read from the field itself."""
    return _key_field(key).metadata["range"]


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

    def test_every_key_field_declares_a_type_the_parser_converts(self, monkeypatch):
        # the field's annotation is the one statement of a key's type
        for key, (text, value, _) in KEY_CASES.items():
            declared = _key_field(key).type
            assert config._KEYS[key][2] is config._CONVERTERS[declared], (key, declared)
            converted = config._CONVERTERS[declared](text)
            assert type(converted).__name__ == declared == type(value).__name__, key
        # a field of a type without a converter fails the key table's construction at
        # import, loudly, not a parse by accident
        odd = copy.copy(_key_field("seed"))
        odd.type = "str"
        monkeypatch.setitem(ScenarioConfig.__dataclass_fields__, "seed", odd)
        with pytest.raises(KeyError, match="'str'"):
            config._key_entry("seed")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("pulses = 1000\nbogus = 3\n")

    @pytest.mark.parametrize("key", list(OUT_OF_RANGE))
    def test_range_error_names_key_and_line(self, key):
        text, value = OUT_OF_RANGE[key]
        base = "pulses = 1000\n" if key != "pulses" else "seed = 2\n"
        shown = repr(text) if isinstance(value, str) else value
        with pytest.raises(ConfigError) as info:
            parse_config(f"{base}{key} = {text}\n")
        assert str(info.value) == f"line 2: {key} must be {_key_range(key).text}, got {shown}"
        if key == "mu":
            assert str(info.value) == "line 2: mu must be in [0, 1], got 1.5"

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
            ("pulses = 2e6\n", "line 1: pulses must be an integer in [10, 2**63), got '2e6'"),
            ("pulses = 1000\nseed = 1.5\n", "line 2: seed must be an integer >= 0, got '1.5'"),
        ],
        ids=["pulses", "seed"],
    )
    def test_integer_keys_say_they_take_an_integer(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", ["inf", "1e999", "nan"])
    @pytest.mark.parametrize("key", ["sweep_d_max_km", "va", "delta_ns", "xi"])
    def test_non_finite_number_names_key_and_line(self, key, value, tmp_path, capsys):
        # the parser and the record say one text: an infinity inside the range is
        # not finite, and NaN lies in no range
        number = float(value)
        within = _key_range(key)
        refusal = f"must be {'finite' if within.holds(number) else within.text}, got {number}"
        message = f"line 2: {key} {refusal}"
        with pytest.raises(ConfigError) as info:
            parse_config(f"pulses = 1000\n{key} = {value}\n")
        assert str(info.value) == message
        name = KEY_CASES[key][2][0].rpartition(".")[2]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {refusal}')}$"):
            _set_on_its_record(key, number)
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

    @pytest.mark.parametrize(
        "text,line",
        [
            ("alpha = 0.5\npulses = 1000\ndelta_ns = 2.0\n", 3),
            ("delta_ns = 2.0\nalpha = 0.99\npulses = 1000\n", 2),
        ],
        ids=["delta_ns-later", "alpha-later"],
    )
    def test_alpha_and_delta_ns_together_name_the_later_line(self, text, line, tmp_path, capsys):
        # delta_ns once won and alpha was silently ignored
        message = f"line {line}: set alpha < 1 or delta_ns > 0, not both"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message
        cfg_path = tmp_path / "both.cfg"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"
        # either alone, or alpha = 1 beside a delay, is accepted
        assert parse_config(text.replace("alpha = ", "alpha = 1.0 #")).attack.delta_ns == 2.0
        assert parse_config(text.replace("delta_ns = 2.0", "delta_ns = 0.0")).attack.alpha < 1.0

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="countermeasure"):
            parse_config("pulses = 1000\ncountermeasure = maybe\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\npulses = 1000  # trailing\n")
        assert cfg.pulses == 1000

    @pytest.mark.parametrize(
        "end,bom", [("\r\n", ""), ("\r", ""), ("\n", "\ufeff"), ("\r\n", "\ufeff")],
        ids=["crlf", "cr", "bom", "crlf-bom"],
    )
    def test_a_file_ends_its_lines_at_crlf_and_cr_as_at_lf(self, end, bom, tmp_path):
        # the file is read as bytes and decoded: its lines and their numbers are text mode's,
        # and a leading byte-order mark, as some editors save, is dropped
        lines = ["# header", "pulses = 1000", "", "mu = 0.3  # trailing", "countermeasure = on"]
        for name, sep, head in (("lf", "\n", ""), ("twin", end, bom)):
            for suffix, extra in (("", []), ("-bad", ["extinction = 1"])):
                path = tmp_path / f"{name}{suffix}.cfg"
                path.write_bytes((head + sep.join([*lines, *extra, ""])).encode())
        cfg = load_config(tmp_path / "twin.cfg")
        assert cfg == load_config(tmp_path / "lf.cfg") == parse_config("\n".join(lines))
        assert cfg.config_hash() == parse_config("\n".join(lines)).config_hash()
        assert (cfg.attack.mu, cfg.countermeasure_enabled) == (0.3, True)
        for name in ("lf", "twin"):
            with pytest.raises(ConfigError) as info:
                load_config(tmp_path / f"{name}-bad.cfg")
            assert str(info.value) == "line 6: extinction must be in [0, 1), got 1.0"

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
        head = "| key | default | range | meaning |\n| --- | --- | --- | --- |\n"
        table = readme.split(head, 1)[1]
        rows = [line.split(" | ")[:3] for line in table.split("\n\n", 1)[0].splitlines()]
        documented = [(key.strip("|` "), default.strip("`"), bounds) for key, default, bounds in rows]
        expected = [(*line.split(" = "), _key_range(line.split(" = ")[0]).text)
                    for line in DEFAULT_TEXT.splitlines()]
        expected[0] = ("pulses", "required", _key_range("pulses").text)
        assert documented == expected


def _set_on_its_record(key: str, value) -> None:
    """Set the field of config ``key`` to ``value``: ``SweepSettings`` built anew, else replaced."""
    group, _, name = KEY_CASES[key][2][0].rpartition(".")
    if group == "sweep":
        SweepSettings(**{name: value})
    elif group:
        dataclasses.replace(
            DEFAULT, **{group: dataclasses.replace(getattr(DEFAULT, group), **{name: value})}
        )
    else:
        dataclasses.replace(DEFAULT, **{name: value})


class TestRecordsCheckThemselves:
    def test_out_of_range_cases_cover_every_config_key(self):
        assert list(OUT_OF_RANGE) == list(KEY_CASES)

    @pytest.mark.parametrize("key", list(OUT_OF_RANGE))
    def test_replace_refuses_an_out_of_range_value(self, key):
        _, value = OUT_OF_RANGE[key]
        name = KEY_CASES[key][2][0].rpartition(".")[2]
        message = f"^{re.escape(f'{name} must be {_key_range(key).text}, got {value}')}$"
        with pytest.raises(ValueError, match=message):
            _set_on_its_record(key, value)

    @pytest.mark.parametrize("key", [key for key in KEY_CASES if key != "countermeasure"])
    def test_a_numeric_field_refuses_a_bool(self, key):
        # True compares as 1, so it once lay in the ranges, and its text did not re-parse
        name = KEY_CASES[key][2][0].rpartition(".")[2]
        message = f"^{re.escape(f'{name} must be {_key_range(key).text}, got True')}$"
        with pytest.raises(ValueError, match=message):
            _set_on_its_record(key, True)

    @pytest.mark.parametrize("key", list(KEY_CASES))
    def test_each_value_round_trips_through_its_text(self, key):
        text, _, _ = KEY_CASES[key]
        cfg = parse_config(f"{'pulses = 1000' if key != 'pulses' else ''}\n{key} = {text}\n")
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "key", [key for key in KEY_CASES if isinstance(KEY_CASES[key][1], float)]
    )
    def test_a_record_refuses_an_infinite_value(self, key):
        # once accepted where the range is unbounded, to fail in a later stage
        # ("sigma2_hat must be >= 0, got nan") or with a bare OverflowError
        within = _key_range(key)
        text = "finite" if within.holds(math.inf) else within.text
        name = KEY_CASES[key][2][0].rpartition(".")[2]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {text}, got inf')}$"):
            _set_on_its_record(key, math.inf)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: dataclasses.replace(DEFAULT, z_threshold=-1.0),
             "z_threshold must be > 0, got -1.0"),
            (lambda: dataclasses.replace(DEFAULT, pulses=5),
             "pulses must be an integer in [10, 2**63), got 5"),
            (lambda: SweepSettings(snr_target=0.075, xi_bob=0.001, loss_db_per_km=0.2,
                                   d_max_km=120.0, step_km=0),
             "step_km must be > 0, got 0"),
            (lambda: dataclasses.replace(
                parse_config("pulses = 1000\ncountermeasure = on\n"), key_fraction=0.95),
             "key_fraction + monitor_fraction must be < 1 with the countermeasure on"),
            (lambda: ScenarioConfig(pulses=1000, countermeasure_enabled=True, monitor_fraction=0.5),
             "key_fraction + monitor_fraction must be < 1 with the countermeasure on"),
            (lambda: dataclasses.replace(
                DEFAULT, attack=AttackParams(alpha=0.5, delta_ns=2.0)),
             "set alpha < 1 or delta_ns > 0, not both"),
        ],
        ids=["z_threshold", "pulses", "step_km", "key_fraction", "monitor_fraction", "alpha"],
    )
    def test_construction_and_replace_refuse(self, build, message):
        # each of these once ran, or failed only in a later stage
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "flags", ["", "countermeasure = on\nmu = 0.3\nnu = 0.4\ndelta_ns = 10\n"],
        ids=["defaults", "countermeasure"],
    )
    def test_pulse_counts_stop_below_2_63(self, flags):
        # numpy draws a count as an int64: 2**63 once passed the parser and then
        # failed the monitoring stage's binomial, or ran, depending on the flags
        top = 2**63 - 1
        report = run_scenario(parse_config(f"pulses = {top}\n{flags}"))
        assert report.m_monitor + report.m_estimation + report.n_key == top
        message = f"pulses must be an integer in [10, 2**63), got {top + 1}"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'line 1: {message}')}$"):
            parse_config(f"pulses = {top + 1}\n{flags}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(parse_config(f"pulses = {top}\n{flags}"), pulses=top + 1)

    def test_keys_left_out_take_the_field_defaults(self):
        assert ScenarioConfig(pulses=1000) == DEFAULT
        assert serialize_config(ScenarioConfig(pulses=1000)) == DEFAULT_TEXT


class TestTriggerDelayFromAttenuation:
    def test_no_attenuation_no_delay(self):
        assert trigger_delay_from_attenuation(1.0) == 0.0

    def test_stronger_attenuation_delays_more(self):
        alphas = (0.0, 0.5, 0.55, 0.7, 0.85, 0.9, 0.95, 1.0)
        delays = [trigger_delay_from_attenuation(a) for a in alphas]
        # while the attenuated rise a*t/30 still crosses 0.5 (a > 15/29), the trigger is at 15/a
        rise = [15.0 / a - 15.0 for a in alphas[2:]]
        assert delays[2:] == pytest.approx(rise, rel=1e-12, abs=1e-12)
        # below, it crosses between the rise's last sample and the rescaled plateau
        assert delays[:2] == pytest.approx([14.454713493530498, 14.029422317904558], rel=1e-12)
        assert all(d1 > d2 for d1, d2 in zip(delays, delays[1:]))

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

    # the seeds whose Σx (910896), then Σy (1048392), of a modulation of mean 0 lies past
    # 5 standard errors of 0: the run reads no Σx or Σy, so no seed can trip a warning
    @pytest.mark.parametrize("seed", [910896, 1048392])
    def test_the_shipped_example_breaches_at_a_seed_of_far_sample_means(self, seed, capsys):
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "quantitative-example.cfg"
        cfg = dataclasses.replace(load_config(cfg_path), seed=seed)
        assert run_scenario(cfg).verdict == "breached"
        assert main(["run", "--config", str(cfg_path), "--seed", str(seed)]) == EXIT_BREACHED
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("dump", [[], ["--csv"]], ids=["moments", "dump"])
    def test_an_estimation_set_of_one_pulse_fails_its_stage(self, dump, tmp_path, capsys):
        cfg_path = tmp_path / "one-left.cfg"
        cfg_path.write_text("pulses = 10\nkey_fraction = 0.9\n")
        args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *dump]
        assert main(args) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error (run): stage 'estimation' failed:"
            " too few pulses left for estimation: 1, need at least 2\n"
        )

    @pytest.mark.parametrize(
        "text,run",
        [
            ("pulses = 10\nepsilon = 0.9\n", run_scenario),
            ("pulses = 2000\nepsilon = 0.999\n", run_scenario),
            # the seeds are those of the reference per-pulse draws, which leave 2 to 3
            # pulses to estimate
            ("pulses = 10\nepsilon = 0.5\ncountermeasure = on\n", run_pulses),
        ],
    )
    def test_a_sigma2_interval_above_its_point_estimate_still_gives_a_verdict(self, text, run):
        # the chi-square interval lies above the ML point when the (1 - eps/2)
        # quantile of chi2(m - 1) is below m: at large epsilon or small m
        above = 0
        for seed in range(8):
            report = run(parse_config(f"{text}seed = {seed}\n"))
            assert report.exit_code in (EXIT_SECURE, EXIT_ABORT, EXIT_BREACHED)
            low, _ = report.intervals["sigma2"]
            above += low > report.estimation.sigma2_hat
        assert above >= 5

    @pytest.mark.parametrize("epsilon", ["1e-16", "5e-324"])
    def test_an_epsilon_below_2_to_the_minus_52_is_refused(self, epsilon):
        # 1 - epsilon/2 once rounded to 1, and every seed then failed the estimation
        # stage with "p must be in the range 0.0 < p < 1.0"
        with pytest.raises(ConfigError) as info:
            parse_config(f"pulses = 1000\nepsilon = {epsilon}\nseed = 2\n")
        assert str(info.value) == f"line 2: epsilon must be in [2**-52, 1), got {float(epsilon)}"

    # up to 10^4 estimation pulses the chi-square quantiles are exact, above approximated
    @pytest.mark.parametrize("pulses", [1000, 10**7])
    @pytest.mark.parametrize("epsilon", ["2.3e-16", repr(2.0**-52)])
    def test_the_smallest_epsilons_still_give_a_verdict(self, epsilon, pulses):
        report = run_scenario(parse_config(f"pulses = {pulses}\nepsilon = {epsilon}\n"))
        assert report.exit_code in (EXIT_SECURE, EXIT_ABORT, EXIT_BREACHED)
        assert all(low < high < math.inf for low, high in report.intervals.values())

    @pytest.mark.parametrize("run", PATHS)
    def test_key_set_is_the_first_open_pulses_estimation_the_rest(self, run):
        reports = 0
        splits = [
            f"key_fraction = {key_fraction}\ncountermeasure = {countermeasure}\n"
            for key_fraction in (0.1, 0.5, 0.8)
            for countermeasure in ("off", "on")
        ]
        # fractions near their limits
        splits += [
            "key_fraction = 1e-07\n",
            "key_fraction = 0.9999999\n",
            "key_fraction = 1e-07\ncountermeasure = on\nmonitor_fraction = 0.9999998\n",
            "key_fraction = 0.9999998\ncountermeasure = on\nmonitor_fraction = 1e-07\n",
            "key_fraction = 0.5\ncountermeasure = on\nmonitor_fraction = 0.4999999\n",
        ]
        for pulses, split, seed in itertools.product((10, 37, 200), splits, range(6)):
            cfg = parse_config(f"pulses = {pulses}\nseed = {seed}\n{split}")
            try:
                report = run(cfg)
            except ScenarioStageError as exc:
                assert str(exc).startswith("stage 'estimation' failed: too few")
                continue
            reports += 1
            n_open = pulses - report.m_monitor
            assert report.n_key == min(round(cfg.key_fraction * pulses), n_open)
            assert report.m_monitor + report.m_estimation + report.n_key == pulses
            assert report.m_monitor == 0 or cfg.countermeasure_enabled
        assert reports >= 120

    def test_open_pulses_are_the_protocol_samplers_draws(self):
        # the reference per-pulse run draws the pulses generate_alice and simulate_bob draw
        cfg = parse_config(BREACH.replace("pulses = 400000", "pulses = 150000"))
        blocks = []
        draw_pulses(cfg, on_open=blocks.append)
        x = generate_alice(cfg.pulses, cfg.channel.va, cfg.seed)
        batch = simulate_bob(x, cfg.channel, cfg.attack, cfg.detector, cfg.seed)
        np.testing.assert_array_equal(np.concatenate([b.x for b in blocks]), x)
        np.testing.assert_array_equal(np.concatenate([b.y for b in blocks]), batch.y)

    def test_monitor_mask_is_the_planned_one(self):
        # the reference per-pulse run's mask, drawn block by block, is one draw of its generator
        cfg = parse_config(BREACH.replace("pulses = 400000", "pulses = 150000")
                           + "countermeasure = on\n")
        blocks = []
        sample = draw_pulses(cfg, on_open=blocks.append)
        mask = np.random.default_rng(mask_seed(cfg.seed)).random(cfg.pulses) < cfg.monitor_fraction
        x = generate_alice(cfg.pulses, cfg.channel.va, cfg.seed)
        np.testing.assert_array_equal(np.concatenate([b.x for b in blocks]), x[~mask])
        assert sample.m_monitor == mask.sum()

    @pytest.mark.parametrize("seed", range(5))
    def test_too_few_monitor_pulses_abort(self, seed):
        # about one monitor pulse expected: the reference per-pulse draws of seeds 0, 2
        # and 4 give fewer than two
        cfg = parse_config(
            f"pulses = 100\ncountermeasure = on\nmonitor_fraction = 0.01\nseed = {seed}\n"
        )
        report = run_pulses(cfg)
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
    """The reference per-pulse run's fold of open-switch pulses into the moments."""

    X = np.arange(1.0, 11.0)
    Y = 0.5 * X - 3.0

    @pytest.mark.parametrize("key_target,first_est", [(0, 0), (4, 4), (8, 8), (9, 9), (20, 10)])
    @pytest.mark.parametrize("chunks", [1, 3, 10])
    def test_key_set_first_then_estimation_set(self, key_target, first_est, chunks):
        moments = Moments(AttackParams(), 1.0)
        for idx in np.array_split(np.arange(self.X.size), chunks):
            add_open(moments, key_target, self.X[idx], self.Y[idx])
        x, y = self.X[first_est:], self.Y[first_est:]
        expected = (x.size, x @ x, x @ y, y @ y)
        got = (moments.m_est, moments.est_xx, moments.est_xy, moments.est_yy)
        assert got == pytest.approx(expected, rel=1e-15)
        assert moments.n_open == self.X.size
        assert moments.open_yy == pytest.approx(self.Y @ self.Y, rel=1e-15)


# Several dump blocks in each set, the last one partial, fractional flags and
# closed-switch pulses at extinction 0.05.
SPLIT_MID_BLOCK = (
    f"pulses = {3 * BLOCK_SIZE + 1234}\nseed = 11\nkey_fraction = 0.5\nmu = 0.5\nnu = 0.5\n"
    "delta_ns = 10.0\nextinction = 0.05\ncountermeasure = on\n"
)

# Small runs hold sets and attack classes of 0, 1, 2 and 3 pulses; with 40% of 10
# pulses monitored, most seeds leave too few pulses to estimate; the last run's delay
# and gain come from alpha.
DUMP_GRID = [
    f"pulses = {pulses}\nseed = {seed}\nmu = 0.5\nnu = 0.5\ndelta_ns = 10.0\n"
    f"countermeasure = {cm}\n"
    for pulses in (10, 11, 12, 37, 200)
    for seed in range(20)
    for cm in ("off", "on")
] + [SPLIT_MID_BLOCK] + [
    f"pulses = 10\nseed = {seed}\ncountermeasure = on\nmonitor_fraction = 0.4\n"
    for seed in range(10)
] + ["pulses = 200\nseed = 3\nmu = 0.5\nnu = 0.5\nalpha = 0.7\ncountermeasure = on\n"]


def _dump(cfg):
    """The moments of a run, its dump's blocks drawn in order, and their rows' x, y and class."""
    pairs = dump_pulses(cfg)
    blocks = [draw() for _, draw in pairs]
    assert [rows for rows, _ in pairs] == [b[0].size for b in blocks]
    x, y, classes = (np.concatenate([b[i] for b in blocks] or [np.empty(0)]) for i in range(3))
    return draw_moments(cfg), blocks, x, y, classes.astype(int)


def _named_sums(cfg, moments) -> dict:
    """The moments' fields by name, and the estimation set's Σx and Σy as ``est_x`` and ``est_y``.

    Σx and Σy add up the non-empty classes' drawn (Σu, Σz), with x =
    sqrt(va)*u and y = slope*x + sd*z in each class (``outcome_law``).
    """
    slope, sds = outcome_law(cfg.channel, moments.gain)
    sqrt_va = math.sqrt(cfg.channel.va)
    sums = {**vars(moments), "est_x": 0.0, "est_y": 0.0}
    for (k, stats), sd in zip(moments.est_classes, sds):
        if k:
            su, sz = stats[:2]
            sums["est_x"] += sqrt_va * su
            sums["est_y"] += slope * sqrt_va * su + sd * sz
    return sums


def _assert_the_rows_add_up_to(cfg, moments, x, y):
    """The rows' sums, key rows first, are the moments' within 1e-12 of the magnitudes they add.

    The moments form each estimation sum from x and the noise r = y -
    slope*x, so each sum is held to 1e-12 times a Cauchy-Schwarz bound on
    the sum of its terms' magnitudes in x and r: relative for Σx², not for
    a sum that cancels to near 0.  Σx and Σy are the drawn ones (``_named_sums``).
    """
    n_key = moments.n_open - moments.m_est
    slope = math.sqrt(cfg.channel.eta * cfg.channel.transmittance)
    ex, ey = x[n_key:], y[n_key:]
    er = ey - slope * ex
    xx, rr = dot(ex, ex), dot(er, er)
    yy = (slope * math.sqrt(xx) + math.sqrt(rr)) ** 2
    sums = {  # name -> (the rows' sum, a bound on the sum of its terms' magnitudes)
        "open_yy": (dot(y, y), dot(y[:n_key], y[:n_key]) + yy),
        "est_xx": (xx, xx),
        "est_xy": (dot(ex, ey), math.sqrt(xx * yy)),
        "est_yy": (dot(ey, ey), yy),
        "est_x": (float(ex.sum()), math.sqrt(ex.size * xx)),
        "est_y": (float(ey.sum()), math.sqrt(ex.size * yy)),
    }
    wants = _named_sums(cfg, moments)
    for name, (got, scale) in sums.items():
        want = wants[name]
        assert abs(got - want) <= 1e-12 * scale, (name, got, want)


def test_a_dump_holds_one_row_per_open_pulse_whose_sums_are_the_reports():
    sizes = {"key": set(), "estimation": set()}
    most_blocks = 0
    for text in DUMP_GRID:
        cfg = parse_config(text)
        moments, blocks, x, y, flags = _dump(cfg)
        assert x.size == moments.n_open
        _assert_the_rows_add_up_to(cfg, moments, x, y)
        # each set, the key set first, is cut into dump blocks and holds its class counts
        n_key = moments.n_open - moments.m_est
        cuts = []
        for name, rows, classes in (
            ("key", flags[:n_key], moments.key_classes),
            ("estimation", flags[n_key:], moments.est_classes),
        ):
            assert np.bincount(rows, minlength=4).tolist() == [k for k, _ in classes]
            sizes[name] |= {k for k, _ in classes}
            cuts += [min(_DUMP_BLOCK, rows.size - s) for s in range(0, rows.size, _DUMP_BLOCK)]
        assert [x.size for x, _, _ in blocks] == cuts
        most_blocks = max(most_blocks, len(blocks))
    assert {0, 1, 2, 3} <= sizes["key"] and {0, 1, 2, 3} <= sizes["estimation"]
    assert most_blocks >= 10


def test_a_class_of_a_few_pulses_split_across_dump_blocks_adds_up():
    # an intercept probability of 4e-5 leaves intercepted classes of a few pulses, and
    # 70000 pulses cut the estimation set into 3 dump blocks: some class of 2 or 3
    # pulses falls in two of them, and is mapped through its pooled rank-deficient factor
    split = 0
    for seed in range(40):
        cfg = parse_config(f"pulses = 70000\nseed = {seed}\nmu = 0.00004\nnu = 0.5\ndelta_ns = 10\n")
        moments, blocks, x, y, _ = _dump(cfg)
        _assert_the_rows_add_up_to(cfg, moments, x, y)
        n_key = moments.n_open - moments.m_est
        est_blocks = blocks[-(-n_key // _DUMP_BLOCK):]
        for c, (n, _) in enumerate(moments.est_classes):
            split += n in (2, 3) and sum(bool(np.any(b[2] == c)) for b in est_blocks) > 1
    assert split >= 1


@pytest.mark.parametrize("cut", [3, 2, 1])
def test_nearly_degenerate_pairs_are_mapped_onto_their_target_sums(cut):
    # three pairs whose spread is small beside their mean and which lie nearly on one
    # line: a scatter formed from raw sums (Σu² - (Σu)²/n) or a factor read off the
    # scatter (b² = Szz - Suz²/Suu) keeps too few digits; pooled whole or in blocks
    # of ``cut`` pairs, they are mapped onto the target's sums to 1e-12
    u = 3.0 + np.array([0.0, 1e-2, 3e-2])
    z = 0.5 * (u - 3.0) + np.array([0.0, 2e-5, -1e-5])
    pooled = (0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for s in range(0, 3, cut):
        pooled = _pool(pooled, u[s:s + cut], z[s:s + cut])
    target = (0.3, -0.2, 2.0, 0.4, 0.7)  # (Σu, Σz, a², c, b²) of a Bartlett factor
    tu, tz, ta2, tc, tb2 = target
    mu, mz = _onto(pooled, target, u, z)
    got = [dot(mu, mu), dot(mu, mz), dot(mz, mz), mu.sum(), mz.sum()]
    want = [tu * tu / 3 + ta2, tu * tz / 3 + math.sqrt(ta2) * tc, tz * tz / 3 + tc * tc + tb2, tu, tz]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_run_and_run_csv_print_one_report(tmp_path, capsys):
    cfg_path, out = tmp_path / "grid.cfg", tmp_path / "out"
    codes = []
    for text in DUMP_GRID:
        cfg_path.write_text(text)
        runs = []
        for dump in ([], ["--csv"]):
            code = main(["run", "--config", str(cfg_path), "--out", str(out), *dump])
            report = out / "report.txt"
            runs.append((code, capsys.readouterr(), report.exists() and report.read_bytes()))
            report.unlink(missing_ok=True)
        assert runs[0] == runs[1], text
        codes.append(runs[0][0])
    # the same seeds leave too few pulses to estimate, and exit 1 with either command
    assert EXIT_ERROR in codes and set(codes) - {EXIT_ERROR}


def test_a_dumped_pulse_has_the_per_pulse_law():
    # the first key row and the first estimation row of 2000 seeds, standardized under
    # their class's law: x = sqrt(va)*u, y = slope*x + sd*z, and w = y/sd(y); an
    # unshuffled block, or a map that fixes only the sums, fails this
    base = parse_config(
        "pulses = 40\nmu = 0.3\nnu = 0.6\ndelta_ns = 10.0\ncountermeasure = on\nextinction = 0.3\n"
    )
    ch, atk = base.channel, base.attack
    slope, sd = outcome_law(ch, attack_gain(atk, base.detector))
    sd_y = np.sqrt(slope**2 * ch.va + np.asarray(sd) ** 2)
    first = {"key": [], "estimation": []}
    for seed in range(2000):
        moments, _, x, y, flags = _dump(dataclasses.replace(base, seed=seed))
        n_key = moments.n_open - moments.m_est
        for name, row in (("key", 0), ("estimation", n_key)):
            c = flags[row]
            u, z = x[row] / math.sqrt(ch.va), (y[row] - slope * x[row]) / sd[c]
            first[name].append((c, u, z, y[row] / sd_y[c]))
    p_class = [(1 - atk.mu) * (1 - atk.nu), atk.mu * (1 - atk.nu),
               (1 - atk.mu) * atk.nu, atk.mu * atk.nu]
    p_inner = math.erf(0.5 / math.sqrt(2.0))  # P(|v| < 0.5) of a standard normal v
    for name, rows in first.items():
        c, u, z, w = (np.array(column) for column in zip(*rows))
        checks = [(v, 0.0) for v in (u, z, w, u * z)] + [(v * v, 1.0) for v in (u, z, w)]
        checks += [(abs(v) < 0.5, p_inner) for v in (u, z, w)]
        checks += [(c == k, p) for k, p in enumerate(p_class)]
        for sample, mean in checks:
            se = sample.std() / math.sqrt(sample.size)
            assert abs(sample.mean() - mean) <= 5.0 * se, (name, mean, sample.mean(), se)


def _closed_form_agrees(samples: list[float], mean: float, var: float, z: float = 5.0) -> None:
    """The samples' mean and variance are ``mean`` and ``var`` within ``z`` standard errors."""
    a = np.asarray(samples)
    assert abs(a.mean() - mean) <= z * math.sqrt(var / a.size), (a.mean(), mean)
    # a variance is the mean of the squared deviations, so its SE is theirs
    d = (a - mean) ** 2
    assert abs(d.mean() - var) <= z * d.std() / math.sqrt(a.size), (d.mean(), var)


@pytest.mark.parametrize("flag", [0.0, 1.0])
def test_each_drawn_sum_has_its_closed_form_mean_and_variance(flag):
    # a certain flag puts each set in one attack class; with the countermeasure off
    # the estimation set has a fixed size, and with it on the closed count is binomial
    head = f"pulses = 20\nmu = {flag}\nnu = {flag}\ndelta_ns = 10.0\nvel = 0.5\n"
    off = parse_config(head)
    on = parse_config(head + "countermeasure = on\nextinction = 0.3\nmonitor_fraction = 0.2\n")
    ch, atk, n, f = off.channel, off.attack, off.pulses, on.monitor_fraction
    gain = attack_gain(atk, off.detector)
    eta_t, g = ch.eta * ch.transmittance, gain if flag else 1.0

    def var_y(share):
        noise = g * (share * eta_t * (2.0 * ch.n0 * flag + ch.xi) + ch.n0) + ch.v_el
        return share * eta_t * ch.va + noise

    vy, cov, vc = var_y(1.0), math.sqrt(eta_t) * ch.va, var_y(on.switch.extinction)
    draws = {name: [] for name in ("est_xx", "est_xy", "est_yy", "est_x", "est_y", "open_yy")}
    monitor_yy = []
    for seed in range(10_000):
        moments = draw_moments(dataclasses.replace(off, seed=seed))
        drawn = _named_sums(off, moments)
        for name, got in draws.items():
            got.append(drawn[name])
        monitor_yy.append(draw_moments(dataclasses.replace(on, seed=seed)).monitor_yy)
    m = moments.m_est
    assert m == n // 2
    closed_forms = {  # name -> (mean, variance)
        "est_xx": (m * ch.va, m * 2.0 * ch.va**2),
        "est_xy": (m * cov, m * (ch.va * vy + cov**2)),
        "est_yy": (m * vy, m * 2.0 * vy**2),
        "est_x": (0.0, m * ch.va),
        "est_y": (0.0, m * vy),
        "open_yy": (n * vy, n * 2.0 * vy**2),
    }
    for name, (mean, var) in closed_forms.items():
        _closed_form_agrees(draws[name], mean, var)
    # the law of total variance over the binomial closed count K: E[2K]vc² + Var(K)vc²
    _closed_form_agrees(monitor_yy, n * f * vc, 2.0 * n * f * vc**2 + n * f * (1 - f) * vc**2)


def _mean_and_variance_agree(a: list[float], b: list[float], z: float = 5.0) -> None:
    """The two samples' means, and their variances, differ by at most ``z`` standard errors."""
    a, b = np.asarray(a), np.asarray(b)
    mean_se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) <= z * mean_se, (a.mean(), b.mean(), mean_se)
    # a variance is the mean of the squared deviations, so its SE is theirs
    da, db = (a - a.mean()) ** 2, (b - b.mean()) ** 2
    var_se = math.sqrt(da.var(ddof=1) / da.size + db.var(ddof=1) / db.size)
    assert abs(da.mean() - db.mean()) <= z * var_se, (da.mean(), db.mean(), var_se)


@pytest.mark.parametrize("extinction", [0.0, 0.3])
@pytest.mark.parametrize("mu,nu", [(0.4, 0.5), (1.0, 1.0)])
def test_the_moments_and_the_pulses_give_one_distribution(mu, nu, extinction):
    # 40% of the pulses for the key, so that about 12 500 are left to estimate and the
    # chi-square quantiles need no scipy
    text = (
        f"pulses = 25000\nkey_fraction = 0.4\nmu = {mu}\nnu = {nu}\ndelta_ns = 10.0\n"
        f"countermeasure = on\nextinction = {extinction}\n"
    )
    reports = {run: [] for run in (run_scenario, run_pulses)}
    for seed in range(120):
        cfg = parse_config(f"{text}seed = {seed}\n")
        for run, got in reports.items():
            got.append(run(cfg))
    for name in ("xi_hat_snu", "n0_rt"):
        moments, pulses = ([getattr(r, name) for r in got] for got in reports.values())
        _mean_and_variance_agree(moments, pulses)
    # the moments differ from the pulses' sums, not only their report's last digits
    assert reports[run_scenario][0].xi_hat_snu != reports[run_pulses][0].xi_hat_snu


@pytest.mark.parametrize("name,stage", [("attack_gain", "pulse-model"),
                                        ("outcome_law", "channel-simulation"),
                                        ("realtime_shot_noise", "monitoring"),
                                        ("ml_from_moments", "estimation"),
                                        ("secret_key_rate", "key-rate")])
@pytest.mark.parametrize("run", [run_scenario, _dumped], ids=["moments", "dump"])
def test_a_failing_draw_fails_its_stage(run, name, stage, monkeypatch):
    # a dump expands the moments, so it fails where they are drawn; its report after it
    # fails where the moments are read
    error = MemoryError()

    def fail(*args):
        raise error

    monkeypatch.setattr(scenario, name, fail)
    with pytest.raises(ScenarioStageError, match=f"^stage '{stage}' failed: MemoryError$") as info:
        run(parse_config("pulses = 1000\ncountermeasure = on\n"))
    assert info.value.__cause__ is error


@pytest.mark.parametrize("name", ["attack_gain", "realtime_shot_noise", "secret_key_rate"])
def test_an_interrupt_inside_a_stage_passes_through_unwrapped(name, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(scenario, name, interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_scenario(parse_config("pulses = 1000\ncountermeasure = on\n"))


@pytest.mark.parametrize(
    "exc,message", [(MemoryError(), "out of memory"), (KeyError("x"), "KeyError: 'x'")]
)
def test_unexpected_errors_exit_1_without_a_traceback(exc, message, tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise exc

    monkeypatch.setattr("cvqkdsim.cli.run_scenario", fail)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("pulses = 1000\n")
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error (run): {message}\n"


def test_ten_billion_pulses_take_under_a_second_and_a_mebibyte():
    cfg = parse_config(
        "pulses = 10000000000\nseed = 3\nmu = 0.5\nnu = 0.5\ndelta_ns = 10.0\n"
        "countermeasure = on\nextinction = 0.1\n"
    )
    run_scenario(cfg)  # numpy loads the modules of its generators on first use
    before = threading.active_count()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = run_scenario(cfg)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0 and peak < 2**20, (seconds, peak)
    assert threading.active_count() == before
    assert report.m_monitor + report.m_estimation + report.n_key == cfg.pulses


def test_a_dump_run_starts_no_thread_and_holds_one_block(tmp_path):
    # four-fifths of the pulses monitored, so that the traced dump formats only a fifth
    # of them, and 15% left for estimation, so that the χ² quantiles need no scipy
    cfg = parse_config(
        f"pulses = {3 * BLOCK_SIZE + 1234}\nseed = 3\nmu = 0.5\nnu = 0.5\ndelta_ns = 10.0\n"
        "countermeasure = on\nmonitor_fraction = 0.8\nkey_fraction = 0.05\n"
    )
    np.random.default_rng()  # numpy imports its random module on first use, not per run
    threads = []
    before = threading.active_count()

    def counted(draw):
        threads.append(threading.active_count())
        return draw()

    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        rows = report.n_key + report.m_estimation
        # dump_pulses pools every block in this process before the fork
        blocks = [(n, functools.partial(counted, draw)) for n, draw in dump_pulses(cfg)]
        pulses_csv(tmp_path / "pulses.csv", blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block at a time, the key set's dump blocks, then the estimation set's; this
    # process draws those that start before the middle row, the forked writer the rest
    starts = [*range(0, report.n_key, _DUMP_BLOCK), *range(report.n_key, rows, _DUMP_BLOCK)]
    drawn_here = sum(start < rows // 2 for start in starts)
    assert sum(n for n, _ in blocks) == rows
    assert len(starts) == 3 and drawn_here == 2 and threads == [before] * drawn_here
    assert threading.active_count() == before
    # a dump block's arrays take about 1 MiB, one CSV part's row strings about 128 bytes a row
    assert peak < 4 * 2**20, peak


# four-fifths of the pulses monitored and a tenth kept for the key: two dump blocks
# in each set
TWO_BLOCKS_A_SET = (
    f"pulses = {3 * BLOCK_SIZE + 1234}\nseed = 3\nmu = 0.5\nnu = 0.5\ndelta_ns = 10.0\n"
    "countermeasure = on\nmonitor_fraction = 0.8\nkey_fraction = 0.1\n"
)


def test_a_dump_draws_each_block_once_and_the_forked_writer_only_its_half(tmp_path):
    log = tmp_path / "drawn.txt"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(k, draw):
        os.write(fd, f"{os.getpid()} {k}\n".encode())
        return draw()

    pairs = dump_pulses(parse_config(TWO_BLOCKS_A_SET))
    blocks = [(rows, functools.partial(logged, k, draw)) for k, (rows, draw) in enumerate(pairs)]
    try:
        pulses_csv(tmp_path / "pulses.csv", blocks)
    finally:
        os.close(fd)
    drawn = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    starts = np.cumsum([0, *(rows for rows, _ in blocks)])
    half = int(np.argmax(starts >= starts[-1] // 2))  # the first block at or past the middle row
    assert len(blocks) == 4 and half == 2
    assert sorted(k for _, k in drawn) == list(range(len(blocks)))
    assert [k for pid, k in drawn if pid == os.getpid()] == list(range(half))
    assert sorted(k for pid, k in drawn if pid != os.getpid()) == list(range(half, len(blocks)))
    assert len({pid for pid, _ in drawn}) == 2


def test_dump_blocks_drawn_in_reverse_are_the_blocks_drawn_in_order():
    most_blocks = 0
    for text in DUMP_GRID:
        pairs = dump_pulses(parse_config(text))
        forward = [draw() for _, draw in pairs]
        backward = [draw() for _, draw in reversed(pairs)][::-1]
        for a, b in zip(forward, backward, strict=True):
            for u, v in zip(a, b, strict=True):  # x, y and the class, bit for bit
                assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), text
        most_blocks = max(most_blocks, len(pairs))
    assert most_blocks >= 10


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

    @pytest.mark.parametrize(
        "text,line,ratio",
        [
            ("pulses = 1000\nsweep_step_km = 1e-6\n", 2, "1.2e+08"),
            ("sweep_step_km = 1e-6\npulses = 1000\nsweep_d_max_km = 120\n", 3, "1.2e+08"),
            ("sweep_d_max_km = 100001\npulses = 1000\n", 1, "100001"),
            ("pulses = 1000\nsweep_d_max_km = 1e300\nsweep_step_km = 1e-300\n", 3, "inf"),
        ],
        ids=["step", "d_max-later", "one-step-over", "overflowing-ratio"],
    )
    def test_a_grid_of_more_than_100000_steps_is_refused(self, text, line, ratio):
        # a step of 1e-6 km once parsed, and sweep then took 1.2e8 points: some 48
        # minutes, with every point kept in memory; no such grid is run here
        message = f"sweep_d_max_km / sweep_step_km must give at most 100000 steps, got {ratio}"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"line {line}: {message}"

    def test_replace_refuses_a_grid_of_more_than_100000_steps(self):
        # 1 / 1e-5 = 99999.99999999999 is 100000 steps, as sweep_keyrate counts them
        longest = parse_config("pulses = 1000\nsweep_d_max_km = 1\nsweep_step_km = 1e-5\n").sweep
        assert int(longest.d_max_km / longest.step_km + 1e-9) == 100_000
        assert dataclasses.replace(DEFAULT.sweep, d_max_km=100_000.0).d_max_km == 100_000.0
        message = "sweep_d_max_km / sweep_step_km must give at most 100000 steps, got 1.2e+08"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(DEFAULT.sweep, step_km=1e-6)
        one_over = message.replace("1.2e+08", "100001")
        with pytest.raises(ValueError, match=f"^{re.escape(one_over)}$"):
            dataclasses.replace(longest, d_max_km=1.00001)


# The whole stdout of `pulse-demo --shift-ns <key>`, pinned byte for byte.
PULSE_DEMO_STDOUT = {
    "10": """\
power_base=90.16666666666669
power_shaped=90.1666666666667
relative_power_difference=1.5760652179521628e-16
trigger_base_ns=15.0
trigger_shaped_ns=25.0
trigger_shift_ns=10.0
variance_gain_at_shifted_trigger=0.6666882060777414
""",
    "2": """\
power_base=90.16666666666669
power_shaped=90.16666666666669
relative_power_difference=0.0
trigger_base_ns=15.0
trigger_shaped_ns=17.0
trigger_shift_ns=2.0
variance_gain_at_shifted_trigger=0.9221138699031319
""",
}


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

    def test_negative_seed_is_a_config_error(self, capsys):
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "quantitative-example.cfg"
        assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == EXIT_ERROR
        assert capsys.readouterr().err == "config error: seed must be an integer >= 0, got -1\n"

    def test_a_config_file_that_is_not_utf8_exits_1_without_a_traceback(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin-1.cfg"
        cfg_path.write_bytes("pulses = 1000\n# café\n".encode("latin-1"))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: line 2: not UTF-8 text (byte 0xe9)\n"

    @pytest.mark.parametrize(
        "text,line",
        [(b"\xff", 1), (b"pulses = 1000\r\n\r\n\xc3", 3), (b"pulses = 1000\rseed = 2 \xa0", 2)],
        ids=["first-byte", "truncated-after-crlf", "after-cr"],
    )
    def test_a_byte_that_is_not_utf8_names_its_line(self, text, line, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(text)
        with pytest.raises(ConfigError) as info:
            load_config(cfg_path)
        assert str(info.value) == f"line {line}: not UTF-8 text (byte {text[-1]:#04x})"

    @pytest.mark.parametrize(
        "name,errno,reason",
        [("missing.cfg", 2, "No such file or directory"), ("", 21, "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_a_config_path_that_is_no_file_exits_1_naming_it(
        self, name, errno, reason, tmp_path, capsys
    ):
        # the message is the one that open() gives, the path included
        cfg_path = tmp_path / name
        assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error (run): [Errno {errno}] {reason}: '{cfg_path}'\n"
        with pytest.raises(OSError) as info:
            load_config(cfg_path)
        assert str(info.value) == f"[Errno {errno}] {reason}: '{cfg_path}'"

    def test_a_config_longer_than_one_read_parses_as_its_text(self, tmp_path):
        text = f"pulses = 1000\n# {'x' * 100 * 1024}\nmu = 0.25\n"
        assert len(text) > config._READ_CHUNK
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path)
        assert cfg == parse_config(text) == parse_config("pulses = 1000\nmu = 0.25\n")

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

    def test_sweep_and_pulse_demo_bytes_are_pinned(self, tmp_path, capsys):
        # the fibre loss and the power-meter window reach these outputs as plain floats
        assert main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "3800978f2c6baa231e32c2b4a58224014514b13269a40707230c0bd208b5d71a"
        )
        assert main(["pulse-demo", "--shift-ns", "10", "--out", str(tmp_path / "demo")]) == 0
        digests = {
            "sweep/keyrate_no_countermeasure.csv":
                "a62288f3c0707c8393cfe19f6721eb8581b0970076e06d65825319059a5f100c",
            "sweep/keyrate_countermeasure.csv":
                "76e32d5033e3d9d38a7586cdb95a4874bbcdd3f699482a5a8ce430e36ede8724",
            "demo/base_pulse.csv":
                "bfdc54978ca9e11d4d5fdedf3763df53150c1943ef8b191a9e403475cf04fe61",
            "demo/shaped_pulse.csv":
                "8afca73bf2ebacaa67e12f2055aa2caf9daa5ff65dfe6a4c9244406d3a8ee2cf",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_run_csv_needs_out(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("pulses = 1000\n")
        assert main(["run", "--config", str(cfg_path), "--csv"]) == EXIT_ERROR
        assert "--out" in capsys.readouterr().err

    def test_a_failed_run_writes_no_dump(self, tmp_path, capsys):
        # the report is computed before the dump is drawn, so a run that fails writes none
        cfg_path, out = tmp_path / "few.cfg", tmp_path / "out"
        cfg_path.write_text("pulses = 10\nkey_fraction = 0.9\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--csv"]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "",
            "error (run): stage 'estimation' failed: too few pulses left for estimation: 1,"
            " need at least 2\n",
        )
        assert not (out / "pulses.csv").exists()

    @pytest.mark.parametrize("shift", PULSE_DEMO_STDOUT)
    def test_pulse_demo(self, shift, tmp_path, capsys):
        assert main(["pulse-demo", "--shift-ns", shift, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == PULSE_DEMO_STDOUT[shift]
        assert (tmp_path / "base_pulse.csv").exists()
        assert (tmp_path / "shaped_pulse.csv").exists()

    @pytest.mark.parametrize("shift", ["-1", "inf", "nan"])
    def test_pulse_demo_refuses_a_negative_or_non_finite_shift(self, shift, capsys):
        # the refusal names the flag, not the parameter of craft_equal_power_pulse
        assert main(["pulse-demo", "--shift-ns", shift]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "", f"error (pulse-demo): --shift-ns must be finite and >= 0, got {float(shift)}\n"
        )

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--points", "200", "--delay-ns", "10"]) == 0
        out = capsys.readouterr().out
        assert "slope_ratio=" in out
        bad = [("--delay-ns", "-3"), ("--delay-ns", "nan"), ("--delay-ns", "inf"),
               ("--points", "-5"), ("--points", "1"), ("--seed", "-1"),
               ("--samples-per-point", "1")]
        for flag, value in bad:
            args = {"--points": "200", flag: value}
            assert main(["calibrate", *itertools.chain(*args.items())]) == EXIT_ERROR
            captured = capsys.readouterr()
            assert flag in captured.err
            assert captured.out == ""

    def test_calibrate_out_writes_a_crlf_line_per_point(self, tmp_path, capsys):
        # the same line ends as every other CSV the commands write
        assert main(["calibrate", "--points", "5", "--out", str(tmp_path)]) == 0
        points = simulate_calibration_points(np.linspace(0.5, 1.5, 5), DetectorModel(), seed=0)
        assert (tmp_path / "calibration_points.csv").read_bytes() == (
            "power,variance\r\n" + "".join(f"{p!r},{v!r}\r\n" for p, v in points)
        ).encode()

    def test_calibrate_passes_whatever_the_seed(self, capsys):
        # two points of two samples, or a 300 ns delay's gain of 5e-6, leave a fitted
        # slope that noise can push below 0; it is printed as fitted, not refused
        runs = [["--points", "2", "--samples-per-point", "2", "--seed", str(s)] for s in range(20)]
        runs += [["--delay-ns", "300", "--seed", str(s)] for s in range(10)]
        for args in runs:
            assert main(["calibrate", *args]) == 0, args
            printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
            assert all(math.isfinite(float(v)) for v in printed.values()), args
            assert "slope" in printed and ("delayed_slope" in printed) == ("--delay-ns" in args)

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


# name -> the config whose report the golden file tests/golden/<name>.moments.txt pins,
# for run and run --csv alike
GOLDEN_CONFIGS = {
    "quantitative-example": lambda: load_config(CONFIGS / "quantitative-example.cfg"),
    "countermeasure-example": lambda: load_config(CONFIGS / "countermeasure-example.cfg"),
    # the shipped configs attack every pulse; this pins the mu = nu = 0 draws
    "unattacked-twin": lambda: parse_config(
        "pulses = 2000000\nseed = 11\nn0 = 1\nn0_assumed = 1\n"
    ),
    # fractional flags and a leaky switch: the class binomials and the closed-switch law
    "fractional-attack": lambda: parse_config(
        "pulses = 200000\nseed = 5\nmu = 0.4\nnu = 0.5\ndelta_ns = 10.0\n"
        "countermeasure = on\nextinction = 0.3\n"
    ),
}


@pytest.mark.parametrize("run", [run_scenario, _dumped], ids=["moments", "dump"])
@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_report_matches_its_golden_file(name, run):
    report = run(GOLDEN_CONFIGS[name]())
    assert (report.to_text() + "\n").encode() == (GOLDEN / f"{name}.moments.txt").read_bytes()


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
    assert (tmp_path / "report.txt").read_bytes() == (GOLDEN / f"{name}.moments.txt").read_bytes()


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

    # the printed report is the one run prints without the dump, byte for byte
    cfg = load_config(cfg_path)
    assert printed == run_scenario(cfg).to_text()
    # the dump is dump_pulses(cfg), and its columns add up to the report's sums
    moments, _, x, y, flags = _dump(cfg)
    np.testing.assert_array_equal(rows[:, 1:3], np.column_stack([x, y]))
    np.testing.assert_array_equal(rows[:, 3] + 2 * rows[:, 4], flags)
    _assert_the_rows_add_up_to(cfg, moments, *(np.ascontiguousarray(rows[:, i]) for i in (1, 2)))
    # the draws and their formatting together, pinned byte for byte; the second
    # dump has fractional flags, closed pulses at extinction 0.05 and several blocks a set
    split = tmp_path / "split.cfg"
    split.write_text(SPLIT_MID_BLOCK)
    main(["run", "--config", str(split), "--out", str(tmp_path / "split"), "--csv"])
    for dump, digest in (
        (out, "33111881a610f23c54c87d880f313fd8d1a114fc16a4987db41bc3b047695ff8"),
        (tmp_path / "split", "639425f9aaf671adcf5cd4a2ce8672e63d776f87003b14f7ab6295d2ec04d546"),
    ):
        assert hashlib.sha256((dump / "pulses.csv").read_bytes()).hexdigest() == digest


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
    est = report.estimation
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


REPO = CONFIGS.parent
PACKAGE = REPO / "src" / "cvqkdsim"


def _benchmark_names() -> set[str]:
    """The names the benchmark calls on the package, as ``cv.<name>`` in ``benchmarks/*.py``."""
    text = "".join(p.read_text(encoding="utf-8") for p in sorted((REPO / "benchmarks").glob("*.py")))
    return set(re.findall(r"\bcv\.([A-Za-z_]\w*)", text))


def _public_definitions() -> list[tuple[str, str]]:
    """(file, name) of every public module-level def, class and assignment in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            found += [(path.name, name) for name in sorted(names) if not name.startswith("_")]
    return found


def _loaded_names() -> set[str]:
    """Names read as a variable or an attribute by a package module other than ``__init__.py``."""
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_of_the_package_is_reached():
    # a name only the tests call belongs in tests/reference.py, beside the tests
    definitions, loaded, benchmark = _public_definitions(), _loaded_names(), _benchmark_names()
    unreached = [f"{file}:{name}" for file, name in definitions
                 if name not in loaded and name not in benchmark]
    assert not unreached, "reached by neither the package nor the benchmark: " + ", ".join(unreached)
    # the benchmark's scaling series times these two whole-array references
    benchmark_only = {name for _, name in definitions if name not in loaded}
    assert benchmark_only == {"generate_alice", "simulate_bob"}


def _report_keys_the_benchmark_reads() -> set[str]:
    """The report keys ``benchmarks/checks.py`` reads, found in its text as ``_benchmark_names`` does.

    A key counts when read as ``_num(report, k)``, ``report[k]`` or
    ``report.get(k)``; a read in a loop, ``report[k] for k in (...)``,
    counts each of the loop's keys.
    """
    text = (REPO / "benchmarks" / "checks.py").read_text(encoding="utf-8")
    keys = set(re.findall(r"""(?:_num\(report, |report\[|report\.get\()["'](\w+)["']""", text))
    for _, loop in re.findall(r"report\[(\w+)\][^\n]*\bfor \1 in \(([^)]*)\)", text):
        keys |= set(re.findall(r"""["'](\w+)["']""", loop))
    return keys


@pytest.mark.parametrize("name", ["quantitative-example", "countermeasure-example"])
def test_run_prints_every_report_key_the_benchmark_reads(name, capsys):
    keys = _report_keys_the_benchmark_reads()
    assert {"est_m", "est_t_hat", "m_estimation", "m_monitor", "n_key", "verdict"} <= keys
    main(["run", "--config", str(CONFIGS / f"{name}.cfg")])
    printed = {line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()}
    assert sorted(keys - printed) == []


def test_every_name_the_benchmark_calls_exists_on_the_package():
    names = _benchmark_names()
    assert {"generate_alice", "run_scenario", "simulate_bob"} <= names
    assert sorted(name for name in names if not hasattr(cvqkdsim, name)) == []
