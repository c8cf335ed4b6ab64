"""Scenario configuration: key=value files with strict validation.

The format is UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment.  Unknown keys are rejected and every physical invariant is
checked at parse time, with errors naming the offending line.  A parsed
configuration serializes back to a canonical text that re-parses to an
identical object.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import get_type_hints

from .countermeasure import SwitchModel
from .errors import ConfigError
from .protocol import AttackParams, ChannelParams
from .pulses import DEFAULT_TAU_NS, DetectorModel


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _format_bool(value: bool) -> str:
    return "on" if value else "off"


# key -> (space-separated field paths in ScenarioConfig, converter, default
# or None when required, human-readable range, check)
_KEY_TABLE: dict[str, tuple] = {
    "pulses": ("pulses", int, None, "an integer >= 10", lambda v: v >= 10),
    "seed": ("seed", int, 1, "an integer >= 0", lambda v: v >= 0),
    "key_fraction": ("key_fraction", float, 0.5, "in (0, 1)", lambda v: 0.0 < v < 1.0),
    "epsilon": ("epsilon", float, 0.05, "in (0, 1)", lambda v: 0.0 < v < 1.0),
    "va": ("channel.va", float, 5.0, ">= 0", lambda v: v >= 0.0),
    "transmittance": (
        "channel.transmittance", float, 0.5, "in [0, 1]", lambda v: 0.0 <= v <= 1.0
    ),
    "eta": ("channel.eta", float, 0.5, "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "xi": ("channel.xi", float, 0.1, ">= 0", lambda v: v >= 0.0),
    "vel": ("channel.v_el detector.v_el", float, 0.01, ">= 0", lambda v: v >= 0.0),
    "n0": ("channel.n0", float, 1.0, "> 0", lambda v: v > 0.0),
    "mu": ("attack.mu", float, 0.0, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "nu": ("attack.nu", float, 0.0, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "alpha": ("attack.alpha", float, 1.0, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "delta_ns": ("attack.delta_ns", float, 0.0, ">= 0", lambda v: v >= 0.0),
    "window_ns": ("detector.window_ns", float, 100.0, "> 0", lambda v: v > 0.0),
    "tau_ns": ("detector.tau_ns", float, DEFAULT_TAU_NS, "> 0", lambda v: v > 0.0),
    "slope_cal": ("detector.slope_cal", float, 1.0, "> 0", lambda v: v > 0.0),
    "n0_assumed": ("n0_assumed", float, 1.0, "> 0", lambda v: v > 0.0),
    "countermeasure": (
        "countermeasure_enabled", _parse_bool, False, "on or off", lambda v: True
    ),
    "monitor_fraction": ("monitor_fraction", float, 0.1, "in (0, 1)", lambda v: 0.0 < v < 1.0),
    "switch_loss_db": ("switch.loss_db", float, 2.7, ">= 0", lambda v: v >= 0.0),
    "extinction": ("switch.extinction", float, 0.0, "in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "z_threshold": ("z_threshold", float, 5.0, "> 0", lambda v: v > 0.0),
    "beta": ("beta", float, 0.948, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "snr_target": ("sweep.snr_target", float, 0.075, "> 0", lambda v: v > 0.0),
    "xi_bob": ("sweep.xi_bob", float, 0.001, ">= 0", lambda v: v >= 0.0),
    "loss_db_per_km": ("sweep.loss_db_per_km", float, 0.2, "> 0", lambda v: v > 0.0),
    "sweep_d_max_km": ("sweep.d_max_km", float, 120.0, "> 0", lambda v: v > 0.0),
    "sweep_step_km": ("sweep.step_km", float, 1.0, "> 0", lambda v: v > 0.0),
}


@dataclass
class SweepSettings:
    """Distance-sweep parameters for the key-rate comparison curves."""

    snr_target: float
    xi_bob: float
    loss_db_per_km: float
    d_max_km: float
    step_km: float


@dataclass
class ScenarioConfig:
    """Fully validated end-to-end scenario description.

    Built by :func:`parse_config`; ``_KEY_TABLE`` gives each field its
    config key and default.
    """

    channel: ChannelParams
    attack: AttackParams
    detector: DetectorModel
    pulses: int
    key_fraction: float
    seed: int
    beta: float
    epsilon: float
    n0_assumed: float
    countermeasure_enabled: bool
    monitor_fraction: float
    switch: SwitchModel
    z_threshold: float
    sweep: SweepSettings

    def config_hash(self) -> str:
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()[:16]


# field name -> type, for building the nested records
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _config_from_values(values: dict) -> ScenarioConfig:
    """Place each key's value at its field paths, building the nested records."""
    top: dict = {}
    nested: dict[str, dict] = {}
    for key, value in values.items():
        for path in _KEY_TABLE[key][0].split():
            group, _, name = path.rpartition(".")
            (nested.setdefault(group, {}) if group else top)[name] = value
    for group, kwargs in nested.items():
        top[group] = _FIELD_TYPES[group](**kwargs)
    return ScenarioConfig(**top)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a key=value configuration.

    Raises :class:`ConfigError` naming the line for unknown keys, bad
    values, out-of-range values or fractions, duplicates, missing required
    keys, and ``alpha`` below 1 set together with ``delta_ns`` above 0.
    """
    values: dict = {}
    lines_seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines_seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first on line {lines_seen[key]})"
            )
        lines_seen[key] = lineno
        _, converter, _, bounds, check = _KEY_TABLE[key]
        try:
            value = converter(value_text)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} must be {bounds}, got {value_text!r}"
            ) from None
        if converter is float and not math.isfinite(value):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {value}")
        if not check(value):
            raise ConfigError(f"line {lineno}: {key} must be {bounds}, got {value}")
        values[key] = value
    for key, (_, _, default, _, _) in _KEY_TABLE.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    if values["countermeasure"] and values["key_fraction"] + values["monitor_fraction"] >= 1.0:
        lineno = max(lines_seen.get("key_fraction", 0), lines_seen.get("monitor_fraction", 0))
        raise ConfigError(
            f"line {lineno}: key_fraction + monitor_fraction must be < 1 with the countermeasure on"
        )
    if values["alpha"] < 1.0 and values["delta_ns"] > 0.0:
        lineno = max(lines_seen["alpha"], lines_seen["delta_ns"])
        raise ConfigError(f"line {lineno}: set alpha < 1 or delta_ns > 0, not both")
    try:
        return _config_from_values(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; ``parse_config`` returns an identical object."""
    lines = []
    for key, (paths, *_) in _KEY_TABLE.items():
        value = attrgetter(paths.split()[0])(cfg)
        lines.append(f"{key} = {_format_bool(value) if isinstance(value, bool) else repr(value)}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
