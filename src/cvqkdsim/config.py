"""Scenario configuration: key=value files with strict validation.

The format is UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment.  Unknown keys are rejected, and each value is checked against
the range that its record field states, with errors naming the offending
line.  The records check themselves too, on construction and on
``dataclasses.replace``.  A parsed configuration serializes back to a
canonical text that re-parses to an identical object.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import MISSING, Field, field, fields
from numbers import Integral
from operator import attrgetter

from .countermeasure import SwitchModel
from .errors import ConfigError
from .protocol import AttackParams, ChannelParams
from .pulses import DetectorModel
from .ranges import NON_NEGATIVE, OPEN_UNIT, POSITIVE, UNIT, Range, checked, param


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _format_bool(value: bool) -> str:
    return "on" if value else "off"


# config key -> (its field path in ScenarioConfig, converter), in serialization
# order; the field states the key's default and range
_KEY_TABLE: dict[str, tuple[str, Callable]] = {
    "pulses": ("pulses", int),
    "seed": ("seed", int),
    "key_fraction": ("key_fraction", float),
    "epsilon": ("epsilon", float),
    "va": ("channel.va", float),
    "transmittance": ("channel.transmittance", float),
    "eta": ("channel.eta", float),
    "xi": ("channel.xi", float),
    "vel": ("channel.v_el", float),
    "n0": ("channel.n0", float),
    "mu": ("attack.mu", float),
    "nu": ("attack.nu", float),
    "alpha": ("attack.alpha", float),
    "delta_ns": ("attack.delta_ns", float),
    "window_ns": ("detector.window_ns", float),
    "tau_ns": ("detector.tau_ns", float),
    "slope_cal": ("detector.slope_cal", float),
    "n0_assumed": ("n0_assumed", float),
    "countermeasure": ("countermeasure_enabled", _parse_bool),
    "monitor_fraction": ("monitor_fraction", float),
    "switch_loss_db": ("switch.loss_db", float),
    "extinction": ("switch.extinction", float),
    "z_threshold": ("z_threshold", float),
    "beta": ("beta", float),
    "snr_target": ("sweep.snr_target", float),
    "xi_bob": ("sweep.xi_bob", float),
    "loss_db_per_km": ("sweep.loss_db_per_km", float),
    "sweep_d_max_km": ("sweep.d_max_km", float),
    "sweep_step_km": ("sweep.step_km", float),
}


@checked
class SweepSettings:
    """Distance-sweep parameters for the key-rate comparison curves."""

    snr_target: float = param(0.075, within=POSITIVE)
    xi_bob: float = param(0.001, within=NON_NEGATIVE)
    loss_db_per_km: float = param(0.2, within=POSITIVE)
    d_max_km: float = param(120.0, within=POSITIVE)
    step_km: float = param(1.0, within=POSITIVE)


def _integer_at_least(low: int) -> Range:
    return Range(f"an integer >= {low}", lambda v: isinstance(v, Integral) and v >= low)


class _RuleError(ValueError):
    """A rule that spans fields is broken; ``keys`` are the config keys it reads."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


@checked
class ScenarioConfig:
    """Fully checked end-to-end scenario description.

    Only ``pulses`` is required.  Built by :func:`parse_config`;
    ``_KEY_TABLE`` gives each field its config key.
    """

    pulses: int = param(within=_integer_at_least(10))
    channel: ChannelParams = field(default_factory=ChannelParams)
    attack: AttackParams = field(default_factory=AttackParams)
    detector: DetectorModel = field(default_factory=DetectorModel)
    key_fraction: float = param(0.5, within=OPEN_UNIT)
    seed: int = param(1, within=_integer_at_least(0))
    beta: float = param(0.948, within=UNIT)
    epsilon: float = param(0.05, within=OPEN_UNIT)
    n0_assumed: float = param(1.0, within=POSITIVE)
    countermeasure_enabled: bool = param(
        False, within=Range("on or off", lambda v: isinstance(v, bool))
    )
    monitor_fraction: float = param(0.1, within=OPEN_UNIT)
    switch: SwitchModel = field(default_factory=SwitchModel)
    z_threshold: float = param(5.0, within=POSITIVE)
    sweep: SweepSettings = field(default_factory=SweepSettings)

    def __post_init__(self):
        if self.countermeasure_enabled and self.key_fraction + self.monitor_fraction >= 1.0:
            raise _RuleError(
                "key_fraction + monitor_fraction must be < 1 with the countermeasure on",
                "key_fraction", "monitor_fraction",
            )
        if self.attack.alpha < 1.0 and self.attack.delta_ns > 0.0:
            raise _RuleError("set alpha < 1 or delta_ns > 0, not both", "alpha", "delta_ns")

    def config_hash(self) -> str:
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()[:16]


# field path prefix -> the record class that holds the fields under it
_RECORDS = {"": ScenarioConfig} | {
    f.name: f.default_factory for f in fields(ScenarioConfig) if f.default_factory is not MISSING
}


def _path_field(path: str) -> Field:
    group, _, name = path.rpartition(".")
    return _RECORDS[group].__dataclass_fields__[name]


# config key -> the field it sets, which states the key's default and range
_FIELDS = {key: _path_field(path) for key, (path, _) in _KEY_TABLE.items()}
# a config's value of every key, in ``_KEY_TABLE`` order
_KEY_VALUES = attrgetter(*[path for path, _ in _KEY_TABLE.values()])


def _config_from_values(values: dict) -> ScenarioConfig:
    """Place each given key's value at its field path; the other fields keep their defaults."""
    top: dict = {}
    nested: dict[str, dict] = {}
    for key, value in values.items():
        group, _, name = _KEY_TABLE[key][0].rpartition(".")
        (nested.setdefault(group, {}) if group else top)[name] = value
    for group, kwargs in nested.items():
        top[group] = _RECORDS[group](**kwargs)
    return ScenarioConfig(**top)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a key=value configuration.

    Raises :class:`ConfigError` naming the line for unknown keys, bad
    values, out-of-range values, duplicates, missing required keys, and
    the rules of :class:`ScenarioConfig` that span keys (naming the later
    of their lines).
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
        converter, within = _KEY_TABLE[key][1], _FIELDS[key].metadata["range"]
        try:
            value = converter(value_text)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} must be {within.text}, got {value_text!r}"
            ) from None
        try:
            within.check(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        values[key] = value
    for key, key_field in _FIELDS.items():
        if key not in values and key_field.default is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    try:
        return _config_from_values(values)
    except _RuleError as exc:
        lineno = max(lines_seen.get(key, 0) for key in exc.keys)
        raise ConfigError(f"line {lineno}: {exc}") from None


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; ``parse_config`` returns an identical object."""
    return "".join([
        f"{key} = {_format_bool(value) if isinstance(value, bool) else repr(value)}\n"
        for key, value in zip(_KEY_TABLE, _KEY_VALUES(cfg))
    ])


def load_config(path) -> ScenarioConfig:
    # read as bytes: ``splitlines`` ends a line at \r\n and \r as text mode does
    with open(path, "rb") as fh:
        return parse_config(fh.read().decode("utf-8"))
