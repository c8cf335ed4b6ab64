"""Scenario configuration: key=value files with strict validation.

The format is UTF-8 text, a leading byte-order mark dropped, one ``key =
value`` pair per line ending at LF, CR LF or CR; ``#`` starts a comment.
Unknown keys and bytes that are not UTF-8 are refused, and each value is
checked against the range that its record field states, with errors
naming the offending line.  The records check themselves too, on
construction and on ``dataclasses.replace``.  A parsed configuration
serializes back to a canonical text that re-parses to an identical object.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import MISSING, field, fields
from numbers import Integral
from operator import attrgetter

from .countermeasure import SwitchModel
from .errors import ConfigError
from .estimation import TAIL_PROBABILITY
from .protocol import AttackParams, ChannelParams
from .pulses import DetectorModel
from .ranges import NON_NEGATIVE, ON_OFF, OPEN_UNIT, POSITIVE, UNIT, Range, checked, param


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


_READ_CHUNK = 1 << 16  # bytes asked of each ``os.read`` of a config file
# the converter of each type that a config key's field may declare
_CONVERTERS = {"int": int, "float": float, "bool": _parse_bool}

# config key -> its field path in ScenarioConfig, in serialization order; the
# field states the key's type, default and range
_KEY_TABLE: dict[str, str] = {
    "pulses": "pulses",
    "seed": "seed",
    "key_fraction": "key_fraction",
    "epsilon": "epsilon",
    "va": "channel.va",
    "transmittance": "channel.transmittance",
    "eta": "channel.eta",
    "xi": "channel.xi",
    "vel": "channel.v_el",
    "n0": "channel.n0",
    "mu": "attack.mu",
    "nu": "attack.nu",
    "alpha": "attack.alpha",
    "delta_ns": "attack.delta_ns",
    "window_ns": "detector.window_ns",
    "tau_ns": "detector.tau_ns",
    "slope_cal": "detector.slope_cal",
    "n0_assumed": "n0_assumed",
    "countermeasure": "countermeasure_enabled",
    "monitor_fraction": "monitor_fraction",
    "switch_loss_db": "switch.loss_db",
    "extinction": "switch.extinction",
    "z_threshold": "z_threshold",
    "beta": "beta",
    "snr_target": "sweep.snr_target",
    "xi_bob": "sweep.xi_bob",
    "loss_db_per_km": "sweep.loss_db_per_km",
    "sweep_d_max_km": "sweep.d_max_km",
    "sweep_step_km": "sweep.step_km",
}


class _RuleError(ValueError):
    """A rule that spans fields is broken; ``keys`` are the config keys it reads."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


# the most steps a sweep grid may take: 12 000 take about 0.3 s, and every point is kept in memory
_MAX_SWEEP_STEPS = 100_000


@checked
class SweepSettings:
    """Distance-sweep parameters for the key-rate comparison curves."""

    snr_target: float = param(0.075, within=POSITIVE)
    xi_bob: float = param(0.001, within=NON_NEGATIVE)
    loss_db_per_km: float = param(0.2, within=POSITIVE)
    d_max_km: float = param(120.0, within=POSITIVE)
    step_km: float = param(1.0, within=POSITIVE)

    def __post_init__(self):
        # the grid takes int(ratio + 1e-9) steps (``scenario.sweep_keyrate``); the
        # ratio may overflow to inf, which int() refuses, so it is compared as a float
        ratio = self.d_max_km / self.step_km
        if not ratio + 1e-9 < _MAX_SWEEP_STEPS + 1:
            raise _RuleError(
                f"sweep_d_max_km / sweep_step_km must give at most {_MAX_SWEEP_STEPS} steps,"
                f" got {ratio:g}", "sweep_d_max_km", "sweep_step_km",
            )


def _integer_at_least(low: int) -> Range:
    return Range(f"an integer >= {low}", lambda v: isinstance(v, Integral) and v >= low)


# numpy's binomial draws take a pulse count as an int64
_PULSE_COUNT = Range("an integer in [10, 2**63)",
                     lambda v: isinstance(v, Integral) and 10 <= v < 1 << 63)


@checked
class ScenarioConfig:
    """Fully checked end-to-end scenario description.

    Only ``pulses`` is required.  Built by :func:`parse_config`;
    ``_KEY_TABLE`` gives each field its config key.
    """

    pulses: int = param(within=_PULSE_COUNT)
    channel: ChannelParams = field(default_factory=ChannelParams)
    attack: AttackParams = field(default_factory=AttackParams)
    detector: DetectorModel = field(default_factory=DetectorModel)
    key_fraction: float = param(0.5, within=OPEN_UNIT)
    seed: int = param(1, within=_integer_at_least(0))
    beta: float = param(0.948, within=UNIT)
    epsilon: float = param(0.05, within=TAIL_PROBABILITY)
    n0_assumed: float = param(1.0, within=POSITIVE)
    countermeasure_enabled: bool = param(False, within=ON_OFF)
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


def _key_entry(path: str) -> tuple:
    """(record prefix, name, converter, range) of the field at ``path``; KeyError: no converter."""
    group, _, name = path.rpartition(".")
    key_field = _RECORDS[group].__dataclass_fields__[name]
    return group, name, _CONVERTERS[key_field.type], key_field.metadata["range"]


# config key -> its field's record prefix, name, converter and range, in ``_KEY_TABLE`` order
_KEYS = {key: _key_entry(path) for key, path in _KEY_TABLE.items()}
_REQUIRED = [key for key, (group, name, _, _) in _KEYS.items()
             if _RECORDS[group].__dataclass_fields__[name].default is MISSING]
# a config's value of every key, in ``_KEY_TABLE`` order
_KEY_VALUES = attrgetter(*_KEY_TABLE.values())
# the canonical text: a switch as on/off, every other value as its repr
_TEMPLATE = "".join(f"{k} = %{'s' if e[2] is _parse_bool else 'r'}\n" for k, e in _KEYS.items())


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a key=value configuration.

    Raises :class:`ConfigError` naming the line for unknown keys, bad
    values, out-of-range values, duplicates, missing required keys, and
    the rules of the records that span keys (naming the later
    of their lines).
    """
    values: dict[str, dict] = {group: {} for group in _RECORDS}  # each record's given fields
    lines_seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value_text = line.partition("=")
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value_text = value_text.strip()
        entry = _KEYS.get(key)
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines_seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first on line {lines_seen[key]})"
            )
        lines_seen[key] = lineno
        group, name, converter, within = entry
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
        values[group][name] = value
    for key in _REQUIRED:
        if key not in lines_seen:
            raise ConfigError(f"missing required key {key!r}")
    try:
        nested = {group: _RECORDS[group](**kw) for group, kw in values.items() if group}
        return ScenarioConfig(**values[""], **nested)
    except _RuleError as exc:
        lineno = max(lines_seen.get(key, 0) for key in exc.keys)
        raise ConfigError(f"line {lineno}: {exc}") from None


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; ``parse_config`` returns an identical object."""
    values = _KEY_VALUES(cfg)
    return _TEMPLATE % tuple([("off", "on")[v] if type(v) is bool else v for v in values])


def load_config(path) -> ScenarioConfig:
    """Read the config file at ``path`` as raw bytes, decode it (see the module) and parse it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = b"".join(iter(lambda: os.read(fd, _READ_CHUNK), b""))
    except OSError as exc:  # a directory opens, and fails its first read without the path
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode() + "x").splitlines())  # "x" for the bad byte
        raise ConfigError(f"line {lineno}: not UTF-8 text (byte {data[exc.start]:#04x})") from None
    return parse_config(text.removeprefix("\ufeff"))
