"""Simulation toolkit for shot-noise calibration attacks on CV-QKD receivers."""

from .config import ScenarioConfig, SweepSettings, load_config, parse_config, serialize_config
from .countermeasure import (
    SwitchModel,
    detect_attack,
    effective_eta,
    realtime_shot_noise,
)
from .estimation import (
    MlEstimates,
    confidence_bounds,
    infer_channel,
)
from .keyrate import (
    KeyRateBreakdown,
    KeyRateParams,
    holevo_bound,
    max_secure_distance,
    mutual_information,
    rate_at_distance,
    secret_key_rate,
    va_for_snr,
)
from .protocol import (
    AttackParams,
    ChannelParams,
    PulseBatch,
    generate_alice,
    simulate_bob,
)
from .pulses import (
    CalibrationLine,
    DetectorModel,
    Waveform,
    attenuate_leading_edge,
    craft_equal_power_pulse,
    detector_gain,
    fit_calibration_line,
    measure_power,
    simulate_calibration_points,
    trigger_time,
)
from .scenario import (
    ScenarioReport,
    default_lo_pulse,
    run_scenario,
    sweep_keyrate,
    trigger_delay_from_attenuation,
)

__version__ = "0.1.0"
