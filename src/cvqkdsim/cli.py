"""Command-line front end.

Subcommands:
    run         execute a scenario from a config file, print the report
    sweep       emit the key-rate comparison curves as CSV
    pulse-demo  build an equal-power pulse pair with a shifted trigger
    calibrate   fit a calibration line to synthetic variance/power data
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import ConfigError, ScenarioStageError
from .keyrate import max_secure_distance
from .protocol import pulses_csv
from .pulses import (
    DetectorModel,
    craft_equal_power_pulse,
    detector_gain,
    fit_calibration_line,
    measure_power,
    simulate_calibration_points,
    trigger_time,
)
from .scenario import (
    EXIT_ERROR,
    default_lo_pulse,
    dump_pulses,
    last_positive_distance,
    run_scenario,
    sweep_keyrate,
    sweep_receivers,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqkdsim",
        description="Deterministic CV-QKD calibration-attack simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Run an end-to-end scenario.")
    run.add_argument("--config", required=True, help="key=value scenario file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="directory for report.txt")
    run.add_argument("--csv", action="store_true",
                     help="also dump the open-switch pulses the report used to "
                          "<out>/pulses.csv (needs --out)")

    sweep = sub.add_parser("sweep", help="Key-rate curves with/without countermeasure.")
    sweep.add_argument("--config", default=None, help="optional scenario file")
    sweep.add_argument("--out", default=".", help="output directory for the CSV curves")

    demo = sub.add_parser("pulse-demo", help="Equal-power pulses, shifted trigger.")
    demo.add_argument("--shift-ns", type=float, default=10.0)
    demo.add_argument("--out", default=None, help="directory for the waveform CSVs")

    cal = sub.add_parser("calibrate", help="Fit a calibration line to synthetic data.")
    cal.add_argument("--points", type=int, default=1000)
    cal.add_argument("--samples-per-point", type=int, default=2000)
    cal.add_argument("--delay-ns", type=float, default=0.0,
                     help="also fit a line with the trigger delayed by this much")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", default=None, help="directory for calibration CSV output")
    return parser


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header``, then each row as comma-joined shortest-repr floats; lines end in CRLF."""
    lines = [header, *(",".join(repr(float(v)) for v in row) for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\r\n" for line in lines))


def _cmd_run(args) -> int:
    if args.csv and not args.out:
        raise ConfigError("--csv needs --out: the pulse dump goes to <out>/pulses.csv")
    cfg = load_config(args.config)
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    report = run_scenario(cfg)
    if args.csv:
        pulses_csv(out / "pulses.csv", dump_pulses(cfg), report.n_key + report.m_estimation)
    print(report.to_text())
    if out:
        (out / "report.txt").write_text(report.to_text() + "\n")
    return report.exit_code


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig(pulses=1000)
    plain, protected = sweep_keyrate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = "d_km,T,V_A,i_ab,chi_be,K"
    _write_csv(out / "keyrate_no_countermeasure.csv", header, map(dataclasses.astuple, plain))
    _write_csv(out / "keyrate_countermeasure.csv", header, map(dataclasses.astuple, protected))
    d_plain, d_protected = (max_secure_distance(**r) for r in sweep_receivers(cfg))
    print(f"grid_last_positive_no_countermeasure_km={last_positive_distance(plain)!r}")
    print(f"grid_last_positive_countermeasure_km={last_positive_distance(protected)!r}")
    print(f"max_secure_distance_no_countermeasure_km={d_plain!r}")
    print(f"max_secure_distance_countermeasure_km={d_protected!r}")
    return 0


def _cmd_pulse_demo(args) -> int:
    if not 0 <= args.shift_ns < math.inf:
        raise ValueError(f"--shift-ns must be finite and >= 0, got {args.shift_ns}")
    base, threshold, window_ns = default_lo_pulse()
    shaped = craft_equal_power_pulse(base, args.shift_ns, threshold, window_ns)
    p_base = measure_power(base, window_ns)
    p_shaped = measure_power(shaped, window_ns)
    t_base = trigger_time(base, threshold)
    t_shaped = trigger_time(shaped, threshold)
    det = DetectorModel()
    delay = t_shaped - t_base
    print(f"power_base={p_base!r}")
    print(f"power_shaped={p_shaped!r}")
    print(f"relative_power_difference={abs(p_shaped - p_base) / p_base!r}")
    print(f"trigger_base_ns={t_base!r}")
    print(f"trigger_shaped_ns={t_shaped!r}")
    print(f"trigger_shift_ns={delay!r}")
    print(f"variance_gain_at_shifted_trigger={detector_gain(det.window_ns + delay, det)!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, wave in (("base_pulse.csv", base), ("shaped_pulse.csv", shaped)):
            _write_csv(out / name, "time_ns,intensity", zip(wave.times(), wave.samples))
    return 0


def _cmd_calibrate(args) -> int:
    if not 0 <= args.delay_ns < math.inf:
        raise ValueError(f"--delay-ns must be finite and >= 0, got {args.delay_ns}")
    for name, low in (("points", 2), ("samples_per_point", 2), ("seed", 0)):
        if (value := getattr(args, name)) < low:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be an integer >= {low}, got {value}")
    det = DetectorModel()
    powers = np.linspace(0.5, 1.5, args.points)
    points = simulate_calibration_points(
        powers, det, gain=1.0, samples_per_point=args.samples_per_point, seed=args.seed
    )
    line = fit_calibration_line(points)
    print(f"slope={line.slope!r}")
    print(f"intercept={line.intercept!r}")
    if args.delay_ns > 0:
        gain = detector_gain(det.window_ns + args.delay_ns, det)
        delayed = simulate_calibration_points(
            powers, det, gain=gain,
            samples_per_point=args.samples_per_point, seed=args.seed + 1,
        )
        delayed_line = fit_calibration_line(delayed)
        print(f"delayed_slope={delayed_line.slope!r}")
        print(f"slope_ratio={delayed_line.slope / line.slope!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "calibration_points.csv", "power,variance", points)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "pulse-demo": _cmd_pulse_demo,
        "calibrate": _cmd_calibrate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ScenarioStageError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print(f"error ({args.command}): out of memory", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a fault of the program, still reported without a traceback
        print(f"error ({args.command}): {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
