"""The benchmark's workloads.

Each workload is a closed loop: one caller runs a fixed round of
operations, waiting for each call to return, and checks every output.
A round is the same list of operations every time, so a run of whole
rounds fails the same share of its operations whatever its length.
Only calls into the package (or, for ``cli``, the child process) are
timed, each between two runs of the workload's reference task; input
generation and checks are not.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = BENCH / "out"

BREACH_CFG = CONFIGS / "quantitative-example.cfg"
COUNTERMEASURE_CFG = CONFIGS / "countermeasure-example.cfg"
# Fig. 5 reference receiver, as ``cvqkdsim sweep`` builds it without --config.
FIG5_TEXT = "pulses = 1000\neta = 0.6\n"
# Unattacked, perfectly calibrated twins of the breach channel.  The n0 = 2
# twin fails every time (ROADMAP D3), so it runs at a fixed seed.
TWIN_TEXT = "pulses = 2000000\nseed = {seed}\nn0 = {n0}\nn0_assumed = {n0}\n"
TWIN_N0_2_SEED = 3


def sub_seed(seed: int, *tags: int) -> int:
    """Independent non-negative seed for one input of the workload."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def config_text(path: Path, **overrides) -> str:
    """A shipped config with some keys' lines replaced."""
    lines = []
    for line in path.read_text().splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        lines.append(f"{key} = {overrides.pop(key)}" if key in overrides else line)
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    return "\n".join(lines) + "\n"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def peak_rss_mb() -> float:
    """High-water resident set of this process since it started its program.

    ``ru_maxrss`` would also count the parent's memory at fork, which
    the kernel carries across exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


@dataclass
class Op:
    """One timed operation and the checks its output failed."""

    name: str
    seconds: float
    errors: list[str] = field(default_factory=list)
    # checks that fail because of a named fault in the package
    known: frozenset[str] = frozenset()
    # seconds of the workload's reference task, timed just before and after
    ref: float = 0.0

    @property
    def unexpected(self) -> list[str]:
        return [e for e in self.errors if e.split(":", 1)[0] not in self.known]


@contextmanager
def timed(tracer, name: str):
    """Time the body; under tracing also record it as a top-level span."""
    box = {"seconds": 0.0, "span": -1}
    with tracer.span(f"op.{name}") if tracer else nullcontext(-1) as sid:
        box["span"] = sid
        start = time.perf_counter()
        try:
            yield box
        finally:
            box["seconds"] = time.perf_counter() - start


def _median(ops: list[Op], name: str) -> float:
    return statistics.median(op.seconds for op in ops if op.name == name)


# The reference task of the in-process workloads: the kind of numpy work
# run_scenario does (normal sampling, arithmetic, a mask, a dot product) on
# 2^20 elements, with fixed inputs and without the package.
REFERENCE_N = 1 << 20


def numpy_reference() -> float:
    rng = np.random.default_rng(20130426)
    start = time.perf_counter()
    x = rng.standard_normal(REFERENCE_N)
    y = 0.9 * x + 0.3 * rng.standard_normal(REFERENCE_N)
    kept = x[y > 0.0]
    float(kept @ kept)
    return time.perf_counter() - start


class Workload:
    """A fixed list of operations per round, each timed beside a reference task.

    The host's other tenants slow the CPU by 1.5-2x for stretches of
    seconds to minutes, so a time alone says more about the host than
    about the program.  The reference task does not use the package;
    timed just before and just after an operation, it shares that
    operation's host conditions, and their ratio keeps only the
    program's share of the change.
    """

    name = ""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def operations(self, r: int) -> list:
        """Callables that each run, time and check one operation of round ``r``."""
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds of one run of the workload's reference task."""
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        refs = [self.reference()]
        ops = []
        for run in self.operations(r):
            ops.append(run())
            refs.append(self.reference())
        for op, before, after in zip(ops, refs, refs[1:]):
            op.ref = (before + after) / 2
        return ops

    def named(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, by the names the README uses."""
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class InProcess(Workload):
    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        import cvqkdsim

        self.cv = cvqkdsim

    def reference(self):
        return numpy_reference()


# ------------------------------------------------------------------ scenario


class Scenario(InProcess):
    """``run_scenario`` on both shipped configs and two unattacked twins, 2M pulses each."""

    name = "scenario"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        breach_text = BREACH_CFG.read_text()
        cm_text = COUNTERMEASURE_CFG.read_text()
        twin1 = TWIN_TEXT.format(seed=sub_seed(seed, 3), n0=1.0)
        twin2 = TWIN_TEXT.format(seed=TWIN_N0_2_SEED, n0=2.0)
        # name -> (config loader, seed override, checker, channel, known fault)
        self.cases = [
            ("breach", lambda: self.cv.load_config(BREACH_CFG), sub_seed(seed, 1),
             checks.check_breach, checks.parse_kv(breach_text), frozenset()),
            ("countermeasure", lambda: self.cv.load_config(COUNTERMEASURE_CFG), sub_seed(seed, 2),
             checks.check_countermeasure, checks.parse_kv(cm_text), frozenset()),
            ("twin_n0_1", lambda: self.cv.parse_config(twin1), None,
             checks.check_twin, checks.parse_kv(twin1), frozenset()),
            ("twin_n0_2", lambda: self.cv.parse_config(twin2), None,
             checks.check_twin, checks.parse_kv(twin2),
             frozenset({"i_ab_matches_truth", "k_estimated_matches_k_true"})),
        ]
        self.first_text: dict[str, str] = {}
        self.pulses = {name: checks.Channel(values).pulses for name, *_, values, _ in self.cases}

    def _case(self, name, load, seed, check, values, known) -> Op:
        with timed(self.tracer, name) as t:
            cfg = load()
            if seed is not None:
                cfg = replace(cfg, seed=seed)
            report = self.cv.run_scenario(cfg)
        text = report.to_text()
        errors = check(checks.parse_kv(text), checks.Channel(values))
        errors += checks.check_repeat(text, self.first_text.setdefault(name, text))
        return Op(name, t["seconds"], errors, known)

    def operations(self, r):
        return [partial(self._case, *case) for case in self.cases]

    def named(self, ops):
        pulses = sum(self.pulses[op.name] for op in ops)
        return {"scenario_mpulses_per_s": (pulses / sum(op.seconds for op in ops) / 1e6,
                                           "Mpulse/s")}


# -------------------------------------------------------------------- design

# Operations per round; the per-layer counts are per round.
SWEEPS_PER_ROUND = 12
CALIBRATIONS_PER_ROUND = 10
GRID_POINTS = 4000
CALIBRATION_POINTS = 1000
# 20000 vacuum samples per point put the slope-ratio SE near 0.001, so the
# 0.01 tolerance is ~10 SE; the cost of a point does not depend on it.
SAMPLES_PER_POINT = 20_000
SHIFT_NS = 10.0


class Design(InProcess):
    """No sampling: key-rate sweeps, the xi >= 2 grid, pulse crafting, calibration fits.

    Not a measured workload (see README.md, *Dropped*): a traced run
    borrows one round of it for the ``keyrate`` and ``pulses`` metrics.
    """

    name = "design"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        cv = self.cv
        self.fig5 = cv.parse_config(FIG5_TEXT)
        rng = np.random.default_rng([seed, 4])
        distance = rng.uniform(0.0, 200.0, GRID_POINTS)
        self.grid = [
            dict(va=float(va), transmittance=float(10.0 ** (-0.02 * d)), eta=float(eta),
                 xi=float(xi), v_el=float(vel), beta=0.948)
            for va, d, eta, xi, vel in zip(
                rng.uniform(1.0, 20.0, GRID_POINTS), distance,
                rng.uniform(0.3, 1.0, GRID_POINTS), rng.uniform(2.0, 4.0, GRID_POINTS),
                rng.uniform(0.0, 0.05, GRID_POINTS))
        ]
        self.cal_seed = sub_seed(seed, 5)
        self.powers = np.linspace(0.5, 1.5, CALIBRATION_POINTS)

    def _sweep(self) -> Op:
        cv, cfg = self.cv, self.fig5
        kw = dict(eta=cfg.channel.eta, v_el=cfg.channel.v_el, beta=cfg.beta,
                  snr_target=cfg.sweep.snr_target, xi_bob=cfg.sweep.xi_bob)
        with timed(self.tracer, "sweep") as t:
            plain, protected = cv.sweep_keyrate(cfg)
            d_plain = cv.max_secure_distance(**kw)
            d_protected = cv.max_secure_distance(**kw, monitor_fraction=cfg.monitor_fraction,
                                                 switch=cfg.switch)
        points = plain + protected
        errors = checks.check_sweep(d_plain, d_protected, [p.i_ab for p in points],
                                    [p.distance_km for p in points],
                                    [p.transmittance for p in points])
        return Op("sweep", t["seconds"], errors)

    def _grid(self) -> Op:
        cv = self.cv
        with timed(self.tracer, "keyrate_grid") as t:
            rates = [cv.secret_key_rate(cv.KeyRateParams(**p)).key_rate for p in self.grid]
        return Op("keyrate_grid", t["seconds"], checks.check_entanglement_breaking(rates))

    def _pulse(self) -> Op:
        cv = self.cv
        base, trig, pm = cv.default_lo_pulse()
        with timed(self.tracer, "pulse_demo") as t:
            shaped = cv.craft_equal_power_pulse(base, SHIFT_NS, trig, pm)
        errors = checks.check_pulse(np.asarray(base.samples), np.asarray(shaped.samples),
                                    base.dt, base.t0, SHIFT_NS)
        return Op("pulse_demo", t["seconds"], errors)

    def _calibrate(self) -> Op:
        cv = self.cv
        det = cv.DetectorModel()
        gain = checks.gain_by_hand(SHIFT_NS)
        with timed(self.tracer, "calibrate") as t:
            nominal = cv.fit_calibration_line(cv.simulate_calibration_points(
                self.powers, det, gain=1.0, samples_per_point=SAMPLES_PER_POINT,
                seed=self.cal_seed))
            delayed = cv.fit_calibration_line(cv.simulate_calibration_points(
                self.powers, det, gain=gain, samples_per_point=SAMPLES_PER_POINT,
                seed=self.cal_seed + 1))
        errors = checks.check_calibration(delayed.slope / nominal.slope, SHIFT_NS)
        return Op("calibrate", t["seconds"], errors)

    def round(self, r):
        # only a traced run's companion: no time of it is reported, so no reference
        ops = [self._pulse(), self._grid()]
        ops += [self._sweep() for _ in range(SWEEPS_PER_ROUND)]
        ops += [self._calibrate() for _ in range(CALIBRATIONS_PER_ROUND)]
        return ops


# ----------------------------------------------------------------------- cli


def _outputs(op: Op, *paths: Path) -> list[str] | None:
    """A command's output files; a missing one fails the operation."""
    missing = [p.name for p in paths if not p.is_file()]
    checks.fail(op.errors, "output_files", not missing, f"missing {missing}")
    return None if missing else [p.read_text() for p in paths]

# Pulses per ``run --csv``: the dump is written row by row, so the full
# 2M would spend ~13 s per run in the writer alone.
CLI_PULSES = 200_000


class Cli(Workload):
    """The command-line subcommands as child processes, outputs read back from disk."""

    name = "cli"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.dir = OUT / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for name, path in (("breach", BREACH_CFG), ("countermeasure", COUNTERMEASURE_CFG)):
            cfg = self.dir / f"{name}.cfg"
            cfg.write_text(config_text(path, pulses=CLI_PULSES))
            self.configs[name] = (cfg, checks.parse_kv(cfg.read_text()))
        (self.dir / "fig5.cfg").write_text(FIG5_TEXT)
        self.breach_seed = sub_seed(seed, 1)
        self.cal_seed = sub_seed(seed, 5)
        self.child_rss_mb = 0.0

    def _child(self, name: str, args: list[str]) -> tuple[Op, subprocess.CompletedProcess]:
        """``cvqkdsim.cli.main(args)`` in a fresh interpreter, through child.py.

        Each command writes into a fresh ``DIR/<name>``, so a check never
        reads a file an earlier round left behind.
        """
        shutil.rmtree(self.dir / name, ignore_errors=True)
        result = self.dir / f"{name}.child.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(result),
               "1" if self.tracer else "0", *args]
        with timed(self.tracer, name) as t:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        if not result.is_file():
            raise RuntimeError(f"{name} child failed: {proc.stderr[-2000:]}")
        child = json.loads(result.read_text())
        self.child_rss_mb = max(self.child_rss_mb, child["peak_rss_mb"])
        if self.tracer:
            self.tracer.adopt(child["spans"], t["span"])
        return Op(name, t["seconds"]), proc

    def peak_rss_mb(self):
        return self.child_rss_mb

    def _run(self, config: str, expect_exit: int, check, seed: int | None,
             known: frozenset[str] = frozenset()) -> Op:
        path, values = self.configs[config]
        name = f"run_csv_{config}"
        out = self.dir / name
        args = ["run", "--config", str(path), "--out", str(out), "--csv"]
        if seed is not None:
            args += ["--seed", str(seed)]
            values = {**values, "seed": str(seed)}
        op, proc = self._child(name, args)
        op.known = known
        op.errors = checks.check_exit(proc.returncode, expect_exit)
        report = checks.parse_kv(proc.stdout)
        if "verdict" in report:
            op.errors += check(report, checks.Channel(values))
            texts = _outputs(op, out / "pulses.csv")
            if texts:
                op.errors += checks.check_pulse_csv(texts[0], report)
        else:
            op.errors.append(f"report: no report printed; stderr {proc.stderr[-200:]!r}")
        return op

    def _sweep(self) -> Op:
        out = self.dir / "sweep"
        op, proc = self._child("sweep", ["sweep", "--config", str(self.dir / "fig5.cfg"),
                                         "--out", str(out)])
        op.errors = checks.check_exit(proc.returncode, 0)
        texts = _outputs(op, out / "keyrate_no_countermeasure.csv", out / "keyrate_countermeasure.csv")
        if proc.returncode == 0 and texts:
            printed = checks.parse_kv(proc.stdout)
            curves = [checks.read_columns(text) for text in texts]
            column = lambda key: np.concatenate([c[key] for c in curves])  # noqa: E731
            op.errors += checks.check_sweep(
                float(printed["max_secure_distance_no_countermeasure_km"]),
                float(printed["max_secure_distance_countermeasure_km"]),
                column("i_ab"), column("d_km"), column("T"))
        return op

    def _pulse(self) -> Op:
        out = self.dir / "pulse_demo"
        op, proc = self._child("pulse_demo", ["pulse-demo", "--shift-ns", str(SHIFT_NS),
                                              "--out", str(out)])
        op.errors = checks.check_exit(proc.returncode, 0)
        texts = _outputs(op, out / "base_pulse.csv", out / "shaped_pulse.csv")
        if proc.returncode == 0 and texts:
            printed = checks.parse_kv(proc.stdout)
            checks.fail(op.errors, "printed_power", float(printed["relative_power_difference"]) <= 1e-6,
                        printed["relative_power_difference"])
            checks.fail(op.errors, "printed_shift", float(printed["trigger_shift_ns"]) >= SHIFT_NS - 1e-9,
                        printed["trigger_shift_ns"])
            base, shaped = (checks.read_columns(text) for text in texts)
            times = base["time_ns"]
            op.errors += checks.check_pulse(base["intensity"], shaped["intensity"],
                                            float(times[1] - times[0]), float(times[0]), SHIFT_NS)
        return op

    def _calibrate(self) -> Op:
        op, proc = self._child("calibrate", [
            "calibrate", "--points", str(CALIBRATION_POINTS),
            "--samples-per-point", str(SAMPLES_PER_POINT), "--delay-ns", str(SHIFT_NS),
            "--seed", str(self.cal_seed)])
        op.errors = checks.check_exit(proc.returncode, 0)
        if proc.returncode == 0:
            op.errors += checks.check_calibration(
                float(checks.parse_kv(proc.stdout)["slope_ratio"]), SHIFT_NS)
        return op

    def operations(self, r):
        return [
            partial(self._run, "breach", 3, checks.check_breach, self.breach_seed),
            # at the config's own seed: the dump fails every time (ROADMAP D4)
            partial(self._run, "countermeasure", 2, checks.check_countermeasure, None,
                    known=frozenset({"csv_rows_match_report"})),
            self._sweep,
            self._pulse,
            self._calibrate,
        ]

    def reference(self):
        """A fresh interpreter importing numpy and scipy.stats, as every command does."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, scipy.stats"], cwd=ROOT,
                       env=child_env(), capture_output=True, check=True)
        return time.perf_counter() - start

    def named(self, ops):
        runs = [op.seconds for op in ops if op.name.startswith("run_csv_")]
        return {
            "cli_run_csv_s": (statistics.median(runs), "s"),
            "cli_sweep_s": (_median(ops, "sweep"), "s"),
            "cli_pulse_demo_s": (_median(ops, "pulse_demo"), "s"),
            "cli_calibrate_s": (_median(ops, "calibrate"), "s"),
        }


# The measured workloads, and every workload a traced run may borrow one
# round of for the per-layer metrics its own round does not reach.
WORKLOADS = {w.name: w for w in (Scenario, Cli)}
TRACE_HOMES = {**WORKLOADS, Design.name: Design}
