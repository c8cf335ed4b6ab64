"""Correctness checks for the benchmark, written apart from the package.

Every expected value here is computed by hand from the physics the
package is supposed to implement (the discharge gain, the Holevo key
rate, windowed pulse power, the threshold trigger, estimator standard
errors).  None of it imports ``cvqkdsim``, so a fault in the package
cannot also hide in its own yardstick.

A check function returns a list of failures, each ``"<check>: <detail>"``;
an empty list means every check passed.  ``selftest.py`` shows that each
check rejects a perturbed output.
"""

from __future__ import annotations

import math

import numpy as np

# Discharge constant documented by the package: a 10 ns trigger delay
# past the 100 ns integration window scales every variance by 1/1.5.
TAU_NS = 49.33

# Nominal LO pulse: trigger threshold and power-meter window.
TRIGGER_THRESHOLD = 0.5
POWER_WINDOW_NS = 100.0

# Fig. 5 reference receiver and sweep settings.
SNR_TARGET = 0.075

# Standard errors allowed between an estimate and its hand-computed value.
Z_SCENARIO = 5.0


def fail(errors: list[str], name: str, ok: bool, detail: str = "") -> None:
    if not ok:
        errors.append(f"{name}: {detail}")


def check_names(errors: list[str]) -> set[str]:
    return {e.split(":", 1)[0] for e in errors}


# ---------------------------------------------------------------- physics


def gain_by_hand(delta_ns: float, tau_ns: float = TAU_NS) -> float:
    """Variance gain of a sample taken delta_ns after the window closes."""
    return math.exp(-2.0 * delta_ns / tau_ns)


def _entropy_g(x: float) -> float:
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _symplectic_pair(a: float, b: float) -> tuple[float, float]:
    big = 0.5 * (a + math.sqrt(max(a * a - 4.0 * b, 0.0)))
    return math.sqrt(big), math.sqrt(max(b / big, 1.0))


def mutual_info_ref(va: float, t: float, eta: float, xi: float, vel: float) -> float:
    """Shannon rate 0.5*log2(1 + SNR) of homodyne detection."""
    snr = eta * t * va / (1.0 + vel + eta * t * xi)
    return 0.5 * math.log2(1.0 + snr)


def key_rate_ref(va: float, t: float, eta: float, xi: float, vel: float, beta: float) -> float:
    """Collective-attack rate beta*I - chi_BE, trusted detector, reverse reconciliation."""
    v = va + 1.0
    chi_line = 1.0 / t - 1.0 + xi
    chi_hom = (1.0 + vel) / eta - 1.0
    chi_tot = chi_line + chi_hom / t
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + (t * (v + chi_line)) ** 2
    b = (t * (v * chi_line + 1.0)) ** 2
    l1, l2 = _symplectic_pair(a, b)
    sqrt_b = math.sqrt(b)
    c = (a * chi_hom + v * sqrt_b + t * (v + chi_line)) / (t * (v + chi_tot))
    d = sqrt_b * (v + sqrt_b * chi_hom) / (t * (v + chi_tot))
    l3, l4 = _symplectic_pair(c, d)
    chi_be = sum(_entropy_g((lam - 1.0) / 2.0) for lam in (l1, l2)) - sum(
        _entropy_g((lam - 1.0) / 2.0) for lam in (l3, l4)
    )
    return beta * mutual_info_ref(va, t, eta, xi, vel) - max(chi_be, 0.0)


def window_power(samples: np.ndarray, dt: float, window_ns: float = POWER_WINDOW_NS) -> float:
    """Uniformly weighted power of the trailing window."""
    n = int(round(window_ns / dt))
    return float(np.sum(samples[-n:]) * dt)


def trigger_scan(samples: np.ndarray, dt: float, t0: float = 0.0,
                 threshold: float = TRIGGER_THRESHOLD) -> float | None:
    """Time of the first sample strictly above the threshold."""
    for i, value in enumerate(samples):
        if value > threshold:
            return t0 + i * dt
    return None


# ------------------------------------------------------------ scenarios


class Channel:
    """The inputs of one scenario run, read from the benchmark's own config text."""

    def __init__(self, values: dict[str, str]):
        get = lambda key, default: float(values.get(key, default))  # noqa: E731
        self.pulses = int(values["pulses"])
        self.va = get("va", 5.0)
        self.t = get("transmittance", 0.5)
        self.eta = get("eta", 0.5)
        self.xi = get("xi", 0.1)
        self.vel = get("vel", 0.01)
        self.n0 = get("n0", 1.0)
        self.n0_line = get("n0_assumed", 1.0)
        self.mu = get("mu", 0.0)
        self.delta_ns = get("delta_ns", 0.0)
        self.beta = get("beta", 0.948)
        self.monitor_fraction = get("monitor_fraction", 0.1)
        self.countermeasure = values.get("countermeasure", "off").strip() in ("on", "true", "yes", "1")

    @property
    def gain(self) -> float:
        return gain_by_hand(self.delta_ns) if self.delta_ns > 0.0 else 1.0

    def true_key_rate(self) -> float:
        factor = 1.0 - self.monitor_fraction if self.countermeasure else 1.0
        k = key_rate_ref(self.va / self.n0, self.t, self.eta,
                         (self.xi + 2.0 * self.mu * self.n0) / self.n0,
                         self.vel / self.n0, self.beta)
        return factor * k if k > 0.0 else k


def parse_kv(text: str) -> dict[str, str]:
    """``key = value`` lines (``#`` comments), as in the scenario configs and reports."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _num(report: dict[str, str], key: str) -> float:
    return float(report[key])


def _estimates(report):
    return (_num(report, "est_va_hat"), _num(report, "est_t_hat"),
            _num(report, "est_sigma2_hat"), _num(report, "est_m"))


def xi_hat_se(report: dict[str, str], ch: Channel) -> float:
    """Delta-method SE of (sigma2 - n0_line - vel)/t^2, in units of n0_line."""
    va, t, s2, m = _estimates(report)
    d_s2 = 1.0 / t**2
    d_t = -2.0 * (s2 - ch.n0_line - ch.vel) / t**3
    var = d_s2**2 * 2.0 * s2**2 / m + d_t**2 * s2 / (m * va)
    return math.sqrt(var) / ch.n0_line


def _estimated_rate_se(report, ch: Channel, fn) -> float:
    """Delta-method SE of fn(va_hat, T_hat, xi_hat) over the independent (va, t, sigma2)."""
    va, t, s2, m = _estimates(report)
    se = (va * math.sqrt(2.0 / m), math.sqrt(s2 / (m * va)), s2 * math.sqrt(2.0 / m))

    def at(p):
        va_, t_, s2_ = p
        xi = (s2_ - ch.n0_line - ch.vel) / t_**2 / ch.n0_line
        return fn(va_, min(t_ * t_ / ch.eta, 1.0), max(xi, 0.0))

    var = 0.0
    for i, s in enumerate(se):
        h = 1e-3 * s
        up, down = [va, t, s2], [va, t, s2]
        up[i] += h
        down[i] -= h
        var += ((at(up) - at(down)) / (2.0 * h) * s) ** 2
    return math.sqrt(var)


def _check_counts(errors, report, ch: Channel):
    total = sum(int(report[k]) for k in ("m_monitor", "m_estimation", "n_key"))
    fail(errors, "pulses_partitioned", total == ch.pulses,
         f"m_monitor + m_estimation + n_key = {total} != {ch.pulses}")


def _check_true_rate(errors, report, ch: Channel):
    k_true, k_ref = _num(report, "k_true"), ch.true_key_rate()
    fail(errors, "k_true_by_hand", math.isclose(k_true, k_ref, rel_tol=1e-9, abs_tol=1e-12),
         f"k_true {k_true!r} != hand-computed {k_ref!r}")


def check_breach(report: dict[str, str], ch: Channel) -> list[str]:
    """Breach example: a positive estimated rate on a channel that forbids one."""
    errors: list[str] = []
    fail(errors, "verdict", report.get("verdict") == "breached", f"got {report.get('verdict')}")
    fail(errors, "noise_breaks_entanglement", ch.xi + 2.0 * ch.mu >= 2.0,
         f"xi + 2 mu = {ch.xi + 2.0 * ch.mu}")
    fail(errors, "k_true_negative", _num(report, "k_true") < 0.0, report.get("k_true", ""))
    _check_true_rate(errors, report, ch)
    g = ch.gain
    expected = g * (ch.xi + 2.0 * ch.mu) + (g - 1.0) / (ch.eta * ch.t)
    xi_hat, se = _num(report, "xi_hat_snu"), xi_hat_se(report, ch)
    fail(errors, "xi_hat_matches_bias_formula", abs(xi_hat - expected) <= Z_SCENARIO * se,
         f"xi_hat_snu {xi_hat:.5f} vs {expected:.5f} (SE {se:.5f})")
    _check_counts(errors, report, ch)
    return errors


def n0_rt_se(n0: float, vel: float, m: int) -> float:
    """SE of mean(y^2) - vel over m closed-switch pulses of variance n0 + vel."""
    return (n0 + vel) * math.sqrt(2.0 / m)


def check_countermeasure(report: dict[str, str], ch: Channel) -> list[str]:
    """Countermeasure example: the real-time shot noise exposes the attack."""
    errors: list[str] = []
    fail(errors, "verdict", report.get("verdict") == "abort", f"got {report.get('verdict')}")
    fail(errors, "alarm", report.get("alarm") == "True", f"alarm={report.get('alarm')}")
    g = ch.gain
    n0_rt = _num(report, "n0_rt")
    se = n0_rt_se(g, ch.vel, int(report["m_monitor"]))
    fail(errors, "n0_rt_matches_gain", abs(n0_rt - g) <= Z_SCENARIO * se,
         f"n0_rt {n0_rt:.5f} vs g = {g:.5f} (SE {se:.5f})")
    _check_counts(errors, report, ch)
    return errors


def check_twin(report: dict[str, str], ch: Channel) -> list[str]:
    """Unattacked, perfectly calibrated channel: estimated and true rates agree."""
    errors: list[str] = []
    fail(errors, "verdict", report.get("verdict") == "secure", f"got {report.get('verdict')}")
    _check_true_rate(errors, report, ch)
    snu = (ch.va / ch.n0, ch.t, ch.eta, ch.xi / ch.n0, ch.vel / ch.n0)
    i_true = mutual_info_ref(*snu)
    i_hat = _num(report, "i_ab_estimated")
    se_i = _estimated_rate_se(
        report, ch, lambda va, t, xi: mutual_info_ref(va, t, ch.eta, xi, ch.vel))
    fail(errors, "i_ab_matches_truth", abs(i_hat - i_true) <= Z_SCENARIO * se_i,
         f"i_ab_estimated {i_hat:.5f} vs {i_true:.5f} in shot-noise units (SE {se_i:.5f})")
    k_hat, k_true = _num(report, "k_estimated"), _num(report, "k_true")
    se_k = _estimated_rate_se(
        report, ch, lambda va, t, xi: key_rate_ref(va, t, ch.eta, xi, ch.vel, ch.beta))
    fail(errors, "k_estimated_matches_k_true", abs(k_hat - k_true) <= Z_SCENARIO * se_k,
         f"k_estimated {k_hat:.5f} vs k_true {k_true:.5f} (SE {se_k:.5f})")
    _check_counts(errors, report, ch)
    return errors


def check_repeat(text: str, first: str) -> list[str]:
    errors: list[str] = []
    fail(errors, "bit_identical_repeat", text == first, "to_text() differs for the same seed")
    return errors


# ------------------------------------------------------------- design


def check_sweep(d_plain, d_protected, i_abs, distances, transmittances,
                loss_db_per_km: float = 0.2) -> list[str]:
    """Fig. 5 distances, and the SNR-targeted modulation at every sweep point."""
    errors: list[str] = []
    fail(errors, "max_distance_no_countermeasure",
         d_plain is not None and 75.0 <= d_plain <= 85.0, f"{d_plain} km")
    fail(errors, "max_distance_countermeasure",
         d_protected is not None and 65.0 <= d_protected <= 75.0, f"{d_protected} km")
    target = 0.5 * math.log2(1.0 + SNR_TARGET)
    worst = max((abs(i - target) for i in i_abs), default=math.inf)
    fail(errors, "i_ab_at_snr_target", worst <= 1e-9 * target,
         f"largest |i_ab - {target:.6f}| = {worst:.3g}")
    t_ref = 10.0 ** (-loss_db_per_km * np.asarray(distances, dtype=float) / 10.0)
    fail(errors, "transmittance_of_distance",
         len(transmittances) > 0 and np.allclose(transmittances, t_ref, rtol=1e-12, atol=0.0),
         "sweep transmittance != 10^(-0.02 d)")
    return errors


def check_entanglement_breaking(key_rates) -> list[str]:
    errors: list[str] = []
    worst = max(key_rates, default=math.inf)
    fail(errors, "k_negative_for_xi_ge_2", worst < 0.0, f"max K = {worst!r}")
    return errors


def check_pulse(base: np.ndarray, shaped: np.ndarray, dt: float, t0: float = 0.0,
                shift_ns: float = 10.0) -> list[str]:
    """Equal-power pulse: same windowed power, trigger later by at least shift_ns."""
    errors: list[str] = []
    p_base, p_shaped = window_power(base, dt), window_power(shaped, dt)
    rel = abs(p_shaped - p_base) / p_base
    fail(errors, "power_preserved", rel <= 1e-6, f"relative power change {rel:.3g}")
    t_base, t_shaped = trigger_scan(base, dt, t0), trigger_scan(shaped, dt, t0)
    shift = None if t_base is None or t_shaped is None else t_shaped - t_base
    fail(errors, "trigger_shifted", shift is not None and shift >= shift_ns - 1e-9,
         f"trigger shift {shift} ns")
    return errors


def check_calibration(slope_ratio: float, delay_ns: float = 10.0) -> list[str]:
    errors: list[str] = []
    g = gain_by_hand(delay_ns)
    fail(errors, "slope_ratio_matches_gain", abs(slope_ratio - g) <= 0.01,
         f"slope ratio {slope_ratio:.5f} vs g = {g:.5f}")
    return errors


# ------------------------------------------------------------------ CLI


PULSE_CSV_HEADER = ["index", "x", "y", "intercepted", "lo_attacked"]


def check_pulse_csv(text: str, report: dict[str, str]) -> list[str]:
    """The per-pulse dump: header, finite values, one row per open-switch pulse."""
    errors: list[str] = []
    lines = text.splitlines()
    fail(errors, "csv_header", bool(lines) and lines[0].split(",") == PULSE_CSV_HEADER,
         f"header {lines[0] if lines else None!r}")
    rows = lines[1:]
    if rows:
        values = np.array([row.split(",") for row in rows], dtype=float)
        fail(errors, "csv_finite", values.shape[1] == 5 and bool(np.isfinite(values).all()),
             "non-finite or missing values")
    expected = int(report["m_estimation"]) + int(report["n_key"])
    fail(errors, "csv_rows_match_report", len(rows) == expected,
         f"{len(rows)} rows, report used {expected} open-switch pulses")
    return errors


def check_exit(code: int, expected: int) -> list[str]:
    errors: list[str] = []
    fail(errors, "exit_code", code == expected, f"exit code {code}, expected {expected}")
    return errors


def read_columns(text: str) -> dict[str, np.ndarray]:
    """CSV with a header row, as numeric columns."""
    lines = text.splitlines()
    header = lines[0].split(",")
    values = np.array([line.split(",") for line in lines[1:]], dtype=float).reshape(-1, len(header))
    return {name: values[:, i] for i, name in enumerate(header)}
