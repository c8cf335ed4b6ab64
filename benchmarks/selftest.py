"""Tests of the benchmark itself: every correctness check can fail.

    python3 benchmarks/selftest.py

Each check gets a real output of the package (run at a small size) and
must accept it, then a perturbed copy and must reject it.  A check that
cannot fail proves nothing.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import cvqkdsim as cv  # noqa: E402

SMALL = 200_000


def scenario(text: str) -> tuple[dict[str, str], checks.Channel]:
    report = cv.run_scenario(cv.parse_config(text))
    return checks.parse_kv(report.to_text()), checks.Channel(checks.parse_kv(text))


def shifted(report: dict[str, str], key: str, delta: float) -> dict[str, str]:
    return {**report, key: repr(float(report[key]) + delta)}


class CheckTest(unittest.TestCase):
    def assertRejects(self, errors: list[str], name: str):
        self.assertIn(name, checks.check_names(errors), errors)

    def assertAccepts(self, errors: list[str]):
        self.assertEqual(errors, [])


class ScenarioChecks(CheckTest):
    @classmethod
    def setUpClass(cls):
        cls.breach = scenario(workloads.config_text(workloads.BREACH_CFG, pulses=SMALL))
        cls.cm = scenario(workloads.config_text(workloads.COUNTERMEASURE_CFG, pulses=SMALL))
        # the twins at their full 2M pulses, where 0.05 is ~10 SE of either rate
        cls.twin1 = scenario(workloads.TWIN_TEXT.format(seed=5, n0=1.0))
        cls.twin2 = scenario(workloads.TWIN_TEXT.format(seed=3, n0=2.0))

    def test_breach(self):
        report, ch = self.breach
        self.assertAccepts(checks.check_breach(report, ch))
        se = checks.xi_hat_se(report, ch)
        self.assertRejects(checks.check_breach(shifted(report, "xi_hat_snu", 10 * se), ch),
                           "xi_hat_matches_bias_formula")
        self.assertRejects(checks.check_breach({**report, "verdict": "secure"}, ch), "verdict")
        self.assertRejects(checks.check_breach(shifted(report, "k_true", 1.0), ch), "k_true_negative")
        self.assertRejects(checks.check_breach(shifted(report, "k_true", -1e-6), ch), "k_true_by_hand")
        self.assertRejects(checks.check_breach({**report, "n_key": str(int(report["n_key"]) + 1)}, ch),
                           "pulses_partitioned")

    def test_countermeasure(self):
        report, ch = self.cm
        self.assertAccepts(checks.check_countermeasure(report, ch))
        self.assertRejects(checks.check_countermeasure({**report, "alarm": "False"}, ch), "alarm")
        self.assertRejects(checks.check_countermeasure({**report, "verdict": "breached"}, ch), "verdict")
        se = checks.n0_rt_se(ch.gain, ch.vel, int(report["m_monitor"]))
        self.assertRejects(checks.check_countermeasure(shifted(report, "n0_rt", 10 * se), ch),
                           "n0_rt_matches_gain")

    def test_twins(self):
        report, ch = self.twin1
        self.assertAccepts(checks.check_twin(report, ch))
        self.assertRejects(checks.check_twin(shifted(report, "k_estimated", 0.05), ch),
                           "k_estimated_matches_k_true")
        self.assertRejects(checks.check_twin(shifted(report, "i_ab_estimated", 0.05), ch),
                           "i_ab_matches_truth")
        # the unit fault of ROADMAP D3, and nothing else
        report, ch = self.twin2
        self.assertEqual(checks.check_names(checks.check_twin(report, ch)) - {
            "k_estimated_matches_k_true"}, {"i_ab_matches_truth"})

    def test_repeat(self):
        self.assertAccepts(checks.check_repeat("a=1", "a=1"))
        self.assertRejects(checks.check_repeat("a=1", "a=2"), "bit_identical_repeat")


class ReferenceFormulas(unittest.TestCase):
    def test_key_rate_matches_package_on_interior_points(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = dict(va=rng.uniform(0.5, 30), t=rng.uniform(0.01, 1.0), eta=rng.uniform(0.3, 1),
                     xi=rng.uniform(0, 3), vel=rng.uniform(0, 0.1), beta=rng.uniform(0.8, 1))
            ref = checks.key_rate_ref(**p)
            pkg = cv.secret_key_rate(cv.KeyRateParams(
                va=p["va"], transmittance=p["t"], eta=p["eta"], xi=p["xi"], v_el=p["vel"],
                beta=p["beta"])).key_rate
            self.assertAlmostEqual(ref, pkg, delta=1e-9 * max(1.0, abs(pkg)))

    def test_gain(self):
        self.assertAlmostEqual(checks.gain_by_hand(10.0), 1 / 1.5, places=4)


class DesignChecks(CheckTest):
    def test_sweep(self):
        cfg = cv.parse_config(workloads.FIG5_TEXT)
        plain, protected = cv.sweep_keyrate(cfg)
        pts = plain + protected
        d, t, i_ab = ([p.distance_km for p in pts], [p.transmittance for p in pts],
                      [p.i_ab for p in pts])
        self.assertAccepts(checks.check_sweep(80.0, 70.0, i_ab, d, t))
        self.assertRejects(checks.check_sweep(90.0, 70.0, i_ab, d, t), "max_distance_no_countermeasure")
        self.assertRejects(checks.check_sweep(80.0, 60.0, i_ab, d, t), "max_distance_countermeasure")
        self.assertRejects(checks.check_sweep(80.0, 70.0, [i_ab[0] + 1e-6] + i_ab[1:], d, t),
                           "i_ab_at_snr_target")
        self.assertRejects(checks.check_sweep(80.0, 70.0, i_ab, d, [t[0]] + [x * 1.001 for x in t[1:]]),
                           "transmittance_of_distance")

    def test_entanglement_breaking(self):
        self.assertAccepts(checks.check_entanglement_breaking([-0.1, -1e-9]))
        self.assertRejects(checks.check_entanglement_breaking([-0.1, 0.0]), "k_negative_for_xi_ge_2")

    def test_pulse(self):
        base, trig, pm = cv.default_lo_pulse()
        shaped = np.asarray(cv.craft_equal_power_pulse(base, 10.0, trig, pm).samples)
        b = np.asarray(base.samples)
        self.assertAccepts(checks.check_pulse(b, shaped, base.dt))
        louder = shaped.copy()
        louder[-20] *= 1.01
        self.assertRejects(checks.check_pulse(b, louder, base.dt), "power_preserved")
        self.assertRejects(checks.check_pulse(b, b, base.dt), "trigger_shifted")

    def test_calibration(self):
        g = checks.gain_by_hand(10.0)
        self.assertAccepts(checks.check_calibration(g + 0.005))
        self.assertRejects(checks.check_calibration(g + 0.02), "slope_ratio_matches_gain")


class CliChecks(CheckTest):
    REPORT = {"m_estimation": "3", "n_key": "2"}
    ROWS = ["0,0.1,0.2,1,0", "1,0.3,-0.2,0,1", "2,1.5,2.5,1,1", "3,-1,-2,0,0", "4,0,0,0,0"]

    def csv(self, rows, header="index,x,y,intercepted,lo_attacked"):
        return "\n".join([header, *rows]) + "\n"

    def test_pulse_csv(self):
        self.assertAccepts(checks.check_pulse_csv(self.csv(self.ROWS), self.REPORT))
        self.assertRejects(checks.check_pulse_csv(self.csv(self.ROWS[:-1]), self.REPORT),
                           "csv_rows_match_report")
        self.assertRejects(checks.check_pulse_csv(self.csv(self.ROWS[:-1] + ["4,nan,0,0,0"]),
                                                  self.REPORT), "csv_finite")
        self.assertRejects(checks.check_pulse_csv(self.csv(self.ROWS, "index,x,y"), self.REPORT),
                           "csv_header")

    def test_exit(self):
        self.assertAccepts(checks.check_exit(3, 3))
        self.assertRejects(checks.check_exit(0, 3), "exit_code")


class Harness(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_importtime(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:       700 |        700 |     scipy.stats._stats_py",
            "import time:        50 |       1100 |   cvqkdsim.estimation",
            "import time:        30 |       1200 | cvqkdsim",
        ])
        scipy_ms, own_ms = spans.parse_importtime(stderr)
        self.assertAlmostEqual(scipy_ms, 1.0)
        self.assertAlmostEqual(own_ms, 0.08)

    def test_compare_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5]
        pairs = lambda c: list(zip(parent, c))  # noqa: E731
        slower = [120.0, 121.0, 119.0, 120.5, 119.5]
        faster = [80.0, 81.0, 79.0, 80.5, 79.5]
        noisy = [70.0, 130.0, 100.0, 75.0, 125.0]
        self.assertEqual(compare.verdict(parent, slower, pairs(slower), False, 0.1)[1], "regression")
        self.assertEqual(compare.verdict(parent, faster, pairs(faster), False, 0.1)[1], "improved")
        self.assertEqual(compare.verdict(parent, noisy, pairs(noisy), False, 0.1)[1], "unresolved")
        self.assertEqual(compare.verdict(parent, parent, pairs(parent), False, 0.1)[1], "unchanged")
        self.assertEqual(compare.verdict(parent, faster, pairs(faster), True, 0.1)[1], "regression")

    def test_round_in_ref_units(self):
        def rounds(program, hosts):
            return [[workloads.Op(name, seconds * program * host, ref=0.05 * host)
                     for name, seconds in (("a", 0.4), ("b", 0.2))] for host in hosts]

        self.assertAlmostEqual(run.round_in_ref_units(rounds(1.0, [1.0, 1.0, 1.0])), 12.0)
        # a host slow for the whole run cancels; a slower program does not
        self.assertAlmostEqual(run.round_in_ref_units(rounds(1.0, [1.6, 1.5, 2.0])), 12.0)
        self.assertAlmostEqual(run.round_in_ref_units(rounds(1.1, [1.6, 1.5, 2.0])), 13.2)

    def test_unexpected_failures_are_told_apart(self):
        op = workloads.Op("x", 0.0, ["known_check: a", "other: b"], frozenset({"known_check"}))
        self.assertEqual(op.unexpected, ["other: b"])


if __name__ == "__main__":
    unittest.main()
