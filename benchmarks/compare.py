"""Compare benchmark results of a parent commit and of a change.

    python3 benchmarks/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files written by run.py (or the
``benchmarks/out`` directories holding them), one per checkout.  Run the
two checkouts alternately, with the same seeds and --seconds, at least
ten times each.  For each workload and end-to-end metric this prints both
medians with their quartiles, how many seed-matched pairs the change won,
and a verdict against the metric's bound in BENCHMARK.json:

    improved      the change wins at least 9 in 10 pairs and the medians
                  differ by more than the parent's interquartile range
    regression    the change's median is worse by more than the bound
    unresolved    the run-to-run spread is wider than the bound, and not
                  every change run beats every parent run
    unchanged     otherwise

The workloads' own figures (scenario_mpulses_per_s, ...) are listed with
medians and wins but no verdict, since they have no bound.  The exit code
is 1 when any metric regressed or the change fails a larger share of its
operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    records = [json.loads(line) for line in p.read_text().splitlines() if line.strip()]
    return [r for r in records if r["trace"] == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher: bool, bound: float | None) -> tuple[int, str]:
    sign = -1.0 if higher else 1.0  # sign * (change - parent) < 0 is better
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if bound is None:
        return wins, "-"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1:
        return wins, "improved"
    if worse_by > bound:
        return wins, "regression"
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs with the same seed, else in the order they were started."""
    by_seed = {r["seed"]: r for r in change}
    matched = [(r, by_seed[r["seed"]]) for r in parent if r["seed"] in by_seed]
    if matched:
        return matched
    order = lambda rs: sorted(rs, key=lambda r: r["started"])  # noqa: E731
    return list(zip(order(parent), order(change)))


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, bad = [], False
    header = (f"{'workload':<11} {'metric':<24} {'unit':<9} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'wins':>7}  verdict")
    lines.append(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            lines.append(f"{workload:<11} (no runs on one side)")
            continue
        pairs = pair(p_runs, c_runs)
        names = list(p_runs[0]["metrics"]) + list(p_runs[0].get("named", {}))
        for name in names:
            group = "metrics" if name in p_runs[0]["metrics"] else "named"
            get = lambda r: r[group][name]["value"]  # noqa: E731
            spec_m = bounds.get(name)
            higher = spec_m["better"] == "higher" if spec_m else name.endswith("_per_s")
            p_vals, c_vals = [get(r) for r in p_runs], [get(r) for r in c_runs]
            wins, result = verdict(p_vals, c_vals, [(get(a), get(b)) for a, b in pairs],
                                   higher, spec_m["bound"] if spec_m else None)
            bad = bad or result == "regression"
            fmt = lambda v: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v))  # noqa: E731
            unit = p_runs[0][group][name]["unit"]
            lines.append(f"{workload:<11} {name:<24} {unit:<9} {fmt(p_vals):>30} "
                         f"{fmt(c_vals):>30} {wins:>3}/{len(pairs):<3}  {result}")
        shares = []
        for runs in (p_runs, c_runs):
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        more = shares[1] > shares[0]
        bad = bad or more
        lines.append(f"{workload:<11} {'failed share':<24} {'':<9} {shares[0]:>30.4f} "
                     f"{shares[1]:>30.4f} {'':>7}  {'MORE FAILURES' if more else 'ok'}")
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
