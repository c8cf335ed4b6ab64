"""Benchmark of the cvqkdsim chain: one workload per run, or all of them.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]

NAME is scenario or cli (see README.md).  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it records spans at the package's layer boundaries and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Each run is also
appended to benchmarks/out/results.jsonl, which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by every child: the
# workloads stay on one vCPU, so a stall of the other one cannot hold up a
# dot product.  Wall time is the same as with the default two threads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Scaling series of the traced run: each size in a fresh process.
SCALING_FUNCTIONS = ("simulate_bob", "run_scenario")
SCALING_SIZES = tuple(2**k for k in (16, 18, 20, 22, 24))
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_in_ref_units": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    import spans

    units = {name: spec[0] for name, spec in spans.LAYER_METRICS.items()}
    units["import.scipy_stats_ms"] = "ms"
    units["import.cvqkdsim_self_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    for function in SCALING_FUNCTIONS:
        for n in SCALING_SIZES:
            units[f"scaling.{function}.n{n}.ns_per_pulse"] = "ns"
            units[f"scaling.{function}.n{n}.peak_rss_mb"] = "MB"
    return units


def _python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    from workloads import child_env

    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, **kwargs)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports the package."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = _python(["-c", "import cvqkdsim, sys; sys.stdout.write(cvqkdsim.__file__)"])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not Path(proc.stdout).is_relative_to(SRC):
            raise SystemExit(f"import cvqkdsim from {SRC} failed: {proc.stderr[-500:]}")
    return statistics.median(times)


def run_rounds(workload, seconds: float, first: int = 0) -> list[list]:
    """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(first + len(rounds)))
    return rounds


def round_in_ref_units(rounds) -> float:
    """The round's time in units of the workload's reference task.

    Each operation's time over the reference time measured around it,
    its median over the run's rounds, summed over the round.  A change
    that slows every call by some share moves it by that share; a slow
    stretch of the host moves both times and mostly cancels.
    """
    ratios = zip(*[[op.seconds / op.ref for op in ops] for ops in rounds])
    return sum(statistics.median(column) for column in ratios)


def best_round_ms(rounds) -> float:
    """Every operation of the round at its fastest over the run, summed."""
    times = zip(*[[op.seconds for op in ops] for ops in rounds])
    return sum(min(column) for column in times) * 1e3


def median_round_ms(rounds) -> float:
    return statistics.median(sum(op.seconds for op in ops) for ops in rounds) * 1e3


def tally(rounds) -> tuple[int, int, list[str]]:
    ops = [op for ops in rounds for op in ops]
    unexpected = [f"{op.name}: {e}" for op in ops for e in op.unexpected]
    return len(ops), sum(1 for op in ops if op.errors), unexpected


def untraced(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    setup_s = measure_setup()
    workload = WORKLOADS[name](seed)
    rounds = run_rounds(workload, seconds)
    attempted, failed, unexpected = tally(rounds)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "round_in_ref_units": round_in_ref_units(rounds),
    }
    ops = [op for ops in rounds for op in ops]
    known = sorted({f"{op.name}: {e.split(':', 1)[0]}" for op in ops for e in op.errors
                    if e not in op.unexpected})
    named = {**workload.named(ops), "best_round_ms": (best_round_ms(rounds), "ms"),
             "median_round_ms": (median_round_ms(rounds), "ms"),
             "reference_ms": (statistics.median(op.ref for op in ops) * 1e3, "ms")}
    return {
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "rounds": len(rounds), "unexpected": unexpected[:20], "known_faults": known,
    }


def import_attribution() -> tuple[float, float]:
    import spans

    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = _python(["-X", "importtime", "-c", "import cvqkdsim"])
        samples.append(spans.parse_importtime(proc.stderr))
    return tuple(statistics.median(s[i] for s in samples) for i in range(2))


def scaling_series(seed: int) -> dict[str, float]:
    out = {}
    for function in SCALING_FUNCTIONS:
        for n in SCALING_SIZES:
            proc = _python([str(BENCH / "child.py"), "scale", function, str(n), str(seed)],
                           timeout=120)
            if proc.returncode != 0:
                raise SystemExit(f"scaling {function} n={n} failed: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            for key, value in result.items():
                out[f"scaling.{function}.n{n}.{key}"] = value
    return out


def traced(name: str, seed: int, seconds: float) -> dict:
    """Half the time untraced, half traced; the difference is the tracing overhead."""
    import spans
    from workloads import TRACE_HOMES, WORKLOADS

    workload = WORKLOADS[name](seed)
    plain = run_rounds(workload, seconds / 2)
    tracer = spans.Tracer()
    tracer.source = name
    tracer.install()
    workload.tracer = tracer
    try:
        rounds = run_rounds(workload, seconds / 2, first=len(plain))
        counts = {name: len(rounds)}
        companion_errors = []
        for home in spans.missing_homes(tracer.spans, name):
            tracer.source = home
            companion = TRACE_HOMES[home](seed, tracer)
            companion_errors += tally([companion.round(0)])[2]
            counts[home] = 1
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.json")

    import cvqkdsim.protocol

    metrics, origin = spans.layer_metrics(tracer.spans, name, counts, cvqkdsim.protocol.BLOCK_SIZE)
    scipy_ms, own_ms = import_attribution()
    extra = {
        "import.scipy_stats_ms": scipy_ms,
        "import.cvqkdsim_self_ms": own_ms,
        "trace.overhead_pct": (round_in_ref_units(rounds) / round_in_ref_units(plain) - 1.0) * 100.0,
        **scaling_series(seed),
    }
    units = per_layer_units()
    metrics.update({k: {"value": v, "unit": units[k]} for k, v in extra.items()})
    attempted, failed, unexpected = tally(plain + rounds)
    unexpected += companion_errors
    return {
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": metrics, "named": {}, "rounds": len(plain) + len(rounds),
        "unexpected": unexpected[:20], "origin": origin,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints the whole table."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        print(proc.stdout.rsplit("\n", 2)[0])
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvqkdsim" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    run = traced if args.trace else untraced
    started = time.time()
    result = run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started": started, **result}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for fault in result.get("known_faults", []):
        print(f"known fault  {fault}")
    for error in result["unexpected"]:
        print(f"UNEXPECTED  {error}")
    for key, metric in {**result["named"], **result["metrics"]}.items():
        where = f"  (from {result['origin'][key]})" if key in result.get("origin", {}) else ""
        print(f"metric {key} {metric['value']:.6g} {metric['unit']}{where}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
