"""Child processes of the benchmark.

    python3 benchmarks/child.py cli RESULT_FILE TRACE ARGS...
        run ``cvqkdsim.cli.main(ARGS)``, as ``python -m cvqkdsim ARGS``
        does, with the layer boundaries traced when TRACE is 1; write the
        process's peak RSS and the spans to RESULT_FILE as JSON and exit
        with the command's code;

    python3 benchmarks/child.py scale FUNCTION N SEED
        time one ``simulate_bob`` or ``run_scenario`` call on N pulses of
        the breach channel and print {"ns_per_pulse", "peak_rss_mb"} as JSON.

``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

import spans
from workloads import BREACH_CFG, config_text, peak_rss_mb


def cli(result_path: str, trace: bool, args: list[str]) -> int:
    import cvqkdsim.cli

    tracer = spans.Tracer()
    if trace:
        tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cvqkdsim.cli.main(args)
    finally:
        tracer.uninstall()
    with open(result_path, "w") as fh:
        json.dump({"peak_rss_mb": peak_rss_mb(), "spans": tracer.spans if trace else []}, fh)
    return code


def scale(function: str, n: int, seed: int) -> None:
    import cvqkdsim as cv

    cfg = cv.parse_config(config_text(BREACH_CFG, pulses=n, seed=seed))
    if function == "simulate_bob":
        x = cv.generate_alice(n, cfg.channel.va, seed)
        start = time.perf_counter()
        cv.simulate_bob(x, cfg.channel, cfg.attack, cfg.detector, seed)
    else:
        start = time.perf_counter()
        cv.run_scenario(cfg)
    seconds = time.perf_counter() - start
    print(json.dumps({"ns_per_pulse": seconds / n * 1e9, "peak_rss_mb": peak_rss_mb()}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    scale(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
