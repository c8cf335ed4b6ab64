"""Spans at the package's layer boundaries, recorded from the benchmark's files.

``Tracer.install`` replaces module-level names of ``cvqkdsim`` with
wrappers that record one span per call: id, parent id, name, start, end,
the work size the call was given (pulses, samples, rows, points) and the
bytes of the arrays it returned.  The names bound in ``cvqkdsim.scenario``
cover the protocol, countermeasure, estimation and keyrate layers as the
scenario calls them; patching ``cvqkdsim.keyrate.secret_key_rate``,
``rate_at_distance`` and ``cvqkdsim.pulses.attenuate_leading_edge`` also
catches the package's internal callers.  Spans stay in memory until the
run ends.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import statistics
import time
import types
from contextlib import contextmanager

import numpy as np

# span name -> (size of the work given, from the call's arguments)
_SIZES = {
    "protocol.generate_alice": lambda a, k: a[0] if a else k["n"],
    "protocol.simulate_bob": lambda a, k: len(a[0] if a else k["x"]),
    "protocol.simulate_monitor": lambda a, k: len(a[0] if a else k["x"]),
    "protocol.write_pulses_csv": lambda a, k: len(a[0] if a else k["batch"]),
    "countermeasure.plan_monitor": lambda a, k: a[0] if a else k["n"],
    "estimation.ml_estimate": lambda a, k: len(a[0] if a else k["x"]),
    "pulses.simulate_calibration_points": lambda a, k: len(a[0] if a else k["powers"]),
}

# layer -> the package's public names in it that the tracer replaces
_PUBLIC = {
    "protocol": ("generate_alice", "simulate_bob", "simulate_monitor", "write_pulses_csv"),
    "countermeasure": ("plan_monitor", "realtime_shot_noise", "detect_attack"),
    "estimation": ("ml_estimate", "confidence_bounds", "infer_channel"),
    "keyrate": ("secret_key_rate", "rate_at_distance", "max_secure_distance"),
    "pulses": ("craft_equal_power_pulse", "attenuate_leading_edge",
               "simulate_calibration_points", "fit_calibration_line"),
    "scenario": ("run_scenario", "sweep_keyrate"),
    "config": ("load_config", "parse_config"),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}
# Modules whose own global names are patched, so that calls made inside
# the package (and the CLI's imports) pass through the wrappers too.
_MODULES = ("cvqkdsim", "cvqkdsim.scenario", "cvqkdsim.keyrate", "cvqkdsim.pulses",
            "cvqkdsim.protocol", "cvqkdsim.cli")


def _out_bytes(out) -> int:
    if isinstance(out, np.ndarray):
        return out.nbytes
    arrays = getattr(out, "__dict__", {}).values()
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


class Tracer:
    """In-memory span recorder; ``source`` tags which workload a span belongs to."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, size, nbytes, source]
        self.source = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, size=0, nbytes=0):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = [sid, parent, name, start, end, size, nbytes, self.source]

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, name: str, fn):
        size_of = _SIZES.get(name)

        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else 0
            sid, parent = self._open()
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                nbytes = _out_bytes(out) if name.startswith("protocol.") else 0
                self._close(sid, parent, name, start, size, nbytes)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch the package's layer boundaries; ``uninstall`` restores them."""
        wrappers = {}
        for mod_name in _MODULES:
            module = importlib.import_module(mod_name)
            for attr, layer in _LAYER_OF.items():
                fn = getattr(module, attr, None)
                if fn is None or not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        estimation = importlib.import_module("cvqkdsim.estimation")
        stats = estimation.stats
        proxy = types.SimpleNamespace(
            chi2=types.SimpleNamespace(ppf=self.wrap("estimation.chi2_ppf", stats.chi2.ppf)),
            norm=stats.norm,
        )
        self._patched.append((estimation, "stats", stats))
        estimation.stats = proxy

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under the given parent span."""
        base = len(self.spans)
        for sid, par, name, start, end, size, nbytes, _ in child_spans:
            self.spans.append([sid + base, parent if par < 0 else par + base,
                               name, start, end, size, nbytes, self.source])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ------------------------------------------------------------ metrics


def _by_name(spans, name):
    return [s for s in spans if s[2] == name]


def _seconds(spans):
    return sum(s[4] - s[3] for s in spans)


def _per_unit(scale):
    def metric(spans, name, rounds, ctx):
        hits = _by_name(spans, name)
        size = sum(s[5] for s in hits)
        return _seconds(hits) / size * scale if size else 0.0
    return metric


def _mean(scale):
    def metric(spans, name, rounds, ctx):
        hits = _by_name(spans, name)
        return _seconds(hits) / len(hits) * scale if hits else 0.0
    return metric


def _calls(spans, name, rounds, ctx):
    return len(_by_name(spans, name)) / rounds


def _chi2_calls(spans, name, rounds, ctx):
    return len(_by_name(spans, "estimation.chi2_ppf")) / rounds


_SAMPLERS = ("protocol.generate_alice", "protocol.simulate_bob", "protocol.simulate_monitor")


def _blocks(spans, name, rounds, ctx):
    block = ctx["block_size"]
    return sum(math.ceil(s[5] / block) for s in spans if s[2] in _SAMPLERS) / rounds


def _root_of(spans):
    index = {s[0]: s for s in spans}

    def root(s):
        while s[1] in index:
            s = index[s[1]]
        return s[0]
    return root


def _array_bytes(spans, name, rounds, ctx):
    """Largest total of sampler output bytes held by one top-level operation."""
    root = _root_of(spans)
    per_op: dict[int, int] = {}
    for s in spans:
        if s[2] in _SAMPLERS:
            per_op[root(s)] = per_op.get(root(s), 0) + s[6]
    return float(max(per_op.values(), default=0))


def _self_ms(spans, name, rounds, ctx):
    hits = _by_name(spans, name)
    ids = {s[0] for s in hits}
    child = {}
    for s in spans:
        if s[1] in ids:
            child[s[1]] = child.get(s[1], 0.0) + s[4] - s[3]
    own = [s[4] - s[3] - child.get(s[0], 0.0) for s in hits]
    return statistics.fmean(own) * 1e3 if own else 0.0


def _useful_ratio(spans, name, rounds, ctx):
    crafts = _by_name(spans, "pulses.craft_equal_power_pulse")
    ids = {s[0] for s in crafts}
    tried = sum(1 for s in spans if s[2] == "pulses.attenuate_leading_edge" and s[1] in ids)
    return len(crafts) / tried if tried else 0.0


# metric -> (unit, span that must be present, computation, workload it belongs to)
LAYER_METRICS = {
    "protocol.generate_alice.ns_per_pulse": ("ns", "protocol.generate_alice", _per_unit(1e9), "scenario"),
    "protocol.simulate_bob.ns_per_pulse": ("ns", "protocol.simulate_bob", _per_unit(1e9), "scenario"),
    "protocol.simulate_monitor.ns_per_pulse": ("ns", "protocol.simulate_monitor", _per_unit(1e9), "scenario"),
    "protocol.blocks": ("count", "protocol.generate_alice", _blocks, "scenario"),
    "protocol.array_bytes": ("bytes", "protocol.generate_alice", _array_bytes, "scenario"),
    "protocol.write_pulses_csv.us_per_row": ("us", "protocol.write_pulses_csv", _per_unit(1e6), "cli"),
    "countermeasure.plan_monitor.ns_per_pulse": ("ns", "countermeasure.plan_monitor", _per_unit(1e9), "scenario"),
    "countermeasure.realtime_shot_noise.us": ("us", "countermeasure.realtime_shot_noise", _mean(1e6), "scenario"),
    "countermeasure.detect_attack.us": ("us", "countermeasure.detect_attack", _mean(1e6), "scenario"),
    "estimation.ml_estimate.ns_per_sample": ("ns", "estimation.ml_estimate", _per_unit(1e9), "scenario"),
    "estimation.confidence_bounds.us": ("us", "estimation.confidence_bounds", _mean(1e6), "scenario"),
    "estimation.chi2_exact_calls": ("count", "estimation.confidence_bounds", _chi2_calls, "scenario"),
    "keyrate.secret_key_rate.us": ("us", "keyrate.secret_key_rate", _mean(1e6), "design"),
    "keyrate.secret_key_rate.calls": ("count", "keyrate.secret_key_rate", _calls, "design"),
    "keyrate.rate_at_distance.calls": ("count", "keyrate.rate_at_distance", _calls, "design"),
    "keyrate.max_secure_distance.us": ("us", "keyrate.max_secure_distance", _mean(1e6), "design"),
    "pulses.craft_equal_power_pulse.ms": ("ms", "pulses.craft_equal_power_pulse", _mean(1e3), "design"),
    "pulses.attenuate_leading_edge.calls": ("count", "pulses.attenuate_leading_edge", _calls, "design"),
    "pulses.craft_useful_ratio": ("ratio", "pulses.craft_equal_power_pulse", _useful_ratio, "design"),
    "pulses.simulate_calibration_points.us_per_point": (
        "us", "pulses.simulate_calibration_points", _per_unit(1e6), "design"),
    "pulses.fit_calibration_line.us": ("us", "pulses.fit_calibration_line", _mean(1e6), "design"),
    "scenario.run_scenario.self_ms": ("ms", "scenario.run_scenario", _self_ms, "scenario"),
    "config.load_config.us": ("us", "config.load_config", _mean(1e6), "cli"),
}


def missing_homes(spans, source: str) -> list[str]:
    """Workloads whose traced round is needed for metrics ``source`` does not reach."""
    present = {s[2] for s in spans if s[7] == source}
    return sorted({home for _, need, _, home in LAYER_METRICS.values() if need not in present})


def layer_metrics(spans, source: str, rounds: dict[str, int], block_size: int):
    """Per-layer metrics from the workload under test, else from the workload they belong to.

    Counts are per round of the workload the value was taken from.
    Returns (metrics, where each value came from).
    """
    ctx = {"block_size": block_size}
    by_source: dict[str, list] = {}
    for s in spans:
        by_source.setdefault(s[7], []).append(s)
    metrics, origin = {}, {}
    for name, (unit, need, compute, home) in LAYER_METRICS.items():
        own = by_source.get(source, [])
        src = source if any(s[2] == need for s in own) else home
        metrics[name] = {"value": compute(by_source.get(src, []), need, rounds.get(src, 1), ctx),
                         "unit": unit}
        origin[name] = src
    return metrics, origin


# ------------------------------------------------------ import attribution

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(ms of every scipy import the package pulls in, summed self ms of cvqkdsim modules).

    ``from scipy import stats`` goes through scipy's lazy loader, so no
    line names ``scipy.stats`` itself: the scipy figure is the cumulative
    time of each scipy module imported directly by a non-scipy module.
    """
    rows = [(int(m[1]), int(m[2]), len(m[3]), m[4])
            for m in map(_IMPORT_LINE.match, stderr.splitlines()) if m]
    scipy_us = own_us = 0
    stack: list[tuple[int, str]] = []  # ancestors; -X importtime lists children first
    for self_us, cum_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cum_us
        if name.split(".")[0] == "cvqkdsim":
            own_us += self_us
        stack.append((depth, name))
    return scipy_us / 1e3, own_us / 1e3
