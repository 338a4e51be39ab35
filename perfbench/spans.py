"""Span tracing of navkit's layers from outside the package.

Nothing in ``src/`` knows about tracing.  ``install`` replaces each traced
function in every loaded ``navkit`` module namespace that holds it (the
module attributes its callers look up at call time) with a wrapper that
records a span: name, start, end and the span that was open when it was
called.  Spans stay in flat in-memory arrays until ``save`` writes them out;
``layer_metrics`` turns them into the per-layer figures the benchmark
reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute).  The attribute is looked up on the
# defining module; every other navkit namespace holding the same object
# (``from .x import f``) is patched too.
TRACED = {
    "lgekf.predict": ("navkit.lgekf", "predict"),
    "lgekf.update": ("navkit.lgekf", "update"),
    "lgekf.odo_H": ("navkit.lgekf", "odo_H"),
    "lgekf.check_covariance": ("navkit.lgekf", "check_covariance"),
    "error_models.linearized_F_G": ("navkit.error_models", "linearized_F_G"),
    "error_models.error_from_states": ("navkit.error_models", "error_from_states"),
    "error_models.error_to_vector": ("navkit.error_models", "error_to_vector"),
    "error_models.apply_correction": ("navkit.error_models", "apply_correction"),
    "mechanization.step": ("navkit.mechanization", "step"),
    "mechanization.physical_from_nav": ("navkit.mechanization", "physical_from_nav"),
    "mechanization.nav_from_physical": ("navkit.mechanization", "nav_from_physical"),
    "se23.so3_exp": ("navkit.se23", "so3_exp"),
    "se23.se23_log": ("navkit.se23", "se23_log"),
    "earth.gravitation": ("navkit.earth", "gravitation"),
    "simulate.gen_truth": ("navkit.simulate", "gen_truth"),
    "simulate.inverse_imu": ("navkit.simulate", "inverse_imu"),
    "simulate.corrupt": ("navkit.simulate", "corrupt"),
    "simulate.gen_odometer": ("navkit.simulate", "gen_odometer"),
    "simulate.run_single": ("navkit.simulate", "run_single"),
    "simulate.aggregate": ("navkit.simulate", "_aggregate"),
    "rng.normals": ("navkit.rng", "GaussianStream.normals"),
    "config.load_config": ("navkit.config", "load_config"),
    "config.apply_overrides": ("navkit.config", "apply_overrides"),
    "config.build_run_config": ("navkit.config", "build_run_config"),
    "cli.cmd_simulate": ("navkit.cli", "cmd_simulate"),
    "cli.cmd_run": ("navkit.cli", "cmd_run"),
    "cli.write_csv": ("navkit.cli", "_write_csv"),
    "cli.write_json": ("navkit.cli", "_write_json"),
}

# Flops of one predict's 15x15 covariance algebra, counted from lgekf.predict:
# Fdt@Fdt, G@Q@G.T, Phi@M@Phi.T, Phi@P@Phi.T (2*n*m*k each) plus the
# element-wise sums.  This is a computed count, not a hardware counter.
_PREDICT_FLOPS = (
    2 * 15 * 15 * 15  # Fdt @ Fdt
    + 2 * 15 * 6 * 6 + 2 * 15 * 15 * 6  # G @ Q @ G.T
    + 2 * (2 * 15 * 15 * 15)  # Phi @ M @ Phi.T
    + 2 * (2 * 15 * 15 * 15)  # Phi @ P @ Phi.T
    + 9 * 15 * 15  # F*dt; eye + Fdt + 0.5*(.); (.) + M, 0.5*dt*(.); P + Qd; 0.5*(P + P.T)
)


class Tracer:
    """Flat, append-only span store shared by every wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._open = [-1]

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0)
            open_.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            counters=json.dumps(self.counters),
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        has_parent = parent >= 0
        # Calls are synchronous, so a span's children never overlap and the
        # part of its interval they cover is the sum of their durations.
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=dur - child, minlength=n)
        out = {
            name: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        for key, value in self.counters.items():
            out.setdefault(key, {"calls": 0.0, "s": 0.0, "self_s": 0.0})["count"] = float(value)
        return out


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


def install() -> Tracer:
    """Wrap every function in TRACED wherever navkit's modules refer to it."""
    import navkit  # noqa: F401  (loads every submodule)
    import navkit.cli  # noqa: F401

    tracer = Tracer()
    hooks = {
        "lgekf.update": lambda args, out: tracer.count("lgekf.update.applied", out is not args[0]),
        "rng.normals": lambda args, out: tracer.count("rng.normals.draws", len(out)),
    }
    namespaces = [m for name, m in sys.modules.items() if name == "navkit" or name.startswith("navkit.")]
    for name, (module_name, attr) in TRACED.items():
        try:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
        except (KeyError, AttributeError):
            continue  # gone from this version of navkit: its metrics read 0
        wrapper = tracer.wrap(name, original, hooks.get(name))
        if owner not in namespaces:  # a class attribute, looked up on the class
            setattr(owner, leaf, wrapper)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                elif isinstance(value, dict):  # dispatch tables such as cli._DISPATCH
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper
    return tracer


def merge(totals_list: list[dict]) -> dict[str, dict[str, float]]:
    """Sum per-name totals from several traced processes."""
    out: dict[str, dict[str, float]] = {}
    for totals in totals_list:
        for name, row in totals.items():
            acc = out.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0.0) + value
    return out


def layer_metrics(t: dict[str, dict[str, float]], bytes_written: int, time_scale: float = 1.0) -> dict[str, float]:
    """The benchmark's per-layer figures from merged span totals.  Span
    times are multiplied by ``time_scale``, which brings them to the
    reference host speed as the end-to-end times are (hostspeed.py)."""

    def get(name, key):
        value = t.get(name, {}).get(key, 0.0)
        return value * time_scale if key in ("s", "self_s") else value

    def per_call_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name, "s") / calls if calls else 0.0

    predict_self = get("lgekf.predict", "self_s")
    updates = get("lgekf.update", "calls")
    return {
        "lgekf.predict.calls": get("lgekf.predict", "calls"),
        "lgekf.predict.self_s": predict_self,
        "lgekf.predict.us_per_call": per_call_us("lgekf.predict"),
        "lgekf.predict.gflops_computed": (
            get("lgekf.predict", "calls") * _PREDICT_FLOPS / predict_self * 1e-9 if predict_self else 0.0
        ),
        "lgekf.update.calls": updates,
        "lgekf.update.self_s": get("lgekf.update", "self_s"),
        "lgekf.update.applied_ratio": get("lgekf.update.applied", "count") / updates if updates else 0.0,
        "lgekf.odo_H.calls_per_update": get("lgekf.odo_H", "calls") / updates if updates else 0.0,
        "lgekf.check_covariance.self_s": get("lgekf.check_covariance", "self_s"),
        "error_models.linearized_F_G.calls": get("error_models.linearized_F_G", "calls"),
        "error_models.linearized_F_G.self_s": get("error_models.linearized_F_G", "self_s"),
        "error_models.linearized_F_G.us_per_call": per_call_us("error_models.linearized_F_G"),
        "error_models.error_from_states.self_s": get("error_models.error_from_states", "self_s"),
        "error_models.error_to_vector.self_s": get("error_models.error_to_vector", "self_s"),
        "error_models.apply_correction.self_s": get("error_models.apply_correction", "self_s"),
        "mechanization.step.calls": get("mechanization.step", "calls"),
        "mechanization.step.self_s": get("mechanization.step", "self_s"),
        "mechanization.step.us_per_call": per_call_us("mechanization.step"),
        "mechanization.frame_conv.self_s": (
            get("mechanization.physical_from_nav", "self_s") + get("mechanization.nav_from_physical", "self_s")
        ),
        "se23.so3_exp.calls": get("se23.so3_exp", "calls"),
        "se23.so3_exp.self_s": get("se23.so3_exp", "self_s"),
        "se23.se23_log.calls": get("se23.se23_log", "calls"),
        "se23.se23_log.self_s": get("se23.se23_log", "self_s"),
        "earth.gravitation.calls": get("earth.gravitation", "calls"),
        "earth.gravitation.self_s": get("earth.gravitation", "self_s"),
        "simulate.gen_truth.s": get("simulate.gen_truth", "s"),
        "simulate.inverse_imu.s": get("simulate.inverse_imu", "s"),
        "simulate.corrupt.s": get("simulate.corrupt", "s"),
        "simulate.gen_odometer.s": get("simulate.gen_odometer", "s"),
        "simulate.run_single.calls": get("simulate.run_single", "calls"),
        "simulate.filter_loop.self_s": get("simulate.run_single", "self_s"),
        "simulate.aggregate.s": get("simulate.aggregate", "s"),
        "rng.normals.calls": get("rng.normals", "calls"),
        "rng.normals.draws": get("rng.normals.draws", "count"),
        "rng.normals.self_s": get("rng.normals", "self_s"),
        "config.resolve.s": (
            get("config.load_config", "s") + get("config.apply_overrides", "s") + get("config.build_run_config", "s")
        ),
        # The CLI's own time: row formatting inside the cmd_* bodies plus
        # the CSV/JSON writers.
        "cli.write.s": (
            get("cli.cmd_simulate", "self_s") + get("cli.cmd_run", "self_s")
            + get("cli.write_csv", "s") + get("cli.write_json", "s")
        ),
        "cli.bytes_written": float(bytes_written),
    }
