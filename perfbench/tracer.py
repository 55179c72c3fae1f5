"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of the six modules (plus
``cli.ResultTable.to_csv``) and rebinds each wrapped name in every
``bodychannel`` module that holds it, so calls that go through a
``from .x import name`` binding are seen as well.  Nothing under ``src/``
changes.  Each wrapped call is a span; its self time is its duration minus
the durations of the wrapped calls it made.  Spans are aggregated per name
in memory (calls, self time, total time, errors) rather than stored one by
one, because a 10k-point sweep makes tens of thousands of them.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

MODULES = ("channel", "acnet", "analysis", "optimize", "safety", "cli")


def _points(extra, args, kwargs, result):
    f = args[1] if len(args) > 1 else kwargs["f"]
    extra["channel.transfer_function.points"] += int(np.size(f))


def _csv_bytes(extra, args, kwargs, result):
    extra["cli.ResultTable.to_csv.bytes"] += len(result.encode("utf-8"))


def _fit(extra, args, kwargs, result):
    extra["analysis.fit_params.iterations"] += result.iterations
    extra["analysis.fit_params.converged"] += int(result.converged)


def _optimal_load(extra, args, kwargs, result):
    extra["optimize.optimal_load.evals"] += len(result.trace)
    extra["optimize.optimal_load.fallback"] += int(result.used_grid_fallback)


def _max_power(extra, args, kwargs, result):
    extra["optimize.max_power_under_current_limit.evals"] += len(result.trace)


#: Counters read off a call's arguments or result, by span name.
HOOKS = {
    "channel.transfer_function": _points,
    "cli.ResultTable.to_csv": _csv_bytes,
    "analysis.fit_params": _fit,
    "optimize.optimal_load": _optimal_load,
    "optimize.max_power_under_current_limit": _max_power,
}


EXTRA_COUNTERS = (
    "channel.transfer_function.points",
    "cli.ResultTable.to_csv.bytes",
    "analysis.fit_params.iterations",
    "analysis.fit_params.converged",
    "optimize.optimal_load.evals",
    "optimize.optimal_load.fallback",
    "optimize.max_power_under_current_limit.evals",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}  # span name -> [calls, self_s, total_s, errors]
        self.extra = dict.fromkeys(EXTRA_COUNTERS, 0)
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0, 0]
        self.extra = dict.fromkeys(EXTRA_COUNTERS, 0)

    def _wrap(self, fn, name):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                stats[2] += dt
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(tracer.extra, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap and rebind; call after ``bodychannel.cli`` is imported."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.reset()
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"bodychannel.{short}")
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{short}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "bodychannel" and not module_name.startswith("bodychannel."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, obj, wrappers[obj])
        table = importlib.import_module("bodychannel.cli").ResultTable
        self._patch(table, "to_csv", table.to_csv, self._wrap(table.to_csv, "cli.ResultTable.to_csv"))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def snapshot(self):
        """Aggregates since the last reset, as plain JSON-able data."""
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "extra": dict(self.extra)}


def merge(snapshots):
    """Sum several snapshots (one per process or per op)."""
    stats, extra = {}, {}
    for snap in snapshots:
        for name, values in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, v in snap["extra"].items():
            extra[name] = extra.get(name, 0) + v
    return {"stats": stats, "extra": extra}


def counts(snapshot):
    """The parts of a snapshot that must repeat exactly between runs."""
    return {
        "calls": {k: v[0] for k, v in snapshot["stats"].items()},
        "errors": {k: v[3] for k, v in snapshot["stats"].items()},
        "extra": snapshot["extra"],
    }


#: Per-layer metric name -> (unit, better); every one is reported on every workload.
def _spec():
    spec = {}
    for m in MODULES:
        spec[f"{m}.self_s"] = ("s", "lower")
        spec[f"{m}.errors"] = ("count", "lower")
    calls_self = [
        "cli.load_scenario", "cli.run", "cli.ResultTable.to_csv", "cli.import_measured",
        "channel.transfer_function", "channel.received_power",
        "acnet.build_channel_netlist", "acnet.solve", "acnet.sweep",
        "analysis.simulate_frequency_sweep", "analysis.simulate_load_sweep",
        "analysis.simulate_inductance_sweep", "analysis.simulate_input_voltage_sweep",
        "analysis.find_resonant_peak", "analysis.q_factor", "analysis.fit_params",
        "analysis.oracle_gap", "analysis.approximation_gap", "analysis.sensitivity",
        "optimize.optimal_load", "optimize.max_power_under_current_limit", "optimize.golden_section",
        "optimize.joint_loading_check", "optimize.compare_topologies",
        "safety.check", "safety.max_safe_input", "safety.load_limit_table",
    ]
    for name in calls_self:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    for name in ("channel.body_potential", "channel.resonant_frequency", "acnet.build_multi_receiver_netlist",
                 "optimize.multi_receiver_power", "safety.contact_current"):
        spec[f"{name}.calls"] = ("count", "lower")
    spec.update({
        "cli.ResultTable.to_csv.bytes": ("B", "lower"),
        "channel.transfer_function.points": ("count", "lower"),
        "channel.points_per_call": ("count", "higher"),
        "acnet.solve.us_per_point": ("us", "lower"),
        "analysis.fit_params.iterations": ("count", "lower"),
        "analysis.fit_params.converged_ratio": ("ratio", "higher"),
        "optimize.optimal_load.evals": ("count", "lower"),
        "optimize.optimal_load.fallback_ratio": ("ratio", "lower"),
        "optimize.max_power_under_current_limit.evals": ("count", "lower"),
    })
    return spec


LAYER_SPEC = _spec()
GOLDEN = ("optimize.golden_section_max", "optimize.golden_section_max_bracketed")


def layer_metrics(snapshot):
    """Per-layer metric values from one aggregated snapshot (0 where a layer
    did no work).  ``self_s`` is summed over the span names of a layer."""
    stats, extra = snapshot["stats"], snapshot["extra"]

    def get(name, i):
        return stats.get(name, [0, 0.0, 0.0, 0])[i]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for m in MODULES:
        names = [n for n in stats if n.startswith(m + ".")]
        out[f"{m}.self_s"] = sum(stats[n][1] for n in names)
        out[f"{m}.errors"] = sum(stats[n][3] for n in names)
    for name, (unit, _) in LAYER_SPEC.items():
        if name in out:
            continue
        base, _, field = name.rpartition(".")
        if base == "optimize.golden_section":
            # A golden_section_max call runs one bracketed search: count searches once.
            out[name] = get(GOLDEN[1], 0) if field == "calls" else get(GOLDEN[0], 1) + get(GOLDEN[1], 1)
        elif field == "calls":
            out[name] = get(base, 0)
        elif field == "self_s":
            out[name] = get(base, 1)
        elif name in extra:
            out[name] = extra[name]
    out["channel.points_per_call"] = ratio(extra.get("channel.transfer_function.points", 0),
                                           get("channel.transfer_function", 0))
    out["acnet.solve.us_per_point"] = ratio(get("acnet.solve", 2) * 1e6, get("acnet.solve", 0))
    out["analysis.fit_params.converged_ratio"] = ratio(extra.get("analysis.fit_params.converged", 0),
                                                       get("analysis.fit_params", 0))
    out["optimize.optimal_load.fallback_ratio"] = ratio(extra.get("optimize.optimal_load.fallback", 0),
                                                        get("optimize.optimal_load", 0))
    for name in LAYER_SPEC:
        out.setdefault(name, 0)
    return out
