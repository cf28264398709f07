"""Layer tracing from outside the program.

Nothing inside curvehedge is touched. Tracer.install() replaces each
layer's public functions with timing wrappers in every curvehedge module
namespace (and module-level dispatch table) that holds them, so calls made
by other modules go through the wrapper; uninstall() puts the originals
back. The benchmark calls the program through module attributes looked up
at call time, so its own calls are traced too.

Per function the tracer keeps a call count and self time: the wrapper's
wall time minus the time of wrapped calls nested inside it. A layer's self
time is the sum over its functions, i.e. its time excluding child layers.
Aggregates are kept in memory; spans are not stored one by one, because a
backtest op makes tens of thousands of calls.

Functions too small to wrap without swamping their cost (io.fmt_num,
backtest.year_fraction, private helpers, closures inside run_backtest)
are not wrapped: their time counts as self time of the layer that calls
them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# layer -> (module, public functions, (class, method) pairs)
LAYERS = {
    "bonds": (
        "curvehedge.bonds",
        ("cashflows", "price", "modified_duration", "convexity", "analytics",
         "curve_analytics", "pnl_approx"),
        (("Bond", "rolled"),),
    ),
    "curve": (
        "curvehedge.curve",
        ("spot", "fit_segment", "derivatives", "curvature", "delta_y", "apply_shock"),
        (("YieldCurve", "__post_init__"),),
    ),
    "hedging": (
        "curvehedge.hedging",
        ("snapshot", "duration_hedge", "quadratic_hedge", "convexity_hedge",
         "cubic_hedge", "solve_constraint_hedge", "aggregate_portfolio"),
        (),
    ),
    "scenario": (
        "curvehedge.scenario",
        ("reprice_pnl", "default_segment", "run_scenario", "residual_scaling",
         "estimate_order"),
        (),
    ),
    "backtest": (
        "curvehedge.backtest",
        ("run_backtest", "summary_stats", "tenor_correlations"),
        (),
    ),
    "synth": ("curvehedge.synth", ("generate_history", "default_bond_universe"), ()),
    "io": (
        "curvehedge.io",
        ("parse_curve_csv", "write_curve_csv", "parse_bonds_json", "write_bonds_json",
         "parse_plan_json", "plan_to_dict", "plan_from_dict", "emit_report"),
        (),
    ),
    "cli": ("curvehedge.cli", ("main",), ()),
}

PLAN_BUILDERS = ("duration_hedge", "quadratic_hedge", "convexity_hedge", "cubic_hedge",
                 "solve_constraint_hedge")


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


def _size(path) -> int:
    return os.path.getsize(path)


def _after_call(name: str, args, result, extra: dict) -> None:
    """Work counters that need a function's arguments or result."""
    if name == "generate_history":
        extra["synth_days"] += len(result[0])
    elif name == "parse_curve_csv":
        extra["csv_rows"] += len(result)
        extra["bytes_read"] += _size(args[0])
    elif name in ("parse_bonds_json", "parse_plan_json"):
        extra["bytes_read"] += _size(args[0])
    elif name in ("write_curve_csv", "write_bonds_json"):
        extra["bytes_written"] += _size(args[1])
    elif name == "emit_report":
        extra["bytes_written"] += sum(_size(p) for p in result)


_COUNTED = {"generate_history", "parse_curve_csv", "parse_bonds_json", "parse_plan_json",
            "write_curve_csv", "write_bonds_json", "emit_report"}


class Tracer:
    """Counts calls and self time per wrapped function while installed."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self.extra = {"synth_days": 0, "csv_rows": 0, "bytes_read": 0, "bytes_written": 0}
        self._stack: list[float] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[object, str, object, bool]] = []
        self._methods: list[tuple[type, str, object, object]] = []
        self._build()

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        stack = self._stack
        extra = self.extra
        clock = time.perf_counter
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counted:
                hook = clock()
                _after_call(name, args, result, extra)
                if stack:
                    # counter bookkeeping is tracing cost, not the parent's work
                    stack[-1] += clock() - hook
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _build(self):
        for layer, (modname, funcs, methods) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in funcs:
                fn = getattr(mod, name)
                self._wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._methods.append((cls, meth, fn, self._wrap(layer, meth, fn)))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "curvehedge" or modname.startswith("curvehedge.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value, False))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        hit = self._wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._patched.append((value, key, item, True))
        for cls, meth, fn, wrapper in self._methods:
            setattr(cls, meth, wrapper)
            self._patched.append((cls, meth, fn, False))

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patched):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for (lay, _), s in self.stats.items() if lay == layer)

    def stat(self, layer: str, name: str) -> Stat:
        return self.stats[(layer, name)]

    def plan_stat(self) -> Stat:
        total = Stat()
        for name in PLAN_BUILDERS:
            s = self.stats[("hedging", name)]
            total.calls += s.calls
            total.self_s += s.self_s
        return total

    def table(self) -> list[dict]:
        """Every wrapped function's totals, for the trace file."""
        return [
            {"layer": layer, "function": name, "calls": s.calls, "self_s": s.self_s}
            for (layer, name), s in sorted(self.stats.items())
        ]
