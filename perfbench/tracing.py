"""Span tracer wrapped around the package's public functions from outside.

The package itself carries no tracing: `Tracer.install` replaces functions
and methods with wrappers that record a span (name, start, end, parent) or
bump a counter, and `uninstall` puts the originals back.  Two traps would
make a wrapper record nothing, and both are handled:

* a class attribute that aliases a method (``OverallSurvivalProvider.__call__
  = survival``) is bound when the class is created, so every class attribute
  holding the original is replaced, not just the method's own name;
* modules bind names with ``from ... import``, so every module of the
  package holding the original function gets the wrapper.

Self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (span name, module, attribute); "Class.method" names a method, "Class.*"
# every public method defined on the class.
SPANS = [
    ("simulation.generate_cohort", "netadjust.simulation", "generate_cohort"),
    ("simulation.derive_tables", "netadjust.simulation", "derive_tables"),
    ("simulation.make_registry", "netadjust.simulation", "make_registry"),
    ("io.load_registry", "netadjust.io", "load_registry"),
    ("io.write_rows_csv", "netadjust.io", "write_rows_csv"),
    ("lifetable.load_life_table", "netadjust.lifetable", "load_life_table"),
    ("incidence.load_incidence_table", "netadjust.incidence", "load_incidence_table"),
    ("incidence.prevalence", "netadjust.incidence", "PrevalenceCalculator.*"),
    ("incidence.time_to_diagnosis_increments", "netadjust.incidence", "time_to_diagnosis_increments"),
    ("registry.build_strata", "netadjust.registry", "build_strata"),
    ("registry.merge_small_strata", "netadjust.registry", "merge_small_strata"),
    ("registry.kaplan_meier", "netadjust.registry", "kaplan_meier"),
    ("extrapolation.extend_survival", "netadjust.extrapolation", "extend_survival"),
    ("survival_provider.from_registry", "netadjust.survival_provider", "OverallSurvivalProvider.from_registry"),
    ("survival_provider.survival", "netadjust.survival_provider", "OverallSurvivalProvider.survival"),
    ("adjustment.solve", "netadjust.adjustment", "AdjustmentEngine.solve"),
    ("adjustment.residuals", "netadjust.adjustment", "AdjustmentEngine.residuals"),
    ("estimators.pohar_perme", "netadjust.estimators", "pohar_perme"),
    ("estimators.ederer1", "netadjust.estimators", "ederer1"),
    ("estimators.crude_probability", "netadjust.estimators", "crude_probability"),
    ("estimators.risk_set", "netadjust.estimators", "RiskSetSummary.__init__"),
    ("estimators.evaluate", "netadjust.estimators", "evaluate_at_years"),
    ("cli.command", "netadjust.cli", "cmd_estimate"),
    ("cli.command", "netadjust.cli", "cmd_adjust"),
]

# Calls that are only counted: they are too many or too small for a span.
COUNTED = [
    ("lifetable.diagonal_survival", "netadjust.lifetable", "diagonal_survival"),
    ("extrapolation.cumulative_hazard_at", "netadjust.extrapolation", "AnnualGridSurvival.cumulative_hazard_at"),
    ("adjustment.ingredient", "netadjust.adjustment", "AdjustmentEngine.alpha"),
    ("adjustment.ingredient", "netadjust.adjustment", "AdjustmentEngine.so_grid"),
    ("adjustment.ingredient", "netadjust.adjustment", "AdjustmentEngine.diagnosis_mass"),
    ("adjustment.ingredient", "netadjust.adjustment", "AdjustmentEngine.prevalent_grid"),
    ("adjustment.ingredient", "netadjust.adjustment", "AdjustmentEngine.lt_survival_grid"),
]


def _survival_points(counts, args, kwargs, result):
    times = kwargs["times"] if "times" in kwargs else args[2]
    counts["survival_provider.survival.points"] += int(np.size(times))


def _bytes_written(counts, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    counts["io.bytes_written"] += os.path.getsize(path)


def _risk_matrix_cells(counts, args, kwargs, result):
    rs = args[0]
    counts["estimators.risk_matrix_cells"] += len(rs.keys) * len(rs.times)


EXTRA = {
    "survival_provider.survival": _survival_points,
    "io.write_rows_csv": _bytes_written,
    "estimators.risk_set": _risk_matrix_cells,
}


class Tracer:
    """Spans and counters recorded in memory for one process."""

    def __init__(self) -> None:
        self.reset()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def _span(self, name, fn):
        # the lists are looked up at call time because reset() replaces them
        tracer = self
        extra = EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, stack = tracer.names, tracer._stack
            i = len(names)
            names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(i)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = clock()
                stack.pop()
            if extra is not None:
                extra(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, module: str, attr: str, make) -> None:
        mod = sys.modules[module]
        if "." not in attr:
            orig = getattr(mod, attr)
            new = make(name, orig)
            for other in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "netadjust"]:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._replace(other, key, new)
            return
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        methods = ([m for m, v in vars(cls).items() if callable(v) and not m.startswith("_")]
                   if meth == "*" else [meth])
        for m in methods:
            raw = cls.__dict__[m]
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
            else:
                new = make(name, raw)
            for key, value in list(vars(cls).items()):
                if value is raw:
                    self._replace(cls, key, new)

    def install(self) -> None:
        import netadjust.cli  # noqa: F401  (loads every module of the package)

        for table, make in ((SPANS, self._span), (COUNTED, self._count)):
            for name, module, attr in table:
                try:
                    self._wrap(name, module, attr, make)
                except (AttributeError, KeyError) as exc:
                    raise RuntimeError(f"cannot trace {module}.{attr} for {name}: {exc!r}") from None

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def snapshot(self) -> tuple[int, Counter]:
        """Position to take per-operation figures from (see `since`)."""
        return len(self.names), Counter(self.counts)

    def since(self, mark) -> "Profile":
        start, counts = mark
        return profile(self.names[start:], self.starts[start:], self.ends[start:],
                       [p - start if p >= start else -1 for p in self.parents[start:]],
                       self.counts - counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "counts": dict(self.counts)}, fh)


class Profile:
    """Self time, calls and counters of a stretch of spans."""

    def __init__(self, self_s: dict, calls: Counter, counts: Counter):
        self.self_s = self_s
        self.calls = calls
        self.counts = counts

    def call_count(self, layer: str) -> int:
        return self.calls.get(layer, 0) + self.counts.get(layer + ".calls", 0)


def profile(names, starts, ends, parents, counts) -> Profile:
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    par = np.asarray(parents, dtype=np.int64)
    child = np.zeros(dur.shape[0])
    nested = par >= 0
    np.add.at(child, par[nested], dur[nested])
    self_time: dict[str, float] = {}
    for name, value in zip(names, (dur - child).tolist()):
        self_time[name] = self_time.get(name, 0.0) + value
    return Profile(self_time, Counter(names), Counter(counts))


def read_profile(path) -> Profile:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return profile(data["names"], data["starts"], data["ends"], data["parents"], data["counts"])
