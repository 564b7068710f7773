"""Outside-in tracing of the cfpk layers.

The tracer wraps module-level names in the ``cfpk`` module namespaces, where
the calling module looks them up, so the program itself is not edited.  Each
wrapped call records a span (name, start, end, parent) in flat arrays kept in
memory; counters are bumped without a span where a span per call would cost
more than the work (``Grid.x``, ``Density`` construction, FV steps).  A layer's
self time is its spans' duration minus the duration of their direct child
spans.

A target whose name a later refactor removes is reported in ``absent`` and
yields no metric, rather than a zero or an error.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MARK = "__perfbench_wrapped__"


def _iterations(tracer: "Tracer", label: str, args, kwargs, result) -> None:
    tracer.extra[label + ".iters"] += result.iterations


def _inner_iterations(tracer: "Tracer", label: str, args, kwargs, result) -> None:
    tracer.extra[label + ".iters"] += result[2]


def _written_bytes(tracer: "Tracer", label: str, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.extra[label + ".bytes"] += os.path.getsize(path)


@dataclass(frozen=True)
class Target:
    """A function to trace, found as ``module.attr``.  Every binding of the same
    object in a cfpk module namespace is wrapped, or with ``home_only`` just
    the one in ``module`` (for a foreign function that other modules also
    import)."""

    module: str
    attr: str
    label: str
    on_result: Optional[Callable] = None
    count_only: bool = False
    home_only: bool = False


TARGETS = (
    Target("cfpk.cli", "build_config", "cli.build_config"),
    Target("cfpk.cli", "run_experiment", "cli.run_experiment"),
    Target("cfpk.fpsolver", "run", "fpsolver.run"),
    Target("cfpk.fpsolver", "sigma_of_state", "fpsolver.sigma_of_state"),
    Target("cfpk.fpsolver", "_advance", "fpsolver.steps", count_only=True),
    Target("cfpk.fpsolver", "solve_banded", "fpsolver.tridiag_solve", home_only=True),
    Target("cfpk.equilibrium", "solve_lambda", "equilibrium.solve_lambda", _iterations),
    Target("cfpk.equilibrium", "gibbs", "equilibrium.gibbs"),
    Target("cfpk.equilibrium", "landscape", "equilibrium.landscape"),
    Target("cfpk.functionals", "dissipation", "functionals.dissipation"),
    Target("cfpk.functionals", "relative_entropy", "functionals.relative_entropy"),
    Target("cfpk.functionals", "log_partition", "functionals.log_partition"),
    Target("cfpk.functionals", "weighted_ckp", "functionals.weighted_ckp"),
    Target("cfpk.core", "moments", "core.moments"),
    Target("cfpk.core", "entropy", "core.entropy"),
    Target("cfpk.core", "integrate", "core.integrate"),
    Target("cfpk.transport", "jko_run", "transport.jko_run"),
    Target("cfpk.transport", "_inner_solve", "transport.inner_solve", _inner_iterations),
    Target("cfpk.transport", "quantile_to_density", "transport.quantile_to_density"),
    Target("cfpk.transport", "to_quantile", "transport.to_quantile"),
    Target("cfpk.longtime", "kramers_sweep", "longtime.kramers_sweep"),
    Target("cfpk.longtime", "decay_experiment", "longtime.decay_experiment"),
    Target("cfpk.longtime", "classify_regime", "longtime.classify_regime"),
    Target("cfpk.longtime", "fit_decay_rate", "longtime.fit_decay_rate"),
    Target("cfpk.longtime", "bimodal_side_data", "longtime.bimodal_side_data"),
    Target("cfpk.records", "write_csv", "records.write_csv", _written_bytes),
    Target("cfpk.sampling", "random_density", "sampling.random_density"),
)

# Class attributes counted per access: (module, class, attribute, label).
CLASS_COUNTERS = (
    ("cfpk.core", "Density", "__post_init__", "core.Density.new"),
    ("cfpk.core", "Grid", "x", "core.Grid.x.calls"),
)


def cfpk_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "cfpk" or name.startswith("cfpk.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def span(self, label: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        nid = self._id(label)
        start, end, name_id, parent, stack = self.start, self.end, self.name_id, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, label, args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def counter(self, label: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.absent = []
        modules = cfpk_modules()
        for t in TARGETS:
            home = importlib.import_module(t.module)
            original = getattr(home, t.attr, None)
            if original is None:
                self.absent.append(t.label)
                continue
            if t.count_only:
                wrapped = self.counter(t.label, original)
            else:
                wrapped = self.span(t.label, original, t.on_result)
            for mod in [home] if t.home_only else modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        for module, cls_name, attr, label in CLASS_COUNTERS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.absent.append(label)
            elif isinstance(original, property):
                self._patch(cls, attr, property(self.counter(label, original.fget)))
            else:
                self._patch(cls, attr, self.counter(label, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(a["name_id"], minlength=n_names)
        total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        t0 = a["start"].min() if len(a["start"]) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            parent=a["parent"],
            start=a["start"] - t0,
            end=a["end"] - t0,
        )


def leftover_wrappers() -> list[str]:
    """Names in cfpk module namespaces or traced classes that still hold a wrapper."""
    found = []
    for mod in cfpk_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
    for module, cls_name, attr, _ in CLASS_COUNTERS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        value = None if cls is None else cls.__dict__.get(attr)
        if hasattr(value, MARK) or hasattr(getattr(value, "fget", None), MARK):
            found.append(f"{module}.{cls_name}.{attr}")
    return found
