"""Outside-in span tracer for the qmemwitness benchmark.

`Tracer.install` wraps every public function of the library modules, the
public methods of their classes and `DensityMatrix.__post_init__` (state
validation). A wrapper is set wherever a loaded qmemwitness module holds
the original object, because modules import each other's functions by
name: `witness` calls its own `evolve_choi` binding, `cli` its own
`scan_qudit`. Patching only the defining module would miss those calls.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; `layer_metrics` turns them into per-layer self times and counts,
and `dump` writes them out once the run is over. The layer of a span is
the module that defines the function (`witness.find_witness_times`), or
`bench` for spans the benchmark opens around its own steps.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LIBRARY_MODULES = ("states", "lindblad", "witness", "gaussian", "cli")

# (method owner, method) pairs wrapped besides public names
_EXTRA_METHODS = (("states", "DensityMatrix", "__post_init__"),)

# per-call counters read from a wrapped function's return value
_RESULT_COUNTERS = {
    "lindblad.evolve_choi": ("lindblad.states_out",
                             lambda result: len(getattr(result, "states", ()))),
}


class Tracer:
    """Span recorder; one per traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        # one (name id, start, end, parent index) tuple per span, in start order
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str):
        nid, spans, stack = self._name_id(name), self.spans, self._stack
        parent, idx = stack[-1] if stack else -1, len(spans)
        spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            spans[idx] = (nid, t0, time.perf_counter(), parent)
            stack.pop()

    def wrap(self, name: str, fn):
        nid, spans, stack = self._name_id(name), self.spans, self._stack
        counters, counter = self.counters, _RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, idx = stack[-1] if stack else -1, len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the library's public callables wherever they are looked up."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qmemwitness" or name.startswith("qmemwitness.")}
        wrappers: dict[int, object] = {}
        for short in LIBRARY_MODULES:
            mod = modules[f"qmemwitness.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        for short, cls_name, meth in _EXTRA_METHODS:
            cls = getattr(modules[f"qmemwitness.{short}"], cls_name)
            self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (nid, t0, t1, _), covered in zip(self.spans, child_time):
            name = self.names[nid]
            incl[name] += t1 - t0
            self_t[name] += t1 - t0 - covered
            calls[name] += 1
        return incl, self_t, calls

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index], times from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[self.names[nid], round(t0 - origin, 9), round(t1 - origin, 9), parent]
                for nid, t0, t1, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows},
                      fh, separators=(",", ":"))


LAYERS = ("bench", "cli", "witness", "lindblad", "states", "gaussian")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (names as in BENCHMARK.json)."""
    incl, self_t, calls = tracer.totals()

    def layer_self(layer):
        return sum((v for k, v in self_t.items() if k.split(".", 1)[0] == layer), 0.0)

    out = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    out.update({
        "witness.cells": calls["witness.witness_qudit_model"],
        "witness.refine_s": incl["witness.find_witness_times"],
        "witness.refine_probes": calls["lindblad.ChoiEvolution.state_at"],
        "lindblad.evolve_s": incl["lindblad.evolve_choi"],
        "lindblad.evolve.self_s": self_t["lindblad.evolve_choi"],
        "lindblad.states_out": tracer.counters["lindblad.states_out"],
        "lindblad.state_at_s": incl["lindblad.ChoiEvolution.state_at"],
        "states.entropy_s": incl["states.entropy_triple"],
        "states.entropy_calls": calls["states.entropy_triple"],
        "states.eigh_calls": calls["states.von_neumann_entropy"],
        "states.validate_s": incl["states.DensityMatrix.__post_init__"],
        "states.validate_calls": calls["states.DensityMatrix.__post_init__"],
        "gaussian.minimize_s": incl["gaussian.minimize_delta_S_over_r"],
        "gaussian.minimize_calls": calls["gaussian.minimize_delta_S_over_r"],
        "gaussian.lossy_calls": calls["gaussian.delta_S_lossy"],
        "gaussian.dho_s": sum(incl[f"gaussian.{f}"] for f in
                              ("dho_amplitude", "dho_coefficients", "dho_channel")),
        "gaussian.dho_channel_calls": calls["gaussian.dho_channel"],
        "trace.spans": len(tracer.spans),
        "trace.accounted_frac": sum(self_t.values()) / wall_s if wall_s > 0 else 0.0,
    })
    return out
