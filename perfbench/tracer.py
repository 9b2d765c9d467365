"""Layer timer for the benchmark: times calls into kgdta's public functions from outside.

`Tracer.install` wraps every public function defined in the traced kgdta modules and
puts the wrapper in place of the original at every binding that refers to it: the
defining module, the `kgdta` package namespace, and every other kgdta module (or
extra module) that imported the name. `kgdta.pretrain.build_mp` and
`kgdta.gnn.build_mp` are separate bindings and both get replaced. Calls made through
a module attribute (`nm.backward`) or a module global (`build_mp(...)` inside
`pretrain`) both go through the wrapper. References stored elsewhere, such as handler
callables kept in a registry object, are not import sites and stay unwrapped.

Classes are not replaced (that would break `isinstance`); the constructors named in
`CONSTRUCTORS` are timed by wrapping their `__init__` instead.

Spans stay in memory until `write_jsonl`. A span is
`{name, start, end, parent, workload}`, where `parent` is the 0-based line index of
the enclosing span in the same file (null at top level) and times are seconds since
the tracer was created.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("schema", "handlers", "numerics", "gnn", "pretrain", "downstream")
CONSTRUCTORS = ("downstream.CheckpointProvider",)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._active: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------------

    def _enter(self, name: str):
        start = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, start - self.origin, None, parent])
        self._stack.append([len(self.spans) - 1, start, 0.0])
        self._active[name] = self._active.get(name, 0) + 1

    def _exit(self, name: str):
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.spans[index][2] = end - self.origin
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self._active[name] -= 1
        if self._active[name] == 0:  # a recursive call counts once in the total
            self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__traced_name__ = name
        return traced

    # --- installation ------------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap public functions of the traced modules at every import site."""
        import kgdta

        modules = {short: sys.modules[f"kgdta.{short}"] for short in TRACED_MODULES}
        originals: dict[int, object] = {}  # id -> function, so ids stay valid
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # imported from elsewhere; wrapped where it is defined
                name = f"{short}.{attr}"
                originals[id(obj)] = obj
                wrappers[id(obj)] = self.wrap(name, obj, RESULT_HOOKS.get(name))

        sites = [kgdta, *(m for n, m in sorted(sys.modules.items()) if n.startswith("kgdta.")),
                 *extra_modules]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                if id(obj) in originals and originals[id(obj)] is obj:
                    self._patch(site, attr, wrappers[id(obj)])

        for qualified in CONSTRUCTORS:
            short, cls_name = qualified.split(".")
            cls = getattr(modules[short], cls_name)
            self._patch(cls, "__init__", self.wrap(qualified, cls.__init__))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output --------------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per traced name: total seconds, self seconds and call count."""
        return {
            name: {
                "total_s": self.total.get(name, 0.0),
                "self_s": self.self_time[name],
                "calls": self.calls[name],
            }
            for name in sorted(self.calls)
        }

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "workload": self.workload}
                ) + "\n")


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    return sum(v.nbytes for v in value if isinstance(v, np.ndarray))


def _mp_graph_stats(tracer: Tracer, mp):
    """Closure size, and the bytes held by the numpy arrays in an MpGraph's fields.
    The bytes are computed from array sizes, not measured."""
    held = float(sum(_array_bytes(v) for v in vars(mp).values()))
    c = tracer.counters
    c["gnn.closure_nodes"] = c.get("gnn.closure_nodes", 0) + len(mp.node_ids)
    c["gnn.adjacency_bytes"] = max(c.get("gnn.adjacency_bytes", 0.0), held)


RESULT_HOOKS = {"gnn.build_mp": _mp_graph_stats}
