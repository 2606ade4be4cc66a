"""Span tracer for the benchmark's traced passes.

The tracer wraps, from outside the package, every public function of the
layer modules and every public method of the classes they define (plus the
constructors and arithmetic operators).  Each call records one span: name,
start, end and the span that was open when it began.  A wrapped function is
also replaced in every ``freewick`` module that imported it by name, so a
call such as ``suites.make_grid`` or ``xfock.poly_eval`` is traced too.

Spans stay in memory in flat arrays and are written out once, at the end of
the pass.  Self time is a span's duration minus the durations of its child
spans; the program is single-threaded, so children never overlap.

Counts are taken where a value crosses a layer boundary: from the value a
wrapped call returns (or a wrapped generator yields) to a caller outside its
layer, either the span of another layer or the benchmark itself.  Values
passed between functions of one layer are not counted, so the counts do not
move when a layer's internal calls are refactored.  They are: partitions
returned by ``ncpart``, bytes of Fock vectors returned by ``fock``
(computed from array sizes, not read from hardware counters), the largest
single Fock level returned by any layer, and extended-space components
returned by ``xfock``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("ncpart", "grid", "fock", "field", "cumulant", "jacobi", "xfock", "suites", "cli")

# Dunder methods whose cost belongs to the class's layer, not to the caller.
_DUNDERS = ("__init__", "__post_init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


class Tracer:
    """Records spans and boundary counts for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self._active: list[int] = []
        self._stack = [-1]
        self.counts = {
            "ncpart.partitions_out": 0,
            "fock.bytes_out": 0,
            "fock.peak_level_bytes": 0,
            "xfock.components_out": 0,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules of an already imported ``freewick``."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"freewick.{layer}"]
            hook = self._hook(layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(f"{layer}.{attr}", obj, hook)
                    setattr(module, attr, wrapped)
                    replaced[id(obj)] = wrapped
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj, hook)
        # calls through names imported into other modules must not escape
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "freewick" or name.startswith("freewick.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls: type, hook) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__, hook)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw, hook))

    def _hook(self, layer: str):
        from freewick.fock import FockVector
        from freewick.ncpart import MarkedPartition, SetPartition

        counts = self.counts

        def fock_levels(result) -> None:
            if isinstance(result, FockVector):
                biggest = max(a.nbytes for a in result.levels)
                if biggest > counts["fock.peak_level_bytes"]:
                    counts["fock.peak_level_bytes"] = biggest
                if layer == "fock":
                    counts["fock.bytes_out"] += sum(a.nbytes for a in result.levels)

        if layer == "ncpart":
            def ncpart_hook(result) -> None:
                if isinstance(result, (SetPartition, MarkedPartition)):
                    counts["ncpart.partitions_out"] += 1
                elif isinstance(result, list) and result and isinstance(
                    result[0], (SetPartition, MarkedPartition)
                ):
                    counts["ncpart.partitions_out"] += len(result)
            return ncpart_hook
        if layer == "xfock":
            def xfock_hook(result) -> None:
                components = getattr(result, "components", None)
                if isinstance(components, dict):  # an XFockVector
                    counts["xfock.components_out"] += len(components)
                else:
                    fock_levels(result)
            return xfock_hook
        return fock_levels

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        layer = name.split(".", 1)[0]
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        self._active.append(0)
        calls, active, stack, name_layer = self.calls, self._active, self._stack, self.name_layer
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end = self.start, self.end
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = clock()
            stack.pop()
            active[nid] -= 1

        def crosses_boundary() -> bool:
            """Whether the span now open (the caller's) is outside this layer."""
            return stack[-1] < 0 or name_layer[name_id[stack[-1]]] != layer

        if inspect.isgeneratorfunction(fn):
            # one call per generator; one span per resumption, so the
            # generator's work lands inside whichever span consumes it
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    if crosses_boundary():
                        hook(item)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if crosses_boundary():
                hook(result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def _arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        return start, end, parent, name_id, outer

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per layer and inclusive time per function name.

        Inclusive time counts only the outermost span of a name, so a
        recursive function is not counted once per level of recursion.
        """
        start, end, parent, name_id, outer = self._arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = np.bincount(name_id, weights=dur - child, minlength=k)
        inclusive = np.bincount(name_id[outer], weights=dur[outer], minlength=k)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, layer in enumerate(self.name_layer):
            layer_self[layer] += float(self_t[i])
        return layer_self, {name: float(inclusive[i]) for i, name in enumerate(self.names)}

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for layer, c in zip(self.name_layer, self.calls):
            out[layer] += c
        return out

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        start, end, parent, name_id, _ = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            parent=parent, start=start, end=end,
        )
