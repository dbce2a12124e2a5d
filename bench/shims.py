"""Timing and counting shims around the public functions of each rarc module.

``Tracer.install()`` replaces every public function and public method of
the layers below with a wrapper that times the call as a span of its
layer.  Spans nest on a stack, so a layer's self time is its spans'
durations minus the time their child spans cover; totals stay in memory
until the run ends.  Nothing
inside the program changes; the shims only rebind names, in the defining
module and in every rarc module that imported the name.

Layers are named after the modules.  Scalar field arithmetic (``add``,
``mul``, ``pow`` ...), ``Matrix`` methods and ``SystemParams`` are not
wrapped: they run per symbol, and a shim there would cost more than the
work it measures.  Their time counts as self time of the caller.

The CLI's file reads and writes go through ``rarc.cli.Path``; the shim
replaces that name with a path type whose ``read_bytes``/``write_bytes``
are spans of the ``io`` layer that also count bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import time
from collections import defaultdict

import numpy as np

# Public names left unwrapped: per-symbol arithmetic and trivial accessors.
_SKIP = {
    "field": {"add", "sub", "neg", "mul", "inv", "pow", "div"},
    "sim": {"record_cross", "record_intra", "node_data"},
}
_SKIP_CLASSES = {"Matrix"}

# Functions whose spans start a build; functions they call inherit the tag.
_BUILD = {"make_field", "field_from_descriptor", "build"}

_MODULES = ("cli", "formats", "field", "linalg", "msrr", "mbrr", "bulk", "sim")


def _tag(layer: str, name: str) -> str:
    if name in _BUILD:
        return "build"
    if layer == "formats":
        return {
            "payload_to_symbols": "pack",
            "symbols_to_payload": "unpack",
            "serialize_encoded": "serialize",
            "parse_encoded": "parse",
        }.get(name, "other")
    if layer == "field":
        if name == "np_matmul":
            return "matmul"
        if name in ("np_add", "np_neg", "np_mul"):
            return "elementwise"
        return "other"
    if layer == "bulk":
        for op in ("encode", "repair", "reconstruct"):
            if op in name:
                return op
        return "encode" if "generator" in name else "other"
    if layer == "sim":
        if name == "store":
            return "store"
        if name == "run_repair":
            return "repair"
        return "other"
    if layer in ("msrr", "mbrr"):
        return "scalar"
    return "all"


class Tracer:
    """Span stack plus per-(layer, tag) totals for one traced process."""

    def __init__(self):
        self.self_s = defaultdict(float)  # (layer, tag) -> seconds of self time
        self.entries = defaultdict(int)  # (layer, tag) -> calls from another layer
        self.build_s = defaultdict(float)  # layer -> inclusive seconds of builds
        self.builds = defaultdict(int)  # layer -> outermost build calls
        self.matmul_macs = 0
        self.io_bytes = {"read": 0, "write": 0}
        self.repairs = defaultdict(int)  # code type -> Cluster repairs
        self.cross_symbols = defaultdict(int)
        self.intra_symbols = defaultdict(int)
        # stack entries: [layer, tag, child seconds]
        self._stack: list[list] = []

    # -- span bookkeeping -----------------------------------------------------

    def _span(self, layer: str, tag: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == layer:
            # calls inside one layer keep the tag of the layer's entry call
            tag = parent[1] if parent[1] != "other" else tag
        else:
            self.entries[(layer, tag)] += 1
        frame = [layer, tag, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[(layer, tag)] += elapsed - frame[2]
            if stack:
                stack[-1][2] += elapsed
            if tag == "build" and (parent is None or parent[:2] != [layer, "build"]):
                self.build_s[layer] += elapsed
                self.builds[layer] += 1

    def _wrap(self, layer: str, name: str, fn):
        tag = _tag(layer, name)
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return tracer._span(layer, tag, fn, args, kwargs)

        if layer == "field" and name == "np_matmul":

            @functools.wraps(fn)
            def matmul_shim(self_, a, b):
                rows, inner = np.shape(a)
                tracer.matmul_macs += rows * inner * np.shape(b)[1]
                return tracer._span(layer, tag, fn, (self_, a, b), {})

            return matmul_shim
        if layer == "sim" and name == "run_repair":

            @functools.wraps(fn)
            def repair_shim(cluster, *args, **kwargs):
                log = tracer._span(layer, tag, fn, (cluster,) + args, kwargs)
                kind = cluster.code.code_type
                tracer.repairs[kind] += 1
                tracer.cross_symbols[kind] += log.cross_rack_symbols
                tracer.intra_symbols[kind] += log.intra_rack_symbols
                return log

            return repair_shim
        return shim

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"rarc.{m}") for m in _MODULES}
        everywhere = [importlib.import_module("rarc")] + list(mods.values())
        for layer, mod in mods.items():
            skip = _SKIP.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    shim = self._wrap(layer, name, obj)
                    for other in everywhere:
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, alias, shim)
                elif inspect.isclass(obj) and name not in _SKIP_CLASSES:
                    self._wrap_class(layer, obj, skip)
        self._install_io(mods["cli"])
        return self

    def _wrap_class(self, layer: str, cls, skip) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or name in skip:
                continue
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, name, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(layer, name, attr))

    def _install_io(self, cli) -> None:
        tracer = self
        base = type(pathlib.Path())

        class TracedPath(base):
            def read_bytes(self):
                data = tracer._span("io", "read", base.read_bytes, (self,), {})
                tracer.io_bytes["read"] += len(data)
                return data

            def write_bytes(self, data):
                tracer.io_bytes["write"] += len(data)
                return tracer._span("io", "write", base.write_bytes, (self, data), {})

        cli.Path = TracedPath

    # -- reporting ----------------------------------------------------------------

    def _self(self, layer: str, *tags: str) -> float:
        return sum(v for (l, t), v in self.self_s.items() if l == layer and (not tags or t in tags))

    def _calls(self, layer: str, *tags: str) -> int:
        return sum(v for (l, t), v in self.entries.items() if l == layer and (not tags or t in tags))

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures: per round, except ``*.build_s`` (seconds per
        build call, set-up included) and the per-repair traffic counts."""
        r = max(rounds, 1)

        def per_build(layer):
            return self.build_s[layer] / self.builds[layer] if self.builds[layer] else 0.0

        def per_repair(table, *kinds):
            n = sum(self.repairs[k] for k in kinds)
            return sum(table[k] for k in kinds) / n if n else 0.0

        out = {
            "cli.self_s": (self._self("cli") / r, "s"),
            "io.read_s": (self._self("io", "read") / r, "s"),
            "io.write_s": (self._self("io", "write") / r, "s"),
            "io.bytes_read": (self.io_bytes["read"] / r, "B"),
            "io.bytes_written": (self.io_bytes["write"] / r, "B"),
            "formats.pack_s": (self._self("formats", "pack") / r, "s"),
            "formats.unpack_s": (self._self("formats", "unpack") / r, "s"),
            "formats.serialize_s": (self._self("formats", "serialize") / r, "s"),
            "formats.parse_s": (self._self("formats", "parse") / r, "s"),
            "field.build_s": (per_build("field"), "s"),
            "field.builds": (self.builds["field"] / r, "count"),
            "field.matmul_s": (self._self("field", "matmul") / r, "s"),
            "field.matmul_calls": (self._calls("field", "matmul") / r, "count"),
            "field.matmul_macs": (self.matmul_macs / r, "count"),
            "field.elementwise_s": (self._self("field", "elementwise") / r, "s"),
            "linalg.solve_s": (self._self("linalg") / r, "s"),
            "linalg.calls": (self._calls("linalg") / r, "count"),
            "msrr.build_s": (per_build("msrr"), "s"),
            "mbrr.build_s": (per_build("mbrr"), "s"),
            "msrr.scalar_s": (self._self("msrr", "scalar") / r, "s"),
            "mbrr.scalar_s": (self._self("mbrr", "scalar") / r, "s"),
            "bulk.encode_s": (self._self("bulk", "encode") / r, "s"),
            "bulk.repair_s": (self._self("bulk", "repair") / r, "s"),
            "bulk.reconstruct_s": (self._self("bulk", "reconstruct") / r, "s"),
            "sim.store_s": (self._self("sim", "store") / r, "s"),
            "sim.repair_s": (self._self("sim", "repair") / r, "s"),
            "sim.cross_rack_symbols_per_repair": (
                per_repair(self.cross_symbols, "msrr", "mbrr"), "symbols"),
            "sim.intra_rack_symbols_per_repair": (
                per_repair(self.intra_symbols, "msrr", "mbrr"), "symbols"),
            "sim.msrr_intra_rack_symbols_per_repair": (
                per_repair(self.intra_symbols, "msrr"), "symbols"),
            "sim.mbrr_intra_rack_symbols_per_repair": (
                per_repair(self.intra_symbols, "mbrr"), "symbols"),
        }
        return out
