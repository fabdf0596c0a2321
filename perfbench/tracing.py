"""Spans around calls into the library's public functions, for the traced run.

The library has no spans of its own, so the tracer records them from
outside: it rebinds each traced function, in every ``lossfish`` namespace
that holds it (``qfi.apply_channel``, ``cli.optimize_xi``, ...), and the six
``numpy.linalg`` solvers the library calls, to a wrapper that records a span
``(id, parent id, op id, name, start, end)``.  Spans stay in memory until the
run writes them out.  ``uninstall`` puts the original functions back, so
untraced ops run the library exactly as shipped.

Span times are process CPU time, like the op latencies in ``run.py``.  A
span's self time is its duration minus the time covered by its traced
children.  Private helpers are not traced: their time, such as the SLD
assembly inside ``optimize_two_mode``, counts as the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

import numpy.linalg

TRACED = {
    "lossfish.states": ("make_state",),
    "lossfish.probes": ("build_single_mode", "build_two_mode"),
    "lossfish.channel": ("apply_channel", "channel_derivative"),
    "lossfish.fidelity": ("gaussian_fidelity",),
    "lossfish.qfi": ("qfi_sld", "qfi_fidelity_fd", "qfi_single_mode_form",
                     "qfi_if_closed", "qfi_tmsv", "qfi_two_mode_closed"),
    "lossfish.optimize": ("optimize_two_mode", "optimize_xi", "optimize_bandwidth"),
    "lossfish.hypotest": ("fidelity_error_bound",),
    "lossfish.cli": ("main",),
}
LINALG = ("solve", "lstsq", "eigh", "eigvalsh", "inv", "det")

# functions reported together under one metric name
GROUPS = {
    "probes.build_single_mode": "probes.build",
    "probes.build_two_mode": "probes.build",
    "qfi.qfi_if_closed": "qfi.closed",
    "qfi.qfi_tmsv": "qfi.closed",
    "qfi.qfi_two_mode_closed": "qfi.closed",
}

# caps the memory spans take (~35 MB); spans past it still count in the
# statistics, and the run reports how many were dropped
MAX_SPANS = 200_000


class Tracer:
    """Records spans while installed; keeps per-name call and time totals."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.op_id = 0
        # name -> [calls, total seconds, self seconds, calls that raised]
        self.stats = {}
        self._stack = []
        self._next_id = 1
        self.patches = self._plan()

    def _plan(self):
        """List every (namespace, attribute, original, wrapper) to rebind."""
        wrappers = {}
        for modname, names in TRACED.items():
            module = importlib.import_module(modname)
            layer = modname.rsplit(".", 1)[1]
            for attr in names:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        patches = []
        for modname, module in sorted(sys.modules.items()):
            if modname != "lossfish" and not modname.startswith("lossfish."):
                continue
            for attr, value in vars(module).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr, value, entry[1]))
        for attr in LINALG:
            fn = getattr(numpy.linalg, attr)
            patches.append((numpy.linalg, attr, fn, self._wrap(f"linalg.{attr}", fn)))
        return patches

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.process_time  # the clock run.py times whole ops with

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, time covered by children
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent[0] if parent else 0,
                                       self.op_id, name, start, end))
                else:
                    self.dropped += 1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, op_id: int):
        self.op_id = op_id
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def grouped(self):
        """Per-metric-name totals, with the GROUPS merged."""
        out = {}
        for name, (calls, total, self_s, raised) in self.stats.items():
            acc = out.setdefault(GROUPS.get(name, name), [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
            acc[3] += raised
        return out

    def write(self, path):
        """Write the kept spans as gzip JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
