"""In-memory span tracing of the shadowhp layers, from outside the package.

`traced(tracer)` replaces each public function in TARGETS, at the module
attribute its callers look up, with a wrapper that records one span
(name, start, end, parent) per call, and puts every original back when the
block ends, also when it raises. Nothing inside the package is edited.

Spans live in flat arrays (22 bytes each) so a traced sweep of a few
million calls stays small; self time is computed once at the end.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (module, attribute, span name). A function imported by name into several
#: modules is wrapped at each of them that a traced caller uses.
TARGETS = (
    ("shadowhp.cli", "main", "cli.main"),
    ("shadowhp.cli", "run_grid", "experiments.run_grid"),
    ("shadowhp.cli", "write_csv", "experiments.write_csv"),
    ("shadowhp.experiments", "format_csv", "experiments.format_csv"),
    ("shadowhp.experiments", "best_approx_error", "hpspace.best_approx_error"),
    ("shadowhp.hpspace", "shadow_mesh", "hpspace.shadow_mesh"),
    ("shadowhp.hpspace", "l2_project", "hpspace.l2_project"),
    ("shadowhp.hpspace", "amplitude_v", "amplitudes.amplitude_v"),
    ("shadowhp.amplitudes", "g_of_s", "amplitudes.g_of_s"),
    ("shadowhp.amplitudes", "h_of_s", "amplitudes.h_of_s"),
    ("shadowhp.amplitudes", "KnifeGeometry", "geometry.KnifeGeometry"),
    ("shadowhp.amplitudes", "mu_of_s", "geometry.mu_of_s"),
    ("shadowhp.amplitudes", "r_of_s", "geometry.r_of_s"),
    ("shadowhp.geometry", "r_of_s", "geometry.r_of_s"),
    ("shadowhp.cli", "region_label", "geometry.region_label"),
    ("shadowhp.cli", "sector_bound_cert", "specfun.sector_bound_cert"),
    ("shadowhp.amplitudes", "big_f", "specfun.big_f"),
    ("shadowhp.specfun", "big_f", "specfun.big_f"),
    ("shadowhp.specfun", "faddeeva_w", "kernel.w"),
)


class Tracer:
    """Span store: one row per call, parent = index of the enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time, self time (total minus the time
        covered by child spans) and the array of single-call durations.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": dur[mask],
            }
        return out


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers of TARGETS for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, span))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
