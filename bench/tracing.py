"""Spans around the calls into each cylwave layer, for the traced run.

`Tracer.instrument` wraps each function of LAYER_SPANS wherever a
cylwave module holds a reference to it, which is the place its callers look
it up: `matricant` imports `q_matrix` by name, so the wrapper replaces
`cylwave.matricant.q_matrix` as well as `cylwave.elastodyn.q_matrix`. A
function that a later version of the package no longer has is skipped and
reports zero calls.

Spans are kept in flat arrays while recording is on and summarized, or
written out, at the end. A span's self time is its duration minus the time
covered by its child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span label "module.function" -> the per-operation figures reported for it
LAYER_SPANS = {
    "elastodyn.q_matrix": ("calls", "self_s"),
    "matricant.matricant_step": ("calls", "self_s"),
    "numkernel.mat_exp": ("calls", "self_s"),
    "numkernel.mat_inverse": ("calls", "self_s"),
    "impedance.mobius_step": ("calls", "self_s"),
    "impedance.integrate_impedance": ("self_s",),
    "tilayers.layer_twopoint": ("calls", "self_s"),
    "tilayers.join_twopoint": ("calls", "self_s"),
    "tilayers.ti_conditional_impedance": ("calls", "self_s"),
    "cylfun.cyl_f": ("calls", "self_s"),
    "cylfun.cyl_f_prime": ("calls", "self_s"),
    "scatter.scattering_coefficient": ("calls",),
    "scatter.solve_scattering": ("self_s",),
    "cli.run": ("self_s",),
}


class Tracer:
    def __init__(self):
        self.labels = []
        self.recording = False
        self._label_id = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []

    def _id(self, label: str) -> int:
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def wrap(self, label: str, fn):
        """fn recorded as a span named label while recording is on."""
        sid = self._id(label)
        name, parent, start, end = (self._name, self._parent, self._start,
                                    self._end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def instrument(self, package: str = "cylwave") -> None:
        """Replace every reference to a LAYER_SPANS function in the
        package's loaded modules by its traced wrapper."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None
                   and (key == package or key.startswith(package + "."))]
        for label in LAYER_SPANS:
            mod_name, fn_name = label.split(".")
            home = sys.modules.get(f"{package}.{mod_name}")
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                continue
            wrapper = self.wrap(label, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.uint16)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        return name, parent, start, end

    def summary(self, ops: int) -> dict:
        """Per-operation calls and self seconds of every label."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        own = dur - covered
        size = len(self.labels)
        calls = np.bincount(name, minlength=size)
        self_s = np.bincount(name, weights=own, minlength=size)
        return {label: {"calls": int(calls[i]) / ops,
                        "self_s": float(self_s[i]) / ops}
                for i, label in enumerate(self.labels)}

    def save(self, path: str) -> None:
        name, parent, start, end = self._arrays()
        np.savez(path, labels=np.array(self.labels), name=name,
                 parent=parent, start=start, end=end)


def layer_metrics(summary: dict) -> dict:
    """The LAYER_SPANS figures by metric name; labels never called read 0."""
    out = {}
    for label, kinds in LAYER_SPANS.items():
        for kind in kinds:
            out[f"{label}.{kind}"] = {
                "value": summary.get(label, {}).get(kind, 0.0),
                "unit": "count" if kind == "calls" else "s"}
    return out
