"""Spans around calls into xxzsteer's public functions, recorded from outside.

Each traced function is replaced by a wrapper in every namespace of the
package that binds it (``from .linalg import kron`` gives ``model.kron``,
``steering.kron`` and ``fisher.kron`` their own bindings), so calls between
modules are seen too.  ``SpinParams`` is a class, so its ``__init__`` is
wrapped in place and ``isinstance`` keeps working.

A span is (name, operation, parent span, start ns, end ns).  Spans are kept
in flat arrays while the workload runs and written out when it ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# module -> public functions traced; the span name is "<module>.<function>".
TRACED = {
    "cli": ("main",),
    "sweep": ("run_sweep", "evaluate_point", "write_csv"),
    "plot": ("render_svg",),
    "model": ("SpinParams", "gibbs_closed", "gibbs_spectral", "hamiltonian"),
    "steering": (
        "scn_closed", "scre_closed", "scre_published", "sqc_direct", "steer",
        "coherence",
    ),
    "fisher": (
        "qfi_closed", "qfi_published", "qfi_spectral", "calibrated_observable",
        "collective_observable",
    ),
    "linalg": (
        "eig_hermitian", "validate_density_matrix", "partial_trace_A",
        "vn_entropy", "binary_entropy", "kron",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Installs the wrappers, records spans, and takes the wrappers out again."""

    def __init__(self):
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.current_op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        tracer = self
        clock = time.perf_counter_ns
        names, ops, parents = self.name, self.op, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            sid = len(starts)
            parent = tracer.current
            names.append(name_id)
            ops.append(tracer.current_op)
            parents.append(parent)
            ends.append(0)
            tracer.current = sid
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                tracer.current = parent

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "xxzsteer" or name.startswith("xxzsteer.")
        }
        for name_id, span in enumerate(SPAN_NAMES):
            mod_name, fn_name = span.split(".")
            original = getattr(modules[f"xxzsteer.{mod_name}"], fn_name)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._set(original, "__init__", self._wrap(init, name_id))
                continue
            wrapper = self._wrap(original, name_id)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path, samples: tuple[list[float], list[float]]) -> None:
        """Spans and the calibration samples (start and length, in ns) to .npz."""
        np.savez(path, span_names=np.array(SPAN_NAMES),
                 sample_start_ns=(np.array(samples[0]) * 1e9).astype(np.int64),
                 sample_ns=(np.array(samples[1]) * 1e9).astype(np.int64),
                 **self.arrays())

    def per_function(self, samples: tuple[list[float], list[float]]) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self time in ns).

        Self time is a span's duration minus the durations of its child
        spans; the calls are single-threaded, so children never overlap.
        `samples` are the (starts, seconds) of the calibration chunks that a
        timer ran inside the spans; each is taken out of the innermost span
        that holds it.
        """
        a = self.arrays()
        starts, ends, parents = a["start_ns"], a["end_ns"], a["parent"]
        duration = (ends - starts).astype(float)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(duration),
        )
        self_time = duration - child_time
        for start, seconds in zip(*samples):
            lo, length = int(start * 1e9), seconds * 1e9
            sid = int(np.searchsorted(starts, lo, side="right")) - 1
            while sid >= 0 and ends[sid] < lo + length:
                sid = int(parents[sid])
            if sid >= 0:
                self_time[sid] -= length
        n = len(SPAN_NAMES)
        calls = np.bincount(a["name"], minlength=n)
        totals = np.bincount(a["name"], weights=self_time, minlength=n)
        return {span: (int(calls[i]), float(totals[i])) for i, span in enumerate(SPAN_NAMES)}
