"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the eight layer modules
(and the draw methods of ``SplitMix64``) and rebinds each wrapped name in
every ``puritylab`` module that holds it, so aliases such as
``sweep.delta_of`` or ``density.hermitian_eig`` and call-time imports such as
``from .states import ppt_entangled`` all reach the wrapper.  A wrapper
records one span (label, start, end, parent) in flat arrays kept in memory;
``uninstall`` restores the originals.  Self time is a span's duration minus
the time its child spans cover.

Three leaf helpers stay unwrapped, because their cost belongs to the caller
and they run once per printed number or per matrix argument:
``fileio.format_value``, ``linalg.as_square_matrix`` and
``linalg.hermiticity_defect``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("prng", "density", "linalg", "inequalities", "states", "sweep",
          "fileio", "cli")
UNWRAPPED = {"format_value", "as_square_matrix", "hermiticity_defect"}
PRNG_METHODS = ("next_u64", "uniform", "normal", "complex_normal")
EIG_DIMS = (2, 3, 4, 6, 9)

# Per-layer metric groups: (metric prefix, labels counted as calls, labels
# whose self time is summed).
_STATE_BUILDERS = ("x_state", "x_state_matrix", "werner_params", "werner_state",
                   "beta_params", "beta_state", "gisin_state", "gisin_matrix",
                   "random_x_params")
_WRITERS = ("emit_csv", "csv_lines", "write_scan_report", "scan_report_json",
            "write_matrix_file")
GROUPS = (
    ("linalg.power", ("linalg.psd_matrix_power",), ()),
    ("density.sample", ("density.random_density", "density.random_separable"),
     ("density.random_density", "density.random_separable", "density.ginibre")),
    ("density.validate", ("density.make_density",), ("density.make_density",)),
    ("density.reduce",
     ("density.partial_trace_over_1", "density.partial_trace_over_2",
      "density.block_trace_map", "density.block_sum_map"),
     ("density.partial_trace_over_1", "density.partial_trace_over_2",
      "density.block_trace_map", "density.block_sum_map")),
    ("inequalities.delta", (), ("inequalities.delta", "inequalities.mu_tilde")),
    ("inequalities.audit", ("inequalities.audit_reports",),
     ("inequalities.audit_reports", "inequalities.check_eq5",
      "inequalities.check_eq6", "inequalities.check_eq8",
      "inequalities.check_eq9", "inequalities.check_eq10")),
    ("inequalities.roots", (), ("inequalities.find_delta_roots",)),
    ("states.ppt", ("states.ppt_entangled",), ("states.ppt_entangled",)),
    ("states.build", tuple(f"states.{n}" for n in _STATE_BUILDERS),
     tuple(f"states.{n}" for n in _STATE_BUILDERS)),
    ("fileio.write", (), tuple(f"fileio.{n}" for n in _WRITERS)),
    ("fileio.read", (), ("fileio.read_matrix_file",)),
)


class Tracer:
    """Spans of one traced run, stored as parallel arrays indexed by span id."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.parent = array("q")
        self.label = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("q")      # ids of spans that ended in an exception
        self._stack = [-1]
        self._last_eig = [None]
        self.clamped = 0
        self.write_bytes = 0
        self.read_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    def label_id(self, text: str) -> int:
        lid = self._label_ids.get(text)
        if lid is None:
            lid = self._label_ids[text] = len(self.labels)
            self.labels.append(text)
        return lid

    def root(self, label: str, fn):
        """fn wrapped so that each call records a root span ``label``."""
        return self._wrap(fn, self.label_id(label))

    def _wrap(self, fn, lid, label_of=None, after=None):
        parent, label, start, end = self.parent, self.label, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            label.append(label_of(args) if label_of else lid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                start[sid], end[sid] = t0, t1
                raised.append(sid)
                raise
            t1 = clock()
            stack.pop()
            start[sid], end[sid] = t0, t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _hooks(self, layer: str, name: str):
        """Label and post-call hooks for the functions that feed counters."""
        if (layer, name) == ("linalg", "hermitian_eig"):
            ids = {}

            def label_of(args):
                dim = np.shape(args[0])[0]
                if dim not in ids:
                    ids[dim] = self.label_id(f"linalg.hermitian_eig.d{dim}")
                return ids[dim]

            def after(args, kwargs, out):
                self._last_eig[0] = out.values
            return label_of, after
        if (layer, name) == ("linalg", "psd_matrix_power"):
            def after(args, kwargs, out):
                self.clamped += int((self._last_eig[0] < 0).sum())
            return None, after
        if layer == "fileio" and name in ("emit_csv", "write_scan_report"):
            def after(args, kwargs, out):
                self.write_bytes += os.path.getsize(kwargs.get("path", args[1]))
            return None, after
        if (layer, name) == ("fileio", "write_matrix_file"):
            def after(args, kwargs, out):
                self.write_bytes += os.path.getsize(kwargs.get("path", args[0]))
            return None, after
        if (layer, name) == ("fileio", "read_matrix_file"):
            def after(args, kwargs, out):
                self.read_bytes += os.path.getsize(kwargs.get("path", args[0]))
            return None, after
        return None, None

    def install(self) -> None:
        from puritylab.prng import SplitMix64

        for layer in LAYERS:
            importlib.import_module(f"puritylab.{layer}")

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"puritylab.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    label_of, after = self._hooks(layer, name)
                    wrappers[id(obj)] = self._wrap(
                        obj, self.label_id(f"{layer}.{name}"), label_of, after)
        for name in PRNG_METHODS:
            original = vars(SplitMix64)[name]
            self._patches.append((SplitMix64, name, original))
            setattr(SplitMix64, name,
                    self._wrap(original, self.label_id(f"prng.{name}")))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "puritylab"
                                      or modname.startswith("puritylab.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _by_label(self) -> tuple[np.ndarray, np.ndarray]:
        """Span count and summed self time per label.  A span's self time is
        its duration minus the durations of its children, which never
        overlap one another."""
        label = np.frombuffer(self.label, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) \
            - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.labels)
        return (np.bincount(label, minlength=n),
                np.bincount(label, weights=self_s, minlength=n))

    def eig_counts(self) -> dict[int, int]:
        """Eigensolves per matrix dimension."""
        calls_by, _ = self._by_label()
        prefix = "linalg.hermitian_eig.d"
        return {int(t[len(prefix):]): int(calls_by[i])
                for i, t in enumerate(self.labels) if t.startswith(prefix)}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times summed over every recorded span."""
        calls_by, self_by = self._by_label()
        idx = {text: i for i, text in enumerate(self.labels)}

        def calls(labels):
            return int(sum(calls_by[idx[t]] for t in labels if t in idx))

        def self_sum(labels):
            return float(sum(self_by[idx[t]] for t in labels if t in idx))

        out: dict[str, tuple[float, str]] = {}
        eig = [t for t in self.labels if t.startswith("linalg.hermitian_eig.d")]
        out["linalg.eig.calls"] = (calls(eig), "count")
        for dim in EIG_DIMS:
            text = f"linalg.hermitian_eig.d{dim}"
            out[f"linalg.eig.d{dim}.calls"] = (calls([text]), "count")
            out[f"linalg.eig.d{dim}.self_s"] = (self_sum([text]), "s")
        for prefix, call_labels, self_labels in GROUPS:
            if call_labels:
                out[f"{prefix}.calls"] = (calls(call_labels), "count")
            if self_labels:
                out[f"{prefix}.self_s"] = (self_sum(self_labels), "s")
        out["linalg.clamped"] = (self.clamped, "count")
        out["prng.draws"] = (calls(["prng.next_u64"]), "count")

        # Failures counted where they leave the layer: a raising linalg span
        # whose caller is not itself in linalg.
        def label_of(sid):
            return self.labels[self.label[sid]] if sid >= 0 else "bench.call"

        raised = [label_of(sid) for sid in self.raised]
        callers = [label_of(self.parent[sid]) for sid in self.raised]
        out["linalg.failures"] = (sum(
            own.startswith("linalg.") and not caller.startswith("linalg.")
            for own, caller in zip(raised, callers)), "count")
        out["density.validate.failures"] = (raised.count("density.make_density"), "count")

        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = (
                self_sum([t for t in self.labels if t.split(".")[0] == layer]), "s")
        out["fileio.write.bytes"] = (self.write_bytes, "B")
        out["fileio.read.bytes"] = (self.read_bytes, "B")
        return out

    def dump(self, path: str) -> None:
        """Write every span (label id, parent id, start, end) and the label
        table to a compressed .npz file."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            raised=np.frombuffer(self.raised, dtype=np.int64),
        )
