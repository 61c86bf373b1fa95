"""Span and counter tracer that wraps qcvv's public functions from outside.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` replaces each
wrapped function in every ``qcvv`` module namespace that binds it (``rb``,
``fidelity``, ``cycles``, ``tomography``, ``volumetrics`` and ``cli`` import
device functions by name, so patching ``qcvv.device`` alone would miss their
calls) and each wrapped method on its class; :meth:`Tracer.uninstall`
restores the originals.  A name that no longer exists is recorded in
``absent`` instead of failing, so the benchmark keeps running after the
program drops or renames a function.

Spans are kept in memory as ``(layer, name, start, end, parent)`` tuples and
written out by the caller at the end of the run.  A layer's self time is the
sum over its spans of the span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import warnings

# (layer, module, attribute path) -> timed spans.
SPANS = [
    ("cliffords.enumerate", "qcvv.cliffords", "clifford_group_1q"),
    ("cliffords.enumerate", "qcvv.cliffords", "clifford_group_2q"),
    ("rb.generate", "qcvv.rb", "crb_circuits"),
    ("rb.generate", "qcvv.rb", "mirror_circuit"),
    ("rb.generate", "qcvv.rb", "interleaved_rb"),
    ("rb.generate", "qcvv.rb", "run_crb"),
    ("rb.generate", "qcvv.rb", "birb"),
    ("rb.generate", "qcvv.rb", "mrb"),
    ("rb.fit", "qcvv.rb", "fit_decay"),
    ("fidelity.generate", "qcvv.fidelity", "accredit"),
    ("fidelity.generate", "qcvv.fidelity", "mcfe"),
    ("device.dense", "qcvv.device", "circuit_probabilities"),
    ("device.dense", "qcvv.device", "sample_counts"),
    ("device.fast", "qcvv.device", "pauli_fastpath_sample"),
    ("device.fast", "qcvv.device", "pauli_fastpath_signs"),
    ("device.propagate", "qcvv.device", "propagate_pauli"),
    ("device.propagate", "qcvv.device", "ideal_outcome_bits"),
    ("cycles.aces", "qcvv.cycles", "aces"),
    ("tomography.dataset", "qcvv.tomography", "qst_dataset"),
    ("tomography.dataset", "qcvv.tomography", "qpt_dataset"),
    ("tomography.dataset", "qcvv.tomography", "qmt_dataset"),
    ("tomography.estimate", "qcvv.tomography", "qst"),
    ("tomography.estimate", "qcvv.tomography", "qpt"),
    ("tomography.estimate", "qcvv.tomography", "run_lgst"),
    ("tomography.gauge", "qcvv.tomography", "gauge_optimize"),
    ("cli.self", "qcvv.cli", "main"),
]

# (counter, module, attribute path) -> call counts without spans; these sit
# on the hottest paths, where a span per call would dominate the trace.
COUNTS = [
    ("cliffords.tableau_calls", "qcvv.cliffords", "CliffordTableau.then"),
    ("cliffords.tableau_calls", "qcvv.cliffords", "CliffordTableau.inverse"),
    ("cliffords.tableau_calls", "qcvv.cliffords", "CliffordTableau.conjugate"),
    ("cliffords.inverse_calls", "qcvv.cliffords", "CliffordTableau.inverse"),
    ("device.resolve_calls", "qcvv.device", "GateSetModel.resolve"),
    ("channels.from_unitary_calls", "qcvv.channels", "Channel.from_unitary"),
]

LAYERS = sorted({layer for layer, _, _ in SPANS})
# every counter the tracer keeps, including those the wrappers derive
COUNTERS = sorted({name for name, _, _ in COUNTS} | {
    "rb.fit_calls", "rb.fit_failures", "device.dense_circuits", "device.dense_shots",
    "device.fast_circuits", "device.fast_shots", "device.propagate_calls", "cycles.floored_estimates",
})


def _shots_arg(fn):
    """Extractor of the ``shots`` argument of ``fn``, or None."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if "shots" not in sig.parameters:
        return None

    def get(args, kwargs):
        return int(sig.bind(*args, **kwargs).arguments["shots"])

    return get


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _span_wrapper(self, layer, name, fn):
        shots_of = _shots_arg(fn) if layer in ("device.dense", "device.fast") else None
        short = layer.split(".")[-1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if shots_of is not None:
                self.count(f"device.{short}_shots", shots_of(args, kwargs))
            if name in ("circuit_probabilities", "pauli_fastpath_sample", "pauli_fastpath_signs"):
                self.count(f"device.{short}_circuits")
            if layer == "device.propagate":
                self.count("device.propagate_calls")
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([layer, name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                if layer == "rb.fit":
                    return self._fit(fn, args, kwargs)
                if layer == "cycles.aces":
                    return self._aces(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = time.perf_counter()

        return wrapper

    def _fit(self, fn, args, kwargs):
        self.count("rb.fit_calls")
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.count("rb.fit_failures")
            raise
        if not (math.isfinite(out.f) and math.isfinite(out.f_err)):
            self.count("rb.fit_failures")
        return out

    def _aces(self, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(*args, **kwargs)
        for w in caught:
            if "floored" in str(w.message):
                self.count("cycles.floored_estimates")
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out

    def _count_wrapper(self, names, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name in names:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def _resolve(self, module, path):
        """(owner, attribute, raw attribute value) or None when absent."""
        owner = sys.modules.get(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            self.absent.append(f"{module}.{path}")
            return None
        return owner, parts[-1], vars(owner)[parts[-1]]

    def install(self):
        """Patch every wrapped name; the qcvv modules must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for layer, module, path in SPANS:
            found = self._resolve(module, path)
            if found is None:
                continue
            _, attr, fn = found
            wrapper = self._span_wrapper(layer, attr, fn)
            for mod in [m for k, m in sys.modules.items() if k == "qcvv" or k.startswith("qcvv.")]:
                if vars(mod).get(attr) is fn:
                    self._patch(mod, attr, fn, wrapper)
        by_target = {}
        for counter, module, path in COUNTS:
            by_target.setdefault((module, path), []).append(counter)
        for (module, path), counters in by_target.items():
            found = self._resolve(module, path)
            if found is None:
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._count_wrapper(counters, raw.__func__))
            else:
                wrapped = self._count_wrapper(counters, raw)
            self._patch(owner, attr, raw, wrapped)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- summary -------------------------------------------------------------
    def self_times(self):
        """Seconds of self time per layer (closed spans only)."""
        child = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent in self.spans:
            if parent >= 0 and t1 is not None:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (layer, name, t0, t1, parent) in enumerate(self.spans):
            if t1 is not None:
                out[layer] += (t1 - t0) - child[i]
        return out

    def dump(self):
        return {
            "absent": list(self.absent),
            "counts": dict(self.counts),
            "spans": [
                {"layer": layer, "name": name, "start": t0, "end": t1, "parent": parent}
                for layer, name, t0, t1, parent in self.spans
            ],
        }
