"""Outside-in tracing of the library's layers.

``Tracer.install()`` replaces every public function of the layer
modules, in every ``oneshot_qit`` module namespace that holds it, with a
wrapper that records a span; public methods of the classes those
modules define are wrapped in place (a dataclass ``__post_init__`` is
recorded under the class name).  ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh`` are wrapped too, recording how many matrices
of which size each call solved.  ``uninstall()`` restores the originals.

A span is ``(id, name, start_ns, end_ns, parent_id, job, info)``.  Spans
are kept in memory and written out by the caller at the end of a run.
Calls made from worker threads take as parent the innermost open span
of the main thread, which is exact because jobs run one at a time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "cq", "linalg", "divergences", "entropic", "bounds", "rates", "simulate")

# the (4096, z, d, d) complex buffer that simulate_pa fills per chunk
_PA_CHUNK = 4096
_COMPLEX_BYTES = 16

_DS_SPANS = {"divergences.info_spectrum_divergence",
             "divergences.info_spectrum_divergence_bracket"}
_DH_SPANS = {"divergences.hypothesis_test_divergence"}
_EIG_SPANS = {"numpy.eigh", "numpy.eigvalsh"}


def _eig_info(args, kwargs, result) -> dict:
    shape = np.shape(args[0])
    matrices = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    return {"matrices": matrices, "n": int(shape[-1])}


def _simulate_info(args, kwargs, result) -> dict:
    return {"workers": int(kwargs.get("workers", 1)), "items": int(result.samples)}


def _simulate_pa_info(args, kwargs, result) -> dict:
    state, z_size = args[0], int(args[1])
    tables = min(_PA_CHUNK, int(result.samples))
    chunk = tables * z_size * state.dim_b ** 2 * _COMPLEX_BYTES
    return {**_simulate_info(args, kwargs, result), "chunk_mb": chunk / 1e6}


def _search_info(args, kwargs, result) -> dict:
    return {"workers": int(kwargs.get("workers", 1))}


def _type_spectrum_info(args, kwargs, result) -> dict:
    return {"type_classes": int(result.llr.size)}


_INFO = {
    "simulate.simulate_pa": _simulate_pa_info,
    "simulate.simulate_covering": _simulate_info,
    "simulate.search_max_extractable": _search_info,
    "simulate.search_min_codebook": _search_info,
    "cq.iid_type_spectrum": _type_spectrum_info,
    "numpy.eigh": _eig_info,
    "numpy.eigvalsh": _eig_info,
}


class Tracer:
    """Span recorder; create one per run and ``install`` it around traced work."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job: str | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        info = _INFO.get(name)
        cpu = name.startswith("simulate.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            cpu_start = time.process_time_ns() if cpu else 0
            start = time.perf_counter_ns()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if cpu:
                    extra = {**(extra or {}), "cpu_ns": time.process_time_ns() - cpu_start}
                with tracer._lock:
                    tracer.spans.append((sid, name, start, end, parent, tracer.job, extra))

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "oneshot_qit" or name.startswith("oneshot_qit.")]
        for layer in LAYERS:
            module = sys.modules[f"oneshot_qit.{layer}"]
            for attribute, obj in list(vars(module).items()):
                if attribute.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attribute}", obj)
                    for holder in modules:
                        if holder.__dict__.get(attribute) is obj:
                            self._patch(holder, attribute, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for name in ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self.wrap(f"numpy.{name}", getattr(np.linalg, name)))

    def _install_class(self, layer: str, cls) -> None:
        for method, raw in list(vars(cls).items()):
            if method.startswith("_") and method != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}"
            if method != "__post_init__":
                name += f".{method}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, method, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, method, self.wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, in start order of their ids."""
        with open(path, "w") as out:
            for sid, name, start, end, parent, job, info in sorted(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "job": job,
                                      "info": info}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and times (ms) of one pass of traced jobs.

    A span's self time is its duration minus the part of it that its
    child spans cover; a layer's self time sums the self times of its
    spans.  Eigensolver spans form their own layer, ``numpy``.
    """
    spans = sorted(spans)  # parents have lower ids than their children
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))

    self_ns = defaultdict(int)
    count = defaultdict(int)
    ds_root, dh_root, sim_root = {}, {}, {}
    m = defaultdict(float)
    ds_calls = dh_calls = 0
    cpu_ns = busy_ns = 0
    chunk_mb = 0.0
    for sid, name, start, end, parent, _job, info in spans:
        layer = name.split(".", 1)[0]
        count[layer] += 1
        count[name] += 1
        self_ns[layer] += end - start - _covered(start, end, children.get(sid, ()))

        ds_root[sid] = ds_root.get(parent) or (sid if name in _DS_SPANS else None)
        dh_root[sid] = dh_root.get(parent) or (sid if name in _DH_SPANS else None)
        sim_root[sid] = sim_root.get(parent) or (sid if layer == "simulate" else None)
        ds_calls += ds_root[sid] == sid
        dh_calls += dh_root[sid] == sid

        if name == "linalg.as_hermitian":
            m["validate_ns"] += end - start
        elif name in _EIG_SPANS:
            m["eig_ns"] += end - start
            m["eig_matrices"] += info["matrices"]
            m["eig_n3"] += info["matrices"] * info["n"] ** 3
            if ds_root[sid] is not None:
                m["ds_matrices"] += info["matrices"]
            if dh_root[sid] is not None:
                m["dh_eig_calls"] += 1
            if sim_root[sid] is not None:
                m["sim_matrices"] += info["matrices"]
        elif info:
            m["items"] += info.get("items", 0)
            m["type_classes"] += info.get("type_classes", 0)
            chunk_mb = max(chunk_mb, info.get("chunk_mb", 0.0))
            if sim_root[sid] == sid:
                cpu_ns += info["cpu_ns"]
                busy_ns += (end - start) * info.get("workers", 1)

    ms = 1e-6
    return {
        "cli.self_ms": self_ns["cli"] * ms,
        "cq.calls": count["cq"],
        "cq.self_ms": self_ns["cq"] * ms,
        "linalg.validate_calls": count["linalg.as_hermitian"],
        "linalg.validate_ms": m["validate_ns"] * ms,
        "linalg.self_ms": self_ns["linalg"] * ms,
        "linalg.eig_calls": count["numpy"],
        "linalg.eig_matrices": int(m["eig_matrices"]),
        "linalg.eig_ms": m["eig_ns"] * ms,
        "linalg.eig_n3": int(m["eig_n3"]),
        "divergences.ds_calls": ds_calls,
        "divergences.ds_eig_per_call": m["ds_matrices"] / ds_calls if ds_calls else 0.0,
        "divergences.dh_calls": dh_calls,
        "divergences.dh_eig_per_call": m["dh_eig_calls"] / dh_calls if dh_calls else 0.0,
        "divergences.self_ms": self_ns["divergences"] * ms,
        "entropic.self_ms": self_ns["entropic"] * ms,
        "bounds.self_ms": self_ns["bounds"] * ms,
        "rates.type_classes": int(m["type_classes"]),
        "rates.self_ms": self_ns["rates"] * ms,
        "simulate.items": int(m["items"]),
        "simulate.eig_matrices": int(m["sim_matrices"]),
        "simulate.self_ms": self_ns["simulate"] * ms,
        "simulate.cpu_util": cpu_ns / busy_ns if busy_ns else 0.0,
        "simulate.chunk_mb": chunk_mb,
    }
