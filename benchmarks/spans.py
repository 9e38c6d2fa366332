"""In-memory span recording around the package's layer functions.

The traced run replaces each function in ``TARGETS`` by a wrapper at
every module attribute bound to it, so calls resolve to the wrapper
whichever module makes them (``cli.phase_scan`` and ``thermo.phase_scan``
are separate bindings of one function).  Each call records a span: id,
parent id, job id, name, start, end, thread.  Spans stay in memory and
are written out once, when the run ends.

Only the listed functions get spans.  Time spent in an unlisted callee
counts as self time of the nearest listed caller; for ``cli.run`` that is
dispatch, row formatting, writing and the cheap closed forms the handlers
call directly.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
import warnings
from collections import defaultdict
from typing import Callable, Iterable

# (module, function) pairs to wrap, named "<module>.<function>" in spans
TARGETS = (
    ("cli", "parse_config"),
    ("cli", "run"),
    ("thermo", "phase_scan"),
    ("thermo", "order_parameter"),
    ("thermo", "log_partition_ratio"),
    ("matsubara", "fermionic_lorentzian_sum"),
    ("matsubara", "a0_c0_sum"),
    ("spectrum", "collective_modes"),
    ("fermionization", "verify_trace_identity"),
    ("operators", "build_hamiltonian"),
    ("exact_diag", "thermal_solve"),
    ("exact_diag", "photon_density_curve"),
)

JOB_SPAN = "job"

# Per-layer metrics, their unit, and the end-to-end metric and workload
# each should move.  Times and counts are per cycle of the workload's job
# list, so runs that complete different numbers of cycles compare.
PER_LAYER = (
    ("operators.build_hamiltonian.calls", "count/cycle", "rows_per_s, job_p50_ms, peak_rss_mb on ed-ladder"),
    ("operators.build_hamiltonian.self_s", "s/cycle", "rows_per_s, job_p50_ms, peak_rss_mb on ed-ladder"),
    ("operators.build_hamiltonian.bytes_computed", "bytes/cycle", "peak_rss_mb on ed-ladder (computed: sum of 16 dim^2)"),
    ("exact_diag.thermal_solve.calls", "count/cycle", "rows_per_s, job_p50_ms on ed-ladder"),
    ("exact_diag.thermal_solve.self_s", "s/cycle", "rows_per_s, job_p50_ms on ed-ladder"),
    ("exact_diag.thermal_solve.dim3_sum", "count/cycle", "rows_per_s, job_p50_ms on ed-ladder (computed: sum of dim^3)"),
    ("exact_diag.photon_density_curve.self_s", "s/cycle", "rows_per_s on ed-ladder"),
    ("exact_diag.rungs_per_point", "ratio", "rows_per_s on ed-ladder (Hamiltonians built per curve point)"),
    ("thermo.order_parameter.calls", "count/cycle", "rows_per_s on scan-bulk (superradiant half), job_p50_ms on analytic-mix"),
    ("thermo.order_parameter.self_s", "s/cycle", "rows_per_s on scan-bulk (superradiant half), job_p50_ms on analytic-mix"),
    ("matsubara.fermionic_lorentzian_sum.calls", "count/cycle", "rows_per_s on scan-bulk (superradiant half), job_p50_ms on analytic-mix"),
    ("matsubara.fermionic_lorentzian_sum.self_s", "s/cycle", "rows_per_s on scan-bulk (superradiant half), job_p50_ms on analytic-mix"),
    ("thermo.log_partition_ratio.calls", "count/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("thermo.log_partition_ratio.self_s", "s/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("thermo.log_partition_ratio.warnings", "count/cycle", "job_p50_ms, job_p90_ms on analytic-mix (IntegrationWarnings)"),
    ("spectrum.collective_modes.calls", "count/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("spectrum.collective_modes.self_s", "s/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("spectrum.collective_modes.roots", "count/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("matsubara.a0_c0_sum.calls", "count/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("matsubara.a0_c0_sum.self_s", "s/cycle", "job_p50_ms, job_p90_ms on analytic-mix"),
    ("fermionization.verify_trace_identity.calls", "count/cycle", "job_p90_ms on analytic-mix (validate jobs)"),
    ("fermionization.verify_trace_identity.self_s", "s/cycle", "job_p90_ms on analytic-mix (validate jobs)"),
    ("thermo.phase_scan.self_s", "s/cycle", "rows_per_s on scan-bulk (thread pool and per-node dispatch)"),
    ("thermo.phase_scan.nodes", "count/cycle", "rows_per_s on scan-bulk"),
    ("cli.parse_config.self_s", "s/cycle", "rows_per_s on scan-bulk (normal-phase half)"),
    ("cli.run.self_s", "s/cycle", "rows_per_s on scan-bulk (normal-phase half)"),
    ("cli.output_bytes", "bytes/cycle", "rows_per_s on scan-bulk (normal-phase half)"),
    ("trace.job_s", "s/cycle", "none: traced job time, the sum every self_s above is part of"),
    ("trace.overhead", "ratio", "none: untraced rows_per_s over traced rows_per_s"),
)


def _counts(name: str, result) -> Iterable[tuple[str, float]]:
    """Counters recorded where the work happens, from arguments and results."""
    if name == "operators.build_hamiltonian":
        yield "bytes_computed", 16.0 * result.dimension**2
    elif name == "exact_diag.thermal_solve":
        yield "dim3_sum", float(len(result.eigenvalues)) ** 3
    elif name == "exact_diag.photon_density_curve":
        yield "points", float(len(result))
    elif name == "spectrum.collective_modes":
        yield "roots", float(len(result.roots))
    elif name == "thermo.phase_scan":
        yield "nodes", float(len(result))


class Tracer:
    """Records spans for the current job; not reentrant across jobs.

    Calls may come from the worker threads of a ``phase_scan`` pool, so
    counter updates hold a lock.  ``warnings.catch_warnings`` is not
    thread-safe either; it is used only around ``log_partition_ratio``,
    which the CLI calls on its own thread.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self.job_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread started inside a span: its caller is the span
        # open on the job's own thread
        return self._root_stack[-1] if self._root_stack else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        span_id = next(self._ids)
        parent = self._parent(stack)
        stack.append(span_id)
        caught = None
        start = time.perf_counter()
        try:
            if name == "thermo.log_partition_ratio":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.job_id, name, start, end, threading.get_ident()))
        with self._lock:
            self.counts[name + ".calls"] += 1
            if caught is not None:
                self.counts[name + ".warnings"] += sum(
                    1 for w in caught if w.category.__name__ == "IntegrationWarning"
                )
            for key, value in _counts(name, result):
                self.counts[f"{name}.{key}"] += value
        return result

    def job(self, job_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of job ``job_id``."""
        self.job_id = job_id
        self._root_stack = self._stack()
        return self.call(JOB_SPAN, fn, args, {})

    def _originals(self, package: str):
        for module_name, func_name in TARGETS:
            home = sys.modules.get(f"{package}.{module_name}")
            yield f"{module_name}.{func_name}", getattr(home, func_name, None)

    def missing(self, package: str = "dicketherm") -> list[str]:
        """Targets the imported package does not define."""
        return [name for name, original in self._originals(package) if original is None]

    def install(self, package: str = "dicketherm") -> None:
        """Wrap every target at each binding in the package."""
        if self._restore:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for name, original in self._originals(package):
            if original is None:
                continue
            wrapper = self._wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, job_id, name, start, end, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job_id, "name": name,
                                     "start": start, "end": end, "thread": thread}) + "\n")


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children may overlap (worker threads), so the covered part is the
    length of the union of their intervals clipped to the parent's.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _job, _name, start, end, _thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _parent, _job, _name, start, end, _thread in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-cycle per-layer values from the recorded spans and counters."""
    per_name: dict[str, float] = defaultdict(float)
    selfs = self_times(tracer.spans)
    for span in tracer.spans:
        per_name[span[3]] += selfs[span[0]]
    job_s = sum(end - start for _i, _p, _j, name, start, end, _t in tracer.spans if name == JOB_SPAN)
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric, _unit, _moves in PER_LAYER:
        if metric.endswith(".self_s"):
            values[metric] = per_name[metric[: -len(".self_s")]] / cycles
        elif metric == "exact_diag.rungs_per_point":
            points = counts["exact_diag.photon_density_curve.points"]
            values[metric] = counts["operators.build_hamiltonian.calls"] / points if points else 0.0
        elif metric == "trace.job_s":
            values[metric] = job_s / cycles
        elif metric == "trace.overhead":
            continue
        else:
            values[metric] = counts[metric] / cycles
    return values
