"""Outside-in tracer: wraps the package's public functions from outside ``src/``.

Each listed function is replaced, in every ``spectraledge`` module namespace
that holds it, by a wrapper that records one span per call.  Spans live in
memory until the run ends; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
from spectraledge.errors import SpectralEdgeError

# (module, function) pairs the traced run wraps.
WRAPPED = (
    ("spectrum", "load_spectrum"), ("spectrum", "with_size"),
    ("stieltjes", "solve_stieltjes"),
    ("edge", "phi_family"), ("edge", "find_edge"), ("edge", "gamma0"), ("edge", "edge_residuals"),
    ("flow", "flow_state"), ("flow", "flow_derivative_check"),
    ("identities", "edge_functionals"), ("identities", "identity_residuals"),
    ("tracywidom", "f1_cdf"), ("tracywidom", "f1_pdf"), ("tracywidom", "tw_table"),
    ("montecarlo", "sample_matrix"), ("montecarlo", "largest_eigenvalue"),
    ("montecarlo", "ks_distance"), ("montecarlo", "run_ensemble"),
    ("locallaw", "locallaw_deviation"), ("locallaw", "build_linearization"),
    ("cli", "emit_csv"), ("cli", "emit_json"),
)

# Name of the span the runner opens around each CLI command.
COMMAND_SPAN = "cli.run_command"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    command: int
    failed: bool
    extra: tuple


def _extra(name: str, args, kwargs, result) -> tuple:
    """Counters taken from a call's arguments or result at the layer boundary."""
    if result is None:
        return ()
    if name == "stieltjes.solve_stieltjes":
        return (result.iterations, result.residual)
    if name in ("montecarlo.sample_matrix", "locallaw.build_linearization"):
        return (result.nbytes,)
    if name in ("cli.emit_csv", "cli.emit_json"):
        return (len(result.encode()),)
    if name == "montecarlo.run_ensemble":
        return (kwargs.get("threads", 1),)
    return ()


class Tracer:
    """Span recorder.  Not reentrant: one command runs at a time, as in the benchmark."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command = 0
        self._command_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread (run_ensemble's or cli._pmap's pool) starts with an
        # empty stack: its spans belong to the span the command thread has open,
        # which is run_ensemble inside simulate and the command span inside locallaw.
        try:
            return self._command_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            failed = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except SpectralEdgeError:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(),
                                       self._command, failed, _extra(name, args, kwargs, result)))

        return wrapper

    @contextmanager
    def command(self, label: str):
        """Open the root span of one CLI command; yields a dict for its exit code."""
        self._command += 1
        stack = self._stack()
        self._command_stack = stack
        span_id = next(self._ids)
        stack.append(span_id)
        outcome = {"rc": None}
        start = time.perf_counter()
        try:
            yield outcome
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, COMMAND_SPAN, start, end, None, threading.get_ident(),
                                   self._command, outcome["rc"] != 0, (label,)))

    def install(self) -> None:
        """Replace every listed function in every loaded ``spectraledge`` namespace."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, fn_name in WRAPPED:
            original = getattr(importlib.import_module(f"spectraledge.{module_name}"), fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "spectraledge" or mod_name.startswith("spectraledge.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original function object back where ``install`` found it."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the part of it covered by child spans.

    Children on other threads count too; overlapping children are merged so
    that covered time is never counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(span.id, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span.id] = (span.end - span.start) - covered
    return out


def _percentile_ms(durations, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans, traced_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), averaged per traced pass.

    Every wrapped function reports ``.calls``, ``.self_s`` and ``.failed``
    (SpectralEdgeError raises); a function a workload never calls reports 0.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    per_pass = 1.0 / traced_passes
    out = {}
    for name in [f"{m}.{f}" for m, f in WRAPPED] + [COMMAND_SPAN]:
        group = by_name.get(name, [])
        out[f"{name}.calls"] = (len(group) * per_pass, "count")
        out[f"{name}.self_s"] = (sum(selfs[s.id] for s in group) * per_pass, "s")
        out[f"{name}.failed"] = (sum(s.failed for s in group) * per_pass, "count")

    def durations(name):
        return [s.end - s.start for s in by_name.get(name, [])]

    stj = [s for s in by_name.get("stieltjes.solve_stieltjes", []) if s.extra]
    out["stieltjes.solve_stieltjes.iterations"] = (sum(s.extra[0] for s in stj) * per_pass, "count")
    out["stieltjes.solve_stieltjes.max_residual"] = (max((s.extra[1] for s in stj), default=0.0), "1")
    out["stieltjes.solve_stieltjes.p50_ms"] = (_percentile_ms(durations("stieltjes.solve_stieltjes"), 50), "ms")
    out["stieltjes.solve_stieltjes.p90_ms"] = (_percentile_ms(durations("stieltjes.solve_stieltjes"), 90), "ms")
    finds = len(by_name.get("edge.find_edge", []))
    phis = len(by_name.get("edge.phi_family", []))
    out["edge.phi_family.calls_per_find_edge"] = (phis / finds if finds else 0.0, "count")
    out["tracywidom.f1_cdf.p50_ms"] = (_percentile_ms(durations("tracywidom.f1_cdf"), 50), "ms")
    out["montecarlo.largest_eigenvalue.p50_ms"] = (_percentile_ms(durations("montecarlo.largest_eigenvalue"), 50), "ms")
    out["montecarlo.largest_eigenvalue.p90_ms"] = (_percentile_ms(durations("montecarlo.largest_eigenvalue"), 90), "ms")
    for name in ("montecarlo.sample_matrix", "locallaw.build_linearization"):
        computed = sum(s.extra[0] for s in by_name.get(name, []) if s.extra)
        out[f"{name}.bytes_computed"] = (computed * per_pass, "B")
    out["montecarlo.run_ensemble.parallel_eff"] = (_parallel_efficiency(spans, by_name), "ratio")
    written = sum(s.extra[0] for n in ("cli.emit_csv", "cli.emit_json") for s in by_name.get(n, []) if s.extra)
    out["cli.bytes_written"] = (written * per_pass, "B")
    return out


def _parallel_efficiency(spans, by_name) -> float:
    """Mean over run_ensemble calls of summed trial time / (trial-phase wall x threads).

    A trial is the sample_matrix and largest_eigenvalue spans run_ensemble
    causes, on whichever thread ran them.
    """
    ensembles = [s for s in by_name.get("montecarlo.run_ensemble", []) if s.extra]
    if not ensembles:
        return 0.0
    trial_names = ("montecarlo.sample_matrix", "montecarlo.largest_eigenvalue")
    trials = defaultdict(list)
    for span in spans:
        if span.name in trial_names and span.parent is not None:
            trials[span.parent].append(span)
    effs = []
    for ens in ensembles:
        group = trials.get(ens.id, [])
        if not group:
            continue
        busy = sum(s.end - s.start for s in group)
        wall = max(s.end for s in group) - min(s.start for s in group)
        effs.append(busy / (wall * ens.extra[0]) if wall > 0 else 0.0)
    return float(np.mean(effs)) if effs else 0.0


def command_self_times(spans, traced_passes: int) -> dict[str, dict[str, float]]:
    """Self time per layer within each command label, per traced pass."""
    selfs = self_times(spans)
    labels = {s.command: s.extra[0] for s in spans if s.name == COMMAND_SPAN}
    out = defaultdict(lambda: defaultdict(float))
    for span in spans:
        out[labels[span.command]][span.name] += selfs[span.id] / traced_passes
    return {label: dict(layers) for label, layers in out.items()}
