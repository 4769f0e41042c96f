"""In-memory span tracer wrapped around the public stage functions of ``kmu``.

Nothing under ``src/`` is edited: ``install`` replaces each stage
function with a timing wrapper in every ``kmu`` module that imported it,
and ``uninstall`` puts the originals back.  A span records its name,
start, end, parent span, request id and thread.  Spans opened on a
worker thread with no open span of their own (the sweep pool) take the
innermost open span of the request thread as parent, so they nest under
their own request.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (metric stem, defining module, function).  Each stem yields a per-run
# self-time metric ``<stem>_s`` and a call count ``<stem>.calls``.
STAGES = (
    ("liealg.build", "kmu.liealg", "build_boeckx_model"),
    ("liealg.jacobi", "kmu.liealg", "check_jacobi"),
    ("connection.levi_civita", "kmu.connection", "levi_civita"),
    ("connection.torsion", "kmu.connection", "torsion_residuals"),
    ("connection.compat", "kmu.connection", "metric_compatibility_residuals"),
    ("connection.riemann", "kmu.connection", "riemann"),
    ("connection.symmetries", "kmu.connection", "curvature_symmetry_residuals"),
    ("contact.axioms", "kmu.contact", "check_contact_axioms"),
    ("contact.attach_h", "kmu.contact", "attach_h"),
    ("contact.kappa_mu", "kmu.contact", "extract_kappa_mu"),
    ("contact.identities", "kmu.contact", "verify_identities"),
    ("pipeline.analyze_structure", "kmu.pipeline", "analyze_structure"),
    ("pipeline.sectional", "kmu.pipeline", "sectional_records"),
    ("deformation.d_homothetic", "kmu.deformation", "d_homothetic"),
    ("submanifold.build_distribution", "kmu.submanifold", "build_distribution"),
    ("submanifold.sff", "kmu.submanifold", "second_fundamental_form"),
    ("submanifold.split_h", "kmu.submanifold", "split_h"),
    ("submanifold.split_identities", "kmu.submanifold", "verify_split_identities"),
    ("submanifold.prop32", "kmu.submanifold", "verify_prop32"),
    ("submanifold.gauss_codazzi", "kmu.submanifold", "gauss_codazzi_residuals"),
    ("submanifold.intrinsic_curvature", "kmu.submanifold", "intrinsic_curvature"),
    ("submanifold.leaf_curvature", "kmu.submanifold", "leaf_curvature_records"),
    ("submanifold.analyze", "kmu.submanifold", "analyze_submanifold"),
    ("cli.report", "kmu.cli", "build_report"),
    ("cli.report", "kmu.cli", "sweep_report"),
    ("cli.emit", "kmu.cli", "_emit"),
    ("cli.sweep_point", "kmu.cli", "_sweep_point"),
)

# analyze_structure on a deformed structure is the deformation's re-analysis.
REANALYSIS = "deformation.reanalysis"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    rid: str | None
    name: str
    start: float
    end: float
    thread: int


def _nonzero(values) -> int:
    return sum(1 for x in values if x)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rid = None
        self._request_stack = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            request_stack = self._request_stack
            parent = request_stack[-1] if request_stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, start):
        end = time.perf_counter()
        stack.pop()
        span = Span(sid, parent, self._rid, name, start, end, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def request(self, rid: str):
        """Root span of one request; stage spans inside it carry ``rid``."""
        self._rid = rid
        stack, sid, parent = self._open()
        self._request_stack = stack
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, "request", start)
            self._request_stack = None
            self._rid = None

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def _after(self, stem: str, result) -> None:
        """Counts read from a stage's returned tables or records."""
        if stem == "connection.levi_civita":
            self._count("gamma.nonzero", sum(_nonzero(v) for row in result.gamma for v in row))
            self._count("gamma.entries", result.dim ** 3)
        elif stem == "connection.riemann":
            self._count(
                "riemann.nonzero",
                sum(_nonzero(v) for plane in result.table for row in plane for v in row),
            )
            self._count("riemann.entries", result.dim ** 4)
        elif stem in ("pipeline.analyze_structure", "submanifold.analyze"):
            records = result.records if stem == "pipeline.analyze_structure" else result[1]
            self._count("records", len(records))
            self._count("records_failed", sum(1 for r in records if not r.passed))

    def _wrap(self, stem: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = stem
            if stem == "pipeline.analyze_structure":
                deformed = len(args) > 1 or kwargs.get("cs") is not None
                name = REANALYSIS if deformed else stem
            stack, sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, name, start)
            self._after(stem, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kmu" or name.startswith("kmu."))]
        for stem, module_name, func_name in STAGES:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(stem, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children on worker threads can overlap each other, so the covered
    part of the parent is the union of their intervals, not their sum.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children[span.sid]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = span.end - span.start - covered
    return out


def layer_metrics(tracer: Tracer, workers: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced phase."""
    own = self_times(tracer.spans)
    seconds, calls, inclusive = defaultdict(float), defaultdict(int), defaultdict(float)
    for span in tracer.spans:
        seconds[span.name] += own[span.sid]
        calls[span.name] += 1
        inclusive[span.name] += span.end - span.start
    # the re-analysis is still analyze_structure: its own time stays there
    seconds["pipeline.analyze_structure"] += seconds.pop(REANALYSIS, 0.0)
    out = {}
    for stem in dict.fromkeys(stem for stem, _, _ in STAGES):
        if stem == "cli.sweep_point":
            continue
        out[f"{stem}_s"] = (seconds[stem], "s")
        out[f"{stem}.calls"] = (calls[stem], "count")
    out[f"{REANALYSIS}_s"] = (inclusive[REANALYSIS], "s")
    out[f"{REANALYSIS}.calls"] = (calls[REANALYSIS], "count")
    counts = tracer.counts
    out["connection.gamma_nonzero_frac"] = (
        counts["gamma.nonzero"] / counts["gamma.entries"] if counts["gamma.entries"] else 0.0,
        "ratio",
    )
    out["connection.riemann_nonzero_frac"] = (
        counts["riemann.nonzero"] / counts["riemann.entries"] if counts["riemann.entries"] else 0.0,
        "ratio",
    )
    sweeps = {s.parent for s in tracer.spans if s.name == "cli.sweep_point"}
    sweep_wall = sum(s.end - s.start for s in tracer.spans if s.sid in sweeps)
    busy = inclusive["cli.sweep_point"]
    out["cli.sweep_busy_ratio"] = (busy / (sweep_wall * workers) if sweep_wall else 0.0, "ratio")
    out["report.records"] = (counts["records"], "count")
    out["report.records_failed"] = (counts["records_failed"], "count")
    return out

