"""In-process stage times and Fraction operation counts, as one JSON object.

Usage, from the repository root:

    python3 tools/stage_times.py

``kmu`` is imported from ``src/`` of the same checkout, so the script can
be copied into another checkout, together with ``tools/ab_time.py``
(whose ``reference_descriptor`` and ``request_argv`` it uses), and run
there to compare two trees.  It uses the standard library only.

* ``stages``: ``analyze_structure`` on a freshly built Boeckx model
  (alpha = 1, beta = 3), and ``levi_civita``, ``riemann``,
  ``curvature_symmetry_residuals``, ``verify_structure`` and
  ``verify_identities`` on that model's analysis, at n in ``SIZES``, each
  timed with ``time.perf_counter`` around one call, best of ``REPEATS``,
  in milliseconds; and the least-squares slope of log(time) against
  log(dim) over the sizes.  The symmetry scan gets a fresh copy of the
  curvature table on every call, so it reuses nothing a previous call
  may have cached on the table.  ``analyze_structure[deformed]`` and
  ``verify_identities[deformed]`` time the same stages on the model's
  structure deformed by a = ``DEFORMATION_A``, as a ``deform`` request
  re-analyses it: on the same model, whose Jacobi check is cached;
  ``sectional_records`` is timed on both structures.  The leaf stages
  ``second_fundamental_form``, ``verify_split_identities``,
  ``verify_prop32``, ``gauss_codazzi_residuals`` and
  ``leaf_curvature_records`` are timed the same way on the native
  model's x leaf and on its diagonal leaf (c, d) = (2, 1), each named
  with its leaf, as in ``gauss_codazzi_residuals[diagonal]``;
  ``second_fundamental_form`` builds the whole leaf, the split of h
  included.
* ``requests``: two requests of ``perfbench/catalogue.json``, run through
  ``kmu.cli.main`` as the command line would, with the report discarded:
  ``deform3x0`` (a ``deform`` at n = 3 with alpha, beta and a of height
  about 10^3) and ``leaves0`` (a ``verify`` at n = 5 with nine leaves).
  For each, after one warm-up request, the number of calls to Fraction's
  arithmetic operators (+ - * / ** with their reflected forms, unary -
  and +, abs) during one request, and the number of Python function
  calls, the ``call`` events of ``sys.setprofile``, which also count
  each resumption of a generator.  Both counts repeat exactly, where
  stage times swing between runs on a shared machine; request times are
  left to ``perfbench/run.py``, which calibrates them against the
  machine's speed.
* ``stage_counts``: the same two counts per stage, on one ``verify`` of
  the reference descriptor (``ab_time.reference_descriptor``: alpha = 1,
  beta = 3, deformation_a = 2, the x, y and diag(2, 1) leaves and, for
  n >= 3, the mixed k = 2 leaf) at n in ``COUNT_SIZES``, after one
  warm-up.  A stage's counts are inclusive (``riemann`` is also counted
  in ``analyze_structure``) and summed over its calls in the request
  (``analyze_structure`` runs on the native and the deformed structure,
  the leaf stages once per leaf, ``check_jacobi``, the dense i < j < k
  sweep, once per model), and ``verify`` is the whole request.
  ``slope_by_n`` is the log-log slope against dim from the size before,
  as in ``"32"`` for dim 33 to 65.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ab_time import reference_descriptor, request_argv  # noqa: E402
from kmu import (  # noqa: E402
    analyze_structure,
    analyze_submanifold,
    build_boeckx_model,
    check_jacobi,
    d_homothetic,
    riemann,
    verify_identities,
)
from kmu.connection import curvature_symmetry_residuals, levi_civita  # noqa: E402
from kmu.contact import check_contact_axioms, verify_structure  # noqa: E402
from kmu.pipeline import sectional_records  # noqa: E402
from kmu.submanifold import (  # noqa: E402
    build_distribution,
    eigen_split,
    gauss_codazzi_residuals,
    leaf_curvature_records,
    second_fundamental_form,
    verify_prop32,
    verify_split_identities,
)
from kmu.cli import main as kmu_main  # noqa: E402

SIZES = (2, 3, 4, 6, 8, 16)
COUNT_SIZES = (4, 8, 16, 32)
REPEATS = 10
DEFORMATION_A = Fraction(2)
REQUESTS = ("deform3x0", "leaves0")
LEAVES = {"x": {}, "diagonal": {"c": 2, "d": 1}}
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)
METRICS = ("python_calls", "fraction_operations")
# the stages counted in ``stage_counts``: code object -> stage name
COUNTED = {
    f.__code__: f.__name__
    for f in (
        analyze_structure, check_jacobi, check_contact_axioms, levi_civita, riemann,
        curvature_symmetry_residuals, verify_structure, verify_identities, sectional_records,
        analyze_submanifold, second_fundamental_form, verify_split_identities,
        verify_prop32, gauss_codazzi_residuals, leaf_curvature_records,
    )
}


def best_ms(run) -> float:
    """The fastest of ``REPEATS`` timed calls of ``run()``, in ms."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def loglog_slope(points) -> float | None:
    """Least-squares slope of log(y) against log(x) over (x, y) points."""
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return round(num / sum((x - mx) ** 2 for x in xs), 3)


def segment_slopes(points) -> dict:
    """Log-log slope of each (dim, count) point from the one before, keyed by n."""
    return {
        str((d2 - 1) // 2): loglog_slope([(d1, c1), (d2, c2)]) if c1 and c2 else None
        for (d1, c1), (d2, c2) in zip(points, points[1:])
    }


def leaf_times(an, kind, keys) -> dict:
    """ms of each leaf stage on one leaf of the analysed model."""
    spec = build_distribution(an.model, kind, **keys)
    geom = second_fundamental_form(an, spec)
    split = eigen_split(an.cs, spec)
    return {
        "second_fundamental_form": best_ms(lambda: second_fundamental_form(an, spec)),
        "verify_split_identities": best_ms(
            lambda: verify_split_identities(an.cs, geom, an.invariants.kappa)
        ),
        "verify_prop32": best_ms(lambda: verify_prop32(an.conn, an.cs, geom)),
        "gauss_codazzi_residuals": best_ms(
            lambda: gauss_codazzi_residuals(an.curvature, an.conn, geom)
        ),
        "leaf_curvature_records": best_ms(
            lambda: leaf_curvature_records(geom, an.cs, an.invariants, split)
        ),
    }


def stage_times() -> dict:
    times = {}

    def add(name, dim, ms):
        times.setdefault(name, {})[dim] = ms

    for n in SIZES:
        dim = 2 * n + 1
        add("analyze_structure", dim, best_ms(
            lambda: analyze_structure(build_boeckx_model(n, Fraction(1), Fraction(3)))
        ))
        an = analyze_structure(build_boeckx_model(n, Fraction(1), Fraction(3)))
        add("levi_civita", dim, best_ms(lambda: levi_civita(an.model)))
        add("riemann", dim, best_ms(lambda: riemann(an.model, an.conn)))
        add("curvature_symmetry_residuals", dim, best_ms(
            lambda: curvature_symmetry_residuals(replace(an.curvature))
        ))
        add("verify_structure", dim, best_ms(
            lambda: verify_structure(an.cs, an.curvature, an.invariants)
        ))
        add("verify_identities", dim, best_ms(
            lambda: verify_identities(an.model, an.cs, an.curvature, an.invariants, an.conn)
        ))
        deformed = d_homothetic(an.cs, DEFORMATION_A)
        add("analyze_structure[deformed]", dim, best_ms(
            lambda: analyze_structure(an.model, deformed)
        ))
        dan = analyze_structure(an.model, deformed)
        add("verify_identities[deformed]", dim, best_ms(
            lambda: verify_identities(dan.model, dan.cs, dan.curvature, dan.invariants, dan.conn)
        ))
        for name, st in (("sectional_records", an), ("sectional_records[deformed]", dan)):
            add(name, dim, best_ms(
                lambda: sectional_records(st.model, st.curvature, st.cs, st.invariants)
            ))
        for kind, keys in LEAVES.items():
            for stage, ms in leaf_times(an, kind, keys).items():
                add(f"{stage}[{kind}]", dim, ms)
    return {
        name: {
            "ms_by_n": {str((dim - 1) // 2): ms for dim, ms in by_dim.items()},
            "loglog_slope_vs_dim": loglog_slope(list(by_dim.items())),
        }
        for name, by_dim in times.items()
    }


def run_quietly(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = kmu_main(argv)
    if status != 0:
        raise SystemExit(f"kmu {' '.join(argv)} exited with status {status}")


def counts(argv) -> dict:
    """Python calls and Fraction operator calls during one request, per stage.

    One pass: ``sys.setprofile`` counts the ``call`` events, and each of
    Fraction's operators is wrapped to count its calls; the wrapper's own
    call events are not counted, so the call count is the request's.  A
    ``COUNTED`` stage's counts are the totals between its call and return
    events, summed over its invocations.
    """
    per_stage = {}
    calls = operations = 0
    open_stages = []  # (frame, stage, calls, operations) at entry

    def counted(method):
        def wrapper(*args):
            nonlocal operations
            operations += 1
            return method(*args)
        return wrapper

    originals = {name: getattr(Fraction, name) for name in OPERATORS}
    wrappers = {name: counted(method) for name, method in originals.items()}
    wrapper_code = wrappers["__add__"].__code__

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            if frame.f_code is wrapper_code:
                return
            calls += 1
            stage = COUNTED.get(frame.f_code)
            if stage is not None:
                open_stages.append((frame, stage, calls - 1, operations))
        elif event == "return" and open_stages and open_stages[-1][0] is frame:
            _, stage, calls0, operations0 = open_stages.pop()
            total = per_stage.setdefault(stage, dict.fromkeys(METRICS, 0))
            total["python_calls"] += calls - calls0
            total["fraction_operations"] += operations - operations0

    try:
        for name, wrapper in wrappers.items():
            setattr(Fraction, name, wrapper)
        sys.setprofile(profile)
        run_quietly(argv)
    finally:
        sys.setprofile(None)
        for name, method in originals.items():
            setattr(Fraction, name, method)
    return {"python_calls": calls, "fraction_operations": operations, "stages": per_stage}


def stage_counts(workdir: str) -> dict:
    """Per-stage counts of one reference ``verify`` at each n of ``COUNT_SIZES``."""
    found = {}
    for n in COUNT_SIZES:
        entry = {"key": f"reference{n}", "command": "verify"}
        request = request_argv({**entry, "descriptor": reference_descriptor(n)}, workdir)
        run_quietly(request)  # warm-up
        total = counts(request)
        for stage, counted in {"verify": total, **total["stages"]}.items():
            for metric in METRICS:
                points = found.setdefault(stage, {}).setdefault(metric, [])
                points.append((2 * n + 1, counted[metric]))
    return {
        stage: {
            metric: {
                "by_n": {str((dim - 1) // 2): count for dim, count in points},
                "slope_by_n": segment_slopes(points),
            }
            for metric, points in metrics.items()
        }
        for stage, metrics in sorted(found.items())
    }


def catalogue_entries() -> dict:
    with open(ROOT / "perfbench" / "catalogue.json", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    found = {}

    def walk(node):
        if isinstance(node, dict):
            if node.get("key") in REQUESTS:
                found[node["key"]] = node
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(catalogue)
    missing = set(REQUESTS) - set(found)
    if missing:
        raise SystemExit(f"catalogue has no request {sorted(missing)}")
    return found


def main() -> int:
    requests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for key, entry in catalogue_entries().items():
            request = request_argv(entry, workdir)
            run_quietly(request)  # warm-up
            found = counts(request)
            requests[key] = {
                "fraction_operations": found["fraction_operations"],
                "python_calls": found["python_calls"],
            }
        counted = stage_counts(workdir)
    out = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repeats": REPEATS,
        "model": f"build_boeckx_model(n, 1, 3); native structure, deformed by"
        f" a = {DEFORMATION_A} where a stage is named [deformed]",
        "stages": stage_times(),
        "requests": requests,
        "stage_counts": counted,
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
