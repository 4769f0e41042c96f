"""Paired timing of two checkouts in one process, request by request.

Usage, from any directory:

    python3 tools/ab_time.py OLD NEW

OLD and NEW are checkout roots.  Each one's ``src/kmu`` is loaded into
this process as a package of its own (``kmu_old``, ``kmu_new``), so both
run under one interpreter, with the same warm caches and the same load
on the machine.  Each request runs through the package's ``cli.main``
with the argument list a user would type, which
``perfbench/workloads.argv`` builds: once on each tree, back to back,
the tree that goes first alternating from pair to pair.  Each request's
two outputs must be the same apart from the ``generated_at`` line, and
its two exit codes equal; the script stops at the first pair that
differs.

Workloads, after one untimed pass of each on both trees:

* ``verify_leaves``: the eight ``verify_leaves`` requests of
  ``perfbench/catalogue.json`` (``verify`` at n = 5 with every leaf
  family);
* ``sweep``, ``deform2``, ``deform3``: the 12 ``sweep*``, 24
  ``deform2x*`` and 24 ``deform3x*`` requests of its
  ``sweep_deform_small`` workload (``sweep`` at n = 2 with rejected
  rows, ``deform`` at n = 2 and n = 3, rationals of height about 10^3);
* ``reference_verify_n8``, ``_n16``, ``_n32``: one ``verify`` of the
  reference descriptor (``reference_descriptor``: alpha = 1, beta = 3,
  deformation_a = 2, the x, y, diag(2, 1) and mixed k = 2 leaves) at
  that n.

For each workload it prints the median over the pairs of new time over
old time, with the quartiles of those ratios and each tree's median
seconds.  ``matsum_product_reads`` counts, on one request of each of
``leaves0``, the reference n = 16 and n = 32, the entries A[r, k] that
the ``matsum`` product terms c A B of each tree read, and how many of
them meet a nonzero row k of B.  A read is counted by giving each such
A, for that request only, entries of a Fraction subclass that counts
the reads of its numerator: both kernels read it once per entry they
visit.

``exact_counts`` holds, for each tree, counts that repeat exactly, where
times swing between runs on a shared machine:

* ``kmu_calls``: the ``call`` events of ``sys.setprofile`` in frames
  whose code lies in that tree's ``src/kmu``, which also count each
  resumption of a generator;
* ``fractions_calls``: the ``call`` events in frames of the standard
  library's ``fractions.py``, kept apart, since they depend on the
  Python version;
* ``fraction_operations``: the calls of Fraction's arithmetic operators
  (+ - * / ** with their reflected forms, unary - and +, abs).

``requests`` gives them for one request each of ``leaves0`` (a
``verify`` at n = 5 with nine leaves) and ``deform3x0`` (a ``deform`` at
n = 3 with alpha, beta and a of height about 10^3).  ``stage_counts``
gives them per stage on one ``verify`` of the reference descriptor at n
in ``COUNT_SIZES``: the 15 functions of ``STAGES``, each summed over its
calls in the request (``analyze_structure`` runs on the native and the
deformed structure, the leaf stages once per leaf), and ``verify``, the
whole request.  A stage's counts are inclusive: ``riemann`` is also
counted in ``analyze_structure``.  ``by_n`` gives the count at each n,
and ``slope_by_n`` the log-log slope against dim from the size before,
as in ``"32"`` for dim 33 to 65.  Each request is counted after one
uncounted run.  The catalogue is read, never written.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as bench  # noqa: E402  (the benchmark's request argv)

# pairs per request of each workload
ROUNDS = {
    "verify_leaves": 15,
    "sweep": 5,
    "deform2": 5,
    "deform3": 5,
    "reference_verify_n8": 20,
    "reference_verify_n16": 10,
    "reference_verify_n32": 5,
}
READ_REQUESTS = ("leaves0", "reference16", "reference32")
COUNT_REQUESTS = ("leaves0", "deform3x0")
COUNT_SIZES = (4, 8, 16, 32)
# the stages of ``stage_counts``, by module of the package
STAGES = {
    "pipeline": ("analyze_structure", "sectional_records"),
    "liealg": ("check_jacobi",),
    "contact": ("check_contact_axioms", "verify_structure", "verify_identities"),
    "connection": ("levi_civita", "riemann", "curvature_symmetry_residuals"),
    "submanifold": (
        "analyze_submanifold", "second_fundamental_form", "verify_split_identities",
        "verify_prop32", "gauss_codazzi_residuals", "leaf_curvature_records",
    ),
}
METRICS = ("kmu_calls", "fractions_calls", "fraction_operations")
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)
FRACTIONS_FILE = Fraction.limit_denominator.__code__.co_filename


def load_cli(root: Path, name: str):
    """Load ``root/src/kmu`` as the package ``name``; return its ``cli`` module."""
    src = root / "src" / "kmu"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"no kmu package under {root}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def reference_descriptor(n: int) -> dict:
    """The reference ``verify`` descriptor at n."""
    leaves = [{"kind": "x"}, {"kind": "y"}, {"kind": "diag", "c": "2", "d": "1"}]
    if n >= 3:
        leaves.append({"kind": "mixed", "k": 2})
    return {"n": n, "alpha": "1", "beta": "3", "deformation_a": "2", "submanifolds": leaves}


def request_argv(entry: dict, workdir: Path) -> list:
    """The entry's ``kmu`` argv, as the benchmark builds it.

    A descriptor is written under ``workdir``, where the argv names it.
    """
    if "descriptor" in entry:
        with open(bench.descriptor_file(entry, workdir), "w", encoding="utf-8") as handle:
            json.dump(entry["descriptor"], handle)
    return bench.argv(entry, workdir)


def workloads(catalogue_path: Path, workdir: Path) -> dict:
    """workload name -> [(request key, argv)]."""
    catalogue = bench.load_catalogue(catalogue_path)
    small = catalogue["sweep_deform_small"]
    found = {
        "verify_leaves": catalogue["verify_leaves"]["verify"],
        "sweep": small["sweep"],
        "deform2": small["deform_n2"],
        "deform3": small["deform_n3"],
    }
    for n in (8, 16, 32):
        entry = {"key": f"reference{n}", "command": "verify"}
        found[f"reference_verify_n{n}"] = [{**entry, "descriptor": reference_descriptor(n)}]
    return {
        name: [(entry["key"], request_argv(entry, workdir)) for entry in entries]
        for name, entries in found.items()
    }


def counted_argv(requests: dict, workdir: Path) -> dict:
    """Request key -> argv, over ``workloads`` and the reference request at n = 4."""
    by_key = {key: argv for reqs in requests.values() for key, argv in reqs}
    entry = {"key": "reference4", "command": "verify", "descriptor": reference_descriptor(4)}
    by_key["reference4"] = request_argv(entry, workdir)
    return by_key


def run(cli, argv) -> tuple[float, int, list]:
    """Seconds, exit code and output lines other than ``generated_at``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    lines = [line for line in out.getvalue().splitlines() if '"generated_at"' not in line]
    return seconds, code, lines


def same_output(key: str, old: tuple, new: tuple) -> None:
    if old[1:] != new[1:]:
        raise SystemExit(f"{key}: the two trees give different output")


def paired(clis: dict, requests: list, rounds: int) -> dict:
    """Median new/old ratio over ``rounds`` pairs of each request."""
    for key, argv in requests:  # warm-up, untimed
        same_output(key, run(clis["old"], argv), run(clis["new"], argv))
    ratios, times = [], {"old": [], "new": []}
    for i in range(rounds * len(requests)):
        key, argv = requests[i % len(requests)]
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        result = {tree: run(clis[tree], argv) for tree in order}
        same_output(key, result["old"], result["new"])
        for tree in times:
            times[tree].append(result[tree][0])
        ratios.append(result["new"][0] / result["old"][0])
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {
        "pairs": len(ratios),
        "median_ratio_new_over_old": round(statistics.median(ratios), 4),
        "ratio_quartiles": [round(q1, 4), round(q3, 4)],
        "old_median_s": round(statistics.median(times["old"]), 5),
        "new_median_s": round(statistics.median(times["new"]), 5),
    }


class CountedFraction(Fraction):
    """A Fraction that counts the reads of its numerator."""

    reads = 0

    @property
    def numerator(self):
        CountedFraction.reads += 1
        return self._numerator


def product_reads(cli, argv) -> dict:
    """A entries read by ``matsum`` product terms during one request, and the useful ones.

    ``matsum`` is replaced, in every module of the package that holds it,
    by a wrapper that gives each product term's A counted entries.
    """
    package = sys.modules[cli.__name__.rpartition(".")[0]]
    linalg = package.linalg
    original = linalg.matsum
    useful = 0

    def counted(A):
        rows = tuple(
            linalg.Vec._raw(tuple((j, CountedFraction(x)) for j, x in v._nz), v._len)
            for v in A._vecs
        )
        return linalg.Mat._raw(rows)

    def wrapper(terms, nrows, ncols):
        nonlocal useful
        kept = []
        for c, A, *B in terms:
            if B and c:
                live = [k for k, row in enumerate(B[0]._vecs) if row._nz]
                useful += sum(len(A.col(k).nonzero_entries()) for k in live)
                kept.append((c, counted(A), *B))
            else:
                kept.append((c, A, *B))
        return original(kept, nrows, ncols)

    modules = [m for name, m in sys.modules.items() if name.startswith(package.__name__ + ".")]
    patched = [m for m in modules if getattr(m, "matsum", None) is original]
    reference = run(cli, argv)
    CountedFraction.reads = 0
    try:
        for m in patched:
            m.matsum = wrapper
        result = run(cli, argv)
    finally:
        for m in patched:
            m.matsum = original
    same_output(" ".join(argv), reference, result)
    return {"read": CountedFraction.reads, "meet_a_nonzero_row_of_b": useful}


def counts(cli, argv) -> tuple[dict, dict]:
    """The ``METRICS`` of one request, in total and per stage of ``STAGES``.

    One pass, after an uncounted run: ``sys.setprofile`` sorts each
    ``call`` event by the file of its code, and each of Fraction's
    operators is wrapped to count its calls; the wrappers' frames lie in
    neither file.  A stage's counts are the totals between its call and
    return events, its own call left out, summed over its calls.
    """
    package = sys.modules[cli.__name__.rpartition(".")[0]]
    kmu_dir = os.path.dirname(package.__file__) + os.sep
    stages = {
        getattr(getattr(package, module), name).__code__: name
        for module, names in STAGES.items()
        for name in names
    }
    kmu_calls = fractions_calls = operations = 0
    per_stage = {}
    open_stages = []  # (frame, stage, totals at its call)

    def counted(method):
        def wrapper(*args):
            nonlocal operations
            operations += 1
            return method(*args)
        return wrapper

    def profile(frame, event, arg):
        nonlocal kmu_calls, fractions_calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(kmu_dir):
                kmu_calls += 1
            elif code.co_filename == FRACTIONS_FILE:
                fractions_calls += 1
            stage = stages.get(code)
            if stage is not None:
                open_stages.append((frame, stage, (kmu_calls, fractions_calls, operations)))
        elif event == "return" and open_stages and open_stages[-1][0] is frame:
            _, stage, entry = open_stages.pop()
            now = (kmu_calls, fractions_calls, operations)
            total = per_stage.setdefault(stage, dict.fromkeys(METRICS, 0))
            for metric, before, after in zip(METRICS, entry, now):
                total[metric] += after - before

    originals = {name: getattr(Fraction, name) for name in OPERATORS}
    previous = sys.getprofile()
    run(cli, argv)
    try:
        for name, method in originals.items():
            setattr(Fraction, name, counted(method))
        sys.setprofile(profile)
        _, code, _ = run(cli, argv)
    finally:
        sys.setprofile(previous)
        for name, method in originals.items():
            setattr(Fraction, name, method)
    if code != 0:
        raise SystemExit(f"kmu {' '.join(argv)} exited with status {code}")
    totals = dict(zip(METRICS, (kmu_calls, fractions_calls, operations)))
    return totals, per_stage


def exact_counts(cli, by_key: dict, sizes=COUNT_SIZES) -> dict:
    """``requests`` and ``stage_counts`` of one tree; ``by_key`` maps request keys to argv."""
    requests = {key: counts(cli, by_key[key])[0] for key in COUNT_REQUESTS}
    points = {}  # stage -> metric -> [(dim, count)]
    for n in sizes:
        total, per_stage = counts(cli, by_key[f"reference{n}"])
        for stage, counted in {"verify": total, **per_stage}.items():
            for metric in METRICS:
                points.setdefault(stage, {}).setdefault(metric, []).append(
                    (2 * n + 1, counted[metric])
                )
    stage_counts = {
        stage: {
            metric: {
                "by_n": {str((dim - 1) // 2): count for dim, count in series},
                "slope_by_n": {
                    str((d2 - 1) // 2): round(math.log(c2 / c1) / math.log(d2 / d1), 3)
                    if c1 and c2 else None
                    for (d1, c1), (d2, c2) in zip(series, series[1:])
                },
            }
            for metric, series in metrics.items()
        }
        for stage, metrics in sorted(points.items())
    }
    return {"requests": requests, "stage_counts": stage_counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the checkout to compare against")
    parser.add_argument("new", type=Path, help="root of the checkout to measure")
    args = parser.parse_args(argv)
    clis = {
        "old": load_cli(args.old.resolve(), "kmu_old"),
        "new": load_cli(args.new.resolve(), "kmu_new"),
    }
    with tempfile.TemporaryDirectory() as workdir:
        requests = workloads(ROOT / "perfbench" / "catalogue.json", Path(workdir))
        timed = {
            name: paired(clis, reqs, ROUNDS[name])
            for name, reqs in requests.items()
        }
        by_key = counted_argv(requests, Path(workdir))
        reads = {
            key: {tree: product_reads(cli, by_key[key]) for tree, cli in clis.items()}
            for key in READ_REQUESTS
        }
        counted = {tree: exact_counts(cli, by_key) for tree, cli in clis.items()}
    result = {
        "command": "python3 tools/ab_time.py OLD NEW",
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "paired_timing": timed,
        "matsum_product_reads": reads,
        "exact_counts": counted,
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
