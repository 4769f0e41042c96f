"""kmu benchmark: three certification workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload verify_large --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` of the same checkout.  One client
in one process drives the workload as a closed loop through
``kmu.cli.main`` with the argument lists a user would type, checks
every report with ``oracle.check`` and prints, as its last stdout line,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from a traced replay of the first cycles of the
untraced run.  The line before it, ``{"detail": ...}``, records the
environment and every end-to-end metric, including the tail latency
with its sample count and the failed fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Set-ups measured before and after the timed window.  The machine's speed
# drifts over tens of seconds, so set-ups at both ends of the run give a
# median that one slow or fast moment does not decide.
SETUPS_BEFORE, SETUPS_AFTER = 3, 4
SCALING_NS = (2, 3, 4, 6, 8)
TAIL_BEYOND = 10
# Time of one probe() at the usual speed of the 2-core Xeon VM the benchmark
# was tuned on; calibrated seconds are wall seconds rescaled to that speed.
PROBE_REF_S = 0.01


def load_kmu(root: Path = ROOT):
    """Import ``kmu.cli`` afresh from ``root/src`` and return the module."""
    src = root / "src"
    if not (src / "kmu" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kmu package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "kmu" or n.startswith("kmu.")]:
        del sys.modules[name]
    cli = importlib.import_module("kmu.cli")
    if Path(cli.__file__).resolve().parent != (src / "kmu").resolve():
        raise ImportError(f"kmu was imported from {cli.__file__}, not from {src}")
    return cli


def probe() -> float:
    """Wall time of a fixed piece of Fraction arithmetic: the machine's speed.

    Other tenants change the speed of a shared machine by up to 2x within
    seconds.  Rescaling each timing by the probes taken around it removes
    that drift, which would otherwise swamp any change to ``kmu`` itself.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 97 + 1, i % 13 + 2) * Fraction(i % 7 + 1, i % 11 + 3)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Outcome:
    key: str
    latency: float
    certificates: int
    problems: tuple
    digest: str | None
    scale: float = 1.0  # PROBE_REF_S over the mean of the probes around the request

    @property
    def calibrated(self) -> float:
        return self.latency * self.scale


def execute(cli, request: dict, outdir: Path, tracer=None, rid=None) -> Outcome:
    """Send one request through ``kmu.cli.main`` and check its output.

    The latency runs from the call to its exit status, JSON emit included.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = workloads.argv(request, outdir)
    crash = None
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        scope = tracer.request(rid) if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a KmuError escaping main, or a crash: the request fails
            crash = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    if crash:
        problems, digest = [crash], None
    else:
        problems, digest = oracle.check(request, code, out.getvalue())
    if problems and err.getvalue():
        problems.append(err.getvalue().strip()[:300])
    certificates = 0 if problems else workloads.certificates(request)
    return Outcome(request["key"], latency, certificates, tuple(problems), digest)


def closed_loop(cli, plan, outdir, seconds, min_cycles=1, tracer=None):
    """Whole cycles, one request at a time, until ``seconds`` have passed."""
    outcomes, cycle = [], 0
    deadline = time.perf_counter() + seconds
    before = probe()
    while cycle < min_cycles or time.perf_counter() < deadline:
        for j, request in enumerate(plan.cycle(cycle)):
            outcome = execute(cli, request, outdir, tracer, f"c{cycle}r{j}")
            after = probe()
            outcomes.append(replace(outcome, scale=2 * PROBE_REF_S / (before + after)))
            before = after
        cycle += 1
    return outcomes, cycle


def check_tables(cli, plan, outdir) -> list:
    """The plan's dump-tables requests, outside the timed window.

    The connection and curvature dumps of one model share one analysis;
    the export itself is the CLI's own code.
    """
    original = cli.analyze_structure
    cache = {}

    def shared(model, cs=None):
        if cs is not None:
            return original(model, cs)
        key = (model.n, model.alpha, model.beta)
        if key not in cache:
            cache[key] = original(model)
        return cache[key]

    cli.analyze_structure = shared
    try:
        return [execute(cli, request, outdir) for request in plan.table_checks]
    finally:
        cli.analyze_structure = original


def scaling_row(alpha, beta) -> list:
    """(dim, seconds) of one untraced analyze_structure per n in SCALING_NS."""
    kmu = sys.modules["kmu"]
    points = []
    for n in SCALING_NS:
        model = kmu.build_boeckx_model(n, alpha, beta)
        start = time.perf_counter()
        kmu.analyze_structure(model)
        points.append((model.dim, time.perf_counter() - start))
    return points


def dim_exponent(points) -> float:
    """Least-squares slope of log(time) against log(dim)."""
    xs = [math.log(dim) for dim, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "kmu").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def tail_latency(latencies) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {"value": None, "unit": "s", "percentile": None, "samples": n}
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "unit": "s",
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "samples": n,
    }


def certified_rate(outcomes, cycle_length: int, wall: bool = False) -> float:
    """Median over cycles of certificates per second of request time."""
    rates = []
    for i in range(0, len(outcomes), cycle_length):
        cycle = outcomes[i : i + cycle_length]
        busy = sum(o.latency if wall else o.calibrated for o in cycle)
        rates.append(sum(o.certificates for o in cycle) / busy)
    return statistics.median(rates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_kmu()  # fail before any output when the checkout has no package
        catalogue = workloads.load_catalogue()
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    threads = nproc()
    os.environ["KMU_THREADS"] = str(threads)
    outdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
    setup_times, setup_wall, setup_outcomes = [], [], []

    def set_up():
        before = probe()
        start = time.perf_counter()
        cli = load_kmu()
        plan = workloads.plan(catalogue, args.workload, args.seed)
        workloads.write_descriptors(plan, outdir)
        setup_outcomes.extend(execute(cli, r, outdir) for r in plan.warmup)
        elapsed = time.perf_counter() - start
        setup_wall.append(elapsed)
        setup_times.append(elapsed * 2 * PROBE_REF_S / (before + probe()))
        return cli, plan

    for _ in range(SETUPS_BEFORE):
        cli, plan = set_up()
    traced_cycles = workloads.TRACED_CYCLES[args.workload] if args.trace else 1
    timed, cycles = closed_loop(cli, plan, outdir, args.seconds, traced_cycles)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUPS_AFTER):
        cli, plan = set_up()
    checks = check_tables(cli, plan, outdir)

    latencies = [o.calibrated for o in timed]
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "certified_per_s": (certified_rate(timed, len(plan.cycle(0))), "1/s"),
        "verdict_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": threads,
            "KMU_THREADS": threads,
            "git_sha": git_sha(ROOT),
            "source_sha256": source_digest(ROOT),
            "seed": args.seed,
        },
        "wall_clock": {
            "setup_s": statistics.median(setup_wall),
            "certified_per_s": certified_rate(timed, len(plan.cycle(0)), wall=True),
            "verdict_p50_s": statistics.median(o.latency for o in timed),
            "probe_s": PROBE_REF_S / statistics.median(o.scale for o in timed),
        },
        "cycles": cycles,
        "requests": len(timed),
        "certificates": sum(o.certificates for o in timed),
    }
    everything = setup_outcomes + timed + checks
    metrics = e2e

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = closed_loop(cli, plan, outdir, 0, traced_cycles, tracer)
        finally:
            tracer.uninstall()
        everything += traced
        untraced = timed[: len(traced)]
        mismatched = [
            (a.key, b.key) for a, b in zip(untraced, traced) if a.digest != b.digest
        ]
        if mismatched:
            everything.append(Outcome("trace-digests", 0.0, 0, (
                f"traced and untraced reports differ: {mismatched}",), None))
        points = scaling_row(Fraction(plan.scaling["alpha"]), Fraction(plan.scaling["beta"]))
        tracer.write(outdir / "spans.jsonl")
        metrics = spans.layer_metrics(tracer, threads)
        metrics["trace.overhead_frac"] = (
            1 - certified_rate(traced, len(traced)) / certified_rate(untraced, len(untraced)),
            "ratio",
        )
        metrics["pipeline.dim_exponent"] = (dim_exponent(points), "slope")
        detail["scaling_row"] = [{"dim": d, "seconds": t} for d, t in points]
        detail["traced_cycles"] = traced_cycles

    failures = [o for o in everything if o.problems]
    e2e_all = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    e2e_all["verdict_tail_s"] = tail_latency(latencies)
    e2e_all["failed_frac"] = {"value": len(failures) / len(everything), "unit": "ratio"}
    detail["end_to_end"] = e2e_all
    detail["failures"] = [{"key": o.key, "problems": list(o.problems)} for o in failures[:5]]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
