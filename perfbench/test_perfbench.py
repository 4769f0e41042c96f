"""Tests of the benchmark itself: the oracle fails corrupted output, the
tracer nests and times spans correctly, and plans are seeded.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

import oracle
import run
import spans
import workloads

CATALOGUE = workloads.load_catalogue()
VERIFY = CATALOGUE["verify_large"]["warmup"][0]
SWEEP, DEFORM = CATALOGUE["sweep_deform_small"]["warmup"]


@pytest.fixture(scope="module")
def cli():
    os.environ["KMU_THREADS"] = "2"
    return run.load_kmu()


@pytest.fixture
def outdir(tmp_path):
    workloads.write_descriptors(
        workloads.Plan("test", (VERIFY, DEFORM), (), (), {}), tmp_path
    )
    return tmp_path


def emit(report: dict, code: int = 0):
    """A stand-in for kmu.cli whose main prints ``report``."""

    def main(argv):
        print(json.dumps(report, indent=2))
        return code

    return SimpleNamespace(main=main)


def real_report(cli, request, outdir) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(workloads.argv(request, outdir)) == 0
    return json.loads(buffer.getvalue())


def test_correct_requests_pass(cli, outdir):
    for request in (VERIFY, DEFORM, SWEEP):
        outcome = run.execute(cli, request, outdir)
        assert outcome.problems == ()
        assert outcome.certificates == workloads.certificates(request)
        assert outcome.digest == request["digest"]


def test_changed_residual_counts_as_failed(cli, outdir):
    report = real_report(cli, VERIFY, outdir)
    report["identities"][0]["residual"] = "1"
    outcome = run.execute(emit(report), VERIFY, outdir)
    assert outcome.problems and "digest" in outcome.problems[0]
    assert outcome.certificates == 0


def test_changed_curvature_entry_counts_as_failed(cli, outdir):
    request = {"key": VERIFY["key"] + ".curvature", "command": "dump-tables",
               "table": "curvature", "descriptor": VERIFY["descriptor"]}
    report = real_report(cli, request, outdir)
    request["digest"] = oracle.digest(report)
    assert run.execute(emit(report), request, outdir).problems == ()
    entry = next(iter(report["entries"]))
    report["entries"][entry] = report["entries"][entry] + "1"
    assert run.execute(emit(report), request, outdir).problems


def test_wrong_invariant_fails_even_with_a_matching_digest(cli, outdir):
    report = real_report(cli, DEFORM, outdir)
    report["deformation"]["after"]["mu"] = "7"
    request = dict(DEFORM, digest=oracle.digest(report))
    problems = run.execute(emit(report), request, outdir).problems
    assert any("deformation.after.mu" in p for p in problems)


def test_wrongly_rejected_sweep_row_fails(cli, outdir):
    report = real_report(cli, SWEEP, outdir)
    row = next(r for r in report["grid"] if r["status"] == "ok")
    report["grid"] = [r for r in report["grid"] if r is not row] + [
        {"alpha": row["alpha"], "beta": row["beta"], "status": "rejected"}
    ]
    request = dict(SWEEP, digest=oracle.digest(report))
    assert run.execute(emit(report), request, outdir).problems


def test_nonzero_exit_and_raised_errors_fail(cli, outdir):
    report = real_report(cli, VERIFY, outdir)
    assert run.execute(emit(report, code=1), VERIFY, outdir).problems

    def raises(argv):
        raise sys.modules["kmu.errors"].StructureError("broken")

    outcome = run.execute(SimpleNamespace(main=raises), VERIFY, outdir)
    assert outcome.problems[0].startswith("StructureError")


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(1, None, "r", "cli.report", 0.0, 10.0, 1)
    # two overlapping children on worker threads cover [1, 7] once
    a = spans.Span(2, 1, "r", "cli.sweep_point", 1.0, 5.0, 2)
    b = spans.Span(3, 1, "r", "cli.sweep_point", 3.0, 7.0, 3)
    grandchild = spans.Span(4, 2, "r", "liealg.build", 1.0, 2.0, 2)
    own = spans.self_times([parent, a, b, grandchild])
    assert own == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_sweep_worker_spans_nest_under_their_request(cli, outdir):
    untraced = run.execute(cli, SWEEP, outdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.execute(cli, SWEEP, outdir, tracer, "req-1")
    finally:
        tracer.uninstall()
    assert traced.problems == () and traced.digest == untraced.digest
    by_id = {s.sid: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.name == "request"]
    points = [s for s in tracer.spans if s.name == "cli.sweep_point"]
    assert len(points) == workloads.certificates(SWEEP)
    for span in tracer.spans:
        assert span.rid == "req-1"
        node = span
        while node.parent is not None:
            node = by_id[node.parent]
        assert node is root
    assert {by_id[p.parent].name for p in points} == {"cli.report"}
    assert any(p.thread != root.thread for p in points)
    # uninstall restored every original function
    assert cli.sweep_report.__name__ == "sweep_report"
    assert not hasattr(cli.sweep_report, "__wrapped__")


def test_plans_are_seeded_and_cycles_share_one_composition():
    for workload in workloads.WORKLOADS:
        first = workloads.plan(CATALOGUE, workload, 7)
        assert first == workloads.plan(CATALOGUE, workload, 7)
        assert first != workloads.plan(CATALOGUE, workload, 8)
        shapes = {
            tuple((r["command"], r.get("n", r.get("descriptor", {}).get("n")),
                   workloads.certificates(r)) for r in cycle)
            for cycle in first.cycles
        }
        assert len(shapes) == 1
        for request in first.requests():
            assert request["digest"]


def test_dim_exponent_recovers_a_power_law():
    points = [(d, 0.5 * d ** 4) for d in (5, 7, 9, 13, 17)]
    assert run.dim_exponent(points) == pytest.approx(4.0)


def test_one_run_prints_the_result_line(capsys):
    assert run.main(["--workload", "sweep_deform_small", "--seed", "0",
                     "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "certified_per_s", "verdict_p50_s", "peak_rss_mb"}
    assert set(detail["end_to_end"]) == set(result["metrics"]) | {"verdict_tail_s", "failed_frac"}
    assert detail["env"]["KMU_THREADS"] <= detail["env"]["nproc"]


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_large",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_closed_loop_rescales_each_latency_by_the_probes_around_it(cli, outdir):
    plan = workloads.Plan("test", (), ((VERIFY,),), (), {})
    outcomes, cycles = run.closed_loop(emit(real_report(cli, VERIFY, outdir)), plan, outdir, 0, 2)
    assert cycles == 2 and len(outcomes) == 2
    for outcome in outcomes:
        assert outcome.problems == ()
        assert 0 < outcome.scale < 100
        assert outcome.calibrated == outcome.latency * outcome.scale
