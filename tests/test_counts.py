"""Exact work counts stay within 2 % of a committed baseline.

``tools/ab_time.py`` counts, per request and per pipeline stage, the
Python calls in ``src/kmu`` frames (``kmu_calls``), the calls in
``fractions.py`` frames (``fractions_calls``) and the calls of
Fraction's arithmetic operators (``fraction_operations``).  Unlike wall
times they repeat exactly, so a change that undoes a saving fails here
even where every time stays inside its benchmark bound.  This test runs
that counter on this checkout's ``kmu`` for the ``leaves0`` and
``deform3x0`` catalogue requests and the reference descriptor at n = 4
and 8, with the argv the benchmark builds, descriptor files included.

The gate is one-sided: ``kmu_calls`` and ``fraction_operations`` may
not exceed ``counts_baseline.json`` by more than 2 %, and a lower count
passes.  ``fractions_calls`` is not gated, since it depends on the
standard library's Fraction.  A change that lowers a count pastes the
measured counts, which the failure message prints, into the baseline.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kmu import cli

ROOT = Path(__file__).resolve().parents[1]
BASELINE = Path(__file__).with_name("counts_baseline.json")
SIZES = (4, 8)
GATED = ("kmu_calls", "fraction_operations")


@pytest.fixture(scope="module")
def ab_time():
    """tools/ab_time.py, loaded by path; sys.path is left as it was."""
    spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))  # it puts perfbench/ first
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def by_key(ab_time, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("requests")
    return ab_time.counted_argv(ab_time.workloads(ab_time.bench.CATALOGUE, workdir), workdir)


@pytest.fixture(scope="module")
def measured(ab_time, by_key):
    return ab_time.exact_counts(cli, by_key, SIZES)


def gated(counts: dict) -> dict:
    """(request, stage, metric) -> count, for every gated metric."""
    found = {
        (key, "request", metric): totals[metric]
        for key, totals in counts["requests"].items()
        for metric in GATED
    }
    found.update(
        ((f"reference{n}", stage, metric), count)
        for stage, metrics in counts["stage_counts"].items()
        for metric in GATED
        for n, count in metrics[metric]["by_n"].items()
    )
    return found


def test_counts_repeat_exactly(ab_time, by_key, measured):
    assert ab_time.exact_counts(cli, by_key, SIZES) == measured


def test_counts_stay_within_the_baseline(measured):
    baseline = gated(json.loads(BASELINE.read_text(encoding="utf-8")))
    found = gated(measured)
    over = [
        f"{' '.join(key)}: {found[key]} against {count}"
        for key, count in baseline.items()
        if key in found and found[key] * 100 > count * 102
    ]
    report = json.dumps(measured, indent=1)
    assert found.keys() == baseline.keys(), f"counted stages changed; measured:\n{report}"
    assert not over, "over the baseline by more than 2 %:\n" + "\n".join(over) + (
        f"\nmeasured:\n{report}"
    )
