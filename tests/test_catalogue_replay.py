"""Reports stay byte-identical: replay benchmark catalogue requests.

Every request in ``perfbench/catalogue.json`` carries the sha256 digest of
its reference report (``generated_at`` removed).  This test replays every
request, and the two ``dump-tables`` requests of every entry with
reference tables, through ``kmu.cli.main`` with the benchmark's own
command lines, and requires ``oracle.check`` to find no problem, so any
change to a record, witness, residual, key order or table entry fails
here.  The catalogue is read, never written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kmu.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def catalogue_requests():
    """(workload, pool, index[, dump-tables table]) of every catalogue request.

    A verify entry with reference tables adds its connection and
    curvature ``dump-tables`` requests.
    """
    with open(PERFBENCH / "catalogue.json", "r", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    for workload, pools in catalogue.items():
        for pool, entries in pools.items():
            for index, entry in enumerate(entries):
                yield workload, pool, index
                for table in entry.get("tables", ()):
                    yield workload, pool, index, table


REQUESTS = list(catalogue_requests())


@pytest.fixture(scope="module")
def perfbench():
    """oracle.py and workloads.py, loaded by path without importing perfbench."""
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("oracle", "workloads"):
            spec = importlib.util.spec_from_file_location(
                f"perfbench_{name}", PERFBENCH / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            # its dataclasses look their module up while the file executes
            mp.setitem(sys.modules, spec.name, module)
            spec.loader.exec_module(module)
            modules[name] = module
    modules["catalogue"] = modules["workloads"].load_catalogue()
    return modules


@pytest.mark.parametrize("where", REQUESTS, ids=lambda w: "/".join(map(str, w)))
def test_catalogue_request_matches_reference(perfbench, where, tmp_path, capsys):
    oracle, workloads = perfbench["oracle"], perfbench["workloads"]
    workload, pool, index, *table = where
    request = perfbench["catalogue"][workload][pool][index]
    if table:
        request = next(
            r for r in workloads.table_requests(request) if r["table"] == table[0]
        )
    if "descriptor" in request:
        path = workloads.descriptor_file(request, tmp_path)
        path.write_text(json.dumps(request["descriptor"]), encoding="utf-8")
    code = main(workloads.argv(request, tmp_path))
    out = capsys.readouterr().out
    problems, _ = oracle.check(request, code, out)
    assert problems == []
