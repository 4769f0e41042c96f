"""The three benchmark workloads: a fixed request catalogue and seeded plans.

``catalogue.json`` (written by ``record.py``) lists every request a
workload may send, each with the digest of the report the seed commit
produced for it.  A run's ``--seed`` picks requests from that catalogue
and fixes their order, so every seed is checked against a reference.

A workload is a sequence of *cycles*.  Every cycle of a workload has the
same composition (same subcommands, same n, same number of leaves or
sweep points), so per-cycle costs and counts do not depend on where a
time window happens to end.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"
WORKLOADS = ("verify_large", "verify_leaves", "sweep_deform_small")

# Cycles replayed under the tracer in a ``--trace 1`` run.  A fixed
# number keeps every span count of a seed identical from run to run.
TRACED_CYCLES = {"verify_large": 1, "verify_leaves": 1, "sweep_deform_small": 2}


@dataclass(frozen=True)
class Plan:
    workload: str
    warmup: tuple
    cycles: tuple  # one period of the request pattern; cycle i is cycles[i % len]
    table_checks: tuple  # dump-tables requests checked after the timed window
    scaling: dict  # small-height descriptor whose (alpha, beta) the scaling row uses

    def cycle(self, i: int) -> tuple:
        return self.cycles[i % len(self.cycles)]

    def requests(self):
        """Every distinct request of the plan, warm-up and checks included."""
        seen = {}
        for req in self.warmup + sum(self.cycles, ()) + self.table_checks:
            seen.setdefault(req["key"], req)
        return list(seen.values())


def load_catalogue(path: Path = CATALOGUE) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def table_requests(entry: dict) -> tuple:
    """The dump-tables requests (connection, curvature) of a verify entry."""
    return tuple(
        {
            "key": f"{entry['key']}.{table}",
            "command": "dump-tables",
            "table": table,
            "descriptor": entry["descriptor"],
            "digest": entry["tables"][table],
        }
        for table in ("connection", "curvature")
    )


def plan(catalogue: dict, workload: str, seed: int) -> Plan:
    """Seeded selection and order of catalogue requests for one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    rng = random.Random(seed)
    pool = catalogue[workload]
    warmup = tuple(pool["warmup"])
    scaling = random.Random(seed).choice(catalogue["verify_large"]["verify"])["descriptor"]
    if workload == "verify_large":
        model = rng.choice(pool["verify"])
        return Plan(workload, warmup, ((model,),), table_requests(model), scaling)
    if workload == "verify_leaves":
        order = rng.sample(pool["verify"], len(pool["verify"]))
        cycles = tuple((m,) for m in order)
        return Plan(workload, warmup, cycles, table_requests(order[0]), scaling)
    sweeps = rng.sample(pool["sweep"], len(pool["sweep"]))
    small = rng.sample(pool["deform_n2"], len(pool["deform_n2"]))
    large = rng.sample(pool["deform_n3"], len(pool["deform_n3"]))
    # Per cycle: one sweep, two n=2 and three n=3 deformations.  The n=3
    # deformations are the middle half of a cycle's latencies, so the
    # median stays inside one request shape.
    cycles = []
    for i in range(len(sweeps)):
        s0, s1 = small[(2 * i) % len(small)], small[(2 * i + 1) % len(small)]
        l0, l1, l2 = (large[(3 * i + j) % len(large)] for j in range(3))
        cycles.append((sweeps[i], l0, s0, l1, s1, l2))
    return Plan(workload, warmup, tuple(cycles), (), scaling)


def descriptor_file(request: dict, outdir: Path) -> Path:
    return outdir / f"{request['key'].split('.')[0]}.json"


def write_descriptors(plan_: Plan, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for req in plan_.requests():
        if "descriptor" in req:
            with open(descriptor_file(req, outdir), "w", encoding="utf-8") as handle:
                json.dump(req["descriptor"], handle)


def argv(request: dict, outdir: Path) -> list:
    """The ``kmu`` command line of a request, as a user would type it."""
    command = request["command"]
    if command == "sweep":
        return [
            "sweep",
            "--n",
            str(request["n"]),
            "--alphas",
            ",".join(request["alphas"]),
            "--betas",
            ",".join(request["betas"]),
        ]
    path = str(descriptor_file(request, outdir))
    if command == "verify":
        return ["verify", path]
    if command == "deform":
        return ["deform", path, "--a", request["a"]]
    if command == "dump-tables":
        return ["dump-tables", path, "--table", request["table"]]
    raise ValueError(f"unknown request command {command!r}")


def certificates(request: dict) -> int:
    """Certificates a passing request completes.

    A native structure, a deformed structure, a processed sweep point
    and a leaf each count as one; dump-tables certifies nothing.
    """
    command = request["command"]
    if command == "sweep":
        return sum(
            1
            for a in request["alphas"]
            for b in request["betas"]
            if Fraction(b) ** 2 > Fraction(a) ** 2
        )
    if command == "dump-tables":
        return 0
    desc = request["descriptor"]
    deformed = command == "deform" or "deformation_a" in desc
    return 1 + int(deformed) + len(desc.get("submanifolds") or ())
