"""Regenerate ``catalogue.json``: the request pool and its reference digests.

    python3 perfbench/record.py

The pool is drawn from a fixed generator seed.  Every request is sent
through ``kmu`` once, must pass every check except the missing
reference, and the digest of its report becomes the reference that all
later runs are held to.  Re-record only when reports are meant to change.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import oracle
import run
import workloads

POOL_SEED = 1611
LEAVES = (
    [{"kind": "x"}, {"kind": "y"}]
    + [{"kind": "mixed", "k": k} for k in (1, 2, 3, 4)]
)


def small(rng, hi, zero=False) -> Fraction:
    """Rational of height <= 4 * hi in [0, hi] (or (0, hi])."""
    q = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(0 if zero else 1, hi * q), q)


def tall(rng, lo, hi) -> Fraction:
    """Rational in (lo, hi) with a denominator in [200, 999]."""
    q = rng.randint(200, 999)
    return Fraction(rng.randint(int(lo * q) + 1, int(hi * q) - 1), q)


def signed_small(rng) -> Fraction:
    return small(rng, 3) * rng.choice((1, -1))


def small_pairs(rng, count) -> list:
    """Distinct small-height (alpha, beta) with beta > alpha >= 0."""
    pairs = []
    while len(pairs) < count:
        alpha = small(rng, 2, zero=True)
        pair = (alpha, alpha + small(rng, 2))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def pool() -> dict:
    rng = random.Random(POOL_SEED)
    large = []
    for i, (alpha, beta) in enumerate(small_pairs(rng, 8)):
        large.append({"key": f"large{i}", "command": "verify",
                      "descriptor": {"n": 8, "alpha": str(alpha), "beta": str(beta)}})
    leaves = []
    for i, (alpha, beta) in enumerate(small_pairs(rng, 8)):
        subs = LEAVES + [{"kind": "mixed", "z_choices": [rng.choice("xy") for _ in range(3)]}]
        subs += [{"kind": "diag", "c": str(signed_small(rng)), "d": str(signed_small(rng))}
                 for _ in range(2)]
        leaves.append({"key": f"leaves{i}", "command": "verify",
                       "descriptor": {"n": 5, "alpha": str(alpha), "beta": str(beta),
                                      "submanifolds": subs}})
    sweeps = []
    for i in range(12):
        values = set()
        while len(values) < 7:
            values.add(tall(rng, 0, 4))
        b1, a1, b2, a2, b3, a3, b4 = sorted(values)
        # interleaved so that 6 of the 16 cells have beta^2 <= alpha^2
        sweeps.append({"key": f"sweep{i}", "command": "sweep", "n": 2,
                       "alphas": ["0"] + [str(a) for a in (a1, a2, a3)],
                       "betas": [str(b) for b in (b1, b2, b3, b4)]})
    deforms = {}
    for n in (2, 3):
        deforms[n] = []
        for i in range(24):
            alpha = tall(rng, 0, 2)
            beta = tall(rng, alpha + Fraction(1, 10), alpha + 2)
            deforms[n].append({"key": f"deform{n}x{i}", "command": "deform",
                               "descriptor": {"n": n, "alpha": str(alpha), "beta": str(beta)},
                               "a": str(tall(rng, Fraction(1, 4), 3))})
    return {
        "verify_large": {
            "warmup": [{"key": "warm_large", "command": "verify",
                        "descriptor": {"n": 2, "alpha": "1/2", "beta": "2"}}],
            "verify": large,
        },
        "verify_leaves": {
            "warmup": [{"key": "warm_leaves", "command": "verify",
                        "descriptor": {"n": 2, "alpha": "1", "beta": "3", "submanifolds": [
                            {"kind": "x"}, {"kind": "y"}, {"kind": "mixed", "k": 1},
                            {"kind": "diag", "c": "2", "d": "1"}]}}],
            "verify": leaves,
        },
        "sweep_deform_small": {
            "warmup": [
                {"key": "warm_sweep", "command": "sweep", "n": 2,
                 "alphas": ["0", "1"], "betas": ["1/2", "2"]},
                {"key": "warm_deform", "command": "deform",
                 "descriptor": {"n": 2, "alpha": "1", "beta": "3"}, "a": "1/2"},
            ],
            "sweep": sweeps,
            "deform_n2": deforms[2],
            "deform_n3": deforms[3],
        },
    }


def reference(cli, request: dict, outdir) -> str:
    outcome = run.execute(cli, request, outdir)
    if outcome.problems != (oracle.NO_REFERENCE,):
        raise SystemExit(f"{request['key']} fails its checks: {outcome.problems}")
    return outcome.digest


def main() -> int:
    cli = run.load_kmu()
    catalogue = pool()
    outdir = run.ROOT / ".bench_out" / "record"
    for workload, groups in catalogue.items():
        for group, requests in groups.items():
            plan = workloads.Plan(workload, tuple(requests), (), (), {})
            workloads.write_descriptors(plan, outdir)
            for request in requests:
                request["digest"] = reference(cli, request, outdir)
                print(workload, request["key"], request["digest"][:12], file=sys.stderr)
                if group == "verify":
                    request["tables"] = {"connection": None, "curvature": None}
                    checks = workloads.table_requests(request)
                    done = run.check_tables(cli, workloads.Plan(workload, (), (), checks, {}), outdir)
                    for check, outcome in zip(checks, done):
                        if outcome.problems != (oracle.NO_REFERENCE,):
                            raise SystemExit(f"{check['key']} fails: {outcome.problems}")
                        request["tables"][check["table"]] = outcome.digest
    with open(workloads.CATALOGUE, "w", encoding="utf-8") as handle:
        json.dump(catalogue, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
