"""Correctness oracle: every benchmark request's output is checked here.

A request passes when it exits 0, its report says ``pass: true``, its
invariants equal closed forms computed here (independently of ``kmu``),
and the digest of its report, ``generated_at`` removed, equals the
reference recorded in the catalogue.  ``check`` returns the list of
problems found; an empty list means the request is correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

NO_REFERENCE = "no reference digest recorded for this request"


def digest(report: dict) -> str:
    """sha256 of the canonical JSON of a report without ``generated_at``."""
    body = {k: v for k, v in report.items() if k != "generated_at"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def closed_form(alpha, beta) -> dict:
    """lambda, kappa, I and mu of the model with parameters (alpha, beta)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    lam = (beta * beta - alpha * alpha) / 4
    boeckx = -(beta * beta + alpha * alpha) / (beta * beta - alpha * alpha)
    return {
        "lambda": lam,
        "kappa": 1 - lam * lam,
        "boeckx_invariant": boeckx,
        "mu": 2 * (1 - lam * boeckx),
    }


def tanno(invariants: dict, a) -> dict:
    """Invariants after a D-homothetic deformation with constant a."""
    a = Fraction(a)
    kappa, mu = invariants["kappa"], invariants["mu"]
    return {
        "lambda": invariants["lambda"] / a,
        "kappa": (kappa + a * a - 1) / (a * a),
        "boeckx_invariant": invariants["boeckx_invariant"],
        "mu": (mu + 2 * a - 2) / a,
    }


def _compare(where: str, got: dict, expected: dict) -> list:
    problems = []
    for name, value in expected.items():
        try:
            seen = Fraction(got[name])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            problems.append(f"{where}.{name} missing or not a rational: {got.get(name)!r}")
            continue
        if seen != value:
            problems.append(f"{where}.{name} = {seen}, closed form gives {value}")
    return problems


def _check_model(request: dict, report: dict) -> list:
    desc = request["descriptor"]
    expected = closed_form(desc["alpha"], desc["beta"])
    problems = _compare("invariants", report.get("invariants", {}), expected)
    a = request.get("a", desc.get("deformation_a"))
    if a is not None:
        block = report.get("deformation") or {}
        problems += _compare("deformation.before", block.get("before", {}), expected)
        problems += _compare("deformation.after", block.get("after", {}), tanno(expected, a))
    leaves = desc.get("submanifolds") or []
    blocks = report.get("submanifolds") or []
    kinds = ["diagonal" if s["kind"] == "diag" else s["kind"] for s in leaves]
    if [b.get("kind") for b in blocks] != kinds:
        problems.append(f"leaf kinds {[b.get('kind') for b in blocks]} != requested {kinds}")
    for i, block in enumerate(blocks):
        bad = [r for r in block.get("identities", []) if r.get("status") != "pass"]
        if bad or not block.get("identities"):
            problems.append(f"submanifolds[{i}] has failing or no identity records")
    return problems


def _check_sweep(request: dict, report: dict) -> list:
    problems = []
    rejected, processed = set(), set()
    for row in report.get("grid", []):
        key = (Fraction(row["alpha"]), Fraction(row["beta"]))
        if row.get("status") == "rejected":
            rejected.add(key)
            continue
        processed.add(key)
        problems += _compare(f"grid[{row['alpha']},{row['beta']}]",
                             row.get("invariants", {}), closed_form(*key))
        if row.get("pass") is not True or row.get("boeckx_invariant_range") != "pass":
            problems.append(f"grid point ({row['alpha']}, {row['beta']}) does not pass")
    cells = {(Fraction(a), Fraction(b)) for a in request["alphas"] for b in request["betas"]}
    must_reject = {(a, b) for a, b in cells if b * b <= a * a}
    if rejected != must_reject or processed != cells - must_reject:
        problems.append("sweep rejected or processed the wrong grid rows")
    return problems


def check(request: dict, code, stdout: str) -> tuple[list, str | None]:
    """Problems with one request's exit status and stdout report.

    Returns the problems (empty when the request is correct) and the
    report digest, or None when there is no report to digest.
    """
    if code != 0:
        return [f"exit status {code!r}"], None
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON report: {exc}"], None
    if not isinstance(report, dict):
        return ["stdout report is not a JSON object"], None
    problems = []
    if report.get("pass") is not True:
        problems.append("report does not say pass: true")
    command = request["command"]
    try:
        if command in ("verify", "deform"):
            problems += _check_model(request, report)
        elif command == "sweep":
            problems += _check_sweep(request, report)
        elif not report.get("entries"):
            problems.append("dump-tables exported no entries")
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    seen = digest(report)
    reference = request.get("digest")
    if reference is None:
        problems.append(NO_REFERENCE)
    elif seen != reference:
        problems.append(f"report digest {seen[:12]} != reference {reference[:12]}")
    return problems, seen
