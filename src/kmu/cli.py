"""Command-line entry point.

One descriptor goes in, one machine-readable JSON report comes out on
stdout; the exit status is 0 exactly when every record in the report
passes.  Subcommands: verify, deform, submanifold, sweep, dump-tables.
Rationals appear as "p/q" strings everywhere; floats are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction

from .deformation import d_homothetic, predicted_invariants
from .errors import DescriptorError, KmuError, ParameterError
from .liealg import build_boeckx_model
from .linalg import Vec, rat, rat_str
from .pipeline import analyze_structure
from .report import LAMBDA_NOTE, all_passed
from .submanifold import (
    PRESETS,
    DistributionSpec,
    analyze_submanifold,
    build_distribution,
    leaf_preset,
)

_DESCRIPTOR_KEYS = {"n", "alpha", "beta", "deformation_a", "submanifolds"}


@dataclass(frozen=True)
class ModelDescriptor:
    n: int
    alpha: Fraction
    beta: Fraction
    deformation_a: Fraction | None = None
    submanifolds: tuple = ()


def _no_floats(obj, where="descriptor"):
    if isinstance(obj, float):
        raise DescriptorError(
            f"floating-point literal {obj!r} in {where}; use exact 'p/q' strings"
        )
    if isinstance(obj, dict):
        for key, value in obj.items():
            _no_floats(value, f"{where}.{key}")
    if isinstance(obj, list):
        for i, value in enumerate(obj):
            _no_floats(value, f"{where}[{i}]")


def _parse_leaf(block: dict, where: str, n: int) -> dict:
    """One leaf block checked against its kind's key set and block rule at n.

    Below n = 2 the block rule is skipped: the model is refused for its
    n later, with the same error as a descriptor without leaves.
    Returns the kind and exactly the keys the block gave, rationals
    parsed, ready for ``build_distribution``.
    """
    keys = set(block) - {"kind"}
    try:
        _, blocks = leaf_preset(block.get("kind"), keys)
        leaf = {"kind": block["kind"]}
        if "k" in block:
            k = block["k"]
            # a bool is an int, but True is no eigenspace dimension
            if not isinstance(k, int) or isinstance(k, bool):
                raise DescriptorError(f"{where}.k must be an integer, got {k!r}")
            leaf["k"] = k  # its range is the block rule's
        if "z_choices" in block:
            z_choices = block["z_choices"]
            strings = isinstance(z_choices, list) and all(isinstance(z, str) for z in z_choices)
            if not strings:
                raise DescriptorError(
                    f"{where}.z_choices must be a list of strings, got {z_choices!r}"
                )
            leaf["z_choices"] = tuple(z_choices)
        for key in ("c", "d"):
            if key in block:
                leaf[key] = rat(block[key])
        # a value out of range for this n fails here, not after the analysis
        if n >= 2:
            blocks(n, leaf)
    except ParameterError as exc:
        raise DescriptorError(f"{where}: {exc}") from exc
    return leaf


def parse_descriptor(data: dict) -> ModelDescriptor:
    """Validate the descriptor grammar and parse all rationals."""
    if not isinstance(data, dict):
        raise DescriptorError("descriptor must be a JSON object")
    _no_floats(data)
    unknown = set(data) - _DESCRIPTOR_KEYS
    if unknown:
        raise DescriptorError(f"unknown descriptor keys: {sorted(unknown)}")
    for key in ("n", "alpha", "beta"):
        if key not in data:
            raise DescriptorError(f"descriptor is missing required key {key!r}")
    if not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise DescriptorError(f"n must be an integer, got {data['n']!r}")

    blocks = data.get("submanifolds", [])
    if not isinstance(blocks, list):
        raise DescriptorError(f"submanifolds must be a list, got {blocks!r}")
    subs = []
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise DescriptorError(f"submanifolds[{i}] must be an object")
        subs.append(_parse_leaf(block, f"submanifolds[{i}]", data["n"]))

    deformation_a = rat(data["deformation_a"]) if "deformation_a" in data else None
    # refused here, not after the native analysis has run
    if deformation_a is not None and deformation_a <= 0:
        raise DescriptorError(f"deformation_a must be positive, got {deformation_a}")
    return ModelDescriptor(
        n=data["n"],
        alpha=rat(data["alpha"]),
        beta=rat(data["beta"]),
        deformation_a=deformation_a,
        submanifolds=tuple(subs),
    )


def load_descriptor(path: str) -> ModelDescriptor:
    # a ValueError is a JSON syntax error or bytes that are not UTF-8, and
    # a RecursionError nesting deeper than the decoder allows
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc}") from exc
    return parse_descriptor(data)


def _deformation_block(analysis, a: Fraction) -> tuple[dict, bool]:
    before = analysis.invariants
    deformed = analyze_structure(analysis.model, d_homothetic(analysis.cs, a))
    kappa_t, mu_t = predicted_invariants(before.kappa, before.mu, a)
    match = deformed.invariants.kappa == kappa_t and deformed.invariants.mu == mu_t
    invariance = deformed.invariants.boeckx_invariant == before.boeckx_invariant
    records = list(deformed.records)
    block = {
        "a": rat_str(a),
        "before": before.to_dict(),
        "after": deformed.invariants.to_dict(),
        "predicted": {"kappa": rat_str(kappa_t), "mu": rat_str(mu_t)},
        "kappa_mu_match": "pass" if match else "fail",
        "boeckx_invariance": "pass" if invariance else "fail",
        "identities": [r.to_dict() for r in records],
    }
    ok = match and invariance and all_passed(records)
    return block, ok


def _submanifold_block(analysis, spec: DistributionSpec) -> tuple[dict, bool]:
    _, records, summary = analyze_submanifold(analysis, spec)
    block = dict(summary)
    block["identities"] = [r.to_dict() for r in records]
    return block, all_passed(records)


def _report(desc: ModelDescriptor, body: dict, ok: bool, notes: list) -> dict:
    """The model header, then ``body``, then the notes/pass/generated_at tail.

    An empty ``notes`` list leaves the key out.
    """
    report = {
        "model": {
            "n": desc.n,
            "alpha": rat_str(desc.alpha),
            "beta": rat_str(desc.beta),
        },
        **body,
    }
    if notes:
        report["notes"] = notes
    report["pass"] = ok
    report["generated_at"] = datetime.now(timezone.utc).isoformat()
    return report


def build_report(desc: ModelDescriptor) -> dict:
    """Assemble the full verification report for one descriptor."""
    model = build_boeckx_model(desc.n, desc.alpha, desc.beta)
    analysis = analyze_structure(model)
    ok = analysis.passed

    body = {
        "invariants": analysis.invariants.to_dict(),
        "identities": [r.to_dict() for r in analysis.records],
    }

    if desc.deformation_a is not None:
        block, block_ok = _deformation_block(analysis, desc.deformation_a)
        body["deformation"] = block
        ok = ok and block_ok

    if desc.submanifolds:
        # a block reads only the label and the spanning vectors, so two
        # leaves that span the same frame share one certificate
        certified = {}
        blocks = []
        for sub in desc.submanifolds:
            spec = build_distribution(model, **sub)
            key = (spec.kind, spec.vectors)
            if key not in certified:
                certified[key] = _submanifold_block(analysis, spec)
            block, block_ok = certified[key]
            blocks.append(block)
            ok = ok and block_ok
        body["submanifolds"] = blocks

    return _report(desc, body, ok, [LAMBDA_NOTE])


def _sweep_point(n: int, alpha: Fraction, beta: Fraction) -> dict:
    model = build_boeckx_model(n, alpha, beta)
    analysis = analyze_structure(model)
    inv = analysis.invariants
    in_range = inv.boeckx_invariant <= -1 and (
        (inv.boeckx_invariant == -1) == (alpha == 0)
    )
    ok = analysis.passed and in_range
    return {
        "alpha": rat_str(alpha),
        "beta": rat_str(beta),
        "status": "ok",
        "invariants": inv.to_dict(),
        "boeckx_invariant_range": "pass" if in_range else "fail",
        "pass": ok,
    }


def sweep_report(n: int, alphas, betas) -> dict:
    """Grid sweep; rows with beta^2 <= alpha^2 are rejected, not fatal."""
    points = []
    rejected = []
    for alpha in alphas:
        for beta in betas:
            if beta * beta <= alpha * alpha:
                rejected.append(
                    {
                        "alpha": rat_str(alpha),
                        "beta": rat_str(beta),
                        "status": "rejected",
                        "reason": "beta^2 <= alpha^2",
                    }
                )
            else:
                points.append((alpha, beta))
    if not points:
        raise KmuError("sweep grid is empty: no point satisfies beta^2 > alpha^2")

    points.sort()
    rows = [_sweep_point(n, alpha, beta) for alpha, beta in points]

    invariants = [Fraction(row["invariants"]["boeckx_invariant"]) for row in rows]
    return {
        "n": n,
        "grid": rows + rejected,
        "summary": {
            "points": len(rows),
            "rejected": len(rejected),
            "min_boeckx_invariant": rat_str(min(invariants)),
            "max_boeckx_invariant": rat_str(max(invariants)),
        },
        "pass": all(row["pass"] for row in rows),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _nonzero_entries(table, prefix=()):
    """(index tuple, entry) for every nonzero entry of nested tuples of Vecs."""
    if isinstance(table, Vec):
        for k, x in table.nonzero_entries():
            yield prefix + (k,), x
    else:
        for i, entry in enumerate(table):
            yield from _nonzero_entries(entry, prefix + (i,))


def dump_tables_report(desc: ModelDescriptor, which: str) -> dict:
    analysis = analyze_structure(build_boeckx_model(desc.n, desc.alpha, desc.beta))
    table = analysis.conn.gamma if which == "connection" else analysis.curvature.table
    entries = {
        ",".join(map(str, index)): rat_str(x) for index, x in _nonzero_entries(table)
    }
    return _report(
        desc, {"table": which, "entries": dict(sorted(entries.items()))}, True, []
    )


def _emit(report: dict, out_path: str | None) -> int:
    """Write the report to ``out_path``, if given, then print it.

    The file is written first, so a path that cannot be written prints
    nothing and raises a KmuError naming it.  A stdout whose reader is
    gone raises a KmuError too.
    """
    text = json.dumps(report, indent=2)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise KmuError(f"cannot write report to {out_path}: {exc}") from exc
    try:
        print(text, flush=True)
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit: send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise KmuError(f"cannot write report to stdout: {exc}") from exc
    return 0 if report.get("pass") else 1


def _int_flag(text: str, flag: str) -> int:
    """An integer flag; only [+-]digits, so '2.0' and '2_0' are refused."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ParameterError(f"{flag} must be an integer, got {text!r}")
    return int(text)


def _parse_rational_list(text: str, flag: str):
    """The distinct rationals of a comma-separated flag; a repeat or no value is refused."""
    values = []
    for part in text.split(","):
        if part.strip():
            value = rat(part)
            if value in values:
                raise ParameterError(f"{flag} repeats the value {rat_str(value)}")
            values.append(value)
    if not values:
        raise ParameterError(f"{flag} lists no value")
    return values


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmu",
        description=(
            "Exact verification of the Lie-group models of non-Sasakian"
            " (kappa,mu)-spaces and their Legendrian submanifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full identity suite on a model")
    p.add_argument("descriptor", help="path to a JSON model descriptor")
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("deform", help="apply a homothetic deformation and re-verify")
    p.add_argument("descriptor")
    p.add_argument("--a", required=True, help="deformation constant, 'p/q'")
    p.add_argument("--out")

    p = sub.add_parser("submanifold", help="classify and verify one distribution")
    p.add_argument("descriptor")
    p.add_argument("--kind", required=True, choices=list(PRESETS))
    p.add_argument("--k", help="E(lambda) dimension for kind=mixed")
    p.add_argument(
        "--z-choices",
        type=list,
        help="string of 'x'/'y' characters for Z_3..Z_n (kind=mixed)",
    )
    p.add_argument("--c", help="rational coefficient for kind=diag")
    p.add_argument("--d", help="rational coefficient for kind=diag")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="verify a rational (alpha, beta) grid")
    p.add_argument("--n", required=True)
    p.add_argument("--alphas", required=True, help="comma-separated rationals")
    p.add_argument("--betas", required=True, help="comma-separated rationals")
    p.add_argument("--out")

    p = sub.add_parser("dump-tables", help="export connection or curvature entries")
    p.add_argument("descriptor")
    p.add_argument(
        "--table", default="connection", choices=["connection", "curvature"]
    )
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact I/O at any height
        sys.set_int_max_str_digits(0)
    # argparse reads a word such as -3/2,2 as an option: after a rational
    # flag, or an abbreviation of one, it is taken as --flag=-3/2,2
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        prev = words[-1][2:] if words and words[-1][:2] == "--" else ""
        flag = prev and any(f.startswith(prev) for f in ("a", "c", "d", "alphas", "betas"))
        if flag and word[:1] == "-" and word[1:2].isdigit():
            words[-1] += "=" + word
        else:
            words.append(word)
    args = make_parser().parse_args(words)
    stage = "parse"
    try:
        if args.command == "verify":
            desc = load_descriptor(args.descriptor)
            stage = "verify"
            return _emit(build_report(desc), args.out)

        if args.command == "deform":
            desc = load_descriptor(args.descriptor)
            a = rat(args.a)
            stage = "deform"
            return _emit(build_report(replace(desc, deformation_a=a)), args.out)

        if args.command == "submanifold":
            desc = load_descriptor(args.descriptor)
            given = {key: getattr(args, key) for key in ("kind", "k", "z_choices", "c", "d")}
            if args.k is not None:
                given["k"] = _int_flag(args.k, "--k")
            leaf = _parse_leaf(
                {key: value for key, value in given.items() if value is not None},
                "submanifold",
                desc.n,
            )
            stage = "submanifold"
            model = build_boeckx_model(desc.n, desc.alpha, desc.beta)
            analysis = analyze_structure(model)
            block, ok = _submanifold_block(analysis, build_distribution(model, **leaf))
            report = _report(
                desc, {"submanifold": block}, ok and analysis.passed, [LAMBDA_NOTE]
            )
            return _emit(report, args.out)

        if args.command == "sweep":
            n = _int_flag(args.n, "--n")
            alphas = _parse_rational_list(args.alphas, "--alphas")
            betas = _parse_rational_list(args.betas, "--betas")
            stage = "sweep"
            return _emit(sweep_report(n, alphas, betas), args.out)

        if args.command == "dump-tables":
            desc = load_descriptor(args.descriptor)
            stage = "dump-tables"
            return _emit(dump_tables_report(desc, args.table), args.out)

        raise AssertionError(f"unhandled command {args.command}")
    except KmuError as exc:
        print(
            json.dumps({"error": {"stage": stage, "message": str(exc)}}, indent=2),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
