"""Acceptance gate: every exit criterion, exact (tolerance zero).

One test per criterion; each prints a single `ACCEPTANCE k: PASS/FAIL`
line.  The parameter grid is {(alpha, beta)} = {(0,1), (0,2), (1,2),
(1,3), (2,3)} crossed with n in {2, 3, 4}.
"""

import time
from dataclasses import replace
from fractions import Fraction
from functools import partial

from kmu import (
    Vec,
    analyze_structure,
    analyze_submanifold,
    build_boeckx_model,
    build_contact_structure,
    build_distribution,
    check_jacobi,
    d_homothetic,
    levi_civita,
    predicted_invariants,
    riemann,
    verify_identities,
)
from kmu.connection import metric_compatibility_residuals, torsion_residuals
from kmu.contact import ClosedFormRows, ModelInvariants, closed_form_plane
from kmu.errors import NonInvolutiveError
from kmu.linalg import rat_str
from kmu.report import LAMBDA_NOTE, all_passed
from kmu.submanifold import DistributionSpec, eigen_split, second_fundamental_form
from kmu.cli import build_report, parse_descriptor, sweep_report

from helpers import GRID_AB, analysis, failures, grid_points, model

DIAGONAL_CD = [(1, 1), (2, 1), (1, 3)]

_submanifold_cache = {}


def submanifold_runs(n, alpha, beta):
    """All example distributions analyzed on one grid model, cached."""
    key = (n, alpha, beta)
    if key not in _submanifold_cache:
        m = model(n, alpha, beta)
        an = analysis(n, alpha, beta)
        runs = []
        # each label is the (kind, keys) the leaf was built from
        labels = [("x", {}), ("y", {})]
        labels += [("mixed", {"k": k}) for k in range(1, n)]
        labels += [("diagonal", {"c": c, "d": d}) for (c, d) in DIAGONAL_CD]
        for kind, keys in labels:
            spec = build_distribution(m, kind, **keys)
            geom, records, summary = analyze_submanifold(an, spec)
            runs.append(((kind, keys), spec, geom, records, summary))
        _submanifold_cache[key] = runs
    return _submanifold_cache[key]


def conclude(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. model validity: Jacobi, torsion, compatibility, contact axioms
# ---------------------------------------------------------------------------


def test_criterion_1_model_validity():
    start = time.monotonic()
    axiom_ids = {
        "eta_xi",
        "phi_square",
        "phi_xi",
        "eta_phi",
        "phi_rank",
        "metric_phi_compatibility",
        "contact_condition",
    }
    ok = True
    for n, alpha, beta in grid_points():
        m = build_boeckx_model(n, alpha, beta)
        ok = ok and check_jacobi(m).passed
        conn = levi_civita(m)
        ok = ok and failures(torsion_residuals(m, conn)) == []
        ok = ok and failures(metric_compatibility_residuals(conn)) == []
        build_contact_structure(m)  # raises on any axiom failure
        an = analysis(n, alpha, beta)
        by_id = {r.identity_id: r for r in an.records}
        ok = ok and all(by_id[i].passed for i in axiom_ids | {"jacobi"})
    elapsed = time.monotonic() - start
    conclude(1, ok and elapsed <= 5, f"{elapsed:.2f}s <= 5s")


# ---------------------------------------------------------------------------
# 2. (kappa, mu) certification against closed forms, all basis pairs
# ---------------------------------------------------------------------------


def test_criterion_2_kappa_mu_certification():
    ok = True
    for n, alpha, beta in grid_points():
        inv = analysis(n, alpha, beta).invariants
        a, b = Fraction(alpha), Fraction(beta)
        ok = ok and inv.kappa == 1 - (b * b - a * a) ** 2 / 16
        ok = ok and inv.mu == 2 + (a * a + b * b) / 2
        # the defining curvature condition was re-verified on ALL basis
        # pairs inside the extraction; its record must be green
        records = {r.identity_id: r for r in analysis(n, alpha, beta).records}
        ok = ok and records["kappa_mu_condition"].passed
    conclude(2, ok)


# ---------------------------------------------------------------------------
# 3. lambda resolution and the example connection tables, verbatim
# ---------------------------------------------------------------------------


def expected_x_block(m):
    a = m.alpha
    n = m.n
    z = Vec.zero(m.dim)
    e = partial(Vec.basis, m.dim)
    table = {
        (m.x(1), m.x(1)): z,
        (m.x(1), m.x(2)): z,
        (m.x(2), m.x(1)): -a * e(m.x(2)),
        (m.x(2), m.x(2)): a * e(m.x(1)),
    }
    for i in range(3, n + 1):
        table[(m.x(1), m.x(i))] = z
        table[(m.x(2), m.x(i))] = z
        table[(m.x(i), m.x(1))] = -a * e(m.x(i))
        table[(m.x(i), m.x(2))] = z
        for j in range(3, n + 1):
            table[(m.x(i), m.x(j))] = a * e(m.x(1)) if i == j else z
    return table

def expected_y_block(m):
    b = m.beta
    n = m.n
    z = Vec.zero(m.dim)
    e = partial(Vec.basis, m.dim)
    table = {
        (m.y(1), m.y(1)): b * e(m.y(2)),
        (m.y(1), m.y(2)): -b * e(m.y(1)),
        (m.y(2), m.y(1)): z,
        (m.y(2), m.y(2)): z,
    }
    for i in range(3, n + 1):
        table[(m.y(1), m.y(i))] = z
        table[(m.y(2), m.y(i))] = z
        table[(m.y(i), m.y(1))] = z
        table[(m.y(i), m.y(2))] = -b * e(m.y(i))
        for j in range(3, n + 1):
            table[(m.y(i), m.y(j))] = b * e(m.y(2)) if i == j else z
    return table

def expected_cross_block(m):
    n = m.n
    z = Vec.zero(m.dim)
    table = {}
    for i in range(2, n + 1):
        table[(m.x(1), m.y(i))] = z
    for i in [1] + list(range(3, n + 1)):
        table[(m.y(2), m.x(i))] = z
    for i in range(3, n + 1):
        table[(m.x(i), m.y(2))] = z
        table[(m.y(i), m.x(1))] = z
        for j in range(3, n + 1):
            if i != j:
                table[(m.x(i), m.y(j))] = z
                table[(m.y(i), m.x(j))] = z
    return table


def expected_diagonal_table(m, lam, c, d):
    """The umbilical family's connection rows, with the computed lambda."""
    n = m.n
    e = partial(Vec.basis, m.dim)
    a, b = m.alpha, m.beta

    def v(i):
        return c * e(m.x(i)) + d * e(m.y(i))

    xi = e(0)
    table = {
        (1, 1): b * d * v(2) + (2 * c * d * lam) * xi,
        (1, 2): -b * d * v(1),
        (2, 1): -a * c * v(2),
        (2, 2): a * c * v(1) + (2 * c * d * lam) * xi,
    }
    for j in range(3, n + 1):
        table[(1, j)] = Vec.zero(m.dim)
        table[(2, j)] = Vec.zero(m.dim)
    for i in range(3, n + 1):
        table[(i, 1)] = -a * c * v(i)
        table[(i, 2)] = -b * d * v(i)
        for j in range(3, n + 1):
            if i == j:
                table[(i, j)] = a * c * v(1) + b * d * v(2) + (2 * c * d * lam) * xi
            else:
                table[(i, j)] = Vec.zero(m.dim)
    return table


def test_criterion_3_lambda_and_connection_tables():
    ok = True
    for n, alpha, beta in grid_points():
        m = model(n, alpha, beta)
        an = analysis(n, alpha, beta)
        inv = an.invariants
        a, b = Fraction(alpha), Fraction(beta)
        ok = ok and inv.lam == (b * b - a * a) / 4
        ok = ok and inv.lam * inv.lam == 1 - inv.kappa
        for table in (expected_x_block(m), expected_y_block(m), expected_cross_block(m)):
            for (i, j), expected in table.items():
                ok = ok and an.conn.gamma[i][j] == expected
        for c, d in DIAGONAL_CD:
            c, d = Fraction(c), Fraction(d)
            diag = expected_diagonal_table(m, inv.lam, c, d)
            for (i, j), expected in diag.items():
                vi = c * Vec.basis(m.dim, m.x(i)) + d * Vec.basis(m.dim, m.y(i))
                vj = c * Vec.basis(m.dim, m.x(j)) + d * Vec.basis(m.dim, m.y(j))
                ok = ok and an.conn.nabla(vi, vj) == expected
    # the eigenvalue note is part of every report
    report = build_report(parse_descriptor({"n": 2, "alpha": "0", "beta": "2"}))
    ok = ok and LAMBDA_NOTE in report["notes"]
    conclude(3, ok)


# ---------------------------------------------------------------------------
# 4. curvature closed form on all index tuples
# ---------------------------------------------------------------------------


def test_criterion_4_curvature_closed_form():
    ok = True
    for n, alpha, beta in grid_points():
        records = {r.identity_id: r for r in analysis(n, alpha, beta).records}
        ok = ok and records["curvature_closed_form"].passed
    # timing bound: the n = 4 models, rebuilt from scratch
    start = time.monotonic()
    for alpha, beta in GRID_AB:
        m = build_boeckx_model(4, alpha, beta)
        conn = levi_civita(m)
        R = riemann(m, conn)
        cs = build_contact_structure(m)
        from kmu.contact import attach_h, extract_kappa_mu

        cs = attach_h(m, cs)
        inv = extract_kappa_mu(R, cs)
        rows = ClosedFormRows(inv, cs)
        for i in range(m.dim):
            for j in range(m.dim):
                plane = closed_form_plane(rows, i, j)
                for k in range(m.dim):
                    ok = ok and R.table[i][j][k] == plane.col(k)
    elapsed = time.monotonic() - start
    conclude(4, ok and elapsed <= 30, f"n=4 grid in {elapsed:.2f}s <= 30s")


# ---------------------------------------------------------------------------
# 5. sectional curvature closed forms on all eigenbasis planes
# ---------------------------------------------------------------------------


def test_criterion_5_sectional_curvature():
    ok = True
    for n, alpha, beta in grid_points():
        records = {r.identity_id: r for r in analysis(n, alpha, beta).records}
        ok = ok and records["sectional_curvature"].passed
    conclude(5, ok)


# ---------------------------------------------------------------------------
# 6. deformation: recomputed invariants match closed forms, I fixed
# ---------------------------------------------------------------------------


def test_criterion_6_deformation():
    a_values = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)]
    ok = True
    for n, alpha, beta in grid_points():
        m = model(n, alpha, beta)
        base = analysis(n, alpha, beta)
        for a in a_values:
            cs_t = d_homothetic(base.cs, a)
            deformed = analyze_structure(m, cs_t)
            kappa_t, mu_t = predicted_invariants(
                base.invariants.kappa, base.invariants.mu, a
            )
            ok = ok and deformed.invariants.kappa == kappa_t
            ok = ok and deformed.invariants.mu == mu_t
            ok = (
                ok
                and deformed.invariants.boeckx_invariant
                == base.invariants.boeckx_invariant
            )
            ok = ok and deformed.passed
    conclude(6, ok)


# ---------------------------------------------------------------------------
# 7. invariant coverage across the sweep
# ---------------------------------------------------------------------------


def test_criterion_7_boeckx_invariant_coverage():
    report = sweep_report(
        2,
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(3)],
    )
    ok = report["pass"]
    seen = set()
    for row in report["grid"]:
        if row["status"] != "ok":
            continue
        a, b = Fraction(row["alpha"]), Fraction(row["beta"])
        value = Fraction(row["invariants"]["boeckx_invariant"])
        ok = ok and value == -(b * b + a * a) / (b * b - a * a)
        ok = ok and value <= -1
        ok = ok and (value == -1) == (a == 0)
        seen.add(value)
    for required in (
        Fraction(-1),
        Fraction(-5, 4),
        Fraction(-5, 3),
        Fraction(-13, 5),
    ):
        ok = ok and required in seen
    conclude(7, ok, f"invariants seen: {sorted(seen)}")


# ---------------------------------------------------------------------------
# 8. submanifold identity suite on every example and grid model
# ---------------------------------------------------------------------------


def test_criterion_8_submanifold_identities():
    required = {
        "h_split",
        "h1_symmetric",
        "h2_symmetric",
        "h1_sq_plus_h2_sq",
        "h1_h2_commute",
        "sigma_xi_h2",
        "shape_operator_phi",
        "normal_connection_phi",
        "nabla_h1",
        "nabla_h2",
    }
    ok = True
    for n, alpha, beta in grid_points():
        for label, spec, geom, records, summary in submanifold_runs(n, alpha, beta):
            ids = {r.identity_id for r in records}
            ok = ok and required <= ids
            ok = ok and all_passed(records)
    conclude(8, ok)


# ---------------------------------------------------------------------------
# 9. classification verdicts
# ---------------------------------------------------------------------------


def test_criterion_9_classification():
    ok = True
    for n, alpha, beta in grid_points():
        m = model(n, alpha, beta)
        an = analysis(n, alpha, beta)
        lam = an.invariants.lam
        for (kind, keys), spec, geom, records, summary in submanifold_runs(
            n, alpha, beta
        ):
            ok = ok and summary["kind"] == kind
            if kind == "diagonal":
                ok = ok and geom.classification == "totally_umbilical"
                c, d = Fraction(keys["c"]), Fraction(keys["d"])
                expected_v = (2 * c * d * lam / (c * c + d * d)) * Vec.basis(m.dim, 0)
                ok = ok and geom.umbilical_vector == expected_v
                ok = ok and not expected_v.is_zero()
                ok = ok and eigen_split(an.cs, spec) is None
            else:
                ok = ok and geom.classification == "totally_geodesic"
                plus, minus = eigen_split(an.cs, spec)
                split = (len(plus), len(minus))
                ok = ok and (summary["e_lambda_dim"], summary["e_minus_lambda_dim"]) == split
                if kind == "x":
                    ok = ok and split == (n, 0)
                elif kind == "y":
                    ok = ok and split == (0, n)
                else:
                    ok = ok and split == (keys["k"], n - keys["k"])
    conclude(9, ok)


# ---------------------------------------------------------------------------
# 10. leaf curvature constants, Gauss/Codazzi residuals zero
# ---------------------------------------------------------------------------


def test_criterion_10_leaf_curvature():
    ok = True
    for n, alpha, beta in grid_points():
        an = analysis(n, alpha, beta)
        inv = an.invariants
        K_plus = 2 * inv.lam * (inv.boeckx_invariant + 1)
        K_minus = 2 * inv.lam * (inv.boeckx_invariant - 1)
        ok = ok and K_plus <= 0 and (K_plus == 0) == (inv.boeckx_invariant == -1)
        ok = ok and K_minus < 0
        for (kind, keys), spec, geom, records, summary in submanifold_runs(
            n, alpha, beta
        ):
            by_id = {r.identity_id: r for r in records}
            ok = ok and by_id["gauss"].passed and by_id["codazzi"].passed
            if kind == "diagonal":
                c, d = Fraction(keys["c"]), Fraction(keys["d"])
                sin = (c * c - d * d) / (c * c + d * d)
                cos = -2 * c * d / (c * c + d * d)
                ok = ok and summary["theta"] == {"sin": rat_str(sin), "cos": rat_str(cos)}
                expected = 2 * (1 - inv.mu / 2 + inv.lam * sin)
                ok = ok and Fraction(summary["leaf_curvature"]) == expected
                ok = ok and expected < 0
                ok = ok and (inv.lam * cos) ** 2 + (inv.lam * sin) ** 2 == inv.lam ** 2
                ok = ok and by_id["leaf_space_form"].passed
                ok = ok and by_id["leaf_curvature_negative"].passed
            else:
                if summary.get("e_lambda_dim", 0) >= 2:
                    ok = ok and Fraction(summary["e_lambda_curvature"]) == K_plus
                    ok = ok and by_id["leaf_curvature_e_lambda"].passed
                if summary.get("e_minus_lambda_dim", 0) >= 2:
                    ok = ok and Fraction(summary["e_minus_lambda_curvature"]) == K_minus
                    ok = ok and by_id["leaf_curvature_e_minus_lambda"].passed
    conclude(10, ok)


# ---------------------------------------------------------------------------
# 11. negative controls with named witnesses
# ---------------------------------------------------------------------------


def test_criterion_11_negative_controls():
    ok = True

    # corrupted structure constant fails the Jacobi sweep
    m = model(2, 1, 3)
    structure = [list(row) for row in m.structure]
    bad = list(structure[1][3])
    bad[0] += 1
    structure[1][3] = Vec(bad)
    structure[3][1] = -Vec(bad)
    record = check_jacobi(replace(m, structure=tuple(tuple(row) for row in structure)))
    ok = ok and not record.passed and record.witness_indices is not None

    # the X_1, Y_1 plane is not involutive, witness named
    spec = DistributionSpec(
        kind="x", vectors=(Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1)))
    )
    try:
        second_fundamental_form(analysis(2, 1, 3), spec)
        ok = False
    except NonInvolutiveError as err:
        ok = ok and "[v_0, v_1]" in str(err)

    # a perturbed mu breaks the closed-form curvature comparison
    an = analysis(2, 1, 3)
    corrupted = ModelInvariants(
        kappa=an.invariants.kappa,
        mu=an.invariants.mu + 1,
        lam=an.invariants.lam,
        boeckx_invariant=an.invariants.boeckx_invariant,
    )
    records = verify_identities(
        an.model, an.cs, an.curvature, invariants=corrupted, conn=an.conn
    )
    closed = next(r for r in records if r.identity_id == "curvature_closed_form")
    ok = ok and closed.status == "fail" and closed.witness_indices is not None

    conclude(11, ok)
