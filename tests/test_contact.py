"""Contact structure, h operator, invariant extraction, identity suite."""

from dataclasses import replace
from fractions import Fraction

import pytest

import kmu.contact as contact
import kmu.pipeline as pipeline
from kmu import (
    Mat,
    Vec,
    attach_h,
    bracket,
    build_boeckx_model,
    build_contact_structure,
    d_homothetic,
    verify_identities,
)
from kmu.contact import ModelInvariants, check_contact_axioms, verify_structure
from kmu.errors import StructureError
from kmu.linalg import dot, inner, matsum, outer
from kmu.report import all_passed, scan

from helpers import analysis, deformed_analysis, model


# ---------------------------------------------------------------------------
# structure axioms
# ---------------------------------------------------------------------------


def test_fundamental_form_equals_d_eta_on_x1_y1():
    # oracle: the bracket row [X_1, Y_1] = -beta X_2 + 2 xi makes
    # d eta(X_1, Y_1) = -eta([X_1, Y_1])/2 = -1, matching
    # g(X_1, phi Y_1) = -1
    m = model(2, 2, 3)
    cs = analysis(2, 2, 3).cs
    u, v = Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1))
    br = bracket(m, u, v)
    assert br == -3 * Vec.basis(m.dim, m.x(2)) + 2 * Vec.basis(m.dim, 0)
    assert inner(u, cs.phi @ v, cs.metric) == -1
    assert -dot(cs.eta, br) / 2 == -1


def test_phi_squared_off_xi_line():
    m = model(3, 1, 3)
    cs = analysis(3, 1, 3).cs
    x3 = Vec.basis(m.dim, m.x(3))
    assert cs.phi @ (cs.phi @ x3) == -x3


def test_eta_kills_phi_image():
    m = model(2, 1, 2)
    cs = analysis(2, 1, 2).cs
    for k in range(m.dim):
        assert dot(cs.eta, cs.phi @ Vec.basis(m.dim, k)) == 0


def test_phi_moves_x_to_y():
    m = model(3, 0, 2)
    cs = analysis(3, 0, 2).cs
    for i in range(1, 4):
        assert cs.phi @ Vec.basis(m.dim, m.x(i)) == Vec.basis(m.dim, m.y(i))
        assert cs.phi @ Vec.basis(m.dim, m.y(i)) == -Vec.basis(m.dim, m.x(i))
    assert (cs.phi @ cs.xi).is_zero()


def test_broken_phi_rejected_with_named_violation():
    m = model(2, 0, 2)
    with pytest.raises(StructureError) as err:
        check_contact_axioms(
            m, Mat.diagonal([0] * m.dim), Vec.basis(m.dim, 0), m.metric @ Vec.basis(m.dim, 0),
            m.metric,
        )
    assert "phi_square" in str(err.value)


def test_contact_axioms_checked_once_per_structure(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return check_contact_axioms(*args)

    for module in (contact, pipeline):
        monkeypatch.setattr(module, "check_contact_axioms", counting)
    m = build_boeckx_model(2, 1, 3)
    native = pipeline.analyze_structure(m)
    assert len(calls) == 1
    deformed_cs = d_homothetic(native.cs, Fraction(5, 2))
    deformed = pipeline.analyze_structure(m, deformed_cs)
    assert len(calls) == 2
    # the reported axiom records are those of a fresh check
    for an in (native, deformed):
        cs = an.cs
        fresh = check_contact_axioms(m, cs.phi, cs.xi, cs.eta, cs.metric)
        ids = {r.identity_id for r in fresh}
        assert [r for r in an.records if r.identity_id in ids] == fresh


@pytest.mark.parametrize("bump,message", [
    ("phi", "phi_square fails at (1, 4) with residual -1"),
    ("metric", "metric_phi_compatibility fails at (0, 0) with residual -1"),
], ids=["phi", "metric"])
def test_analysis_checks_the_axioms_of_the_structure_it_is_given(bump, message):
    # a structure edited after it was built is checked afresh: phi + X_1 (x) X_2*
    # breaks phi^2 = -Id + eta (x) xi, and 2G breaks g(phi ., phi .) = g - eta (x) eta
    m = build_boeckx_model(2, 1, 3)
    cs = build_contact_structure(m)
    if bump == "phi":
        e1, e2 = Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.x(2))
        cs = replace(cs, phi=cs.phi + outer(e1, e2))
    else:
        cs = replace(cs, metric=2 * cs.metric)
    with pytest.raises(StructureError) as fresh:
        check_contact_axioms(m, cs.phi, cs.xi, cs.eta, cs.metric)
    with pytest.raises(StructureError) as analysed:
        pipeline.analyze_structure(m, cs)
    assert str(analysed.value) == str(fresh.value) == message


# ---------------------------------------------------------------------------
# the h operator
# ---------------------------------------------------------------------------


def test_h_on_alpha0_beta2_by_lie_derivative_oracle():
    # [xi, X_1] = 0 and [xi, Y_1] = 2 X_1 give
    # h X_1 = ([xi, phi X_1] - phi [xi, X_1]) / 2 = X_1, so lambda = 1
    m = model(2, 0, 2)
    cs = analysis(2, 0, 2).cs
    assert bracket(m, cs.xi, Vec.basis(m.dim, m.x(1))).is_zero()
    assert bracket(m, cs.xi, Vec.basis(m.dim, m.y(1))) == 2 * Vec.basis(m.dim, m.x(1))
    attached = attach_h(m, build_contact_structure(m))
    h, lam = attached.h, attached.lam
    assert lam == 1
    assert h @ Vec.basis(m.dim, m.x(1)) == Vec.basis(m.dim, m.x(1))
    assert cs.h == h and cs.lam == lam


def test_h_annihilates_xi():
    cs = analysis(3, 1, 3).cs
    assert (cs.h @ cs.xi).is_zero()


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3), (4, 2, 3)])
def test_h_eigenstructure(n, alpha, beta):
    m = model(n, alpha, beta)
    cs = analysis(n, alpha, beta).cs
    lam = (Fraction(beta) ** 2 - Fraction(alpha) ** 2) / 4
    assert cs.lam == lam
    for i in range(1, n + 1):
        assert cs.h @ Vec.basis(m.dim, m.x(i)) == lam * Vec.basis(m.dim, m.x(i))
        assert cs.h @ Vec.basis(m.dim, m.y(i)) == -lam * Vec.basis(m.dim, m.y(i))


def test_h_symmetric_and_anticommutes_with_phi():
    cs = analysis(3, 2, 3).cs
    lowered = cs.metric @ cs.h
    assert lowered == lowered.transpose()
    assert (cs.h @ cs.phi + cs.phi @ cs.h).is_zero()


# ---------------------------------------------------------------------------
# invariant extraction
# ---------------------------------------------------------------------------


def test_invariants_alpha0_beta2():
    inv = analysis(2, 0, 2).invariants
    assert (inv.kappa, inv.mu, inv.lam) == (0, 4, 1)
    assert inv.boeckx_invariant == -1


def test_invariants_alpha1_beta3():
    inv = analysis(2, 1, 3).invariants
    assert (inv.kappa, inv.mu, inv.lam) == (-3, 7, 2)
    assert inv.boeckx_invariant == Fraction(-5, 4)


def test_invariants_independent_of_dimension():
    # oracle: rerun the extraction at n = 2 and n = 3 and compare
    low = analysis(2, 0, 2).invariants
    high = analysis(3, 0, 2).invariants
    assert (low.kappa, low.mu, low.boeckx_invariant) == (
        high.kappa,
        high.mu,
        high.boeckx_invariant,
    )


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 1), (3, 1, 2), (4, 2, 3)])
def test_closed_forms_for_kappa_mu_lambda(n, alpha, beta):
    inv = analysis(n, alpha, beta).invariants
    a, b = Fraction(alpha), Fraction(beta)
    assert inv.kappa == 1 - (b * b - a * a) ** 2 / 16
    assert inv.mu == 2 + (a * a + b * b) / 2
    assert inv.lam * inv.lam == 1 - inv.kappa
    assert inv.boeckx_invariant == -(b * b + a * a) / (b * b - a * a)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3)])
def test_full_identity_suite_passes(n, alpha, beta):
    an = analysis(n, alpha, beta)
    records = verify_identities(
        an.model, an.cs, an.curvature, invariants=an.invariants, conn=an.conn
    )
    ids = {r.identity_id for r in records}
    assert ids == {
        "h_square",
        "nabla_phi",
        "nabla_h",
        "curvature_closed_form",
        "nabla_xi",
    }
    assert all_passed(records)
    for r in records:
        assert r.residual == 0


def test_corrupted_mu_fails_closed_form_check():
    an = analysis(2, 0, 2)
    corrupt = ModelInvariants(
        kappa=an.invariants.kappa,
        mu=an.invariants.mu + 1,
        lam=an.invariants.lam,
        boeckx_invariant=an.invariants.boeckx_invariant,
    )
    records = verify_identities(
        an.model, an.cs, an.curvature, invariants=corrupt, conn=an.conn
    )
    by_id = {r.identity_id: r for r in records}
    assert by_id["curvature_closed_form"].status == "fail"
    assert by_id["curvature_closed_form"].witness_indices is not None
    assert by_id["curvature_closed_form"].residual != 0


def test_corrupted_kappa_fails_h_square_check():
    an = analysis(2, 1, 3)
    corrupt = replace(an.invariants, kappa=an.invariants.kappa + 1)
    records = verify_identities(
        an.model, an.cs, an.curvature, invariants=corrupt, conn=an.conn
    )
    by_id = {r.identity_id: r for r in records}
    assert by_id["h_square"].status == "fail"


# ---------------------------------------------------------------------------
# negative controls: one corruption flips the structure records reading it
# ---------------------------------------------------------------------------


def _changed_h_entry(cs, inv):
    rows = [[cs.h[i, j] for j in range(cs.h.shape[1])] for i in range(cs.h.shape[0])]
    rows[1][2] += 1
    return replace(cs, h=Mat(rows)), inv


def _shifted_mu(cs, inv):
    return cs, replace(inv, mu=inv.mu + 1)


def _shifted_kappa(cs, inv):
    return cs, replace(inv, kappa=inv.kappa + Fraction(1, 7))


# The (kappa, mu) condition's right-hand side reads h X_2 and kappa, so
# those two corruptions reach it as well; each row states its exact set.
@pytest.mark.parametrize("corrupt,target,witness,residual,also_flipped", [
    (_changed_h_entry, "h_structure", (1, 2), 1, {"kappa_mu_condition"}),
    (_shifted_mu, "kappa_mu_condition", (0, 1), 2, set()),
    (_shifted_kappa, "lambda_kappa_identity", None, Fraction(1, 7), {"kappa_mu_condition"}),
])
def test_corrupted_structure_flips_its_records(
    corrupt, target, witness, residual, also_flipped
):
    _assert_flips(analysis(2, 1, 3), corrupt, target, witness, residual, also_flipped)


def test_corrupted_deformed_structure_flips_its_records():
    # under the deformed metric, a = 2 with g(X_1, X_1) = 2, the g-symmetry
    # residual g(e_1, h e_2) - g(h e_1, e_2) carries the metric entry: 2, not 1
    an = deformed_analysis(2, 1, 3, 2)
    assert an.cs.metric[1, 1] == 2
    _assert_flips(an, _changed_h_entry, "h_structure", (1, 2), 2, {"kappa_mu_condition"})


def _assert_flips(an, corrupt, target, witness, residual, also_flipped):
    clean = verify_structure(an.cs, an.curvature, an.invariants)
    assert [r.identity_id for r in clean] == [
        "h_structure", "kappa_mu_condition", "lambda_kappa_identity"
    ]
    assert all_passed(clean)
    cs, inv = corrupt(an.cs, an.invariants)
    bad = {r.identity_id: r for r in verify_structure(cs, an.curvature, inv)}
    assert {i for i, r in bad.items() if not r.passed} == {target} | also_flipped
    assert bad[target].witness_indices == witness
    assert bad[target].residual == residual
    for identity_id in also_flipped:
        assert bad[identity_id].witness_indices
        assert bad[identity_id].residual != 0


def _reference_kappa_mu(cs, R, inv):
    """kappa_mu_condition with the rhs of each i as one matrix.

    Column j of matsum(outer(K e_i, eta) - eta(e_i) K), K = kappa Id + mu h,
    is eta(e_j) K e_i - eta(e_i) K e_j, read for every j > i.
    """
    dim = len(cs.xi)
    K = matsum(((inv.kappa, Mat.identity(dim)), (inv.mu, cs.h)), dim, dim)

    def residuals():
        for i in range(dim):
            rhs = matsum(((1, outer(K.col(i), cs.eta)), (-cs.eta[i], K)), dim, dim)
            for j in range(i + 1, dim):
                yield (i, j), R.planes[i, j] @ cs.xi - rhs.col(j)

    return scan("kappa_mu_condition", residuals())


@pytest.mark.parametrize("a", [None, 2], ids=["native", "deformed"])
@pytest.mark.parametrize("field,delta", [
    ("mu", 1), ("mu", Fraction(-2, 3)), ("kappa", Fraction(1, 7)), ("kappa", -1),
])
def test_kappa_mu_record_matches_the_per_i_matsum(a, field, delta):
    an = analysis(3, 1, 3) if a is None else deformed_analysis(3, 1, 3, a)
    clean = {r.identity_id: r for r in verify_structure(an.cs, an.curvature, an.invariants)}
    assert clean["kappa_mu_condition"] == _reference_kappa_mu(
        an.cs, an.curvature, an.invariants
    )
    assert clean["kappa_mu_condition"].passed
    inv = replace(an.invariants, **{field: getattr(an.invariants, field) + delta})
    got = {r.identity_id: r for r in verify_structure(an.cs, an.curvature, inv)}
    want = _reference_kappa_mu(an.cs, an.curvature, inv)
    assert got["kappa_mu_condition"] == want
    assert not want.passed
