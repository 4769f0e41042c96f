"""Connection and curvature: Koszul oracle, tables, and invariances."""

import random
from fractions import Fraction

import pytest

import kmu.pipeline as pipeline
from kmu import (
    Vec,
    bracket,
    inner,
    sectional_curvature,
    solve_diagonal_metric,
)
from kmu.connection import (
    curvature_symmetry_residuals,
    metric_compatibility_residuals,
    riemann,
    torsion_residuals,
)
from kmu.errors import DegeneratePlaneError
from kmu.linalg import dot
from kmu.submanifold import build_distribution, second_fundamental_form

from helpers import analysis, bump, deformed_analysis, failures, lowered_plane, model


def koszul_oracle(m, i, j, G=None):
    """Independent evaluation: 2 g(nabla_i e_j, Z) over all basis Z."""
    G = m.metric if G is None else G
    basis = [Vec.basis(m.dim, k) for k in range(m.dim)]
    rhs = []
    for k in range(m.dim):
        val = (
            inner(bracket(m, basis[i], basis[j]), basis[k], G)
            - inner(bracket(m, basis[j], basis[k]), basis[i], G)
            + inner(bracket(m, basis[k], basis[i]), basis[j], G)
        ) / 2
        rhs.append(val)
    return solve_diagonal_metric(G, Vec(rhs))


# ---------------------------------------------------------------------------
# connection values from the example tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,alpha,beta", [(2, 1, 3), (3, 2, 3)])
def test_nabla_on_x_block(n, alpha, beta):
    m = model(n, alpha, beta)
    conn = analysis(n, alpha, beta).conn
    a = Fraction(alpha)
    assert conn.gamma[m.x(2)][m.x(1)] == -a * Vec.basis(m.dim, m.x(2))
    assert conn.gamma[m.x(2)][m.x(2)] == a * Vec.basis(m.dim, m.x(1))
    assert conn.gamma[m.x(1)][m.x(1)].is_zero()
    assert conn.gamma[m.x(1)][m.x(2)].is_zero()


@pytest.mark.parametrize("n,alpha,beta", [(2, 1, 3), (3, 1, 2)])
def test_nabla_on_y_block(n, alpha, beta):
    m = model(n, alpha, beta)
    conn = analysis(n, alpha, beta).conn
    b = Fraction(beta)
    assert conn.gamma[m.y(1)][m.y(1)] == b * Vec.basis(m.dim, m.y(2))
    assert conn.gamma[m.y(1)][m.y(2)] == -b * Vec.basis(m.dim, m.y(1))
    assert conn.gamma[m.y(2)][m.y(1)].is_zero()
    assert conn.gamma[m.y(2)][m.y(2)].is_zero()


def test_nabla_x1_y1_against_direct_koszul():
    m = model(2, 0, 2)
    conn = analysis(2, 0, 2).conn
    expected = koszul_oracle(m, m.x(1), m.y(1))
    assert expected == 2 * Vec.basis(m.dim, 0)
    assert conn.gamma[m.x(1)][m.y(1)] == expected
    expected = koszul_oracle(m, m.y(1), m.x(1))
    assert expected == 2 * Vec.basis(m.dim, m.x(2))
    assert conn.gamma[m.y(1)][m.x(1)] == expected
    # torsion cross-check against the bracket row
    diff = conn.gamma[m.x(1)][m.y(1)] - conn.gamma[m.y(1)][m.x(1)]
    assert diff == bracket(m, Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1)))


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3)])
def test_connection_matches_koszul_everywhere(n, alpha, beta):
    m = model(n, alpha, beta)
    conn = analysis(n, alpha, beta).conn
    for i in range(m.dim):
        for j in range(m.dim):
            assert conn.gamma[i][j] == koszul_oracle(m, i, j)


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (2, 1, 3), (4, 2, 3)])
def test_torsion_and_metric_compatibility(n, alpha, beta):
    m = model(n, alpha, beta)
    conn = analysis(n, alpha, beta).conn
    assert failures(torsion_residuals(m, conn)) == []
    assert failures(metric_compatibility_residuals(conn)) == []


# ---------------------------------------------------------------------------
# curvature table
# ---------------------------------------------------------------------------


def test_curvature_symmetries_by_direct_loop():
    m = model(2, 1, 3)
    R = analysis(2, 1, 3).curvature
    dim = m.dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                assert (R.table[i][j][k] + R.table[j][i][k]).is_zero()
                total = R.table[i][j][k] + R.table[j][k][i] + R.table[k][i][j]
                assert total.is_zero()
    assert failures(curvature_symmetry_residuals(R)) == []


def test_structure_scans_yield_every_tuple_they_visit():
    # report.scan alone decides what fails: each scan yields its residual
    # at every tuple it visits, zero or not, so a clean model gives a
    # fixed number of zero residuals
    m, an = model(2, 1, 3), analysis(2, 1, 3)
    conn, R, dim = an.conn, an.curvature, m.dim
    torsion = torsion_residuals(m, conn)
    assert [w for w, _ in torsion] == [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    # metric compatibility visits the tuples k >= j where g(nabla_i e_j, e_k)
    # or g(nabla_i e_k, e_j) is nonzero
    basis = [Vec.basis(dim, t) for t in range(dim)]
    g_nabla = [
        [[inner(conn.gamma[i][j], basis[k], conn.metric) for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    compat = metric_compatibility_residuals(conn)
    assert [w for w, _ in compat] == [
        (i, j, k)
        for i in range(dim)
        for j in range(dim)
        for k in range(j, dim)
        if g_nabla[i][j][k] or g_nabla[i][k][j]
    ]
    # Bianchi visits the triples with a nonzero entry; pair symmetry the
    # tuples i < j, k <= l, (k, l) >= (i, j) or k = l where an entry it
    # compares is nonzero; antisymmetry in the last two slots the tuples
    # i < j, k < l where either entry it adds is nonzero
    table = R.table
    low = [[lowered_plane(R, i, j) for j in range(dim)] for i in range(dim)]
    bianchi = [
        (i, j, k)
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(j + 1, dim)
        if any(not table[a][b][c].is_zero() for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
    ]
    pair = [
        (i, j, k, l)
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(dim)
        for l in range(k, dim)
        if (k == l and low[i][j][k][k]) or (
            k < l and (k, l) >= (i, j) and (low[i][j][k][l] or low[k][l][i][j])
        )
    ]
    last_pair = [
        (i, j, k, l)
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(dim)
        for l in range(k + 1, dim)
        if low[i][j][k][l] or low[i][j][l][k]
    ]
    symmetries = curvature_symmetry_residuals(R)
    assert [w for w, _ in symmetries] == bianchi + pair + last_pair
    counts = (len(torsion), len(compat), len(bianchi), len(pair), len(last_pair))
    assert counts == (10, 12, 4, 11, 14)
    for residuals in (torsion, compat, symmetries):
        assert failures(residuals) == []


def test_curvature_symmetries_record_fails_on_corrupted_entry(monkeypatch):
    # R(X_1, X_2) X_3 gains an X_1 component in its stored plane, breaking
    # first Bianchi at (X_1, X_2, X_3)
    def corrupted_riemann(model_, conn):
        R = riemann(model_, conn)
        return bump(R, (1, 2, 3), Vec.basis(R.dim, 1))

    monkeypatch.setattr(pipeline, "riemann", corrupted_riemann)
    analysis_ = pipeline.analyze_structure(model(3, 1, 3))
    record = {r.identity_id: r for r in analysis_.records}["curvature_symmetries"]
    assert record.status == "fail"
    assert record.witness_indices == (1, 2, 3)
    assert record.residual == 1


def test_lowered_pair_symmetry_direct():
    R = analysis(2, 1, 3).curvature
    dim = R.dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    assert lowered_plane(R, i, j)[k][l] == lowered_plane(R, k, l)[i][j]


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (2, 1, 3), (3, 1, 2)])
def test_curvature_probe_matches_closed_form_constants(n, alpha, beta):
    m = model(n, alpha, beta)
    an = analysis(n, alpha, beta)
    R, cs = an.curvature, an.cs
    a, b = Fraction(alpha), Fraction(beta)
    kappa = 1 - (b * b - a * a) ** 2 / 16
    mu = 2 + (a * a + b * b) / 2
    lam = (b * b - a * a) / 4
    got = R.apply(Vec.basis(m.dim, m.x(1)), cs.xi, cs.xi)
    assert got == (kappa + mu * lam) * Vec.basis(m.dim, m.x(1))
    got = R.apply(Vec.basis(m.dim, m.y(1)), cs.xi, cs.xi)
    assert got == (kappa - mu * lam) * Vec.basis(m.dim, m.y(1))


def test_curvature_vanishes_on_repeated_first_slots():
    an = analysis(2, 0, 2)
    R, cs = an.curvature, an.cs
    for k in range(R.dim):
        assert R.apply(cs.xi, cs.xi, Vec.basis(R.dim, k)).is_zero()


# ---------------------------------------------------------------------------
# covariant derivative of (1,1)-tensors
# ---------------------------------------------------------------------------


def covariant_derivative(conn, T, X, Y):
    """(nabla_X T) Y = nabla_X (T Y) - T (nabla_X Y), through nabla on gamma."""
    return conn.nabla(X, T @ Y) - T @ conn.nabla(X, Y)


def test_covariant_derivative_of_phi_matches_structure_identity():
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    cs, conn = an.cs, an.conn
    X = Vec.basis(m.dim, m.x(1))
    for j in range(m.dim):
        Y = Vec.basis(m.dim, j)
        expected = inner(X, Y + cs.h @ Y, cs.metric) * cs.xi - dot(cs.eta, Y) * (
            X + cs.h @ X
        )
        assert covariant_derivative(conn, cs.phi, X, Y) == expected


def test_covariant_derivative_of_h_along_xi_has_mu_term():
    m = model(2, 1, 3)
    an = analysis(2, 1, 3)
    cs, conn, inv = an.cs, an.conn, an.invariants
    kappa, mu = inv.kappa, inv.mu
    mu_term_seen = False
    for j in range(m.dim):
        Y = Vec.basis(m.dim, j)
        phi_h_Y = cs.phi @ (cs.h @ Y)
        expected = (
            ((1 - kappa) * inner(cs.xi, cs.phi @ Y, cs.metric)
             - inner(cs.xi, phi_h_Y, cs.metric)) * cs.xi
            - dot(cs.eta, Y) * ((1 - kappa) * (cs.phi @ cs.xi) + cs.phi @ (cs.h @ cs.xi))
            - mu * dot(cs.eta, cs.xi) * phi_h_Y
        )
        assert covariant_derivative(conn, cs.h, cs.xi, Y) == expected
        if not phi_h_Y.is_zero():
            mu_term_seen = True
    assert mu_term_seen


# ---------------------------------------------------------------------------
# sectional curvature
# ---------------------------------------------------------------------------


def test_sectional_values_on_eigenplanes():
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    R, inv = an.curvature, an.invariants
    G = m.metric
    k_plus = 2 * (1 + inv.lam) - inv.mu
    k_minus = 2 * (1 - inv.lam) - inv.mu
    assert sectional_curvature(
        R, G, Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.x(2))
    ) == k_plus
    assert sectional_curvature(
        R, G, Vec.basis(m.dim, m.y(1)), Vec.basis(m.dim, m.y(2))
    ) == k_minus
    assert sectional_curvature(
        R, G, Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(2))
    ) == 0
    assert sectional_curvature(
        R, G, Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1))
    ) == -(inv.kappa + inv.mu)


def test_sectional_invariant_under_plane_basis_change():
    m = model(2, 1, 3)
    an = analysis(2, 1, 3)
    R = an.curvature
    u, v = Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1))
    K = sectional_curvature(R, m.metric, u, v)
    rng = random.Random(7)
    for _ in range(8):
        a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        u2 = a * u + b * v
        v2 = c * u + d * v
        assert sectional_curvature(R, m.metric, u2, v2) == K


def test_sectional_rejects_dependent_vectors():
    m = model(2, 0, 2)
    R = analysis(2, 0, 2).curvature
    u = Vec.basis(m.dim, m.x(1))
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(R, m.metric, u, 3 * u)


@pytest.mark.parametrize("a", [None, Fraction(991, 363)], ids=["native", "deformed"])
def test_sectional_reader_matches_sectional_curvature(a):
    an = analysis(3, 1, 3) if a is None else deformed_analysis(3, 1, 3, a)
    R = an.curvature
    basis = [Vec.basis(R.dim, k) for k in range(R.dim)]
    values = set()
    for i in range(R.dim):
        for j in range(R.dim):
            if i != j:
                K = R.sectional(i, j)
                assert K == sectional_curvature(R, R.metric, basis[i], basis[j]), (i, j)
                values.add(K)
    assert len(values) > 2  # zero and nonzero planes, of more than one value
    with pytest.raises(DegeneratePlaneError):
        R.sectional(1, 1)


@pytest.mark.parametrize("leaf", [
    {"kind": "x"}, {"kind": "mixed", "k": 2}, {"kind": "diagonal", "c": 2, "d": 1},
], ids=["x", "mixed", "diagonal"])
def test_sectional_reader_on_leaf_curvature(leaf):
    an = analysis(3, 1, 3)
    spec = build_distribution(an.model, **leaf)
    geom = second_fundamental_form(an, spec)
    rbar, norms = geom.rbar, geom.frame.norms
    n = rbar.dim
    for a in range(n):
        for b in range(n):
            if a != b:
                # Rbar(v_a, v_b, v_b, v_a) / (g_aa g_bb) on an orthogonal frame
                lowered = inner(rbar.column(a, b, b), Vec.basis(n, a), rbar.metric)
                assert rbar.sectional(a, b) == lowered / (norms[a] * norms[b])
