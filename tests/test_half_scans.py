"""Half scans over the index pairs i < j, against full-order references.

The closed-form, kappa-mu, Gauss, Codazzi and leaf space-form scans
visit only i < j (a < b) of their first two slots.  R and Rbar are
antisymmetric in that pair by construction, as ``CurvatureTable`` stores
one plane per pair, and the closed form is because the contact axioms
that every structure passes make g(phi ., .) skew.  These tests count
the work each scan does and compare its records with the full-order
loops kept here, on clean tables and on tables with a corrupted stored
plane, where the half scan must still find the first failing tuple of
the full order, or with one entry moved to a tuple where the table is
zero.  The closed form also compares each plane whole before it walks
any column, so only a plane that differs is subtracted and walked.
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmu import contact
from kmu.connection import ConnectionTable, CurvatureTable
from kmu.contact import (
    ClosedFormRows,
    ContactStructure,
    ModelInvariants,
    check_contact_axioms,
    closed_form_plane,
    standard_phi,
    verify_identities,
    verify_structure,
)
from kmu.errors import StructureError
from kmu.linalg import Mat, Vec, combine, dot, inner, matsum, outer
from kmu.report import scan
from kmu.submanifold import (
    analyze_submanifold,
    build_distribution,
    eigen_split,
    gauss_codazzi_residuals,
    leaf_curvature_records,
    second_fundamental_form,
)

from helpers import analysis, bump, deformed_analysis, grid_points, model


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends each call's args."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _leaves(n):
    """(kind, keys) of every leaf preset on a model of rank n."""
    return (
        [("x", {}), ("y", {})]
        + [("mixed", {"k": k}) for k in range(1, n)]
        + [("diagonal", {"c": 2, "d": 1})]
    )


def _by_id(records):
    return {r.identity_id: r for r in records}


# ---------------------------------------------------------------------------
# full-order references: the scans as they read before the halving
# ---------------------------------------------------------------------------


def _reference_closed_form(an, R):
    dim = R.dim
    rows = ClosedFormRows(an.invariants, an.cs)
    planes = {(i, j): closed_form_plane(rows, i, j) for i in range(dim) for j in range(dim)}
    return scan("curvature_closed_form", (
        ((i, j, k), R.column(i, j, k) - planes[i, j].col(k))
        for i in range(dim)
        for j in range(dim)
        for k in range(dim)
    ))


def _reference_kappa_mu(an, R):
    cs, inv = an.cs, an.invariants
    dim = R.dim
    K = matsum(((inv.kappa, Mat.identity(dim)), (inv.mu, cs.h)), dim, dim)
    eta = [dot(cs.eta, Vec.basis(dim, t)) for t in range(dim)]
    return scan("kappa_mu_condition", (
        ((i, j), combine(((x, R.column(i, j, k)) for k, x in cs.xi.nonzero_entries()), dim)
         - (eta[j] * K.col(i) - eta[i] * K.col(j)))
        for i in range(dim)
        for j in range(dim)
    ))


def _reference_gauss_codazzi(R, conn, geom):
    frame, nb = geom.frame, geom.nbar.gamma
    vectors, n, G = frame.vectors, len(frame.vectors), conn.metric
    sigma = [[S.col(b) for b in range(n)] for S in geom.sigma]
    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    ambient = {t: R.apply(*(vectors[x] for x in t)) for t in triples}
    nabla_sigma = {
        (a, b, c): frame.project(conn.nabla(vectors[a], sigma[b][c]))[1]
        - combine(zip(nb[a][b], sigma[c]), conn.dim)
        - combine(zip(nb[a][c], sigma[b]), conn.dim)
        for a, b, c in triples
    }
    gauss = (
        ((a, b, c, d), inner(ambient[a, b, c], vectors[d], G) - (
            geom.rbar.column(a, b, c)[d] * frame.norms[d]
            - inner(sigma[a][d], sigma[b][c], G)
            + inner(sigma[a][c], sigma[b][d], G)
        ))
        for a, b, c in triples
        for d in range(n)
    )
    codazzi = (
        ((a, b, c), frame.project(ambient[a, b, c])[1]
         - (nabla_sigma[a, b, c] - nabla_sigma[b, a, c]))
        for a, b, c in triples
    )
    return [scan("gauss", gauss), scan("codazzi", codazzi)]


def _reference_space_form(geom, K):
    # the whole Gram matrix, g(v_a, v_d) at (a, d), off-diagonal zeros included
    gram, n = geom.frame.lowering @ geom.frame.span, len(geom.frame.vectors)
    return scan("leaf_space_form", (
        ((a, b, c, d), geom.rbar.column(a, b, c)[d] * geom.frame.norms[d]
         - K * (gram[a, d] * gram[b, c] - gram[a, c] * gram[b, d]))
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for d in range(n)
    ))


def _reference_closed_form_curvature(inv, cs, i, j, k):
    """R(e_i, e_j) e_k by the full expansion of the class, every term summed.

    Reads g, h, phi and eta of the structure directly, and the constants
    from kappa and mu, so nothing is shared with closed_form_plane.
    """
    dim = len(cs.xi)
    G, h, phi = cs.metric, cs.h, cs.phi
    X, Y, Z = (Vec.basis(dim, t) for t in (i, j, k))
    hX, hY = h @ X, h @ Y
    phiX, phiY, phiZ = phi @ X, phi @ Y, phi @ Z
    phihX, phihY = phi @ hX, phi @ hY
    eX, eY, eZ = (dot(cs.eta, v) for v in (X, Y, Z))
    kappa, mu = inv.kappa, inv.mu
    c_h = (1 - mu / 2) / (1 - kappa)
    c_phih = (kappa - mu / 2) / (1 - kappa)
    c1, c2 = kappa - 1 + mu / 2, mu - 1
    g = lambda u, v: inner(u, v, G)  # noqa: E731
    terms = [
        (1 - mu / 2) * g(Y, Z) * X,
        -(1 - mu / 2) * g(X, Z) * Y,
        g(Y, Z) * hX,
        -g(X, Z) * hY,
        -g(hX, Z) * Y,
        g(hY, Z) * X,
        c_h * g(hY, Z) * hX,
        -c_h * g(hX, Z) * hY,
        -(mu / 2) * g(phiY, Z) * phiX,
        (mu / 2) * g(phiX, Z) * phiY,
        mu * g(phiX, Y) * phiZ,
        c_phih * g(phihY, Z) * phihX,
        -c_phih * g(phihX, Z) * phihY,
        c1 * (eY * eZ * X - eX * eZ * Y),
        c2 * (eY * eZ * hX - eX * eZ * hY),
        c1 * (eX * g(Y, Z) - eY * g(X, Z)) * cs.xi,
        c2 * (eX * g(hY, Z) - eY * g(hX, Z)) * cs.xi,
    ]
    total = Vec.zero(dim)
    for term in terms:
        total = total + term
    return total


# ---------------------------------------------------------------------------
# how much each scan visits
# ---------------------------------------------------------------------------


def _consume_every_residual(monkeypatch):
    # scan stops at the first failure; reading every residual first
    # makes the call counts independent of where that is
    monkeypatch.setattr(contact, "scan", lambda identity_id, residuals: scan(
        identity_id, list(residuals)
    ))


def test_closed_form_visits_i_below_j_on_an_antisymmetric_table(monkeypatch):
    an = analysis(3, 1, 3)
    dim = an.model.dim
    _consume_every_residual(monkeypatch)
    calls = _count_calls(monkeypatch, contact, "closed_form_plane")
    records = verify_identities(an.model, an.cs, an.curvature, an.invariants, an.conn)
    assert _by_id(records)["curvature_closed_form"].passed
    assert len(calls) == dim * (dim - 1) // 2
    assert all(i < j for _, i, j in calls)


class _SubtractedPlane(Mat):
    """A closed-form plane that records each subtraction from it.

    ``lhs - plane`` calls this reflected method before ``Mat.__sub__``,
    as the plane's type is a subclass of the stored plane's.
    """

    def __rsub__(self, other):
        self.subtracted.append(self.pair)
        return matsum(((1, other), (-1, self)), *self.shape)


STRUCTURES = {
    "native": lambda: analysis(3, 1, 3),
    "deformed": lambda: deformed_analysis(3, 1, 3, 2),
}


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_closed_form_walks_the_columns_of_a_differing_plane_only(monkeypatch, structure):
    # a plane equal to its closed form is covered by one Mat equality, so a
    # certified table subtracts no closed-form plane; a table with one
    # changed stored entry subtracts that plane once, and only its
    # difference is walked column by column
    an = STRUCTURES[structure]()
    dim = an.model.dim
    subtracted = []
    original = contact.closed_form_plane

    def subtracted_plane(rows, i, j):
        # row r of the closed-form plane is column r of its transpose
        transposed = original(rows, i, j).transpose()
        plane = _SubtractedPlane([transposed.col(r) for r in range(dim)])
        plane.pair, plane.subtracted = (i, j), subtracted
        return plane

    _consume_every_residual(monkeypatch)
    monkeypatch.setattr(contact, "closed_form_plane", subtracted_plane)
    records = verify_identities(an.model, an.cs, an.curvature, an.invariants, an.conn)
    assert _by_id(records)["curvature_closed_form"].passed
    assert subtracted == []
    R = bump(an.curvature, (1, 2, 3), Vec.basis(dim, 1))
    records = verify_identities(an.model, an.cs, R, an.invariants, an.conn)
    assert not _by_id(records)["curvature_closed_form"].passed
    assert subtracted == [(1, 2)]


def test_contact_axioms_refuse_a_phi_with_g_phi_nonzero_on_the_diagonal():
    # the closed-form scan visits i < j only because g(phi e_a, e_b) is
    # skew on every structure that reaches it; a phi with g(phi e_1, e_1)
    # != 0 is refused before analysis
    m = model(2, 1, 3)
    dim = m.dim
    xi = Vec.basis(dim, 0)
    eta = m.metric @ xi
    phi = standard_phi(m) + outer(Vec.basis(dim, 1), Vec.basis(dim, 1))
    assert inner(phi @ Vec.basis(dim, 1), Vec.basis(dim, 1), m.metric) != 0
    with pytest.raises(StructureError) as err:
        check_contact_axioms(m, phi, xi, eta, m.metric)
    assert str(err.value) == "phi_square fails at (1, 1) with residual 1"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauss_codazzi_applies_R_on_a_below_b_only(monkeypatch, n):
    an = analysis(n, 1, 3)
    geoms = [
        second_fundamental_form(an, build_distribution(an.model, kind, **keys))
        for kind, keys in _leaves(n)
    ]
    # the plane coefficients of R(v_a, v_b) are taken once per pair a < b,
    # for the one product of R(v_a, v_b) with the whole frame
    pairs = _count_calls(monkeypatch, CurvatureTable, "pair_coefficients")
    for geom in geoms:
        del pairs[:]
        records = gauss_codazzi_residuals(an.curvature, an.conn, geom)
        assert all(r.passed for r in records)
        assert len(pairs) == n * (n - 1) // 2
        vectors = geom.frame.vectors
        assert all(vectors.index(u) < vectors.index(v) for _, u, v in pairs)
        assert len({(vectors.index(u), vectors.index(v)) for _, u, v in pairs}) == len(pairs)


# ---------------------------------------------------------------------------
# every record against the full-order reference
# ---------------------------------------------------------------------------


def _curvature_cases(dim, n):
    """Clean and corrupted R tables, each corruption one stored plane entry."""
    e = lambda t: Vec.basis(dim, t)  # noqa: E731
    x1, x2, y1, y2 = 1, 2, n + 1, n + 2
    return {
        "clean": lambda R: R,
        # R(X_1, X_2) X_1, R(Y_1, Y_2) Y_1 and R(X_1, Y_2) xi
        "corrupted": lambda R: bump(
            bump(bump(R, (x1, x2, x1), e(x2)), (y1, y2, y1), e(y2)), (x1, y2, 0), e(y1)
        ),
    }


def _leaf_cases(n):
    """Clean and corrupted Rbar tables."""
    e0 = Vec.basis(n, 0)
    return {
        "clean": lambda rbar: rbar,
        "corrupted": lambda rbar: bump(rbar, (0, 1, 1), e0),
    }


@pytest.mark.parametrize("n,alpha,beta", [p for p in grid_points() if p[0] <= 4])
def test_half_scans_match_full_order_references(n, alpha, beta):
    an = analysis(n, alpha, beta)
    dim = an.model.dim
    failing = set()

    for name, corrupt in _curvature_cases(dim, n).items():
        R = corrupt(an.curvature)
        got = _by_id(verify_identities(an.model, an.cs, R, an.invariants, an.conn))
        want = _reference_closed_form(an, R)
        assert got["curvature_closed_form"] == want, name
        failing.add(("closed_form", name, want.passed))
        got = _by_id(verify_structure(an.cs, R, an.invariants))
        want = _reference_kappa_mu(an, R)
        assert got["kappa_mu_condition"] == want, name
        failing.add(("kappa_mu", name, want.passed))

        for kind, keys in _leaves(n):
            spec = build_distribution(an.model, kind, **keys)
            geom = second_fundamental_form(an, spec)
            want = _reference_gauss_codazzi(R, an.conn, geom)
            assert gauss_codazzi_residuals(R, an.conn, geom) == want, (name, kind, keys)
            failing.add(("gauss", name, want[0].passed))

    for kind, keys in _leaves(n):
        spec = build_distribution(an.model, kind, **keys)
        geom, _, summary = analyze_submanifold(an, spec)
        split = eigen_split(an.cs, spec)
        for name, corrupt in _leaf_cases(n).items():
            bad = replace(geom, rbar=corrupt(geom.rbar))
            want = _reference_gauss_codazzi(an.curvature, an.conn, bad)
            assert gauss_codazzi_residuals(an.curvature, an.conn, bad) == want, (
                name, kind, keys,
            )
            failing.add(("gauss", "leaf " + name, want[0].passed))
            records = _by_id(leaf_curvature_records(bad, an.cs, an.invariants, split)[0])
            if summary["leaf_curvature"] is not None:
                want = _reference_space_form(bad, Fraction(summary["leaf_curvature"]))
                assert records["leaf_space_form"] == want, (name, kind, keys)
                failing.add(("space_form", name, want.passed))
            else:
                assert "leaf_space_form" not in records

    # every corrupted case fails somewhere, so witnesses were compared
    for scan_name in ("closed_form", "kappa_mu", "gauss", "space_form"):
        if scan_name == "gauss":
            assert (scan_name, "leaf corrupted", False) in failing
        assert (scan_name, "corrupted", False) in failing, scan_name


@lru_cache(maxsize=None)
def _closed_form_columns(structure):
    """The (i, j, k) with i < j where the closed form is zero, then the others."""
    an = STRUCTURES[structure]()
    dim = an.model.dim
    rows = ClosedFormRows(an.invariants, an.cs)
    zero, nonzero = [], []
    for i in range(dim):
        for j in range(i + 1, dim):
            plane = closed_form_plane(rows, i, j)
            for k in range(dim):
                (zero if plane.col(k).is_zero() else nonzero).append((i, j, k))
    return zero, nonzero


@st.composite
def _one_changed_entry(draw):
    structure = draw(st.sampled_from(sorted(STRUCTURES)))
    columns = _closed_form_columns(structure)[draw(st.integers(0, 1))]
    i, j, k = draw(st.sampled_from(columns))
    l = draw(st.integers(0, STRUCTURES[structure]().model.dim - 1))
    delta = draw(st.sampled_from([1, -1, Fraction(1, 3), Fraction(-7, 2)]))
    return structure, (i, j, k), l, delta


@settings(max_examples=60, deadline=None)
@given(_one_changed_entry())
def test_closed_form_record_matches_the_column_walk_on_one_changed_entry(case):
    # entry l of the stored R(e_i, e_j) e_k moves by delta, in a column
    # where the closed form is zero or in one where it is not: only that
    # plane differs from its closed form, and the record is the one the
    # full-order walk of every column of every plane gives
    structure, index, l, delta = case
    an = STRUCTURES[structure]()
    R = bump(an.curvature, index, delta * Vec.basis(an.model.dim, l))
    got = _by_id(verify_identities(an.model, an.cs, R, an.invariants, an.conn))
    want = _reference_closed_form(an, R)
    assert got["curvature_closed_form"] == want
    assert not want.passed


# ---------------------------------------------------------------------------
# one entry moved to a tuple outside the nonzero supports
# ---------------------------------------------------------------------------


def _slots(table):
    """(index, l, entry) for every entry of R, Rbar, nablabar or sigma.

    On a curvature table the index (i, j, k) with i < j names R(e_i, e_j)
    e_k, on a connection table (a, b) names nabla_{e_a} e_b, and on sigma
    (b, c) with b <= c names sigma(v_b, v_c), column c of sigma[b]; l is
    the entry's component.
    """
    if isinstance(table, CurvatureTable):
        return [
            ((i, j, k), l, plane[l, k])
            for (i, j), plane in sorted(table.planes.items())
            for k in range(table.dim)
            for l in range(table.dim)
        ]
    if isinstance(table, ConnectionTable):
        return [
            ((a, b), e, op[e, b])
            for a, op in enumerate(table.ops)
            for b in range(table.dim)
            for e in range(table.dim)
        ]
    n = len(table)
    return [
        ((b, c), l, entry)
        for b in range(n)
        for c in range(b, n)
        for l, entry in enumerate(table[b].col(c))
    ]


def _plus(table, index, l, x):
    """``table`` with component l at ``index`` moved by x; sigma stays symmetric."""
    if isinstance(table, (CurvatureTable, ConnectionTable)):
        return bump(table, index, x * Vec.basis(table.dim, l))
    b, c = index
    delta = x * Vec.basis(table[b].shape[0], l)
    table = bump(table, (b, c), delta)
    return table if b == c else bump(table, (c, b), delta)


def _moved(table, source, target, x):
    """``table`` with the entry at ``source`` (if any) removed and x put at ``target``."""
    if source is not None:
        table = _plus(table, source[0], source[1], -source[2])
    return _plus(table, target[0], target[1], x)


_SUPPORTS = {}


def _support_slots(table, planes=None):
    """(zero slots, nonzero slots) of one of the cached tables, found once.

    ``planes``, if given, keeps only the slots of R(e_i, e_j) with i and
    j both in it.
    """
    key = id(table), planes
    if key not in _SUPPORTS:
        slots = [s for s in _slots(table) if planes is None or set(s[0][:2]) <= planes]
        _SUPPORTS[key] = table, ([s for s in slots if not s[2]], [s for s in slots if s[2]])
    return _SUPPORTS[key][1]


@st.composite
def _moved_entry(draw, table, planes=None, deltas=(1, -1, Fraction(1, 3), Fraction(-7, 2))):
    """A nonzero entry of ``table`` and a zero tuple to move it to.

    A table with no nonzero entry, as sigma on a totally geodesic leaf,
    gets one of ``deltas`` at the zero tuple instead.
    """
    zero, nonzero = _support_slots(table, planes)
    target = draw(st.sampled_from(zero))
    if not nonzero:
        return None, target, draw(st.sampled_from(deltas))
    source = draw(st.sampled_from(nonzero))
    return source, target, source[2]


LEAVES = {"x": {}, "mixed": {"k": 2}, "diagonal": {"c": 2, "d": 1}}


@lru_cache(maxsize=None)
def _leaf(kind):
    """A leaf of model (3, 1, 3): its geometry, eigen split and space-form K."""
    an = analysis(3, 1, 3)
    spec = build_distribution(an.model, kind, **LEAVES[kind])
    geom, _, summary = analyze_submanifold(an, spec)
    K = summary["leaf_curvature"]
    return geom, eigen_split(an.cs, spec), None if K is None else Fraction(K)


@st.composite
def _moved_leaf_entry(draw):
    kind = draw(st.sampled_from(sorted(LEAVES)))
    name = draw(st.sampled_from(["R", "rbar", "sigma", "nbar"]))
    geom = _leaf(kind)[0]
    if name != "R":
        return kind, name, getattr(geom, name), draw(_moved_entry(getattr(geom, name)))
    # R moves within the planes of the basis vectors the frame spans, which
    # are the planes R(v_a, v_b) reads
    R = analysis(3, 1, 3).curvature
    spanned = frozenset(i for v in geom.frame.vectors for i, _ in v.nonzero_entries())
    return kind, name, R, draw(_moved_entry(R, spanned))


@settings(max_examples=120, deadline=None)
@given(_moved_leaf_entry())
def test_leaf_records_match_the_full_order_references_on_a_moved_entry(case):
    # an entry of R, Rbar, sigma or nablabar leaves its place for a tuple
    # where the table is zero, where a visit set built from the supports
    # of the clean tables would not look: Gauss, Codazzi and the space
    # form still report the record of the full-order scan, on the x,
    # mixed and diagonal leaves
    kind, name, table, (source, target, x) = case
    an = analysis(3, 1, 3)
    geom, split, K = _leaf(kind)
    table = _moved(table, source, target, x)
    R = table if name == "R" else an.curvature
    bad = geom if name == "R" else replace(geom, **{name: table})
    want = _reference_gauss_codazzi(R, an.conn, bad)
    assert gauss_codazzi_residuals(R, an.conn, bad) == want
    if name == "rbar" and K is not None:
        records = _by_id(leaf_curvature_records(bad, an.cs, an.invariants, split)[0])
        assert records["leaf_space_form"] == _reference_space_form(bad, K)


@st.composite
def _moved_curvature_entry(draw):
    structure = draw(st.sampled_from(sorted(STRUCTURES)))
    return structure, draw(_moved_entry(STRUCTURES[structure]().curvature))


@settings(max_examples=60, deadline=None)
@given(_moved_curvature_entry())
def test_closed_form_record_matches_the_full_walk_on_a_moved_entry(case):
    # a nonzero entry of the stored R moves to a tuple where R is zero, on
    # the native and the deformed structure: two planes may now differ
    # from their closed forms, and the record is the full-order walk's
    structure, (source, target, x) = case
    an = STRUCTURES[structure]()
    R = _moved(an.curvature, source, target, x)
    got = _by_id(verify_identities(an.model, an.cs, R, an.invariants, an.conn))
    want = _reference_closed_form(an, R)
    assert got["curvature_closed_form"] == want
    assert not want.passed


@pytest.mark.parametrize("n,alpha,beta", [p for p in grid_points() if p[0] <= 4])
def test_closed_form_curvature_matches_the_full_expansion(n, alpha, beta):
    # each plane sums only the nonzero entries of its rows; a row term or
    # a support missing from that sum would drop a nonzero term, here or
    # under the shifted mu
    an = analysis(n, alpha, beta)
    dim = an.model.dim
    for inv in (an.invariants, replace(an.invariants, mu=an.invariants.mu + 1)):
        rows = ClosedFormRows(inv, an.cs)
        for i in range(dim):
            for j in range(dim):
                plane = closed_form_plane(rows, i, j)
                for k in range(dim):
                    assert plane.col(k) == (
                        _reference_closed_form_curvature(inv, an.cs, i, j, k)
                    ), (inv.mu, i, j, k)


@pytest.mark.parametrize("seed", range(12))
def test_closed_form_curvature_matches_the_full_expansion_on_sparse_tensors(seed):
    # on the models' bases the factors come in correlated sets (g(Y, Z) !=
    # 0 brings g(hY, Z) or an eta product along), so a row term left out
    # of the planes could hide there; over these seeds, sparse random g,
    # h, phi and eta make each factor the only nonzero one on some triple
    rng = random.Random(seed)
    dim = 5

    def sparse():
        return [
            rng.choice([1, -1, 2, Fraction(1, 3)]) if rng.random() < 0.2 else 0
            for _ in range(dim)
        ]

    eta = Vec(sparse())
    cs = ContactStructure(
        phi=Mat([sparse() for _ in range(dim)]),
        xi=Vec.basis(dim, 0),
        eta=eta,
        metric=Mat([sparse() for _ in range(dim)]),
        h=Mat([sparse() for _ in range(dim)]),
    )
    inv = ModelInvariants(
        kappa=Fraction(-3, 4),
        mu=Fraction(5, 7),
        lam=Fraction(7, 4),
        boeckx_invariant=Fraction(1),
    )
    rows = ClosedFormRows(inv, cs)
    for i in range(dim):
        for j in range(dim):
            plane = closed_form_plane(rows, i, j)
            for k in range(dim):
                assert plane.col(k) == (
                    _reference_closed_form_curvature(inv, cs, i, j, k)
                ), (i, j, k)
