"""The sparse structure stack against the dense loops it replaced.

``levi_civita`` builds the connection from the nonzero lowered brackets,
``curvature_symmetry_residuals`` reads pair symmetry off the nonzero
lowered curvature entries, and ``check_contact_axioms`` reads the contact
condition off G phi and the structure constants.  Each dense reference
below visits every index with no zero test, so a sparse kernel that drops
a slot, a sign or a mirror tuple disagrees with it.  The corrupted cases
are the model-input faults a user can make: a wrong structure constant,
metric entry or phi.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmu import contact, d_homothetic, pipeline
from kmu.connection import curvature_symmetry_residuals, levi_civita, riemann
from kmu.errors import (
    DimensionMismatchError,
    ParameterError,
    SingularMetricError,
    StructureError,
)
from kmu.liealg import LieAlgebraModel, bracket
from kmu.linalg import Mat, Vec, dot, inner
from kmu.report import scan

from helpers import analysis, bump, failures, grid_points, lowered_plane, model
from test_kernels import assert_support, sparse_lists
from test_linalg import rationals

ZERO = Fraction(0)
SMALL_GRID = [p for p in grid_points() if p[0] <= 4]
DEFORMATIONS = (2, Fraction(991, 363))


def deformed_metric(n, alpha, beta, a):
    an = analysis(n, alpha, beta)
    return d_homothetic(an.cs, a).metric


# ---------------------------------------------------------------------------
# (a) the Koszul connection
# ---------------------------------------------------------------------------


def dense_koszul(structure, G):
    """gamma[i][j][k], the e_k coefficient of nabla_{e_i} e_j, over every index.

    2 g(nabla_i e_j, e_k) = g([e_i, e_j], e_k) - g([e_j, e_k], e_i)
    + g([e_k, e_i], e_j), divided by the diagonal entry G[k, k].
    """
    dim = len(structure)
    c = [[list(v) for v in row] for row in structure]
    g = [[G[a, b] for b in range(dim)] for a in range(dim)]

    def low(u, k):  # g(u, e_k)
        return sum((u[m] * g[m][k] for m in range(dim)), ZERO)

    return [
        [
            [
                (low(c[i][j], k) - low(c[j][k], i) + low(c[k][i], j)) / 2 / g[k][k]
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]


def assert_connection_matches_dense(m, G):
    conn = levi_civita(m, metric=G)
    assert conn.metric is G
    want = dense_koszul(m.structure, G)
    for i, row in enumerate(conn.gamma):
        for j, v in enumerate(row):
            assert list(v) == want[i][j], (i, j)
            assert all(type(x) is Fraction for x in v)
            assert_support(v)


@pytest.mark.parametrize("n,alpha,beta", SMALL_GRID)
def test_levi_civita_matches_dense_koszul_on_the_grid(n, alpha, beta):
    m = model(n, alpha, beta)
    assert_connection_matches_dense(m, m.metric)
    for a in DEFORMATIONS:
        assert_connection_matches_dense(m, deformed_metric(n, alpha, beta, a))


@st.composite
def structures(draw):
    """(structure, diagonal metric) on dim 2..5, antisymmetric unless mirror-bumped.

    About one bracket in three is nonzero, each sparse; the optional
    bump changes one bracket without its mirror, as a corrupted table
    made with ``replace(m, structure=...)`` does.
    """
    dim = draw(st.integers(2, 5))
    zero = Vec.zero(dim)
    table = [[zero] * dim for _ in range(dim)]
    for p in range(dim):
        for q in range(p + 1, dim):
            if draw(st.integers(0, 2)) == 0:
                table[p][q] = Vec(draw(sparse_lists(dim)))
                table[q][p] = -table[p][q]
    if draw(st.booleans()):
        p, q = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        table[p][q] = table[p][q] + Vec(draw(sparse_lists(dim)))
    nonzero = rationals.filter(bool)
    diagonal = draw(st.lists(nonzero, min_size=dim, max_size=dim))
    return tuple(tuple(row) for row in table), Mat.diagonal(diagonal)


def structure_model(structure, G):
    dim = len(structure)
    return LieAlgebraModel(
        n=(dim - 1) // 2, alpha=ZERO, beta=Fraction(1), dim=dim,
        structure=structure, metric=G,
    )


@settings(max_examples=60)
@given(structures())
def test_levi_civita_matches_dense_koszul_on_random_structures(drawn):
    structure, G = drawn
    m = structure_model(structure, G)
    assert_connection_matches_dense(m, G)
    assert levi_civita(m).gamma == levi_civita(m, metric=G).gamma


@pytest.mark.parametrize("G,message", [
    (Mat([[1, 0, 0], [0, 1, Fraction(1, 2)], [0, 0, 1]]), "metric is not diagonal"),
    (Mat.diagonal([1, 0, 1]), "zero diagonal entry at index 1"),
    # off the diagonal is reported first, as before
    (Mat([[0, 0, 1], [0, 1, 0], [1, 0, 1]]), "metric is not diagonal"),
])
def test_levi_civita_refuses_a_singular_metric(G, message):
    zero = Vec.zero(3)
    structure = ((zero,) * 3,) * 3
    with pytest.raises(SingularMetricError) as err:
        levi_civita(structure_model(structure, Mat.identity(3)), metric=G)
    assert str(err.value) == message


def test_levi_civita_refuses_a_metric_of_another_size():
    with pytest.raises(DimensionMismatchError):
        levi_civita(model(2, 1, 3), metric=Mat.identity(4))


def test_vec_from_dict():
    v = Vec.from_dict({3: Fraction(1, 2), 0: -2, 1: ZERO}, 5)
    assert v == Vec([-2, 0, 0, Fraction(1, 2), 0])
    assert_support(v)
    assert Vec.from_dict({}, 3) == Vec.zero(3)
    for entries in ({5: 1}, {-1: 1}):
        with pytest.raises(DimensionMismatchError):
            Vec.from_dict(entries, 5)
    with pytest.raises(ParameterError):
        Vec.from_dict({0: 0.5}, 2)


# ---------------------------------------------------------------------------
# (b) the curvature symmetry scan
# ---------------------------------------------------------------------------


def dense_symmetry_residuals(R):
    """The nonzero residuals of every generating index tuple, from a dense lowering."""
    dim, table = R.dim, R.table
    g = [[R.metric[a, b] for b in range(dim)] for a in range(dim)]
    low = [
        [
            [
                [
                    sum((table[i][j][k][m] * g[m][l] for m in range(dim)), ZERO)
                    for l in range(dim)
                ]
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                bianchi = table[i][j][k] + table[j][k][i] + table[k][i][j]
                if not bianchi.is_zero():
                    out.append(((i, j, k), bianchi))
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                if low[i][j][k][k] != 0:
                    out.append(((i, j, k, k), low[i][j][k][k]))
                for l in range(k + 1, dim):
                    if (k, l) < (i, j):
                        continue
                    if low[i][j][k][l] != low[k][l][i][j]:
                        out.append(((i, j, k, l), low[i][j][k][l] - low[k][l][i][j]))
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                for l in range(k + 1, dim):
                    if low[i][j][k][l] + low[i][j][l][k] != 0:
                        out.append(((i, j, k, l), low[i][j][k][l] + low[i][j][l][k]))
    return out, low


def _bumps(n):
    """(index, delta) corruptions of R on rank n, each of one stored plane."""
    dim = 2 * n + 1
    e = lambda t: Vec.basis(dim, t)  # noqa: E731
    x1, x2, y1, y2 = 1, 2, n + 1, n + 2
    return [
        ((x1, x2, y1), e(y2)),
        ((y1, y2, x1), e(x2)),  # pair (x1, x2) < (y1, y2): the mirror tuple
        ((x1, y1, x2), e(x2)),  # a second-pair diagonal entry
        ((x2, y2, y1), e(x1)),  # k > l: no pair tuple reads it
        ((0, x1, 0), Fraction(3, 2) * e(x1) - e(y2)),
        ((y2, x1, x2), e(0)),  # i > j: the stored plane (x1, y2) moves by -e(0)
        ((x1, y2, x1), -e(0)),  # no Bianchi triple, l < k: only the last-pair check
    ]


def lowered_table(R):
    """Every plane of R lowered: [i][j][k][l] = g(R(e_i, e_j) e_k, e_l)."""
    dim = R.dim
    return [[[list(v) for v in lowered_plane(R, i, j)] for j in range(dim)] for i in range(dim)]


@pytest.mark.parametrize("n,alpha,beta", [p for p in SMALL_GRID if p[0] <= 3])
def test_symmetry_scan_matches_the_dense_loop(n, alpha, beta):
    m = model(n, alpha, beta)
    metrics = [m.metric] + [deformed_metric(n, alpha, beta, a) for a in DEFORMATIONS]
    for G in metrics:
        R = riemann(m, levi_civita(m, metric=G))
        want, _ = dense_symmetry_residuals(R)
        assert want == [] and failures(curvature_symmetry_residuals(R)) == []
        for index, delta in _bumps(n):
            bad = bump(R, index, delta)
            want, low = dense_symmetry_residuals(bad)
            got = curvature_symmetry_residuals(bad)
            assert failures(got) == want, index
            assert scan("curvature_symmetries", got) == scan("curvature_symmetries", want)
            assert lowered_table(bad) == low
            assert want, index  # so the two lists were compared on a failure


def test_symmetry_scan_lowers_each_stored_plane_once(monkeypatch):
    # the scan lowers every nonzero column of every stored plane exactly
    # once, into its own dict, and leaves nothing behind on R
    m = model(3, 1, 3)
    R = riemann(m, levi_civita(m, metric=deformed_metric(3, 1, 3, 2)))
    lowered = []
    matmul = Mat.__matmul__

    def counted(self, other):
        if isinstance(other, Vec):
            lowered.append(other)
        return matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    residuals = curvature_symmetry_residuals(R)
    monkeypatch.undo()
    assert failures(residuals) == []
    columns = [plane.col(k) for plane in R.planes.values() for k in range(R.dim)]
    assert lowered == [v for v in columns if not v.is_zero()]
    assert sorted(vars(R)) == ["dim", "metric", "planes"]


@pytest.mark.parametrize("rotation", [0, 1, 2])
def test_bianchi_visits_a_triple_from_any_one_of_its_entries(rotation):
    # a triple whose three entries are zero on the clean table, bumped at
    # one rotation only: Bianchi must find it from that entry alone
    R = analysis(3, 1, 3).curvature
    dim, table = R.dim, R.table
    i, j, k = next(
        (i, j, k)
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(j + 1, dim)
        if all(table[a][b][c].is_zero() for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
    )
    index = ((i, j, k), (j, k, i), (k, i, j))[rotation]
    bad = bump(R, index, Vec.basis(dim, 0))
    want, _ = dense_symmetry_residuals(bad)
    got = failures(curvature_symmetry_residuals(bad))
    assert got == want
    assert ((i, j, k), Vec.basis(dim, 0)) in got
    # the bumped stored plane also fails in its own lowering: pair
    # symmetry on its diagonal or antisymmetry in its last two slots
    assert [w[:2] for w, _ in got if len(w) == 4] == [tuple(sorted(index[:2]))]


def test_pair_symmetry_failure_is_reported_at_the_canonical_tuple():
    # R(Y_1, Y_3, X_1, X_2) bumped in its stored plane, where
    # R(X_1, X_2, Y_1, Y_3) is zero: the pair (X_1, X_2) is the lower one,
    # so the pair-symmetry failure is found from the bumped entry's mirror
    # tuple alone; the last-pair check then finds R(Y_1, Y_3, X_2, X_1) = 0
    # against the bumped entry's 1 in the bumped plane itself
    n = 3
    R = analysis(n, 1, 3).curvature
    assert lowered_plane(R, 1, 2)[n + 1][n + 3] == 0
    bad = bump(R, (n + 1, n + 3, 1), Vec.basis(2 * n + 1, 2))
    pair = [(w, r) for w, r in failures(curvature_symmetry_residuals(bad)) if len(w) == 4]
    assert pair == [((1, 2, n + 1, n + 3), -1), ((n + 1, n + 3, 1, 2), 1)]


# ---------------------------------------------------------------------------
# (c) the contact condition
# ---------------------------------------------------------------------------


def dense_contact_residuals(m, phi, eta, G):
    """g(e_i, phi e_j) - d eta(e_i, e_j) through a full bracket, every pair."""
    basis = [Vec.basis(m.dim, t) for t in range(m.dim)]
    for i in range(m.dim):
        for j in range(m.dim):
            d_eta = -dot(eta, bracket(m, basis[i], basis[j])) / 2
            yield (i, j), inner(basis[i], phi @ basis[j], G) - d_eta


def _captured_scans(monkeypatch, m, phi, xi, eta, G):
    """Every axiom's residual list, with the failure raise switched off."""
    seen = {}

    def capture(identity_id, residuals):
        seen[identity_id] = list(residuals)
        return scan(identity_id, [])

    monkeypatch.setattr(contact, "scan", capture)
    contact.check_contact_axioms(m, phi, xi, eta, G)
    monkeypatch.undo()
    return seen


N, ALPHA, BETA = 3, 1, 3
X1, Y1 = 1, N + 1


def _entry(dim, i, j, x):
    return Mat([[x if (r, c) == (i, j) else 0 for c in range(dim)] for r in range(dim)])


def _fault_inputs():
    """(label, model, phi, xi, eta, G) of the clean and corrupted inputs."""
    an = analysis(N, ALPHA, BETA)
    m, cs = an.model, an.cs
    dim = m.dim
    deformed = d_homothetic(cs, Fraction(991, 363))
    structure = bump(
        bump(m.structure, (X1, Y1), Vec.basis(dim, 0)), (Y1, X1), -Vec.basis(dim, 0)
    )
    one_sided = bump(m.structure, (Y1, X1), Fraction(1, 3) * Vec.basis(dim, 0))
    both = Mat.diagonal([2 if t in (X1, Y1) else 1 for t in range(dim)])
    phi, xi, eta, G = cs.phi, cs.xi, cs.eta, cs.metric
    return [
        ("clean", m, phi, xi, eta, G),
        ("deformed", m, deformed.phi, deformed.xi, deformed.eta, deformed.metric),
        ("bracket", replace(m, structure=structure), phi, xi, eta, G),
        ("bracket one-sided", replace(m, structure=one_sided), phi, xi, eta, G),
        ("metric X_1", m, phi, xi, eta, G + _entry(dim, X1, X1, 1)),
        ("metric X_1 and Y_1", m, phi, xi, eta, both),
        ("minus phi", m, -phi, xi, eta, G),
        ("phi entry", m, phi + _entry(dim, X1, Y1, 1), xi, eta, G),
    ]


# the error each input raises, pinned; None for inputs that pass
FAULT_TEXTS = {
    "clean": None,
    "deformed": None,
    "bracket": "contact_condition fails at (1, 4) with residual 1/2",
    "bracket one-sided": "contact_condition fails at (4, 1) with residual 1/6",
    "metric X_1": "metric_phi_compatibility fails at (1, 1) with residual -1",
    "metric X_1 and Y_1": "contact_condition fails at (1, 4) with residual -1",
    "minus phi": "contact_condition fails at (1, 4) with residual 2",
    "phi entry": "phi_square fails at (1, 1) with residual 1",
}


@pytest.mark.parametrize("case", range(len(FAULT_TEXTS)), ids=list(FAULT_TEXTS))
def test_contact_condition_matches_the_bracket_formula(monkeypatch, case):
    label, m, phi, xi, eta, G = _fault_inputs()[case]
    seen = _captured_scans(monkeypatch, m, phi, xi, eta, G)
    want = [(w, r) for w, r in dense_contact_residuals(m, phi, eta, G) if r]
    assert [(w, r) for w, r in seen["contact_condition"] if r] == want, label
    assert scan("contact_condition", seen["contact_condition"]) == scan(
        "contact_condition", dense_contact_residuals(m, phi, eta, G)
    )
    expected = FAULT_TEXTS[label]
    if expected is None:
        assert want == []
        assert contact.check_contact_axioms(m, phi, xi, eta, G)[-1].passed
    else:
        with pytest.raises(StructureError) as err:
            contact.check_contact_axioms(m, phi, xi, eta, G)
        assert str(err.value) == expected


# ---------------------------------------------------------------------------
# sectional records: no Fraction arithmetic on a zero operand
# ---------------------------------------------------------------------------

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
)


def _zero_operand_calls(monkeypatch, run):
    """(operator, total calls, calls with a zero operand) while run() runs."""
    calls, zero = [], []

    def wrap(name, method):
        def counted(x, y, *rest):
            calls.append(name)
            if any(isinstance(a, (int, Fraction)) and not a for a in (x, y)):
                zero.append(name)
            return method(x, y, *rest)
        return counted

    for name in OPERATORS:
        monkeypatch.setattr(Fraction, name, wrap(name, getattr(Fraction, name)))
    try:
        result = run()
    finally:
        monkeypatch.undo()
    return result, calls, zero


# the deformation keeps kappa and 1 - lambda nonzero, so no scalar of the
# closed forms is itself zero
@pytest.mark.parametrize("a", [None, Fraction(991, 363)])
def test_sectional_records_take_no_zero_operand(monkeypatch, a):
    an = analysis(N, ALPHA, BETA)
    if a is None:
        m, R, cs, inv = an.model, an.curvature, an.cs, an.invariants
    else:
        deformed = pipeline.analyze_structure(an.model, d_homothetic(an.cs, a))
        m, R, cs, inv = deformed.model, deformed.curvature, deformed.cs, deformed.invariants
    cs.tables  # built outside the count
    records, calls, zero = _zero_operand_calls(
        monkeypatch, lambda: pipeline.sectional_records(m, R, cs, inv)
    )
    assert [r.passed for r in records] == [True]
    assert calls and zero == []
