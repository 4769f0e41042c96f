"""Support-aware kernels against plain dense loops.

Every kernel in ``linalg`` and ``connection`` visits only nonzero
coefficients.  The references below walk every index with no zero test
at all, so a kernel that drops a term, or keeps a stale one, disagrees
with them.  Inputs are sparse rationals, and several tests build sums
that cancel to exactly zero.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmu import d_homothetic
from kmu.connection import ConnectionTable, CurvatureTable, levi_civita, riemann
from kmu.linalg import _ZERO, Mat, Vec, combine, inner, outer, solve_diagonal_metric

from helpers import analysis, grid_points, lowered_plane, model
from test_linalg import rationals

ZERO = Fraction(0)

# about two entries in three are zero, like the model tables
sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), rationals)


def sparse_lists(length):
    return st.lists(sparse_entries, min_size=length, max_size=length)


def sparse_rows(nrows, ncols):
    return st.lists(sparse_lists(ncols), min_size=nrows, max_size=nrows)


# ---------------------------------------------------------------------------
# dense references: plain loops over every index
# ---------------------------------------------------------------------------


def dense_matvec(rows, v):
    return [sum((row[k] * v[k] for k in range(len(v))), ZERO) for row in rows]


def dense_matmat(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_inner(u, v, g):
    dim = len(u)
    return sum((u[i] * g[i][j] * v[j] for i in range(dim) for j in range(dim)), ZERO)


def dense_nabla(gamma, u, v):
    dim = len(u)
    return [
        sum((u[i] * v[j] * gamma[i][j][k] for i in range(dim) for j in range(dim)), ZERO)
        for k in range(dim)
    ]


def dense_apply(table, u, v, w):
    dim = len(u)
    return [
        sum(
            (
                u[i] * v[j] * w[k] * table[i][j][k][t]
                for i in range(dim)
                for j in range(dim)
                for k in range(dim)
            ),
            ZERO,
        )
        for t in range(dim)
    ]


def dense_tables(structure, G):
    """Koszul connection, curvature and lowered curvature, all dense.

    gamma[i][j][k] is the e_k coefficient of nabla_{e_i} e_j for a
    diagonal metric G; R[i][j][k] is R(e_i, e_j) e_k computed from every
    (i, j, k), not from antisymmetry.
    """
    dim = len(G)
    c = [[list(v) for v in row] for row in structure]

    def low(u, k):  # g(u, e_k)
        return sum((u[m] * G[m][k] for m in range(dim)), ZERO)

    gamma = [
        [
            [
                (low(c[i][j], k) - low(c[j][k], i) + low(c[k][i], j)) / 2 / G[k][k]
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    R = [
        [
            [
                [
                    sum(
                        (
                            gamma[j][k][m] * gamma[i][m][t]
                            - gamma[i][k][m] * gamma[j][m][t]
                            - c[i][j][m] * gamma[m][k][t]
                            for m in range(dim)
                        ),
                        ZERO,
                    )
                    for t in range(dim)
                ]
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    lowered = [
        [[[low(R[i][j][k], t) for t in range(dim)] for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    return gamma, R, lowered


def as_lists(table):
    """Nested tuples of Vecs (or of Fractions) as nested lists of Fractions."""
    if isinstance(table, (tuple, list, Vec)):
        return [as_lists(x) for x in table]
    return table


def dense_rows(M):
    """The entries of M as a list of row lists, read one index at a time."""
    nrows, ncols = M.shape
    return [[M[i, j] for j in range(ncols)] for i in range(nrows)]


def exact_vec(v, expected):
    assert all(type(x) is Fraction for x in v)
    assert list(v) == expected
    assert v.nonzero_entries() == tuple((i, x) for i, x in enumerate(expected) if x)


# ---------------------------------------------------------------------------
# Vec, Mat and inner
# ---------------------------------------------------------------------------


@settings(max_examples=40)
@given(sparse_lists(6), sparse_lists(6), sparse_lists(6), rationals)
def test_vec_arithmetic_matches_dense(us, vs, noise, s):
    u, v = Vec(us), Vec(vs)
    exact_vec(u + v, [a + b for a, b in zip(us, vs)])
    exact_vec(u - v, [a - b for a, b in zip(us, vs)])
    exact_vec(-u, [-a for a in us])
    exact_vec(s * u, [s * a for a in us])
    exact_vec(u * 0, [ZERO] * 6)
    # w = -u + sparse noise: u + w cancels to exactly zero off the noise
    w = Vec([b - a for a, b in zip(us, noise)])
    exact_vec(u + w, noise)
    exact_vec(u - u, [ZERO] * 6)
    assert (u - u).is_zero() and (u + w).is_zero() == (not any(noise))


@settings(max_examples=40)
@given(sparse_rows(4, 5), sparse_lists(5), sparse_lists(5), st.sets(st.integers(0, 4)))
def test_matvec_matches_dense(rows, vs, noise, emptied):
    M, v = Mat(rows), Vec(vs)
    # the columns in emptied are zeroed in H, and w lives on them alone
    hollow = [[ZERO if j in emptied else x for j, x in enumerate(row)] for row in rows]
    H = Mat(hollow)
    w = Vec([x if j in emptied else ZERO for j, x in enumerate(vs)])
    products = {
        "M v": (M @ v, dense_matvec(rows, vs)),
        # the zero vector, drawn on every example: its product has no support
        "M 0": (M @ Vec([ZERO] * 5), [ZERO] * 4),
        "M 0 (shared zero)": (M @ Vec.zero(5), [ZERO] * 4),
        "H w": (H @ w, [ZERO] * 4),
        "H v": (H @ v, dense_matvec(hollow, vs)),
    }
    # a unit entry, the shared one of a basis vector, writes column k as it is
    basis = {k: M @ Vec.basis(5, k) for k in range(5)}
    outputs = [out for out, _ in products.values()] + list(basis.values())
    assert all(len(out) == 4 for out in outputs)
    for out, expected in products.values():
        exact_vec(out, expected)
    for k, out in basis.items():
        assert out.nonzero_entries() == M.col(k).nonzero_entries()
        assert all(x is rows[i][k] for i, x in out.nonzero_entries())
    # rows doubled against (v, -v + noise): each dot product cancels
    # exactly on the v part
    doubled = Mat([row + row for row in rows])
    w = Vec(vs + [b - a for a, b in zip(vs, noise)])
    exact_vec(doubled @ w, dense_matvec(rows, noise))


@settings(max_examples=40)
@given(sparse_rows(3, 4), sparse_rows(4, 5), sparse_rows(4, 5))
def test_matmat_matches_dense(a_rows, b_rows, c_rows):
    A, B = Mat(a_rows), Mat(b_rows)
    assert dense_rows(A @ B) == dense_matmat(a_rows, b_rows)
    # A (B - C) + A C = A B, with the partial sums cancelling
    C = Mat(c_rows)
    assert A @ (B - C) + A @ C == A @ B
    assert (A @ (B - B)).is_zero()
    stacked = Mat([ra + [-x for x in ra] for ra in a_rows])
    assert (stacked @ Mat(b_rows + b_rows)).is_zero()


@settings(max_examples=40)
@given(sparse_lists(5), sparse_lists(5), sparse_rows(5, 5))
def test_inner_matches_dense(us, vs, g_rows):
    u, v = Vec(us), Vec(vs)
    G = Mat(g_rows)
    assert inner(u, v, G) == dense_inner(us, vs, g_rows)
    diagonal = Mat.diagonal([g_rows[i][i] for i in range(5)])
    assert inner(u, v, diagonal) == dense_inner(us, vs, dense_rows(diagonal))
    assert inner(u, -u, Mat.identity(5)) + inner(u, u, Mat.identity(5)) == 0


# ---------------------------------------------------------------------------
# the support every kernel writes: exact, even where its sums cancel
# ---------------------------------------------------------------------------
#
# A vector's support is written by the kernel that makes it, never
# recomputed.  A support that leaves out a nonzero entry would turn a
# failing residual into a silent pass, and one that keeps a cancelled
# entry would make a passing residual read as a failure.


def assert_support(v):
    """v's support is exactly its nonzero entries; its zeros are the shared one."""
    assert v.nonzero_entries() == tuple((i, x) for i, x in enumerate(v) if x)
    assert v.is_zero() == (not any(v))
    assert all(x is _ZERO for x in v if not x)


def assert_mat_support(M):
    rows = M.transpose()
    for i in range(M.shape[0]):
        assert_support(rows.col(i))
    for j in range(M.shape[1]):
        assert_support(M.col(j))


@settings(max_examples=60)
@given(sparse_lists(6), sparse_lists(6), rationals)
def test_vector_kernels_write_exact_supports(us, noise, s):
    u, w = Vec(us), Vec(noise)
    outputs = [
        u, Vec.zero(6), Vec.basis(6, 2), -u, s * u, u * 0, u * 1,
        u + (-u), (-u) + u, u - u, u + Vec.zero(6), Vec.zero(6) - u,
        # partial cancellation: the u part cancels, the noise stays
        u + (w - u), (u + w) - u, (s * u + w) - s * u,
    ]
    for v in outputs:
        assert_support(v)
    assert (u + (-u)).is_zero() and (u - u).is_zero()
    assert (u + (w - u)) == w and ((s * u + w) - s * u) == w


@settings(max_examples=60)
@given(sparse_lists(6), sparse_lists(6), sparse_lists(6), rationals, rationals)
def test_combine_writes_exact_supports_when_terms_cancel(us, vs, noise, s, t):
    u, v, w = Vec(us), Vec(vs), Vec(noise)
    cancelling = [
        combine([(s, u), (-s, u)], 6),
        combine([(s, u), (t, v), (-s, u), (-t, v)], 6),
        combine([(1, u), (1, v), (1, -(u + v))], 6),
        combine([(Fraction(0), u), (s - s, v)], 6),  # zero coefficients, not shared
    ]
    for out in cancelling:
        assert_support(out)
        assert out.is_zero()
    partial = combine([(s, u), (1, w), (-s, u), (t, v), (-t, v)], 6)
    assert_support(partial)
    assert partial == w


@settings(max_examples=60)
@given(sparse_rows(4, 5), sparse_lists(5), sparse_lists(5), rationals)
def test_matrix_kernels_write_exact_supports_over_cancelling_columns(rows, vs, noise, s):
    M = Mat(rows)
    # columns j and 5 + j of C are opposite, so C @ (v, v) cancels exactly
    C = Mat([row + [-x for x in row] for row in rows])
    v, w = Vec(vs), Vec(noise)
    doubled = Vec(vs + vs)
    assert_support(C @ doubled)
    assert (C @ doubled).is_zero()
    # (v, v + noise) leaves exactly M @ noise after the cancellation
    assert_support(C @ Vec(vs + [a + b for a, b in zip(vs, noise)]))
    assert C @ Vec(vs + [a + b for a, b in zip(vs, noise)]) == -(M @ w)
    for out in (M @ v, M @ Vec.zero(5), M @ Vec.basis(5, 4)):
        assert_support(out)
    for P in (
        M, C, M.transpose(), M + (-M), M - M, s * M, M * 0,
        C @ Mat(2 * dense_rows(M.transpose())),
        outer(v, w), Mat.identity(5), Mat([[0] * 5] * 4), Mat.diagonal(vs),
    ):
        assert_mat_support(P)
    assert (M - M).is_zero() and (M + (-M)).is_zero()
    assert (C @ Mat(2 * dense_rows(M.transpose()))).is_zero()
    diagonal = Mat.diagonal([x if x else Fraction(1) for x in noise])
    assert_support(solve_diagonal_metric(diagonal, v))


# ---------------------------------------------------------------------------
# connection and curvature kernels on random sparse tables
# ---------------------------------------------------------------------------


def sparse_tables(depth, dim):
    strategy = sparse_lists(dim)
    for _ in range(depth):
        strategy = st.lists(strategy, min_size=dim, max_size=dim)
    return strategy


@settings(max_examples=30)
@given(sparse_tables(2, 4), sparse_lists(4), sparse_lists(4))
def test_nabla_matches_dense(gamma, us, vs):
    conn = ConnectionTable(
        dim=4,
        metric=Mat.identity(4),
        ops=tuple(Mat.from_columns(Vec(e) for e in row) for row in gamma),
    )
    exact_vec(conn.nabla(Vec(us), Vec(vs)), dense_nabla(gamma, us, vs))
    # nabla(u, v) + nabla(u, -v) cancels entry by entry
    assert (conn.nabla(Vec(us), Vec(vs)) + conn.nabla(Vec(us), -Vec(vs))).is_zero()


@settings(max_examples=30)
@given(sparse_tables(3, 3), sparse_lists(3), sparse_lists(3), sparse_lists(3))
def test_curvature_apply_matches_dense(table, us, vs, ws):
    # the planes i < j are drawn; the dense table holds their negations at
    # j < i and zero at i = j, as a curvature table reads them
    dim = 3
    R = CurvatureTable(
        dim=dim,
        metric=Mat.identity(dim),
        planes={
            (i, j): Mat.from_columns(Vec(e) for e in table[i][j])
            for i in range(dim)
            for j in range(i + 1, dim)
        },
    )
    dense = [
        [
            table[i][j] if i < j else [[-x for x in e] for e in table[j][i]] if j < i
            else [[ZERO] * dim for _ in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    u, v, w = Vec(us), Vec(vs), Vec(ws)
    exact_vec(R.apply(u, v, w), dense_apply(dense, us, vs, ws))
    assert (R.apply(u, v, w) + R.apply(u, v, -w)).is_zero()


# ---------------------------------------------------------------------------
# the model tables against a dense rebuild
# ---------------------------------------------------------------------------


def assert_tables_match_dense(m, conn, R):
    gamma, curvature, lowered = dense_tables(m.structure, dense_rows(conn.metric))
    assert as_lists(conn.gamma) == gamma
    assert as_lists(R.table) == curvature
    dim = R.dim
    assert [[as_lists(lowered_plane(R, i, j)) for j in range(dim)] for i in range(dim)] == lowered


@pytest.mark.parametrize("n,alpha,beta", [p for p in grid_points() if p[0] <= 4])
def test_model_tables_match_dense_rebuild(n, alpha, beta):
    an = analysis(n, alpha, beta)
    assert_tables_match_dense(an.model, an.conn, an.curvature)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deformed_tables_match_dense_rebuild(n):
    # a non-identity metric exercises the metric's support in the
    # lowered table and the Koszul solve
    m = model(n, 1, 3)
    G = d_homothetic(analysis(n, 1, 3).cs, Fraction(7, 3)).metric
    conn = levi_civita(m, metric=G)
    assert_tables_match_dense(m, conn, riemann(m, conn))
