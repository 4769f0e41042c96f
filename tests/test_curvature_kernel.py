"""The connection operators, against definitions written out entry by entry.

``connection.curvature_from`` builds the planes R(e_i, e_j) = [nabla_i,
nabla_j] - sum_m c_ij^m nabla_m from operator matrices for i < j only,
and ``CurvatureTable.column`` reads the rest by antisymmetry;
``metric_compatibility_residuals`` reads the symmetric part of G^T
nabla_i.  The references here walk every index, so a kernel that drops a
term, flips a sign, reads an operator transposed or reads the half it
does not store wrongly disagrees with them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmu.connection import curvature_from, metric_compatibility_residuals
from kmu.linalg import Mat, Vec, combine
from kmu.submanifold import build_distribution, second_fundamental_form

from helpers import analysis, bump, failures, grid_points
from test_kernels import sparse_lists, sparse_rows

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# leaf curvature: the full-range expansion the leaf computed before
# ---------------------------------------------------------------------------


def _reference_rbar(nb, br):
    """Rbar(v_a, v_b) v_c = nablabar_a nablabar_b v_c - nablabar_b nablabar_a v_c
    - nablabar_[v_a, v_b] v_c on every (a, b, c), a >= b included."""
    n = len(nb)

    def comb(coeffs, vectors):
        return combine(zip(coeffs, vectors), n)

    return tuple(
        tuple(
            tuple(
                comb(nb[b][c], nb[a])
                - comb(nb[a][c], nb[b])
                - comb(br[a][b], [nb[e][c] for e in range(n)])
                for c in range(n)
            )
            for b in range(n)
        )
        for a in range(n)
    )


def _leaves(n):
    """(kind, keys) of every leaf preset on a model of rank n, with a
    diagonal leaf of each sign pattern of (c, d)."""
    return (
        [("x", {}), ("y", {})]
        + [("mixed", {"k": k}) for k in range(1, n)]
        + [("diagonal", {"c": 2, "d": 1}), ("diagonal", {"c": "-3", "d": "1/2"})]
    )


@pytest.mark.parametrize("n,alpha,beta", [p for p in grid_points() if p[0] <= 4])
def test_leaf_curvature_matches_the_full_range_expansion(n, alpha, beta):
    an = analysis(n, alpha, beta)
    for kind, keys in _leaves(n):
        spec = build_distribution(an.model, kind, **keys)
        geom = second_fundamental_form(an, spec)
        assert geom.rbar.table == _reference_rbar(geom.nbar.gamma, geom.br), (kind, keys)
        assert geom.rbar.metric == geom.frame.induced


# ---------------------------------------------------------------------------
# curvature_from on random sparse operators
# ---------------------------------------------------------------------------


@st.composite
def operators_and_brackets(draw):
    """dim sparse dim x dim operators and an antisymmetric bracket table."""
    dim = draw(st.integers(min_value=1, max_value=4))
    ops = [draw(sparse_rows(dim, dim)) for _ in range(dim)]
    brackets = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            c = draw(sparse_lists(dim))
            brackets[i][j] = c
            brackets[j][i] = [-x for x in c]
    return ops, brackets


def _dense_curvature(ops, brackets):
    """R[i][j][k][t], the e_t entry of R(e_i, e_j) e_k, on every (i, j, k)."""
    dim = len(ops)
    return [
        [
            [
                [
                    sum(
                        (
                            ops[i][t][m] * ops[j][m][k]
                            - ops[j][t][m] * ops[i][m][k]
                            - brackets[i][j][m] * ops[m][t][k]
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


@settings(max_examples=60, deadline=None)
@given(operators_and_brackets())
def test_curvature_from_matches_the_dense_definition(data):
    ops, brackets = data
    R = curvature_from(
        tuple(Mat(rows) for rows in ops),
        tuple(tuple(Vec(c) for c in row) for row in brackets),
        Mat.identity(len(ops)),
    )
    dense = _dense_curvature(ops, brackets)
    assert [[[list(entry) for entry in row] for row in plane] for plane in R.table] == dense


# ---------------------------------------------------------------------------
# metric compatibility: the (i, j, k >= j) loop it replaced
# ---------------------------------------------------------------------------


def _reference_compatibility(conn):
    def g(u, k):  # g(u, e_k)
        return sum((u[m] * conn.metric[m, k] for m in range(conn.dim)), ZERO)

    return [
        ((i, j, k), res)
        for i in range(conn.dim)
        for j in range(conn.dim)
        for k in range(j, conn.dim)
        if (res := g(conn.gamma[i][j], k) + g(conn.gamma[i][k], j))
    ]


@pytest.mark.parametrize(
    "index,entry", [((1, 2), 3), ((1, 2), 2), ((0, 4), 4), ((3, 0), 1), ((2, 2), 2)]
)
def test_metric_compatibility_matches_the_index_loop(index, entry):
    # a bump of gamma[i][j] along e_j breaks compatibility on the diagonal k = j
    conn = analysis(2, 1, 3).conn
    assert failures(metric_compatibility_residuals(conn)) == [] == _reference_compatibility(conn)
    bumped = bump(conn, index, Vec.basis(conn.dim, entry))
    residuals = failures(metric_compatibility_residuals(bumped))
    assert residuals and residuals == _reference_compatibility(bumped)
