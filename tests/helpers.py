"""Shared model/analysis cache so test modules do not recompute stacks."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from kmu import (
    ConnectionTable,
    CurvatureTable,
    Mat,
    Vec,
    analyze_structure,
    build_boeckx_model,
    d_homothetic,
)

GRID_AB = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
GRID_N = [2, 3, 4]


@lru_cache(maxsize=None)
def model(n, alpha, beta):
    return build_boeckx_model(n, Fraction(alpha), Fraction(beta))


@lru_cache(maxsize=None)
def analysis(n, alpha, beta):
    return analyze_structure(model(n, alpha, beta))


@lru_cache(maxsize=None)
def deformed_analysis(n, alpha, beta, a):
    """The analysis of the model's native structure deformed by the constant a."""
    native = analysis(n, alpha, beta)
    return analyze_structure(native.model, d_homothetic(native.cs, Fraction(a)))


def grid_points():
    return [(n, a, b) for (a, b) in GRID_AB for n in GRID_N]


def bump(table, index, delta):
    """The nested tuple or ``Mat`` ``table`` with ``delta`` added at ``index``.

    On a ``Mat`` the index (j,) names column j, so on a leaf's sigma, n
    matrices whose column b is sigma(v_a, v_b), the index (a, b) names
    sigma(v_a, v_b).  On a ``ConnectionTable`` the index (i, j) names
    nabla_{e_i} e_j, column j of the operator ops[i].  On a
    ``CurvatureTable`` the index (i, j, k) names R(e_i, e_j) e_k, and the
    stored plane of {i, j} changes, so R(e_j, e_i) e_k moves by -delta.
    """
    if isinstance(table, ConnectionTable):
        i, j = index
        op = table.ops[i]
        columns = [op.col(t) + delta if t == j else op.col(t) for t in range(table.dim)]
        ops = table.ops[:i] + (Mat.from_columns(columns),) + table.ops[i + 1:]
        return replace(table, ops=ops)
    if isinstance(table, CurvatureTable):
        i, j, k = index
        pair, step = ((i, j), delta) if i < j else ((j, i), -delta)
        plane = table.planes[pair]
        columns = [plane.col(t) + step if t == k else plane.col(t) for t in range(table.dim)]
        return replace(table, planes={**table.planes, pair: Mat.from_columns(columns)})
    if isinstance(table, Mat):
        columns = tuple(table.col(t) for t in range(table.shape[1]))
        return Mat.from_columns(bump(columns, index, delta))
    head, *rest = index
    entry = table[head] + delta if not rest else bump(table[head], rest, delta)
    return table[:head] + (entry,) + table[head + 1:]


def lowered_plane(R, i, j) -> tuple:
    """g(R(e_i, e_j) e_k, .) as a Vec for each k, for any i and j."""
    gt = R.metric.transpose()
    return tuple(gt @ R.column(i, j, k) for k in range(R.dim))


def failures(residuals) -> list:
    """The (witness, residual) pairs of ``residuals`` whose residual is nonzero."""
    return [
        (w, r) for w, r in residuals if (not r.is_zero() if isinstance(r, Vec) else r)
    ]
