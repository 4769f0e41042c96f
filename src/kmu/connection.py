"""Levi-Civita connection and curvature in a left-invariant frame.

For left-invariant fields on a Lie group with left-invariant metric the
Koszul formula loses its derivative terms and reduces to

    2 g(nabla_X Y, Z) = g([X,Y], Z) - g([Y,Z], X) + g([Z,X], Y),

so the whole connection is a finite table of rationals.  The curvature
convention is R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_[X,Y] Z with lowered tensor R(X,Y,Z,W) = g(R(X,Y)Z, W); this is
the unique choice the verification suite validates against the defining
curvature condition of the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegeneratePlaneError, DimensionMismatchError
from .liealg import LieAlgebraModel, bracket
from .linalg import Mat, Vec, combine, inner, solve_diagonal_metric


@dataclass(frozen=True)
class ConnectionTable:
    """Connection coefficients: gamma[i][j] = nabla_{e_i} e_j as a Vec."""

    dim: int
    metric: Mat
    gamma: tuple

    def nabla_basis(self, i: int, j: int) -> Vec:
        return self.gamma[i][j]

    def nabla(self, u: Vec, v: Vec) -> Vec:
        """Bilinear extension over constant coefficients."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError(
                f"nabla operands of length {len(u)}, {len(v)} on dim {self.dim}"
            )
        def terms():
            for i, x in u.nonzero_entries():
                row = self.gamma[i]
                for j, y in v.nonzero_entries():
                    if row[j].nonzero_entries():
                        yield x * y, row[j]

        return combine(terms(), self.dim)


@dataclass(frozen=True)
class CurvatureTable:
    """Curvature components: table[i][j][k] = R(e_i, e_j) e_k as a Vec.

    ``lowered_table[i][j][k][l]`` caches g(R(e_i, e_j) e_k, e_l).
    """

    dim: int
    metric: Mat
    table: tuple
    lowered_table: tuple

    def apply(self, u: Vec, v: Vec, w: Vec) -> Vec:
        """Multilinear extension of the basis table, over the supports."""
        def terms():
            for i, x in u.nonzero_entries():
                plane = self.table[i]
                for j, y in v.nonzero_entries():
                    row, xy = plane[j], x * y
                    for k, z in w.nonzero_entries():
                        if row[k].nonzero_entries():
                            yield xy * z, row[k]

        return combine(terms(), self.dim)

    @cached_property
    def antisymmetric(self) -> bool:
        """``is_antisymmetric(table)``, checked once per table."""
        return is_antisymmetric(self.table)

    def lowered_basis(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self.lowered_table[i][j][k][l]

    def lowered(self, u: Vec, v: Vec, w: Vec, z: Vec) -> Fraction:
        return inner(self.apply(u, v, w), z, self.metric)


def levi_civita(model: LieAlgebraModel, metric: Mat | None = None) -> ConnectionTable:
    """Connection table from the Koszul formula for left-invariant data.

    ``metric`` defaults to the model's own metric; passing a different
    (diagonal) one computes the connection of that metric on the same
    group, which is how deformed structures reuse this code.
    """
    G = model.metric if metric is None else metric
    dim = model.dim
    # low[i][j][k] = g([e_i, e_j], e_k), lowered once per bracket
    gt = G.transpose()
    low = [[(gt @ c_ij)._c for c_ij in row] for row in model.structure]
    zero = Fraction(0)
    gamma = []
    for i in range(dim):
        row = []
        for j in range(dim):
            rhs = []
            for k in range(dim):
                a, b, c = low[i][j][k], low[j][k][i], low[k][i][j]
                rhs.append((a - b + c) / 2 if a or b or c else zero)
            row.append(solve_diagonal_metric(G, Vec(rhs)))
        gamma.append(tuple(row))
    return ConnectionTable(dim=dim, metric=G, gamma=tuple(gamma))


def torsion_residuals(model: LieAlgebraModel, conn: ConnectionTable):
    """nabla_i e_j - nabla_j e_i - [e_i, e_j], nonzero entries only."""
    out = []
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            res = conn.gamma[i][j] - conn.gamma[j][i] - model.structure[i][j]
            if not res.is_zero():
                out.append(((i, j), res))
    return out


def metric_compatibility_residuals(conn: ConnectionTable):
    """g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k), nonzero entries only.

    The metric has constant coefficients in a left-invariant frame, so
    compatibility is exactly this antisymmetry in (j, k).
    """
    out = []
    gt = conn.metric.transpose()
    # low[i][j][k] = g(nabla_i e_j, e_k)
    low = [[(gt @ entry)._c for entry in row] for row in conn.gamma]
    for i in range(conn.dim):
        for j in range(conn.dim):
            for k in range(j, conn.dim):
                res = low[i][j][k] + low[i][k][j]
                if res != 0:
                    out.append(((i, j, k), res))
    return out


def riemann(model: LieAlgebraModel, conn: ConnectionTable) -> CurvatureTable:
    """Assemble R(e_i, e_j) e_k from the connection and bracket tables."""
    dim = model.dim
    table = []
    for i in range(dim):
        plane = []
        for j in range(dim):
            row = []
            for k in range(dim):
                if j <= i:
                    # fill from antisymmetry once the (j, i) entry exists
                    row.append(None)
                    continue
                first = conn.nabla(Vec.basis(dim, i), conn.gamma[j][k])
                second = conn.nabla(Vec.basis(dim, j), conn.gamma[i][k])
                third = conn.nabla(model.structure[i][j], Vec.basis(dim, k))
                row.append(first - second - third)
            plane.append(row)
        table.append(plane)
    zero = Vec.zero(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if table[i][j][k] is None:
                    table[i][j][k] = zero if i == j else -table[j][i][k]
    table = tuple(tuple(tuple(row) for row in plane) for plane in table)
    # g(R(e_i, e_j) e_k, e_l) = sum_m R^m_ijk g_ml: the transposed metric
    # applied to each entry, over the entry's and the metric's supports
    gt = conn.metric.transpose()
    lowered = tuple(
        tuple(tuple((gt @ entry)._c for entry in row) for row in plane)
        for plane in table
    )
    return CurvatureTable(
        dim=dim, metric=conn.metric, table=table, lowered_table=lowered
    )


def antisymmetry_residuals(table):
    """((i, j, k), table[i][j][k] + table[j][i][k]) for every i <= j.

    ``table`` is indexed like ``CurvatureTable.table`` with ``Vec``
    entries.  Every residual is zero exactly when the table is
    antisymmetric in its first two indices, its (i, i) entries included.
    """
    dim = len(table)
    for i in range(dim):
        for j in range(i, dim):
            for k in range(len(table[i][j])):
                yield (i, j, k), table[i][j][k] + table[j][i][k]


def is_antisymmetric(table) -> bool:
    """True when every ``antisymmetry_residuals`` entry of ``table`` is zero.

    A scan whose residual inherits this antisymmetry may visit i < j
    only: its failing tuples then come in swapped pairs and none has
    i = j, so the first failing tuple in full index order has i < j.
    """
    return all(anti.is_zero() for _, anti in antisymmetry_residuals(table))


def curvature_symmetry_residuals(R: CurvatureTable):
    """Antisymmetry, first Bianchi and pair-symmetry residual scan.

    Returns (witness index tuple, nonzero residual) pairs; the
    antisymmetry and Bianchi residuals are ``Vec``s.  Scans the
    generating index ranges; the remaining tuples follow from the
    symmetries already established (diagonal antisymmetry cases and
    permuted Bianchi sums are linear consequences).
    """
    dim = R.dim
    low = R.lowered_table
    out = [(w, anti) for w, anti in antisymmetry_residuals(R.table) if not anti.is_zero()]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                bianchi = R.table[i][j][k] + R.table[j][k][i] + R.table[k][i][j]
                if not bianchi.is_zero():
                    out.append(((i, j, k), bianchi))
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                # second-slot-pair diagonal must vanish by pair symmetry
                if low[i][j][k][k] != 0:
                    out.append(((i, j, k, k), low[i][j][k][k]))
                for l in range(k + 1, dim):
                    if (k, l) < (i, j):
                        continue
                    if low[i][j][k][l] != low[k][l][i][j]:
                        out.append(((i, j, k, l), low[i][j][k][l] - low[k][l][i][j]))
    return out


def covariant_derivative_11(conn: ConnectionTable, T: Mat, X: Vec) -> Mat:
    """Matrix of (nabla_X T) for a left-invariant (1,1)-tensor T.

    (nabla_X T)(e_j) = nabla_X(T e_j) - T(nabla_X e_j); both terms are
    finite sums because T has constant coefficients in the frame.
    """
    dim = conn.dim
    if T.shape != (dim, dim) or len(X) != dim:
        raise DimensionMismatchError(
            f"tensor {T.shape} / direction {len(X)} on dim {dim}"
        )
    cols = []
    for j in range(dim):
        col = conn.nabla(X, T.col(j)) - T @ conn.nabla(X, Vec.basis(dim, j))
        cols.append(col)
    return Mat.from_columns(cols)


def sectional_curvature(R: CurvatureTable, G: Mat, u: Vec, v: Vec) -> Fraction:
    """K(u, v) = R(u,v,v,u) / (|u|^2 |v|^2 - g(u,v)^2), basis-invariant."""
    denom = inner(u, u, G) * inner(v, v, G) - inner(u, v, G) ** 2
    if denom == 0:
        raise DegeneratePlaneError("u and v do not span a plane")
    return R.lowered(u, v, v, u) / denom
