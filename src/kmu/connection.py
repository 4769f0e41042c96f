"""Levi-Civita connection and curvature in a left-invariant frame.

For left-invariant fields on a Lie group with left-invariant metric the
Koszul formula loses its derivative terms and reduces to

    2 g(nabla_X Y, Z) = g([X,Y], Z) - g([Y,Z], X) + g([Z,X], Y),

so the whole connection is a finite table of rationals.  The curvature
convention is R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_[X,Y] Z with lowered tensor R(X,Y,Z,W) = g(R(X,Y)Z, W); this is
the unique choice the verification suite validates against the defining
curvature condition of the class.

The connection is read as its operators, ops[i] = nabla_{e_i} as a
matrix, so curvature is matrix algebra: R(e_i, e_j) = [nabla_i, nabla_j]
- sum_m c_ij^m nabla_m.  ``curvature_from`` computes it for the model
and, in frame coordinates, for every leaf; it builds i < j and fills the
rest by antisymmetry, which needs an antisymmetric bracket table.  The
covariant derivative of a left-invariant (1,1)-tensor T is the
commutator nabla_X T = [nabla_X, T].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegeneratePlaneError, DimensionMismatchError
from .liealg import LieAlgebraModel
from .linalg import Mat, Vec, combine, inner, matsum, solve_diagonal_metric


@dataclass(frozen=True)
class ConnectionTable:
    """Connection coefficients: gamma[i][j] = nabla_{e_i} e_j as a Vec."""

    dim: int
    metric: Mat
    gamma: tuple

    @cached_property
    def ops(self) -> tuple:
        """ops[i] is nabla_{e_i} as a matrix: its column j is gamma[i][j]."""
        return tuple(Mat.from_columns(row) for row in self.gamma)

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
    low = [[tuple(gt @ c_ij) for c_ij in row] for row in model.structure]
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
    compatibility is exactly this antisymmetry in (j, k): the residuals
    are the entries k >= j of L + L^T = G^T ops[i] + ops[i]^T G, where
    L = G^T ops[i] has entry (k, j) = g(nabla_i e_j, e_k).
    """
    out = []
    G, gt = conn.metric, conn.metric.transpose()
    for i, op in enumerate(conn.ops):
        sym = matsum(((1, gt, op), (1, op.transpose(), G)), conn.dim, conn.dim)
        for (j, k), res in sym.nonzero_entries():
            if k >= j:
                out.append(((i, j, k), res))
    return out


def curvature_from(ops, brackets) -> tuple:
    """table[i][j][k] = R(e_i, e_j) e_k for the operators ops[i] = nabla_{e_i}.

    With c_ij^m the coefficients brackets[i][j] of [e_i, e_j], the entries
    k are the columns of R_ij = [ops[i], ops[j]] - sum_m c_ij^m ops[m] for
    i < j, negated for j < i.  That fill needs an antisymmetric bracket
    table, as the structure constants and a leaf's frame brackets are.
    """
    dim = len(ops)
    table = [[(Vec.zero(dim),) * dim] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = [(1, ops[i], ops[j]), (-1, ops[j], ops[i])]
            terms += [(-x, ops[m]) for m, x in brackets[i][j].nonzero_entries()]
            R_ij = matsum(terms, dim, dim)
            cols = tuple(R_ij.col(k) for k in range(dim))
            table[i][j] = cols
            table[j][i] = tuple(-col for col in cols)
    return tuple(tuple(plane) for plane in table)


def riemann(model: LieAlgebraModel, conn: ConnectionTable) -> CurvatureTable:
    """R(e_i, e_j) e_k from the connection operators and the bracket table."""
    table = curvature_from(conn.ops, model.structure)
    # g(R(e_i, e_j) e_k, e_l) = sum_m R^m_ijk g_ml: the transposed metric
    # applied to each entry, over the entry's and the metric's supports
    gt = conn.metric.transpose()
    lowered = tuple(
        tuple(tuple(tuple(gt @ entry) for entry in row) for row in plane)
        for plane in table
    )
    return CurvatureTable(
        dim=model.dim, metric=conn.metric, table=table, lowered_table=lowered
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

    (nabla_X T)(e_j) = nabla_X(T e_j) - T(nabla_X e_j), so nabla_X T is
    the commutator [nabla_X, T] with nabla_X = sum_i X^i ops[i]: T has
    constant coefficients in the frame.  It is summed as
    sum_i X^i (ops[i] T - T ops[i]), one kernel call.
    """
    dim = conn.dim
    if T.shape != (dim, dim) or len(X) != dim:
        raise DimensionMismatchError(
            f"tensor {T.shape} / direction {len(X)} on dim {dim}"
        )
    ops, terms = conn.ops, []
    for i, x in X.nonzero_entries():
        terms += [(x, ops[i], T), (-x, T, ops[i])]
    return matsum(terms, dim, dim)


def sectional_curvature(R: CurvatureTable, G: Mat, u: Vec, v: Vec) -> Fraction:
    """K(u, v) = R(u,v,v,u) / (|u|^2 |v|^2 - g(u,v)^2), basis-invariant."""
    denom = inner(u, u, G) * inner(v, v, G) - inner(u, v, G) ** 2
    if denom == 0:
        raise DegeneratePlaneError("u and v do not span a plane")
    return R.lowered(u, v, v, u) / denom
