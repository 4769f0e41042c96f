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
rest by antisymmetry, which needs an antisymmetric bracket table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegeneratePlaneError, DimensionMismatchError
from .liealg import LieAlgebraModel
from .linalg import Mat, Vec, cancels, combine, inner, matsum, metric_diagonal


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

    ``table`` is the one stored copy of R; the lowering (plane by plane)
    and the antisymmetry residuals are views derived from it on first
    read, so a table rebuilt with ``replace(R, table=...)`` derives its own.
    """

    dim: int
    metric: Mat
    table: tuple

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
    def _lowered_planes(self) -> dict:
        """The planes ``lowered_plane`` has lowered so far, by (i, j)."""
        return {}

    def lowered_plane(self, i: int, j: int) -> tuple:
        """g(R(e_i, e_j) e_k, .) as a Vec for each k, lowered on first read."""
        planes = self._lowered_planes
        plane = planes.get((i, j))
        if plane is None:
            gt = self.metric.transpose()
            plane = tuple(v if v.is_zero() else gt @ v for v in self.table[i][j])
            planes[i, j] = plane
        return plane

    @cached_property
    def antisymmetry_failures(self) -> tuple:
        """The nonzero ``antisymmetry_residuals`` of ``table``, in scan order."""
        return tuple(
            (w, anti) for w, anti in antisymmetry_residuals(self.table) if not anti.is_zero()
        )

    @property
    def antisymmetric(self) -> bool:
        """``is_antisymmetric(table)``, read off ``antisymmetry_failures``."""
        return not self.antisymmetry_failures

    def lowered(self, u: Vec, v: Vec, w: Vec, z: Vec) -> Fraction:
        return inner(self.apply(u, v, w), z, self.metric)


def levi_civita(model: LieAlgebraModel, metric: Mat | None = None) -> ConnectionTable:
    """Connection table from the Koszul formula for left-invariant data.

    ``metric`` defaults to the model's own metric; passing a different
    (diagonal) one computes the connection of that metric on the same
    group, which is how deformed structures reuse this code.  Each nonzero
    g([e_p, e_q], e_r) feeds 2 g(nabla_i e_j, e_k) at (i, j, k) = (p, q, r),
    negated at (r, p, q) and again at (q, r, p); every other slot is zero.
    """
    G = model.metric if metric is None else metric
    dim = model.dim
    if G.shape != (dim, dim):
        raise DimensionMismatchError(f"metric is {G.shape} on a dim-{dim} model")
    diagonal = metric_diagonal(G)
    twice = [2 * d for d in diagonal]
    # koszul[i][j][k] = 2 g(nabla_i e_j, e_k), over the brackets' supports
    koszul = [[{} for _ in range(dim)] for _ in range(dim)]
    for p, row in enumerate(model.structure):
        for q, c_pq in enumerate(row):
            for r, x in c_pq.nonzero_entries():
                low = x * diagonal[r]
                for i, j, k, y in ((p, q, r, low), (r, p, q, -low), (q, r, p, low)):
                    acc = koszul[i][j]
                    acc[k] = acc[k] + y if k in acc else y
    gamma = tuple(
        tuple(
            Vec.from_dict({k: x / twice[k] for k, x in acc.items() if x}, dim)
            for acc in row
        )
        for row in koszul
    )
    return ConnectionTable(dim=dim, metric=G, gamma=gamma)


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
    return CurvatureTable(dim=model.dim, metric=conn.metric, table=table)


def antisymmetry_residuals(table):
    """((i, j, k), table[i][j][k] + table[j][i][k]) for every i <= j.

    ``table`` is indexed like ``CurvatureTable.table`` with ``Vec``
    entries of length ``len(table)``.  Every residual is zero exactly
    when the table is antisymmetric in its first two indices, its (i, i)
    entries included.  A pair that cancels, as ``linalg.cancels`` decides
    from the two supports, yields one shared zero vector and no sum.
    """
    dim = len(table)
    zero = Vec.zero(dim)
    for i in range(dim):
        for j in range(i, dim):
            for k in range(len(table[i][j])):
                u, v = table[i][j][k], table[j][i][k]
                yield (i, j, k), zero if cancels(u, v) else u + v


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
    permuted Bianchi sums are linear consequences).  Bianchi adds its
    three entries only at the triples i < j < k where one is nonzero.
    Pair symmetry checks (i, j, k, l) with i < j, k <= l and
    k = l or (k, l) >= (i, j); it visits only the tuples where a lowered
    entry it reads is nonzero, and lowers only the i < j planes it reads.
    """
    dim, table, low = R.dim, R.table, R.lowered_plane
    out = list(R.antisymmetry_failures)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                x, y, z = table[i][j][k], table[j][k][i], table[k][i][j]
                if x.is_zero() and y.is_zero() and z.is_zero():
                    continue
                bianchi = x + y + z
                if not bianchi.is_zero():
                    out.append(((i, j, k), bianchi))
    tuples = set()  # each nonzero lowered entry at its own tuple or its mirror
    for i in range(dim):
        for j in range(i + 1, dim):
            for k, entry in enumerate(low(i, j)):
                for l, _ in entry.nonzero_entries():
                    if l == k or (l > k and (k, l) >= (i, j)):
                        tuples.add((i, j, k, l))
                    elif l > k:
                        tuples.add((k, l, i, j))
    for i, j, k, l in sorted(tuples):
        if k == l:
            # second-slot-pair diagonal must vanish by pair symmetry
            out.append(((i, j, k, k), low(i, j)[k][k]))
        else:
            ijkl, klij = low(i, j)[k][l], low(k, l)[i][j]
            if ijkl != klij:
                out.append(((i, j, k, l), ijkl - klij))
    return out


def gram_determinant(uu: Fraction, vv: Fraction, uv: Fraction) -> Fraction:
    """|u|^2 |v|^2 - g(u, v)^2 from the pairings; no square when g(u, v) = 0."""
    return uu * vv - uv ** 2 if uv else uu * vv


def sectional_curvature(R: CurvatureTable, G: Mat, u: Vec, v: Vec) -> Fraction:
    """K(u, v) = R(u,v,v,u) / (|u|^2 |v|^2 - g(u,v)^2), basis-invariant."""
    denom = gram_determinant(inner(u, u, G), inner(v, v, G), inner(u, v, G))
    if denom == 0:
        raise DegeneratePlaneError("u and v do not span a plane")
    numerator = R.lowered(u, v, v, u)
    return numerator / denom if numerator else numerator
