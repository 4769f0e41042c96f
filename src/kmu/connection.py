"""Levi-Civita connection and curvature in a left-invariant frame.

For left-invariant fields on a Lie group with left-invariant metric the
Koszul formula loses its derivative terms and reduces to

    2 g(nabla_X Y, Z) = g([X,Y], Z) - g([Y,Z], X) + g([Z,X], Y),

so the whole connection is a finite table of rationals.  The curvature
convention is R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_[X,Y] Z with lowered tensor R(X,Y,Z,W) = g(R(X,Y)Z, W); this is
the unique choice the verification suite validates against the defining
curvature condition of the class.

A connection, the model's or in frame coordinates a leaf's, is stored
as its operators ops[i] = nabla_{e_i}, so curvature is matrix algebra:
R(e_i, e_j) = [nabla_i, nabla_j] - sum_m c_ij^m nabla_m.
``curvature_from`` computes that plane for each pair i < j only, and
``CurvatureTable`` stores those planes and nothing else: R(e_j, e_i) is
read as -R(e_i, e_j) and R(e_i, e_i) as zero, so every table is
antisymmetric in its first two slots by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegeneratePlaneError, DimensionMismatchError
from .liealg import LieAlgebraModel
from .linalg import Mat, Vec, combine, dot, inner, matsum, metric_diagonal
from .report import column_residuals


@dataclass(frozen=True)
class ConnectionTable:
    """ops[i] is nabla_{e_i} as a Mat, whose column j is nabla_{e_i} e_j.

    The nested ``gamma`` is an export view derived on first read.
    """

    dim: int
    metric: Mat
    ops: tuple

    @cached_property
    def gamma(self) -> tuple:
        """gamma[i][j] = nabla_{e_i} e_j as a Vec, for export."""
        return tuple(tuple(op.col(j) for j in range(self.dim)) for op in self.ops)

    def nabla(self, u: Vec, v: Vec) -> Vec:
        """Bilinear extension over constant coefficients."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError(
                f"nabla operands of length {len(u)}, {len(v)} on dim {self.dim}"
            )
        def terms():
            for i, x in u.nonzero_entries():
                op = self.ops[i]
                for j, y in v.nonzero_entries():
                    column = op.col(j)
                    if column.nonzero_entries():
                        yield x * y, column

        return combine(terms(), self.dim)

    def derivative_residuals(self, T: Mat, minus_rhs):
        """((i, j), column j of [ops[i], T] - rhs(i)) for every operator i.

        An operator T with constant coefficients in the frame has
        (nabla_{e_i} T) e_j = [nabla_{e_i}, T] e_j, so this checks an
        identity (nabla_{e_i} T) = rhs(i) one operator at a time;
        ``minus_rhs(i)`` gives the ``matsum`` terms of -rhs(i).  The
        difference is one ``matsum`` per i, read by ``column_residuals``:
        a zero difference covers every j at once and yields nothing.
        """
        dim = self.dim
        return column_residuals(
            ((i,), matsum(((1, op, T), (-1, T, op), *minus_rhs(i)), dim, dim))
            for i, op in enumerate(self.ops)
        )


@dataclass(frozen=True)
class CurvatureTable:
    """Curvature stored once, as one plane per index pair i < j.

    planes[i, j] is the matrix whose column k is R(e_i, e_j) e_k, and
    ``column`` reads R(e_i, e_j) e_k for any i and j.  The nested ``table``
    is an export view derived on first read, so a table rebuilt with
    ``replace(R, planes=...)`` derives its own.
    """

    dim: int
    metric: Mat
    planes: dict

    def column(self, i: int, j: int, k: int) -> Vec:
        """R(e_i, e_j) e_k: negated for j < i, zero for i = j."""
        if i < j:
            return self.planes[i, j].col(k)
        if j < i:
            return -self.planes[j, i].col(k)
        return Vec.zero(self.dim)

    @cached_property
    def table(self) -> tuple:
        """table[i][j][k] = R(e_i, e_j) e_k as a Vec, for export."""
        dim = self.dim
        return tuple(
            tuple(tuple(self.column(i, j, k) for k in range(dim)) for j in range(dim))
            for i in range(dim)
        )

    def pair_coefficients(self, u: Vec, v: Vec) -> tuple:
        """((i, j), u_i v_j - u_j v_i) for each plane i < j where it is nonzero.

        Summed over the supports of u and v: these are the coefficients of
        R(u, v) in the planes, whatever vector it is then applied to.
        """
        coeffs = {}
        for i, x in u.nonzero_entries():
            for j, y in v.nonzero_entries():
                if i < j:
                    pair, xy = (i, j), x * y
                elif j < i:
                    pair, xy = (j, i), -(x * y)
                else:
                    continue
                coeffs[pair] = coeffs[pair] + xy if pair in coeffs else xy
        return tuple((pair, c) for pair, c in coeffs.items() if c)

    def apply(self, u: Vec, v: Vec, w: Vec) -> Vec:
        """R(u, v) w, summed over the ((i, j), c) of ``pair_coefficients``."""
        planes = self.planes
        return combine(
            ((c, planes[pair] @ w) for pair, c in self.pair_coefficients(u, v)), self.dim
        )

    def lowered(self, u: Vec, v: Vec, w: Vec, z: Vec) -> Fraction:
        return inner(self.apply(u, v, w), z, self.metric)

    def sectional(self, i: int, j: int) -> Fraction:
        """K(e_i, e_j) = R(e_i, e_j, e_j, e_i) / (g_ii g_jj - g_ij^2).

        The numerator is column j of the stored plane of {i, j} paired
        with column i of the metric, and the denominator reads three
        metric entries; ``sectional_curvature`` is the same quotient for
        any u and v.  A zero numerator is returned as it is.
        """
        G = self.metric
        denom = gram_determinant(G[i, i], G[j, j], G[i, j])
        if denom == 0:
            raise DegeneratePlaneError(f"e_{i} and e_{j} do not span a plane")
        numerator = dot(self.column(i, j, j), G.col(i))
        return numerator / denom if numerator else numerator


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
    ops = tuple(
        Mat.from_columns(
            Vec.from_dict({k: x / twice[k] for k, x in acc.items() if x}, dim)
            for acc in row
        )
        for row in koszul
    )
    return ConnectionTable(dim=dim, metric=G, ops=ops)


def torsion_residuals(model: LieAlgebraModel, conn: ConnectionTable) -> list:
    """((i, j), nabla_i e_j - nabla_j e_i - [e_i, e_j]) for every i < j."""
    ops = conn.ops
    return [
        ((i, j), ops[i].col(j) - ops[j].col(i) - model.structure[i][j])
        for i in range(model.dim)
        for j in range(i + 1, model.dim)
    ]


def metric_compatibility_residuals(conn: ConnectionTable) -> list:
    """((i, j, k), g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k)) for k >= j.

    The metric has constant coefficients in a left-invariant frame, so
    compatibility is exactly this antisymmetry in (j, k): the residuals
    are the entries k >= j of L + L^T, where L = G^T ops[i] has entry
    (k, j) = g(nabla_i e_j, e_k).  A tuple is visited where L or L^T is
    nonzero, in index order; elsewhere both terms are zero.
    """
    out = []
    gt = conn.metric.transpose()
    for i, op in enumerate(conn.ops):
        low = gt @ op
        sym = low + low.transpose()
        pairs = sorted({(min(j, k), max(j, k)) for (k, j), _ in low.nonzero_entries()})
        out += (((i, j, k), sym[j, k]) for j, k in pairs)
    return out


def curvature_from(ops, brackets, metric: Mat) -> CurvatureTable:
    """The curvature of the operators ops[i] = nabla_{e_i}, plane by plane.

    With c_ij^m the coefficients brackets[i][j] of [e_i, e_j], the plane
    (i, j) is R_ij = [ops[i], ops[j]] - sum_m c_ij^m ops[m], built for
    i < j only; ``metric`` is the one the table lowers with.
    """
    dim = len(ops)
    planes = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = [(1, ops[i], ops[j]), (-1, ops[j], ops[i])]
            terms += [(-x, ops[m]) for m, x in brackets[i][j].nonzero_entries()]
            planes[i, j] = matsum(terms, dim, dim)
    return CurvatureTable(dim=dim, metric=metric, planes=planes)


def riemann(model: LieAlgebraModel, conn: ConnectionTable) -> CurvatureTable:
    """R(e_i, e_j) e_k from the connection operators and the bracket table."""
    return curvature_from(conn.ops, model.structure, conn.metric)


def curvature_symmetry_residuals(R: CurvatureTable) -> list:
    """First Bianchi, pair and last-pair symmetry residuals, as (witness, residual).

    R is antisymmetric in its first two slots by construction, so these
    are what is left to check.  Bianchi yields the sum of its three
    entries (a ``Vec``) at every triple i < j < k where one is nonzero.
    With each stored plane lowered once, L[i, j][k][l] = g(R(e_i, e_j)
    e_k, e_l), pair symmetry yields L[i, j][k][l] - L[k, l][i][j] at
    i < j, k < l, (k, l) >= (i, j), and the entry itself at a diagonal
    k = l; then L[i, j][k][l] + L[i, j][l][k] at i < j, k < l.  These two
    visit only the tuples where an entry they read is nonzero.
    """
    dim, planes = R.dim, R.planes
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                # R(e_k, e_i) e_j is minus the stored R(e_i, e_k) e_j
                x, y, z = planes[i, j].col(k), planes[j, k].col(i), planes[i, k].col(j)
                if not (x.is_zero() and y.is_zero() and z.is_zero()):
                    out.append(((i, j, k), x + y - z))
    gt, low = R.metric.transpose(), {}
    for pair, plane in planes.items():
        low[pair] = tuple(v if v.is_zero() else gt @ v for v in map(plane.col, range(dim)))
    # each nonzero lowered entry at its pair-symmetry tuple or that tuple's
    # mirror, and at its last-pair tuple
    tuples, last_pairs = set(), set()
    for (i, j), plane in low.items():
        for k, entry in enumerate(plane):
            for l, _ in entry.nonzero_entries():
                if l == k or (l > k and (k, l) >= (i, j)):
                    tuples.add((i, j, k, l))
                elif l > k:
                    tuples.add((k, l, i, j))
                if l != k:
                    last_pairs.add((i, j, min(k, l), max(k, l)))
    zero = Fraction(0)
    for i, j, k, l in sorted(tuples):
        ijkl = low[i, j][k][l]
        if k == l:
            out.append(((i, j, k, k), ijkl))
        else:
            klij = low[k, l][i][j]
            out.append(((i, j, k, l), zero if ijkl == klij else ijkl - klij))
    for i, j, k, l in sorted(last_pairs):
        out.append(((i, j, k, l), low[i, j][k][l] + low[i, j][l][k]))
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
