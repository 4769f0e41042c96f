"""Lie algebra models carrying a left-invariant contact metric structure.

The (2n+1)-dimensional algebra is spanned by the ordered basis
(xi, X_1..X_n, Y_1..Y_n); all tables in the package index into this
order.  Index 0 is xi, index i is X_i and index n+i is Y_i (1-based i).
The bracket table depends on two rational parameters alpha, beta with
beta^2 > alpha^2; pairs the table does not list commute, and the Jacobi
record guards that reading: ``check_jacobi`` scans the Jacobiator of
every basis triple i < j < k like any other identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import (
    DegenerateModelError,
    DimensionMismatchError,
    ParameterError,
    StructureError,
    UnsupportedDimensionError,
)
from .linalg import Mat, Vec, combine, rat
from .report import IdentityRecord, scan


@dataclass(frozen=True)
class LieAlgebraModel:
    """Structure constants plus the orthonormal left-invariant metric.

    ``structure[i][j]`` is the coefficient vector of [e_i, e_j].
    """

    n: int
    alpha: Fraction
    beta: Fraction
    dim: int
    structure: tuple
    metric: Mat

    def x(self, i: int) -> int:
        """Basis index of X_i (1-based)."""
        return i

    def y(self, i: int) -> int:
        """Basis index of Y_i (1-based)."""
        return self.n + i

    @cached_property
    def jacobi(self) -> IdentityRecord:
        """The ``jacobi`` record of this bracket table, checked once per model.

        The check reads only the structure constants, so a deformed
        structure on the same model reuses it.
        """
        return check_jacobi(self)


def build_boeckx_model(n: int, alpha, beta) -> LieAlgebraModel:
    """Construct the bracket table of the standard model family.

    Requires an int n >= 2 (the table refers to X_2, Y_2 unconditionally)
    and beta^2 > alpha^2 (otherwise h would vanish and the model
    degenerates into the excluded boundary case).
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"n must be an int, got {n!r}")
    if n < 2:
        raise UnsupportedDimensionError(
            f"n={n} unsupported: the bracket table references X_2 and Y_2, so n >= 2"
        )
    alpha, beta = rat(alpha), rat(beta)
    if alpha < 0:
        raise DegenerateModelError(f"alpha must be >= 0, got {alpha}")
    if beta * beta <= alpha * alpha:
        raise DegenerateModelError(
            f"beta^2 > alpha^2 required, got alpha={alpha}, beta={beta}"
        )

    dim = 2 * n + 1
    ab, a2, b2 = alpha * beta / 2, alpha * alpha / 2, beta * beta / 2
    x1, x2, y1, y2 = 1, 2, n + 1, n + 2
    # every bracket that can be nonzero, as (a, b, ((c, m), ...)) for
    # [e_a, e_b] = sum c e_m: the core on xi, X_1, X_2, Y_1, Y_2, then
    # the block of each X_i, Y_i with i >= 3
    brackets = [
        (0, x1, ((-ab, x2), (-a2, y1))),
        (0, x2, ((ab, x1), (-a2, y2))),
        (0, y1, ((b2, x1), (-ab, y2))),
        (0, y2, ((b2, x2), (ab, y1))),
        (x1, x2, ((alpha, x2),)),
        (y2, y1, ((beta, y1),)),
        (x1, y1, ((-beta, x2), (2, 0))),
        (x2, y1, ((beta, x1), (-alpha, y2))),
        (x2, y2, ((alpha, y1), (2, 0))),
    ]
    for x, y in ((i, n + i) for i in range(3, n + 1)):
        brackets += [
            (0, x, ((-a2, y),)),
            (0, y, ((b2, x),)),
            (x1, x, ((alpha, x),)),
            (y2, y, ((beta, y),)),
            (x2, y, ((beta, x),)),
            (x, y1, ((-alpha, y),)),
            (x, y, ((-beta, x2), (alpha, y1), (2, 0))),
        ]

    zero = Vec.zero(dim)
    structure = [[zero] * dim for _ in range(dim)]
    seen = set()
    for a, b, terms in brackets:
        pair = (min(a, b), max(a, b))
        if pair in seen:
            raise StructureError(f"bracket table lists the pair ({a}, {b}) twice")
        seen.add(pair)
        value = combine(((c, Vec.basis(dim, m)) for c, m in terms), dim)
        structure[a][b] = value
        structure[b][a] = -value
    structure = tuple(tuple(row) for row in structure)

    return LieAlgebraModel(
        n=n,
        alpha=alpha,
        beta=beta,
        dim=dim,
        structure=structure,
        metric=Mat.identity(dim),
    )


def bracket(model: LieAlgebraModel, u: Vec, v: Vec) -> Vec:
    """Bilinear antisymmetric extension of the structure constants."""
    dim = model.dim
    if len(u) != dim or len(v) != dim:
        raise DimensionMismatchError(
            f"bracket operands of length {len(u)}, {len(v)} on a dim-{dim} model"
        )
    c = model.structure
    return combine(
        ((x * y, c[i][j]) for i, x in u.nonzero_entries() for j, y in v.nonzero_entries()),
        dim,
    )


def check_jacobi(model: LieAlgebraModel) -> IdentityRecord:
    """Scan [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0.

    The Jacobiator of each basis triple i < j < k is one residual, so a
    fail record names the first violating triple and the largest entry
    of its own Jacobiator.
    """
    dim, c = model.dim, model.structure
    # sum_m c_ij^m [e_m, e_k] + c_jk^m [e_m, e_i] + c_ki^m [e_m, e_j], for
    # each i < j < k in the order of the triple loop
    jacobiators = (
        (
            (i, j, k),
            combine(
                (
                    (x, c[m][last])
                    for first, last in ((c[i][j], k), (c[j][k], i), (c[k][i], j))
                    for m, x in first.nonzero_entries()
                ),
                dim,
            ),
        )
        for i, j, k in combinations(range(dim), 3)
    )
    return scan("jacobi", jacobiators)
