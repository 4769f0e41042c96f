"""Exact rational vectors and matrices.

Every quantity in this package is a ``fractions.Fraction``, so all
identities downstream are checked as literal equalities with zero
residual.  Vectors and matrices are immutable; coefficients are indexed
against the fixed basis order (xi, X_1..X_n, Y_1..Y_n) documented on the
model builder.  Rational literals in files and on the command line are
strings "p/q" or "p"; floats are rejected everywhere.

The model tables are a few percent dense, so every kernel here visits
only nonzero coefficients: vectors cache their nonzero entries and
matrices their row supports.  Skipping a zero term never changes an
exact sum, so results equal those of dense loops entry for entry.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DimensionMismatchError, ParameterError, SingularMetricError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rat(value) -> Fraction:
    """Parse an exact rational from an int, Fraction or "p/q" string.

    Floats are rejected: they would silently break the zero-residual
    guarantees of every verification.
    """
    if isinstance(value, bool):
        raise ParameterError(f"not a rational literal: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParameterError(
            f"floating-point value {value!r} rejected; use an exact 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
        raise ParameterError(f"not a rational literal: {value!r}")
    raise ParameterError(f"not a rational literal: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "p" or "p/q" (the I/O format everywhere)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Shared exact constants: zero entries of every table are this one object,
# so kernels and equality tests meet them without arithmetic.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _add(xs: tuple, ys: tuple) -> tuple:
    """Entrywise xs + ys; a zero operand contributes no arithmetic."""
    return tuple((x + y if x else y) if y else x for x, y in zip(xs, ys))


def _sub(xs: tuple, ys: tuple) -> tuple:
    return tuple((x - y if x else -y) if y else x for x, y in zip(xs, ys))


def _neg(xs: tuple) -> tuple:
    return tuple(-x if x else x for x in xs)


def _scale(xs: tuple, s: Fraction) -> tuple:
    if not s:
        return (_ZERO,) * len(xs)
    return tuple(x * s if x else x for x in xs)


def _dot(pairs, c: tuple) -> Fraction:
    """sum x * c[k] over (k, x) in pairs, skipping zero entries of c."""
    total = None
    for k, x in pairs:
        y = c[k]
        if y:
            total = x * y if total is None else total + x * y
    return _ZERO if total is None else total


class Vec:
    """Immutable vector with Fraction coefficients.

    ``nonzero_entries()`` is computed once and cached, so every kernel
    below iterates over a vector's support instead of its full range.
    """

    __slots__ = ("_c", "_nz")

    def __init__(self, coeffs):
        self._c = tuple(_frac(c) for c in coeffs)
        self._nz = None

    @classmethod
    def _raw(cls, coeffs: tuple) -> "Vec":
        # internal fast path: entries are known to be Fractions already
        v = object.__new__(cls)
        v._c = coeffs
        v._nz = None
        return v

    @staticmethod
    def zero(dim: int) -> "Vec":
        return Vec._raw((_ZERO,) * dim)

    @staticmethod
    def basis(dim: int, k: int) -> "Vec":
        return Vec._raw(tuple(_ONE if i == k else _ZERO for i in range(dim)))

    def __len__(self):
        return len(self._c)

    def __getitem__(self, i):
        return self._c[i]

    def __iter__(self):
        return iter(self._c)

    def __eq__(self, other):
        return isinstance(other, Vec) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return "Vec(%s)" % ", ".join(rat_str(c) for c in self._c)

    def _check_dim(self, other: "Vec"):
        if len(self) != len(other):
            raise DimensionMismatchError(
                f"vector dimensions differ: {len(self)} vs {len(other)}"
            )

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._check_dim(other)
        return Vec._raw(_add(self._c, other._c))

    def __sub__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._check_dim(other)
        return Vec._raw(_sub(self._c, other._c))

    def __neg__(self):
        return Vec._raw(_neg(self._c))

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return Vec._raw(_scale(self._c, scalar))
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self._c)

    def nonzero_entries(self) -> tuple:
        """(index, entry) for every nonzero entry, in index order; cached."""
        if self._nz is None:
            self._nz = tuple((i, x) for i, x in enumerate(self._c) if x)
        return self._nz


def _settle(acc: list) -> tuple:
    """Entries of an accumulator list; None marks an entry never written."""
    return tuple(_ZERO if a is None else a for a in acc)


def combine(terms, dim: int) -> Vec:
    """sum coeff * v over the (coeff, v) pairs of terms, over supports.

    Pairs with a zero coefficient cost nothing; the sum accumulates in
    place instead of allocating a vector per term.
    """
    acc = [None] * dim
    for coeff, v in terms:
        if coeff:
            for t, x in v.nonzero_entries():
                a = acc[t]
                acc[t] = coeff * x if a is None else a + coeff * x
    return Vec._raw(_settle(acc))


class Mat:
    """Immutable square or rectangular matrix of Fractions, row-major.

    ``m @ v`` applies the matrix to a vector (columns act on coefficients),
    ``m @ m2`` composes.  ``m[i, j]`` reads the entry in row i, column j.
    The row supports, (column, entry) pairs per row, are computed once
    and cached; products iterate over them.
    """

    __slots__ = ("_rows", "_sup")

    def __init__(self, rows):
        self._rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        self._sup = None
        if self._rows:
            width = len(self._rows[0])
            if any(len(r) != width for r in self._rows):
                raise DimensionMismatchError("ragged rows in matrix literal")

    @classmethod
    def _raw(cls, rows: tuple) -> "Mat":
        m = object.__new__(cls)
        m._rows = rows
        m._sup = None
        return m

    def _row_supports(self) -> tuple:
        if self._sup is None:
            self._sup = tuple(
                tuple((j, x) for j, x in enumerate(row) if x) for row in self._rows
            )
        return self._sup

    @staticmethod
    def identity(dim: int) -> "Mat":
        return Mat.diagonal([_ONE] * dim)

    @staticmethod
    def zeros(nrows: int, ncols: int | None = None) -> "Mat":
        ncols = nrows if ncols is None else ncols
        return Mat._raw(((_ZERO,) * ncols,) * nrows)

    @staticmethod
    def diagonal(entries) -> "Mat":
        entries = [_frac(e) for e in entries]
        dim = len(entries)
        return Mat._raw(
            tuple(
                tuple(entries[i] if i == j else _ZERO for j in range(dim))
                for i in range(dim)
            )
        )

    @staticmethod
    def from_columns(cols) -> "Mat":
        cols = [list(c) for c in cols]
        return Mat([[col[i] for col in cols] for i in range(len(cols[0]))])

    @property
    def shape(self):
        return (len(self._rows), len(self._rows[0]) if self._rows else 0)

    def col(self, j: int) -> Vec:
        return Vec._raw(tuple(r[j] for r in self._rows))

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(rat_str(x) for x in row) for row in self._rows
        )
        return f"Mat[{body}]"

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatchError(
                f"matrix shapes differ: {self.shape} vs {other.shape}"
            )
        return Mat._raw(
            tuple(_add(r1, r2) for r1, r2 in zip(self._rows, other._rows))
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Mat._raw(tuple(_neg(row) for row in self._rows))

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return Mat._raw(tuple(_scale(row, scalar) for row in self._rows))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        nrows, ncols = self.shape
        if isinstance(other, Vec):
            if len(other) != ncols:
                raise DimensionMismatchError(
                    f"matrix is {self.shape} but vector has length {len(other)}"
                )
            oc = other._c
            return Vec._raw(tuple(_dot(sup, oc) for sup in self._row_supports()))
        if isinstance(other, Mat):
            orows, ocols = other.shape
            if ncols != orows:
                raise DimensionMismatchError(
                    f"cannot compose {self.shape} with {other.shape}"
                )
            osup = other._row_supports()
            rows = []
            for sup in self._row_supports():
                # row i of the product is sum_k a_ik (row k of other)
                acc = [None] * ocols
                for k, a in sup:
                    for j, b in osup[k]:
                        c = acc[j]
                        acc[j] = a * b if c is None else c + a * b
                rows.append(_settle(acc))
            return Mat._raw(tuple(rows))
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat._raw(tuple(zip(*self._rows)))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_diagonal(self) -> bool:
        return all(
            all(j == i for j, _ in sup) for i, sup in enumerate(self._row_supports())
        )

    def is_zero(self) -> bool:
        return not any(self._row_supports())

    def nonzero_entries(self):
        """((i, j), entry) for every nonzero entry, row by row."""
        for i, sup in enumerate(self._row_supports()):
            for j, x in sup:
                yield (i, j), x


def dot(u: Vec, v: Vec) -> Fraction:
    """Coefficient pairing sum_i u[i] v[i], over the support of u.

    A covector stored as coefficients (such as eta) acts on vectors this
    way, with no metric involved.
    """
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot product dims: u={len(u)}, v={len(v)}")
    return _dot(u.nonzero_entries(), v._c)


def inner(u: Vec, v: Vec, G: Mat) -> Fraction:
    """Metric pairing u^T G v, exact, over the supports of u, G and v."""
    dim = len(u)
    if len(v) != dim or G.shape != (dim, dim):
        raise DimensionMismatchError(
            f"inner product dims: u={len(u)}, v={len(v)}, G={G.shape}"
        )
    rows, vc = G._row_supports(), v._c
    total = None
    for i, x in u.nonzero_entries():
        for j, g in rows[i]:
            y = vc[j]
            if y:
                term = x * g * y
                total = term if total is None else total + term
    return _ZERO if total is None else total


def solve_diagonal_metric(G: Mat, rhs: Vec) -> Vec:
    """Solve G w = rhs for a diagonal metric, componentwise and exactly."""
    dim = len(rhs)
    if G.shape != (dim, dim):
        raise DimensionMismatchError(f"metric is {G.shape}, rhs has length {dim}")
    if not G.is_diagonal():
        raise SingularMetricError("metric is not diagonal")
    for i in range(dim):
        if G[i, i] == 0:
            raise SingularMetricError(f"zero diagonal entry at index {i}")
    return Vec._raw(tuple(x / G[i, i] if x else x for i, x in enumerate(rhs)))


def outer(u: Vec, w: Vec) -> Mat:
    """Rank-one matrix u w^T; as an operator it maps v to w(v) * u."""
    return Mat([u[i] * w[j] for j in range(len(w))] for i in range(len(u)))


def rank(M: Mat) -> int:
    """Exact rank by fraction-free Gaussian elimination."""
    rows = [list(r) for r in M._rows]
    nrows, ncols = M.shape
    r = 0
    for j in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(nrows):
            if i != r and rows[i][j] != 0:
                factor = rows[i][j] / rows[r][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r
