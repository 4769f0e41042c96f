"""Exact rational vectors and matrices.

Every quantity in this package is a ``fractions.Fraction``, so all
identities downstream are checked as literal equalities with zero
residual.  Vectors and matrices are immutable; coefficients are indexed
against the fixed basis order (xi, X_1..X_n, Y_1..Y_n) documented on the
model builder.  Rational literals in files and on the command line are
strings "p/q" or "p"; floats are rejected everywhere.
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


class Vec:
    """Immutable vector with Fraction coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        self._c = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "Vec":
        # internal fast path: entries are known to be Fractions already
        v = object.__new__(cls)
        v._c = coeffs
        return v

    @staticmethod
    def zero(dim: int) -> "Vec":
        return Vec([0] * dim)

    @staticmethod
    def basis(dim: int, k: int) -> "Vec":
        return Vec([1 if i == k else 0 for i in range(dim)])

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
        return Vec._raw(tuple(a + b for a, b in zip(self._c, other._c)))

    def __sub__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._check_dim(other)
        return Vec._raw(tuple(a - b for a, b in zip(self._c, other._c)))

    def __neg__(self):
        return Vec._raw(tuple(-a for a in self._c))

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return Vec._raw(tuple(a * scalar for a in self._c))
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._c)


class Mat:
    """Immutable square or rectangular matrix of Fractions, row-major.

    ``m @ v`` applies the matrix to a vector (columns act on coefficients),
    ``m @ m2`` composes.  ``m[i, j]`` reads the entry in row i, column j.
    """

    __slots__ = ("_rows", "_diag")

    def __init__(self, rows):
        self._rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self._diag = None
        if self._rows:
            width = len(self._rows[0])
            if any(len(r) != width for r in self._rows):
                raise DimensionMismatchError("ragged rows in matrix literal")

    @classmethod
    def _raw(cls, rows: tuple) -> "Mat":
        m = object.__new__(cls)
        m._rows = rows
        m._diag = None
        return m

    @staticmethod
    def identity(dim: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @staticmethod
    def zeros(nrows: int, ncols: int | None = None) -> "Mat":
        ncols = nrows if ncols is None else ncols
        return Mat([[0] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries) -> "Mat":
        entries = [Fraction(e) for e in entries]
        dim = len(entries)
        return Mat(
            [[entries[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        )

    @staticmethod
    def from_columns(cols) -> "Mat":
        cols = [list(c) for c in cols]
        return Mat([[col[i] for col in cols] for i in range(len(cols[0]))])

    @property
    def shape(self):
        return (len(self._rows), len(self._rows[0]) if self._rows else 0)

    def col(self, j: int) -> Vec:
        return Vec(r[j] for r in self._rows)

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
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self._rows, other._rows)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Mat._raw(tuple(tuple(-x for x in row) for row in self._rows))

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return Mat._raw(
                tuple(tuple(x * scalar for x in row) for row in self._rows)
            )
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
            return Vec._raw(
                tuple(
                    sum(row[k] * oc[k] for k in range(ncols) if row[k])
                    or Fraction(0)
                    for row in self._rows
                )
            )
        if isinstance(other, Mat):
            orows, ocols = other.shape
            if ncols != orows:
                raise DimensionMismatchError(
                    f"cannot compose {self.shape} with {other.shape}"
                )
            return Mat._raw(
                tuple(
                    tuple(
                        sum(self._rows[i][k] * other._rows[k][j] for k in range(ncols))
                        or Fraction(0)
                        for j in range(ocols)
                    )
                    for i in range(nrows)
                )
            )
        return NotImplemented

    def transpose(self) -> "Mat":
        nrows, ncols = self.shape
        return Mat([self._rows[i][j] for i in range(nrows)] for j in range(ncols))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_diagonal(self) -> bool:
        if self._diag is None:
            nrows, ncols = self.shape
            self._diag = all(
                self._rows[i][j] == 0
                for i in range(nrows)
                for j in range(ncols)
                if i != j
            )
        return self._diag

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def nonzero_entries(self):
        """((i, j), entry) for every nonzero entry, row by row."""
        for i, row in enumerate(self._rows):
            for j, x in enumerate(row):
                if x != 0:
                    yield (i, j), x


def inner(u: Vec, v: Vec, G: Mat) -> Fraction:
    """Metric pairing u^T G v, exact."""
    dim = len(u)
    if len(v) != dim or G.shape != (dim, dim):
        raise DimensionMismatchError(
            f"inner product dims: u={len(u)}, v={len(v)}, G={G.shape}"
        )
    uc, vc, rows = u._c, v._c, G._rows
    if G.is_diagonal():
        total = sum(
            uc[i] * rows[i][i] * vc[i] for i in range(dim) if uc[i] and vc[i]
        )
    else:
        total = sum(
            uc[i] * rows[i][j] * vc[j]
            for i in range(dim)
            if uc[i]
            for j in range(dim)
            if vc[j] and rows[i][j]
        )
    return total if isinstance(total, Fraction) else Fraction(0)


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
    return Vec(rhs[i] / G[i, i] for i in range(dim))


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
