"""Exact rational vectors and matrices.

Every quantity in this package is a ``fractions.Fraction``, so all
identities downstream are checked as literal equalities with zero
residual.  Vectors and matrices are immutable; coefficients are indexed
against the fixed basis order (xi, X_1..X_n, Y_1..Y_n) documented on the
model builder.  Rational literals in files and on the command line are
strings "p/q" or "p"; floats are rejected everywhere.

The model tables are a few percent dense, so every kernel here visits
only nonzero coefficients.  A vector carries its support, the (index,
entry) pairs of its nonzero entries, from birth: each kernel writes the
support of its result from the entries it computed, tests only those
for cancellation, and stores every zero entry as the one shared
``_ZERO``.  A matrix keeps its rows, and on first use its columns, as
such vectors.  Skipping a zero term never changes an exact sum, so
results equal those of dense loops entry for entry.
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


# Shared exact constants: every zero entry of every vector and matrix is
# this one object, so a dense read tells a zero by identity, with no call
# to Fraction.__bool__.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    """An exact entry: a Fraction, or an int that is not a bool."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ParameterError(f"entry {x!r} rejected: use an int or a Fraction")


def _scalar(s) -> Fraction | None:
    """A scalar factor as a Fraction, or None for an operand of another type."""
    if isinstance(s, bool):
        raise ParameterError(f"bool scalar {s!r} rejected")
    if isinstance(s, int):
        return Fraction(s)
    return s if isinstance(s, Fraction) else None


def _dense(nz: tuple, dim: int) -> tuple:
    """The entries of the vector with support nz; every other entry is _ZERO."""
    c = [_ZERO] * dim
    for i, x in nz:
        c[i] = x
    return tuple(c)


def _collect(acc: dict, dim: int) -> "Vec":
    """The vector of an accumulator {index: entry}; cancelled entries drop out."""
    return Vec._raw(tuple((i, x) for i, x in sorted(acc.items()) if x), dim)


class Vec:
    """Immutable vector with Fraction coefficients.

    ``nonzero_entries()`` is the support the vector was made with, so
    every kernel below iterates over supports instead of full ranges.
    """

    __slots__ = ("_c", "_nz")

    def __init__(self, coeffs):
        c = [_frac(x) for x in coeffs]
        self._nz = tuple((i, x) for i, x in enumerate(c) if x)
        self._c = _dense(self._nz, len(c))

    @classmethod
    def _raw(cls, nz: tuple, dim: int) -> "Vec":
        # nz must be the support: nonzero Fractions in index order
        v = object.__new__(cls)
        v._c = _dense(nz, dim)
        v._nz = nz
        return v

    @staticmethod
    def zero(dim: int) -> "Vec":
        return Vec._raw((), dim)

    @staticmethod
    def basis(dim: int, k: int) -> "Vec":
        if not 0 <= k < dim:
            raise DimensionMismatchError(f"basis index {k} out of range for dim {dim}")
        return Vec._raw(((k, _ONE),), dim)

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
        if len(self._c) != len(other._c):
            raise DimensionMismatchError(
                f"vector dimensions differ: {len(self._c)} vs {len(other._c)}"
            )

    def _merge(self, pairs) -> "Vec":
        # self plus the vector with support pairs; an entry both write is
        # tested for cancellation, an entry only one writes is kept as is
        acc = dict(self._nz)
        for j, y in pairs:
            x = acc.get(j)
            if x is None:
                acc[j] = y
            else:
                s = x + y
                if s:
                    acc[j] = s
                else:
                    del acc[j]
        return Vec._raw(tuple(sorted(acc.items())), len(self._c))

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._check_dim(other)
        if not other._nz:
            return self
        if not self._nz:
            return other
        return self._merge(other._nz)

    def __sub__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._check_dim(other)
        if not other._nz:
            return self
        if not self._nz:
            return -other
        return self._merge((j, -y) for j, y in other._nz)

    def __neg__(self):
        return Vec._raw(tuple((i, -x) for i, x in self._nz), len(self._c))

    def __mul__(self, scalar):
        s = _scalar(scalar)
        if s is None:
            return NotImplemented
        if not s:
            return Vec.zero(len(self._c))
        # a product of nonzero rationals is nonzero: nothing to test
        return Vec._raw(tuple((i, x * s) for i, x in self._nz), len(self._c))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self._nz

    def nonzero_entries(self) -> tuple:
        """(index, entry) for every nonzero entry, in index order."""
        return self._nz


def combine(terms, dim: int) -> Vec:
    """sum coeff * v over the (coeff, v) pairs of terms, over supports.

    The sum accumulates over the union of the supports, and each entry
    written is tested for cancellation once, at the end.  A coefficient
    that is the shared zero, as every zero entry of a Vec or Mat is, is
    skipped without a call; any other zero coefficient only writes zeros
    that this test drops.
    """
    acc = {}
    get = acc.get
    for coeff, v in terms:
        if coeff is not _ZERO:
            for t, x in v._nz:
                a = get(t)
                acc[t] = coeff * x if a is None else a + coeff * x
    return _collect(acc, dim)


class Mat:
    """Immutable square or rectangular matrix of Fractions, row-major.

    ``m @ v`` applies the matrix to a vector (columns act on coefficients),
    ``m @ m2`` composes.  ``m[i, j]`` reads the entry in row i, column j.
    The rows are vectors with their supports; the columns are built as
    vectors on first use and cached, and products sum them over supports.
    """

    __slots__ = ("_rows", "_vecs", "_cols")

    def __init__(self, rows):
        vecs = tuple(row if isinstance(row, Vec) else Vec(row) for row in rows)
        if vecs and any(len(v) != len(vecs[0]) for v in vecs):
            raise DimensionMismatchError("ragged rows in matrix literal")
        self._rows = tuple(v._c for v in vecs)
        self._vecs = vecs
        self._cols = None

    @classmethod
    def _raw(cls, vecs: tuple) -> "Mat":
        # rows given as vectors of one length
        m = object.__new__(cls)
        m._rows = tuple(v._c for v in vecs)
        m._vecs = vecs
        m._cols = None
        return m

    def _row_supports(self) -> tuple:
        return tuple(v._nz for v in self._vecs)

    def _columns(self) -> tuple:
        if self._cols is None:
            nrows, ncols = self.shape
            sups = [[] for _ in range(ncols)]
            for i, v in enumerate(self._vecs):
                for j, x in v._nz:
                    sups[j].append((i, x))
            self._cols = tuple(Vec._raw(tuple(s), nrows) for s in sups)
        return self._cols

    @staticmethod
    def identity(dim: int) -> "Mat":
        return Mat._raw(tuple(Vec.basis(dim, i) for i in range(dim)))

    @staticmethod
    def zeros(nrows: int, ncols: int | None = None) -> "Mat":
        ncols = nrows if ncols is None else ncols
        return Mat._raw((Vec.zero(ncols),) * nrows)

    @staticmethod
    def diagonal(entries) -> "Mat":
        entries = [_frac(e) for e in entries]
        dim = len(entries)
        return Mat._raw(
            tuple(Vec._raw(((i, e),) if e else (), dim) for i, e in enumerate(entries))
        )

    @staticmethod
    def from_columns(cols) -> "Mat":
        return Mat(cols).transpose()

    @property
    def shape(self):
        return (len(self._rows), len(self._rows[0]) if self._rows else 0)

    def col(self, j: int) -> Vec:
        return self._columns()[j]

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
        return Mat._raw(tuple(u + v for u, v in zip(self._vecs, other._vecs)))

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Mat._raw(tuple(-v for v in self._vecs))

    def __mul__(self, scalar):
        s = _scalar(scalar)
        if s is None:
            return NotImplemented
        return Mat._raw(tuple(v * s for v in self._vecs))

    __rmul__ = __mul__

    def __matmul__(self, other):
        nrows, ncols = self.shape
        if isinstance(other, Vec):
            if len(other._c) != ncols:
                raise DimensionMismatchError(
                    f"matrix is {self.shape} but vector has length {len(other)}"
                )
            cols = self._columns()
            return combine([(x, cols[k]) for k, x in other._nz], nrows)
        if isinstance(other, Mat):
            orows, ocols = other.shape
            if ncols != orows:
                raise DimensionMismatchError(
                    f"cannot compose {self.shape} with {other.shape}"
                )
            # row i of the product is sum_k a_ik (row k of other)
            ovecs = other._vecs
            return Mat._raw(
                tuple(
                    combine([(a, ovecs[k]) for k, a in v._nz], ocols)
                    for v in self._vecs
                )
            )
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat._raw(self._columns())

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
    if len(u._c) != len(v._c):
        raise DimensionMismatchError(f"dot product dims: u={len(u)}, v={len(v)}")
    vc = v._c
    total = None
    for k, x in u._nz:
        y = vc[k]
        if y is not _ZERO:
            total = x * y if total is None else total + x * y
    return _ZERO if total is None else total


def inner(u: Vec, v: Vec, G: Mat) -> Fraction:
    """Metric pairing u^T G v, exact, over the supports of u, G and v."""
    dim = len(u._c)
    if len(v._c) != dim or G.shape != (dim, dim):
        raise DimensionMismatchError(
            f"inner product dims: u={len(u)}, v={len(v)}, G={G.shape}"
        )
    rows, vc = G._vecs, v._c
    total = None
    for i, x in u._nz:
        for j, g in rows[i]._nz:
            y = vc[j]
            if y is not _ZERO:
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
    return Vec._raw(tuple((i, x / G[i, i]) for i, x in rhs._nz), dim)


def outer(u: Vec, w: Vec) -> Mat:
    """Rank-one matrix u w^T, built over the support of u; it maps v to w(v) * u."""
    rows = [Vec.zero(len(w._c))] * len(u._c)
    for i, x in u._nz:
        rows[i] = w * x
    return Mat._raw(tuple(rows))


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
