"""Exact rational vectors and matrices.

Every quantity in this package is a ``fractions.Fraction``, so all
identities downstream are checked as literal equalities with zero
residual.  Vectors and matrices are immutable; coefficients are indexed
against the fixed basis order (xi, X_1..X_n, Y_1..Y_n) documented on the
model builder.  Rational literals in files and on the command line are
strings "p/q" or "p"; floats are rejected everywhere.

The model tables are a few percent dense, so every kernel here visits
only nonzero coefficients.  A vector is its length and its support, the
(index, entry) pairs of its nonzero entries, and nothing else: an index
bisects the support, an iteration builds the dense entries and keeps
none, and every zero read is the one shared ``_ZERO``.  A zero vector
is ``Vec.zero(length)``, one shared empty vector per length: every zero
row, column or result a kernel writes is that object, so it costs no
allocation.  A matrix keeps its rows, and on first use its columns, as
such vectors.  ``combine`` sums scaled vectors and
``matsum`` sums matrix products c A B, one dict per output row; every
operator between matrices is one ``matsum`` call.  ``matsum`` scatters
a product column by column, in the outer-product form of Gustavson's
sparse product (ACM TOMS 4, 1978): for each k whose row k of B is
nonzero, each entry A[r, k] of A's cached column k adds A[r, k] times
that row into row r.  The frame matrices of the leaf checks have few
nonzero rows, and no entry of A that meets an empty row of B is read.
Each output entry still takes its terms in term order, then k
ascending, the order of a row-by-row product, so every sum is the same.
``Mat @ Vec`` is the ``combine`` of v_k times column k over the support
of v; a zero vector costs it one length test.  Each kernel writes
the support of its result and tests each entry it wrote for
cancellation once.  Skipping a zero term never changes an exact
sum, so results equal those of dense loops entry for entry.

The kernels accumulate with no Fraction arithmetic (delayed
normalisation, Knuth TAOCP vol. 2, 4.5.1): each entry written is a pair
of ints, a numerator over a denominator.  A term adds its numerator
directly when the denominators are equal and cross-multiplies
otherwise, so no term computes a gcd or builds a Fraction.  Each entry
becomes one Fraction at the end, normalised once, where a cancelled
entry drops out; an entry that one unit-coefficient term alone wrote
keeps its Fraction.  ``dot``, ``inner`` and the vector ``+`` and ``-``
work on numerators and denominators the same way.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from operator import index

from .errors import DimensionMismatchError, ParameterError, SingularMetricError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rat(value) -> Fraction:
    """Parse an exact rational from an int, Fraction or "p/q" string.

    Floats are rejected: they would silently break the zero-residual
    guarantees of every verification.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise ParameterError(
            f"floating-point value {value!r} rejected; use an exact 'p/q' string"
        )
    if isinstance(value, str) and _RATIONAL_RE.match(value.strip()):
        try:
            return Fraction(value.strip())
        except ValueError as exc:
            # longer than sys.get_int_max_str_digits(), which cli.main lifts
            raise ParameterError(f"rational literal rejected: {exc}") from exc
    raise ParameterError(f"not a rational literal: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "p" or "p/q" (the I/O format everywhere)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Shared exact constants: every zero read from a vector or matrix is this
# one object, so a caller tells a zero by identity, with no call to
# Fraction.__bool__.
_ZERO = Fraction(0)
_ONE = Fraction(1)

# The shared zero vectors, one per length, each made on first use (Vec.zero)
_EMPTY = {}


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


def _collect(acc: dict, dim: int) -> "Vec":
    """The vector of an integer accumulator; cancelled entries drop out.

    ``acc`` maps an index to the one Fraction a unit term wrote there, or
    to a list [numerator, denominator] of ints; each list becomes one
    Fraction, normalised once.  An accumulator that is empty, or whose
    entries all cancel, gives the shared zero vector.
    """
    if not acc:
        return Vec.zero(dim)
    nz = []
    for t in sorted(acc):
        e = acc[t]
        if type(e) is not list:
            nz.append((t, e))
        elif e[0]:
            nz.append((t, Fraction(e[0], e[1])))
    return Vec._raw(tuple(nz), dim) if nz else Vec.zero(dim)


def _add(acc: dict, t: int, e, p: int, q: int) -> None:
    """Add p/q to the entry e that the accumulator holds at index t."""
    if type(e) is not list:
        e = acc[t] = [e.numerator, e.denominator]
    d = e[1]
    if d == q:
        e[0] += p
    else:
        e[0] = e[0] * q + p * d
        e[1] = d * q


class Vec:
    """Immutable vector with Fraction coefficients.

    A vector is its length and its support, ``nonzero_entries()``, so
    every kernel below iterates over supports instead of full ranges.
    ``v[i]`` takes an int index as a tuple does and bisects the support;
    iteration builds the dense entries on each call.  Both read a zero
    as the shared ``_ZERO``.
    """

    __slots__ = ("_nz", "_len")

    def __init__(self, coeffs):
        c = [_frac(x) for x in coeffs]
        self._nz = tuple((i, x) for i, x in enumerate(c) if x)
        self._len = len(c)

    @classmethod
    def _raw(cls, nz: tuple, dim: int) -> "Vec":
        # nz must be the support: nonzero Fractions in index order
        v = object.__new__(cls)
        v._nz = nz
        v._len = dim
        return v

    @staticmethod
    def from_dict(entries: dict, dim: int) -> "Vec":
        """The vector with entries[i] at each index i given, zero elsewhere."""
        if entries and not (0 <= min(entries) and max(entries) < dim):
            raise DimensionMismatchError(
                f"indices {min(entries)}..{max(entries)} out of range for dim {dim}"
            )
        nz = sorted((i, _frac(x)) for i, x in entries.items())
        return Vec._raw(tuple((i, x) for i, x in nz if x), dim)

    @staticmethod
    def zero(dim: int) -> "Vec":
        """The zero vector of length dim, one shared object per length."""
        v = _EMPTY.get(dim)
        if v is None:
            v = _EMPTY[dim] = Vec._raw((), dim)
        return v

    @staticmethod
    def basis(dim: int, k: int) -> "Vec":
        if not 0 <= k < dim:
            raise DimensionMismatchError(f"basis index {k} out of range for dim {dim}")
        return Vec._raw(((k, _ONE),), dim)

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        # an int index as on a tuple: negative counts from the end; (i,)
        # sorts before (i, x), so the bisection compares indices only
        i = index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("Vec index out of range")
        nz = self._nz
        k = bisect_left(nz, (i,))
        return nz[k][1] if k < len(nz) and nz[k][0] == i else _ZERO

    def __iter__(self):
        c = [_ZERO] * self._len
        for i, x in self._nz:
            c[i] = x
        return iter(c)

    def __eq__(self, other):
        return (
            isinstance(other, Vec) and self._len == other._len and self._nz == other._nz
        )

    def __hash__(self):
        return hash((self._len, self._nz))

    def __repr__(self):
        return "Vec(%s)" % ", ".join(rat_str(c) for c in self)

    def _merge(self, other: "Vec", negate: bool) -> "Vec":
        # self plus (or minus) other; an entry both write is summed on its
        # numerators and denominators and tested for cancellation, an
        # entry only one writes is kept as is
        if self._len != other._len:
            raise DimensionMismatchError(
                f"vector dimensions differ: {self._len} vs {other._len}"
            )
        if not other._nz:
            return self
        if not self._nz:
            return -other if negate else other
        acc = dict(self._nz)
        for j, y in other._nz:
            x = acc.get(j)
            if x is None:
                acc[j] = -y if negate else y
                continue
            n, d = x.numerator, x.denominator
            p, q = -y.numerator if negate else y.numerator, y.denominator
            n, d = (n + p, d) if d == q else (n * q + p * d, d * q)
            if n:
                acc[j] = Fraction(n, d)
            else:
                del acc[j]
        if not acc:
            return Vec.zero(self._len)
        return Vec._raw(tuple(sorted(acc.items())), self._len)

    def __add__(self, other):
        return self._merge(other, False) if isinstance(other, Vec) else NotImplemented

    def __sub__(self, other):
        return self._merge(other, True) if isinstance(other, Vec) else NotImplemented

    def __neg__(self):
        if not self._nz:
            return Vec.zero(self._len)
        return Vec._raw(tuple((i, -x) for i, x in self._nz), self._len)

    def __mul__(self, scalar):
        s = _scalar(scalar)
        if s is None:
            return NotImplemented
        if not s or not self._nz:
            return Vec.zero(self._len)
        # a product of nonzero rationals is nonzero: nothing to test
        return Vec._raw(tuple((i, x * s) for i, x in self._nz), self._len)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self._nz

    def nonzero_entries(self) -> tuple:
        """(index, entry) for every nonzero entry, in index order."""
        return self._nz


def combine(terms, dim: int) -> Vec:
    """sum coeff * v over the (coeff, v) pairs of terms, over supports.

    Each entry written accumulates as an integer numerator over an
    integer denominator, and becomes one Fraction at the end, where a
    cancelled entry drops out.  A coefficient that is the shared zero, as
    every zero entry of a Vec or Mat is, is skipped without a call; one
    that is the shared one, as every unit entry of a basis vector or the
    identity is, writes v as it is, so an entry that term alone writes
    keeps its Fraction.  Any other zero coefficient only writes zeros
    that the end drops.
    """
    acc = {}
    get = acc.get
    for coeff, v in terms:
        if coeff is _ZERO:
            continue
        unit = coeff is _ONE
        a, b = coeff.numerator, coeff.denominator
        for t, x in v._nz:
            e = get(t)
            if e is None:
                acc[t] = x if unit else [a * x.numerator, b * x.denominator]
            else:
                _add(acc, t, e, a * x.numerator, b * x.denominator)
    return _collect(acc, dim)


def matsum(terms, nrows: int, ncols: int) -> "Mat":
    """The nrows x ncols matrix sum_t c_t A_t B_t, built with no intermediate.

    Each term is (c, A, B) for c A B, or (c, A) for c A; c is an int or
    a Fraction, and a term with c = 0 is skipped.  Each output row r
    accumulates in one dict of integer numerators and denominators, as in
    ``combine``, made when the first term writes it.  A term c A walks
    A's rows and writes each nonzero A[r, k] at column k.  A term c A B
    is a column-wise scatter: for each k whose row k of B is nonzero, it
    scales each entry A[r, k] of A's cached column k by c once and adds
    that times row k of B into row r.  So it reads no entry of A that
    meets an empty row of B.  The terms run in order and k ascends within
    each, so every entry gets its terms in the order of a row-by-row
    product, and the same sum.  A term (1, A) writes A's entries as they
    are, so an entry that term alone writes keeps its Fraction.  A row
    that nothing writes is the shared zero vector, with no ``_collect``.
    """
    plan = []
    for c, A, *B in terms:
        B = B[0] if B else None
        # an int is its own numerator over 1, so it builds no Fraction
        s = c if type(c) is int else _scalar(c)
        if s is None:
            raise ParameterError(f"coefficient {c!r} rejected: use an int or a Fraction")
        arows = A._vecs
        brows = None if B is None else B._vecs
        inner_dim = ncols if B is None else len(brows)
        if (
            len(arows) != nrows
            or (arows[0]._len if arows else 0) != inner_dim
            or (B is not None and (brows[0]._len if brows else 0) != ncols)
        ):
            shapes = A.shape if B is None else f"{A.shape} @ {B.shape}"
            raise DimensionMismatchError(f"term {shapes} in a {(nrows, ncols)} sum")
        if s:
            plan.append((s.numerator, s.denominator, A, brows))
    accs = {}
    for a, b, A, brows in plan:
        if brows is None:
            unit = a == b
            for r, row in enumerate(A._vecs):
                if not row._nz:
                    continue
                acc = accs.get(r)
                if acc is None:
                    acc = accs[r] = {}
                for k, x in row._nz:
                    e = acc.get(k)
                    if e is None:
                        acc[k] = x if unit else [a * x.numerator, b * x.denominator]
                    else:
                        _add(acc, k, e, a * x.numerator, b * x.denominator)
            continue
        cols = A._columns()
        for k, brow in enumerate(brows):
            bnz = brow._nz
            if not bnz:
                continue
            for r, x in cols[k]._nz:
                acc = accs.get(r)
                if acc is None:
                    acc = accs[r] = {}
                xp, xq = a * x.numerator, b * x.denominator
                for j, y in bnz:
                    p, q = xp * y.numerator, xq * y.denominator
                    e = acc.get(j)
                    if e is None:
                        acc[j] = [p, q]
                    else:
                        _add(acc, j, e, p, q)
    rows = [Vec.zero(ncols)] * nrows
    for r, acc in accs.items():
        rows[r] = _collect(acc, ncols)
    return Mat._raw(tuple(rows))


class Mat:
    """Immutable square or rectangular matrix of Fractions, row-major.

    ``m @ v`` applies the matrix to a vector (columns act on coefficients),
    ``m @ m2`` composes.  ``m[i, j]`` reads the entry in row i, column j.
    The rows are vectors with their supports; the columns are built as
    vectors on first use and cached.  Every operator between matrices is
    one ``matsum`` call.
    """

    __slots__ = ("_vecs", "_cols")

    def __init__(self, rows):
        vecs = tuple(row if isinstance(row, Vec) else Vec(row) for row in rows)
        if vecs and any(v._len != vecs[0]._len for v in vecs):
            raise DimensionMismatchError("ragged rows in matrix literal")
        self._vecs = vecs
        self._cols = None

    @classmethod
    def _raw(cls, vecs: tuple) -> "Mat":
        # rows given as vectors of one length
        m = object.__new__(cls)
        m._vecs = vecs
        m._cols = None
        return m

    def _columns(self) -> tuple:
        if self._cols is None:
            nrows, ncols = self.shape
            sups = [[] for _ in range(ncols)]
            for i, v in enumerate(self._vecs):
                for j, x in v._nz:
                    sups[j].append((i, x))
            empty = Vec.zero(nrows)
            self._cols = tuple(Vec._raw(tuple(s), nrows) if s else empty for s in sups)
        return self._cols

    @staticmethod
    def identity(dim: int) -> "Mat":
        return Mat._raw(tuple(Vec.basis(dim, i) for i in range(dim)))

    @staticmethod
    def diagonal(entries) -> "Mat":
        entries = [_frac(e) for e in entries]
        dim = len(entries)
        empty = Vec.zero(dim)
        return Mat._raw(
            tuple(Vec._raw(((i, e),), dim) if e else empty for i, e in enumerate(entries))
        )

    @staticmethod
    def from_columns(cols) -> "Mat":
        return Mat(cols).transpose()

    @property
    def shape(self):
        vecs = self._vecs
        return (len(vecs), vecs[0]._len if vecs else 0)

    def col(self, j: int) -> Vec:
        return self._columns()[j]

    def __getitem__(self, key):
        i, j = key
        return self._vecs[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self._vecs == other._vecs

    def __hash__(self):
        return hash(self._vecs)

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self._vecs)
        return f"Mat[{body}]"

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return matsum(((1, self), (1, other)), *self.shape)

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return matsum(((1, self), (-1, other)), *self.shape)

    def __neg__(self):
        return matsum(((-1, self),), *self.shape)

    def __mul__(self, scalar):
        return matsum(((scalar, self),), *self.shape)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Vec):
            # the combine of other_k times column k over the support of
            # other; a zero vector costs one length test, reads no column
            # and gives the shared zero vector
            vecs = self._vecs
            nrows = len(vecs)
            if other._len != (vecs[0]._len if vecs else 0):
                raise DimensionMismatchError(
                    f"matrix is {self.shape} but vector has length {other._len}"
                )
            if not other._nz:
                return Vec.zero(nrows)
            cols = self._columns()
            return combine(((x, cols[k]) for k, x in other._nz), nrows)
        if isinstance(other, Mat):
            return matsum(((1, self, other),), self.shape[0], other.shape[1])
        return NotImplemented

    def transpose(self) -> "Mat":
        t = Mat._raw(self._columns())
        t._cols = self._vecs
        return t

    def is_zero(self) -> bool:
        return not any(v._nz for v in self._vecs)

    def nonzero_entries(self):
        """((i, j), entry) for every nonzero entry, row by row."""
        for i, v in enumerate(self._vecs):
            for j, x in v._nz:
                yield (i, j), x


def dot(u: Vec, v: Vec) -> Fraction:
    """Coefficient pairing sum_i u[i] v[i], over the support of u.

    A covector stored as coefficients (such as eta) acts on vectors this
    way, with no metric involved.
    """
    if u._len != v._len:
        raise DimensionMismatchError(f"dot product dims: u={u._len}, v={v._len}")
    vc = dict(v._nz)
    n, d = 0, 1
    for k, x in u._nz:
        y = vc.get(k)
        if y is not None:
            p, q = x.numerator * y.numerator, x.denominator * y.denominator
            if d == q:
                n += p
            else:
                n, d = n * q + p * d, d * q
    return Fraction(n, d) if n else _ZERO


def inner(u: Vec, v: Vec, G: Mat) -> Fraction:
    """Metric pairing u^T G v = dot(u, G v), exact."""
    dim = u._len
    if v._len != dim or G.shape != (dim, dim):
        raise DimensionMismatchError(
            f"inner product dims: u={len(u)}, v={len(v)}, G={G.shape}"
        )
    return dot(u, G @ v)


def metric_diagonal(G: Mat) -> tuple:
    """The diagonal of a diagonal metric with no zero on it; else SingularMetricError."""
    rows = G._vecs
    if any(j != i for i, v in enumerate(rows) for j, _ in v._nz):
        raise SingularMetricError("metric is not diagonal")
    for i, v in enumerate(rows):
        if not v._nz:
            raise SingularMetricError(f"zero diagonal entry at index {i}")
    return tuple(v._nz[0][1] for v in rows)


def solve_diagonal_metric(G: Mat, rhs: Vec) -> Vec:
    """Solve G w = rhs for a diagonal metric, componentwise and exactly."""
    dim = len(rhs)
    if G.shape != (dim, dim):
        raise DimensionMismatchError(f"metric is {G.shape}, rhs has length {dim}")
    diagonal = metric_diagonal(G)
    return Vec._raw(tuple((i, x / diagonal[i]) for i, x in rhs._nz), dim)


def outer(u: Vec, w: Vec) -> Mat:
    """Rank-one matrix u w^T, built over the support of u; it maps v to w(v) * u."""
    rows = [Vec.zero(w._len)] * u._len
    for i, x in u._nz:
        rows[i] = w * x
    return Mat._raw(tuple(rows))


def rank(M: Mat) -> int:
    """Exact rank by Gaussian elimination to row echelon form, over supports."""
    rows, r = list(M._vecs), 0
    for j in range(M.shape[1]):
        pivot = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r]
        rows[r + 1:] = [row - p * (row[j] / p[j]) if row[j] else row for row in rows[r + 1:]]
        r += 1
    return r
