"""The matrix kernel ``matsum`` against a dense list-of-lists definition.

``matsum(terms, nrows, ncols)`` evaluates sum_t c_t A_t B_t (or c_t A_t),
scattering each product column by column.  The reference below
multiplies and adds every entry with no zero test, so a kernel that
loses a sign, keeps a cancelled entry or reads B the wrong way round
disagrees with it.
Inputs are sparse rationals of random rectangular shapes, and every
example also carries terms that cancel exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmu.errors import DimensionMismatchError, KmuError, ParameterError
from kmu.linalg import _ONE, _ZERO, Mat, Vec, combine, matsum, outer

from test_kernels import assert_support, dense_matmat, dense_rows, sparse_lists, sparse_rows
from test_linalg import rationals

ZERO = Fraction(0)

# 0 and +-1 take their own paths through the kernel, as ints or Fractions
coefficients = st.one_of(
    st.sampled_from([0, 1, -1, ZERO, Fraction(1), Fraction(-1)]),
    st.integers(-3, 3),
    rationals,
)
sizes = st.integers(1, 4)


@st.composite
def sums(draw):
    """(nrows, ncols, terms) with dense list-of-lists factors.

    About a third of the rows of each B factor are empty, as in most
    products of the package; the others leave room for several rows k
    to write one output entry.  Up to two of the terms come back with
    the opposite coefficient, so parts of the sum cancel to exactly zero.
    """
    nrows, ncols = draw(sizes), draw(sizes)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(coefficients)
        if draw(st.booleans()):
            k = draw(sizes)
            empty = draw(
                st.lists(st.sampled_from([False, False, True]), min_size=k, max_size=k)
            )
            rows = draw(sparse_rows(k, ncols))
            B = [[ZERO] * ncols if e else row for e, row in zip(empty, rows)]
            terms.append((c, draw(sparse_rows(nrows, k)), B))
        else:
            terms.append((c, draw(sparse_rows(nrows, ncols))))
    for c, *factors in draw(st.lists(st.sampled_from(terms), max_size=2)):
        terms.append((-c, *factors))
    return nrows, ncols, draw(st.permutations(terms))


def dense_sum(terms, nrows, ncols):
    out = [[ZERO] * ncols for _ in range(nrows)]
    for c, *factors in terms:
        M = factors[0] if len(factors) == 1 else dense_matmat(*factors)
        for i in range(nrows):
            for j in range(ncols):
                out[i][j] += c * M[i][j]
    return out


def kernel_terms(terms):
    return [(c, *(Mat(f) for f in factors)) for c, *factors in terms]


def assert_exact_matrix(M, expected):
    """M has the expected entries, and every row and column its exact support."""
    assert dense_rows(M) == expected
    rows, (nrows, ncols) = M.transpose(), M.shape
    for i in range(nrows):
        assert_support(rows.col(i))
    for j in range(ncols):
        assert_support(M.col(j))


@settings(max_examples=150, deadline=None)
@given(sums())
def test_matsum_matches_the_dense_definition(example):
    nrows, ncols, terms = example
    M = matsum(kernel_terms(terms), nrows, ncols)
    assert M.shape == (nrows, ncols)
    assert_exact_matrix(M, dense_sum(terms, nrows, ncols))


@settings(max_examples=60, deadline=None)
@given(sizes, sizes, sizes, st.data())
def test_matrix_operators_match_the_dense_definition(nrows, k, ncols, data):
    a, b = data.draw(sparse_rows(nrows, k)), data.draw(sparse_rows(nrows, k))
    c = data.draw(sparse_rows(k, ncols))
    s = data.draw(coefficients)
    A, B, C = Mat(a), Mat(b), Mat(c)
    assert_exact_matrix(A + B, dense_sum([(1, a), (1, b)], nrows, k))
    assert_exact_matrix(A - B, dense_sum([(1, a), (-1, b)], nrows, k))
    assert_exact_matrix(-A, dense_sum([(-1, a)], nrows, k))
    assert_exact_matrix(s * A, dense_sum([(s, a)], nrows, k))
    assert_exact_matrix(A @ C, dense_sum([(1, a, c)], nrows, ncols))
    # the same sums cancelled exactly
    for zero in (A - A, A + (-A), (A + B) - B - A, s * A - A * s, A @ C - A @ C):
        assert_exact_matrix(zero, [[ZERO] * zero.shape[1]] * nrows)
        assert zero.is_zero()


def test_unit_coefficients_cost_no_multiply(monkeypatch):
    A = Mat([[Fraction(1, 2), 0, Fraction(-3)], [0, Fraction(5, 7), 0]])
    B = Mat([[Fraction(2, 3), 1, 0], [0, 0, Fraction(4)]])
    expected = dense_sum([(1, dense_rows(A)), (-1, dense_rows(B))], 2, 3)
    calls = []
    for name in ("__mul__", "__rmul__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name, lambda x, y, method=method: calls.append(name) or method(x, y)
        )
    M = matsum([(1, A), (-1, B), (Fraction(-1), B), (Fraction(1), B)], 2, 3)
    monkeypatch.undo()
    assert calls == []
    assert dense_rows(M) == expected
    # with c = 1 the entries of A are written as they are
    assert all(M[i, j] is A[i, j] for (i, j), _ in A.nonzero_entries() if not B[i, j])


class CountedFraction(Fraction):
    """A Fraction that counts the reads of its numerator, one per entry visited."""

    reads = 0

    @property
    def numerator(self):
        CountedFraction.reads += 1
        return self._numerator


def counted(rows):
    """The matrix of rows with every entry a CountedFraction."""
    return Mat([[CountedFraction(x) for x in row] for row in rows])


def useful_reads(terms):
    """The entries A[r, k] of the product terms whose row k of B is nonzero."""
    reads = 0
    for c, *factors in terms:
        if len(factors) == 2 and c:
            a, b = factors
            reads += sum(1 for row in a for k, x in enumerate(row) if x and any(b[k]))
    return reads


def test_a_product_reads_only_the_entries_of_a_that_meet_a_nonzero_row_of_b():
    # a dense 6 x 6 A against a B with one live row: a row-by-row walk
    # reads all 36 entries of A, the column scatter the 6 of column 2
    a = [[Fraction(i + 1, j + 2) for j in range(6)] for i in range(6)]
    b = [[ZERO] * 4 for _ in range(6)]
    b[2] = [Fraction(1, 3), ZERO, Fraction(-2), ZERO]
    A = counted(a)
    CountedFraction.reads = 0
    M = matsum([(Fraction(2, 5), A, Mat(b))], 6, 4)
    assert CountedFraction.reads == 6
    assert dense_rows(M) == dense_sum([(Fraction(2, 5), a, b)], 6, 4)
    # a B with no live row reads nothing
    CountedFraction.reads = 0
    assert matsum([(1, A, Mat([[ZERO] * 4] * 6))], 6, 4).is_zero()
    assert CountedFraction.reads == 0


@settings(max_examples=100, deadline=None)
@given(sums())
def test_every_product_term_reads_only_the_columns_of_a_it_needs(example):
    nrows, ncols, terms = example
    kernel = [
        (c, counted(factors[0]), Mat(factors[1])) if len(factors) == 2 else (c, Mat(*factors))
        for c, *factors in terms
    ]
    CountedFraction.reads = 0
    M = matsum(kernel, nrows, ncols)
    # only the A of a product term counts: it reads A[r, k] once where row
    # k of B is live, and no other entry
    assert CountedFraction.reads == useful_reads(terms)
    assert dense_rows(M) == dense_sum(terms, nrows, ncols)


def test_kernel_refuses_bad_shapes_with_a_typed_error():
    A = Mat([[1, 2, 0]])  # 1 x 3
    B = Mat([[1], [0], [3]])  # 3 x 1
    bad_sums = [
        ([(1, A, B)], 1, 2),  # product is 1 x 1
        ([(1, A, A)], 1, 3),  # inner sizes differ
        ([(1, A)], 2, 3),  # too few rows
        ([(1, A), (1, B)], 1, 3),  # second term of another shape
        ([(0, A)], 2, 3),  # a zero coefficient still has a shape
    ]
    for terms, nrows, ncols in bad_sums:
        with pytest.raises(DimensionMismatchError):
            matsum(terms, nrows, ncols)
    for expression in (lambda: A + B, lambda: A - B, lambda: A @ A):
        with pytest.raises(DimensionMismatchError):
            expression()
    assert issubclass(DimensionMismatchError, KmuError)


@pytest.mark.parametrize("coefficient", [True, False, 0.5, "1", None])
def test_kernel_refuses_non_rational_coefficients(coefficient):
    A = Mat([[1, 0], [0, 2]])
    with pytest.raises(ParameterError):
        matsum([(coefficient, A)], 2, 2)
    with pytest.raises(ParameterError):
        matsum([(coefficient, A, A)], 2, 2)
    if isinstance(coefficient, bool):
        with pytest.raises(ParameterError):
            A * coefficient


@settings(max_examples=60, deadline=None)
@given(sums())
def test_lazy_vectors_agree_with_their_dense_form(example):
    nrows, ncols, terms = example
    M = matsum(kernel_terms(terms), nrows, ncols)
    expected = dense_sum(terms, nrows, ncols)
    rows = M.transpose()
    for i in range(nrows):
        row = rows.col(i)
        dense = Vec(expected[i])
        assert row == dense and dense == row
        assert hash(row) == hash(dense)
        assert len(row) == ncols
        assert [row[j] for j in range(ncols)] == expected[i]
        # an index reads as on a list: negative from the end, none past it
        assert [row[j] for j in range(-ncols, ncols)] == expected[i] * 2
        for j in (ncols, -ncols - 1):
            with pytest.raises(IndexError):
                row[j]
        assert list(row) == expected[i] and tuple(row) == tuple(dense)
        # the same support at another length is another vector
        assert row != Vec(expected[i] + [ZERO])
    assert M == Mat(expected) and hash(M) == hash(Mat(expected))


# the shared zero and one, as basis vectors and the identity hold them, and
# equal values that are other objects
vector_coefficients = st.one_of(
    st.sampled_from([_ZERO, _ONE, ZERO, Fraction(1), Fraction(-1)]), rationals
)


@st.composite
def vector_sums(draw):
    """(dim, terms) for combine; some terms come back negated, to cancel."""
    dim = draw(st.integers(1, 5))
    terms = draw(st.lists(st.tuples(vector_coefficients, sparse_lists(dim)), max_size=5))
    for c, v in draw(st.lists(st.sampled_from(terms), max_size=2)) if terms else ():
        terms.append((-c, v))
    return dim, draw(st.permutations(terms))


@settings(max_examples=150, deadline=None)
@given(vector_sums())
def test_combine_matches_the_dense_definition(example):
    dim, terms = example
    v = combine([(c, Vec(entries)) for c, entries in terms], dim)
    expected = [sum((c * entries[t] for c, entries in terms), ZERO) for t in range(dim)]
    assert list(v) == expected
    assert_support(v)


# every arithmetic operator of Fraction, reflected forms included
FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_shared_unit_coefficients_cost_no_multiply(monkeypatch):
    vectors = [Vec([Fraction(1, 2), 0, -3]), Vec([0, Fraction(5, 7), 3]), Vec.basis(3, 1)]
    M = Mat([[Fraction(2, 3), 0, 1], [0, 0, Fraction(-4)], [5, 1, 0]])
    calls = []
    for name in FRACTION_OPERATORS:
        method = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name,
            lambda *args, method=method, name=name: calls.append(name) or method(*args),
        )
    v = combine([(_ONE, u) for u in vectors], 3)
    cancelled = combine([(_ONE, vectors[0]), (Fraction(-1), vectors[0])], 3)
    columns = [M @ Vec.basis(3, k) for k in range(3)]
    # any coefficient, shared or not, and products, through both kernels
    scaled = combine([(Fraction(2, 3), vectors[0]), (Fraction(-5, 7), vectors[1])], 3)
    product = matsum([(Fraction(3, 4), M, M), (-2, M), (1, M)], 3, 3)
    monkeypatch.undo()
    assert calls == []  # integer accumulation: no Fraction operator at all
    assert list(v) == [Fraction(1, 2), Fraction(12, 7), ZERO] and v[0] is vectors[0][0]
    assert cancelled.is_zero()
    assert columns == [M.col(k) for k in range(3)]
    assert list(scaled) == [Fraction(1, 3), Fraction(-25, 49), Fraction(-29, 7)]
    assert dense_rows(product) == dense_sum(
        [(Fraction(3, 4), dense_rows(M), dense_rows(M)), (-1, dense_rows(M))], 3, 3
    )
    assert_support(v)


def matrix_rows(M):
    """M's rows, the very vectors it holds: row i is column i of M^T."""
    T = M.transpose()
    return [T.col(i) for i in range(M.shape[0])]


@settings(max_examples=60, deadline=None)
@given(sums())
def test_every_zero_row_and_column_of_a_sum_is_the_shared_zero_vector(example):
    nrows, ncols, terms = example
    M = matsum(kernel_terms(terms), nrows, ncols)
    for row in matrix_rows(M):
        assert row.is_zero() == (row is Vec.zero(ncols))
    for j in range(ncols):
        assert M.col(j).is_zero() == (M.col(j) is Vec.zero(nrows))


def test_zero_results_are_the_shared_zero_vector():
    # A reads only columns 0 and 2, where B's rows are zero, so A B writes
    # nothing; A - A writes every entry of A and cancels each
    A = Mat([[1, 0, Fraction(2, 3)], [0, 0, 0]])
    B = Mat([[0, 0], [5, 7], [0, 0]])
    v = Vec([Fraction(-1, 2), 4, 0])
    zero2, zero3 = Vec.zero(2), Vec.zero(3)
    assert Vec.zero(2) is zero2 and Vec.zero(3) is zero3 and zero2 is not zero3
    assert all(row is zero2 for row in matrix_rows(matsum(((1, A, B),), 2, 2)))
    assert all(row is zero3 for row in matrix_rows(matsum(((1, A), (-1, A)), 2, 3)))
    assert all(row is zero3 for row in matrix_rows(A - A))
    assert combine((), 3) is zero3
    assert combine(((1, v), (-1, v)), 3) is zero3
    # Mat @ Vec: a zero vector, and a vector on A's zero column alone
    assert A @ zero3 is zero2 and A @ Vec([0, 0, 0]) is zero2
    assert A @ Vec([0, 5, 0]) is zero2
    # columns, and so the rows of the transpose
    assert A.col(1) is zero2
    assert matrix_rows(A.transpose())[1] is zero2
    assert matrix_rows(Mat.from_columns([v, Vec([0, 0, 0])]))[2] is zero2
    # negation, scaling and cancelling sums of vectors
    for z in (zero3, Vec([0, 0, 0])):
        assert -z is zero3 and 5 * z is zero3 and z * Fraction(2, 3) is zero3
    assert 0 * v is zero3 and v * Fraction(0) is zero3
    assert v - v is zero3 and v + (-v) is zero3 and (-v) + v is zero3
    # the zero rows of a diagonal matrix and of an outer product
    assert matrix_rows(Mat.diagonal([1, 0, 2]))[1] is zero3
    assert matrix_rows(outer(v, Vec([0, 1])))[2] is zero2
    assert all(row is zero2 for row in matrix_rows(outer(v, zero2)))


@pytest.mark.parametrize("length", [0, 1, 4])
def test_the_shared_zero_vector_reads_as_its_dense_form(length):
    z, dense = Vec.zero(length), Vec([0] * length)
    assert z == dense and hash(z) == hash(dense)
    assert list(z) == list(dense) == [ZERO] * length
    assert [z[i] for i in range(length)] == [dense[i] for i in range(length)]
    assert all(x is _ZERO for x in z)
    with pytest.raises(IndexError):
        z[length]
