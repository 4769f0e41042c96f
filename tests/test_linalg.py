"""Exact vector/matrix kernel: examples, errors, and field properties."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmu.errors import DimensionMismatchError, ParameterError, SingularMetricError
from kmu.linalg import Mat, Vec, inner, outer, rank, rat, rat_str, solve_diagonal_metric

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


# ---------------------------------------------------------------------------
# rational parsing / formatting
# ---------------------------------------------------------------------------


def test_rat_parses_integer_and_fraction_strings():
    assert rat("3") == Fraction(3)
    assert rat("-7/4") == Fraction(-7, 4)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(2, 6)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1.5, "1.5", "3/0", "a/b", "1/-2", None, True])
def test_rat_rejects_non_rationals(bad):
    with pytest.raises(ParameterError):
        rat(bad)


def test_rat_str_roundtrip():
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 2)) == "4"
    assert rat(rat_str(Fraction(22, 7))) == Fraction(22, 7)


@given(rationals)
def test_canonical_form_idempotent(q):
    # normalizing twice equals normalizing once
    assert Fraction(q.numerator, q.denominator) == q
    assert rat(rat_str(q)) == q


@pytest.mark.parametrize("bad", [0.1, 0.5, 1.0, "1/2", None, True, False])
def test_vec_and_mat_reject_inexact_entries(bad):
    # Vec([0.1, 1]) would otherwise hold 3602879701896397/36028797018963968
    for build in (
        lambda: Vec([bad, 1]),
        lambda: Mat([[bad]]),
        lambda: Mat([[1, 0], [0, bad]]),
        lambda: Mat.diagonal([1, bad]),
    ):
        with pytest.raises(ParameterError):
            build()


def test_vec_and_mat_take_int_and_fraction_entries():
    assert list(Vec([Fraction(1, 3), -2, 0])) == [Fraction(1, 3), Fraction(-2), 0]
    assert Mat([[Fraction(1, 2), 3]])[0, 1] == 3


@pytest.mark.parametrize("flag", [True, False])
def test_bool_scalars_rejected(flag):
    for product in (
        lambda: Vec([1, 2]) * flag,
        lambda: flag * Vec([1, 2]),
        lambda: Mat([[1, 2]]) * flag,
        lambda: flag * Mat([[1, 2]]),
    ):
        with pytest.raises(ParameterError):
            product()


@pytest.mark.parametrize("k", [-1, 3])
def test_basis_index_out_of_range(k):
    with pytest.raises(DimensionMismatchError):
        Vec.basis(3, k)


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------


def test_inner_orthonormal_basis_is_kronecker():
    G = Mat.identity(5)
    for i in range(5):
        for j in range(5):
            expected = 1 if i == j else 0
            assert inner(Vec.basis(5, i), Vec.basis(5, j), G) == expected


def test_inner_sum_of_squares():
    u = Vec([0, 1, 1, 0, 0])
    assert inner(u, u, Mat.identity(5)) == 2


@pytest.mark.parametrize("c,d", [(1, 1), (2, 1), (Fraction(1, 3), Fraction(5, 2))])
def test_inner_diagonal_vector_norm(c, d):
    # g(c X_1 + d Y_1, c X_1 + d Y_1) = c^2 + d^2 on the orthonormal basis
    u = rat(c) * Vec.basis(5, 1) + rat(d) * Vec.basis(5, 3)
    assert inner(u, u, Mat.identity(5)) == rat(c) ** 2 + rat(d) ** 2


def test_inner_dimension_mismatch_reports_both_dims():
    with pytest.raises(DimensionMismatchError) as err:
        inner(Vec([1, 2]), Vec([1, 2, 3]), Mat.identity(2))
    assert "2" in str(err.value) and "3" in str(err.value)


@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    rationals,
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4),
)
def test_inner_bilinear_and_symmetric(us, vs, ws, s, rows):
    u, v, w = Vec(us), Vec(vs), Vec(ws)
    A = Mat(rows)
    G = A + A.transpose()  # any symmetric metric, not necessarily diagonal
    assert inner(u, v, G) == inner(v, u, G)
    assert inner(u + s * w, v, G) == inner(u, v, G) + s * inner(w, v, G)


# ---------------------------------------------------------------------------
# diagonal metric solver
# ---------------------------------------------------------------------------


def test_solve_identity_metric_returns_rhs():
    v = Vec([1, Fraction(2, 3), -5])
    assert solve_diagonal_metric(Mat.identity(3), v) == v


def test_solve_scalar_division():
    G = Mat.diagonal([2, 2, 2])
    assert solve_diagonal_metric(G, Vec([2, 0, 0])) == Vec([1, 0, 0])


def test_solve_deformed_block_metric():
    # deformed metric: a^2 on the xi line, a elsewhere; solving G w = a v
    # on the contact-distribution block must return v (componentwise
    # division oracle)
    a = Fraction(3)
    G = Mat.diagonal([a * a, a, a, a, a])
    v = Vec([0, 1, Fraction(-2, 7), 0, 5])
    rhs = a * v
    expected = Vec([rhs[i] / G[i, i] for i in range(5)])
    assert solve_diagonal_metric(G, rhs) == expected
    assert tuple(expected)[1:] == tuple(v)[1:]


def test_solve_zero_diagonal_is_singular():
    with pytest.raises(SingularMetricError):
        solve_diagonal_metric(Mat.diagonal([1, 0, 1]), Vec([1, 1, 1]))


def test_solve_rejects_non_diagonal():
    G = Mat([[1, 1], [0, 1]])
    with pytest.raises(SingularMetricError):
        solve_diagonal_metric(G, Vec([1, 1]))


# ---------------------------------------------------------------------------
# field axioms and vector arithmetic (randomized)
# ---------------------------------------------------------------------------


@given(rationals, rationals, rationals)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals, rationals)
def test_canonical_form_after_arithmetic(a, b):
    from math import gcd

    c = a * b + a - b
    assert c.denominator > 0
    assert gcd(abs(c.numerator), c.denominator) == 1


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
)
def test_vector_addition_exact(us, vs):
    u, v = Vec(us), Vec(vs)
    assert (u + v) - v == u
    assert u + v == v + u


def test_matrix_vector_and_composition():
    A = Mat([[1, 2], [3, 4]])
    B = Mat([[0, 1], [1, 0]])
    v = Vec([5, 6])
    assert A @ v == Vec([17, 39])
    assert (A @ B) @ v == A @ (B @ v)
    assert Mat.identity(2) @ A == A
    assert A.transpose().transpose() == A


def test_outer_product_acts_as_rank_one_operator():
    u = Vec([1, 2, 0])
    w = Vec([0, 3, 1])
    M = outer(u, w)
    v = Vec([1, 1, 1])
    # (u w^T) v = (w . v) u
    assert M @ v == 4 * u
    assert rank(M) == 1


def test_rank_exact():
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat.diagonal([0] * 3)) == 0
    assert rank(Mat([[1, 2], [2, 4]])) == 1
