"""Bracket table rows, Jacobi certification, and fault injection."""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmu.liealg as liealg
from kmu import (
    Mat,
    Vec,
    analyze_structure,
    bracket,
    build_boeckx_model,
    check_jacobi,
    d_homothetic,
)
from kmu.errors import DegenerateModelError, ParameterError, UnsupportedDimensionError
from kmu.linalg import rat_str

from helpers import model

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def term(m, coeff, index):
    return Fraction(coeff) * Vec.basis(m.dim, index)


# ---------------------------------------------------------------------------
# bracket table rows
# ---------------------------------------------------------------------------


def test_rows_for_alpha0_beta2():
    m = model(2, 0, 2)
    xi, X, Y = Vec.basis(m.dim, 0), m.x, m.y
    assert bracket(m, xi, Vec.basis(m.dim, Y(1))) == term(m, 2, m.x(1))
    assert bracket(m, Vec.basis(m.dim, X(1)), Vec.basis(m.dim, Y(1))) == term(
        m, -2, X(2)
    ) + term(m, 2, 0)
    assert bracket(m, Vec.basis(m.dim, X(2)), Vec.basis(m.dim, Y(2))) == term(m, 2, 0)


def test_row_for_alpha1_beta3():
    m = model(2, 1, 3)
    got = bracket(m, Vec.basis(m.dim, m.x(2)), Vec.basis(m.dim, m.y(1)))
    assert got == term(m, 3, m.x(1)) + term(m, -1, m.y(2))


@pytest.mark.parametrize("alpha,beta", [(0, 2), (1, 3), (2, 3)])
def test_row_x3_y3(alpha, beta):
    m = model(3, alpha, beta)
    got = bracket(m, Vec.basis(m.dim, m.x(3)), Vec.basis(m.dim, m.y(3)))
    expected = (
        term(m, -beta, m.x(2)) + term(m, alpha, m.y(1)) + term(m, 2, 0)
    )
    assert got == expected


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3), (4, 2, 3)])
def test_x1_commutes_with_higher_y(n, alpha, beta):
    m = model(n, alpha, beta)
    for i in range(2, n + 1):
        assert bracket(m, Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(i))).is_zero()


def test_y1_y2_via_antisymmetry_oracle():
    # the table row gives [Y_2, Y_1] = beta Y_1; antisymmetry gives the
    # expected value of [Y_1, Y_2]
    m = model(3, 1, 3)
    row = bracket(m, Vec.basis(m.dim, m.y(2)), Vec.basis(m.dim, m.y(1)))
    assert row == term(m, 3, m.y(1))
    assert bracket(m, Vec.basis(m.dim, m.y(1)), Vec.basis(m.dim, m.y(2))) == -row


def test_unlisted_pairs_vanish():
    m = model(3, 1, 3)
    assert bracket(m, Vec.basis(m.dim, m.x(2)), Vec.basis(m.dim, m.x(3))).is_zero()
    assert bracket(m, Vec.basis(m.dim, m.y(1)), Vec.basis(m.dim, m.y(3))).is_zero()
    assert bracket(m, Vec.basis(m.dim, m.x(3)), Vec.basis(m.dim, m.y(2))).is_zero()


# sha256 of the lines "a b m c", one per nonzero entry c of
# structure[a][b] at index m, in index order
GOLDEN_TABLES = {
    (2, "0", "2"): "e27373277c85829b34ee0ecee5438002a2bfc7e123aa06ba6bd5e5dae7d246e1",
    (2, "1", "3"): "b425031769e69e47ed7026462ba4a0f13ba41dfab297af53065e2483a1460373",
    (2, "2/3", "7/5"): "ee18ba90cf47f58058e72384114e3f73776a032d916b324278d832fc880969f6",
    (3, "0", "2"): "30ca32d72cf02c17fa8d0141a250fd14d1355d9d747c1e1cf342bf3a1cb09ab2",
    (3, "1", "3"): "0eca54483ef248992d7d6a9718902930aeb7c3eb4e9c4fd2560048fe1cbc55fc",
    (3, "2/3", "7/5"): "26891fc8bcba8846b8e2b0dfe1e3c876a8d67ff78c60ffdd6888963ea6b283da",
    (5, "0", "2"): "4d040a256841a9df327f0afb681b49709f34109e9fe5f34ce814f2828d853ba2",
    (5, "1", "3"): "331dcefe30c17630dd924e1dd432d336f41568ef980e4fea777e22bf674e0d4b",
    (5, "2/3", "7/5"): "85124326f9a84cb84b5c3c7fd76ac1efa9d930eba8b6c024a5aa27727cdf9fbd",
    (8, "0", "2"): "089483c100a9d11e3e83727871c809f12ef6388e1975507da775296189ee34b3",
    (8, "1", "3"): "0c8322c1fb99d0597ff32b85144607eb1a97b49b014b8dc46569c6a078455eeb",
    (8, "2/3", "7/5"): "08e84dcbb5cb6246d12a3843936897bbe7f753177374b6bde3576ebb4ad3277e",
}


@pytest.mark.parametrize("n,alpha,beta", sorted(GOLDEN_TABLES))
def test_structure_table_matches_golden_digest(n, alpha, beta):
    m = build_boeckx_model(n, alpha, beta)
    text = "\n".join(
        f"{a} {b} {k} {rat_str(c)}"
        for a, row in enumerate(m.structure)
        for b, v in enumerate(row)
        for k, c in v.nonzero_entries()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TABLES[(n, alpha, beta)]


def test_structure_table_antisymmetric_closure():
    m = model(3, 2, 3)
    for i in range(m.dim):
        assert m.structure[i][i].is_zero()
        for j in range(m.dim):
            assert m.structure[i][j] == -m.structure[j][i]


# ---------------------------------------------------------------------------
# bilinear extension
# ---------------------------------------------------------------------------


def test_bracket_of_vector_with_itself_vanishes():
    m = model(2, 1, 2)
    u = Vec([1, 2, 3, 4, 5])
    assert bracket(m, u, u).is_zero()


@settings(max_examples=25)
@given(
    st.lists(small_rationals, min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
)
def test_bracket_antisymmetric_on_random_vectors(us, vs):
    m = model(2, 1, 3)
    u, v = Vec(us), Vec(vs)
    assert bracket(m, u, v) == -bracket(m, v, u)


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------


def jacobiator(m, i, j, k):
    """Independent oracle: nested brackets of basis vectors."""
    ei, ej, ek = Vec.basis(m.dim, i), Vec.basis(m.dim, j), Vec.basis(m.dim, k)
    return (
        bracket(m, bracket(m, ei, ej), ek)
        + bracket(m, bracket(m, ej, ek), ei)
        + bracket(m, bracket(m, ek, ei), ej)
    )


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3)])
def test_jacobi_zero_by_direct_triple_loop(n, alpha, beta):
    m = model(n, alpha, beta)
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            for k in range(j + 1, m.dim):
                assert jacobiator(m, i, j, k).is_zero(), (i, j, k)
    record = check_jacobi(m)
    assert record.passed
    assert record.witness_indices is None
    assert record.residual == 0


def test_corrupted_constant_fails_jacobi_with_named_triple():
    m = model(2, 1, 3)
    structure = [list(row) for row in m.structure]
    # corrupt the [X_1, Y_1] row (indices 1 and 3 in the fixed order)
    bad = list(structure[1][3])
    bad[0] = bad[0] + 1
    structure[1][3] = Vec(bad)
    structure[3][1] = -Vec(bad)
    corrupted = replace(m, structure=tuple(tuple(row) for row in structure))
    record = check_jacobi(corrupted)
    assert not record.passed
    assert record.residual > 0
    assert 1 in record.witness_indices or 3 in record.witness_indices


def test_jacobi_residual_is_read_at_its_witness():
    # [X_2, Y_3] + X_1 breaks 10 triples; the first, (0, 1, 6), has a
    # Jacobiator of largest entry 3/2, below the 9/2 of other triples
    m = model(3, 1, 3)
    structure = [list(row) for row in m.structure]
    structure[2][6] = structure[2][6] + Vec.basis(m.dim, 1)
    structure[6][2] = -structure[2][6]
    corrupted = replace(m, structure=tuple(tuple(row) for row in structure))
    record = check_jacobi(corrupted)
    assert (record.status, record.witness_indices) == ("fail", (0, 1, 6))
    assert record.residual == max(abs(x) for x in jacobiator(corrupted, 0, 1, 6))
    assert record.residual == Fraction(3, 2)
    failing = [
        (i, j, k)
        for i in range(m.dim)
        for j in range(i + 1, m.dim)
        for k in range(j + 1, m.dim)
        if not jacobiator(corrupted, i, j, k).is_zero()
    ]
    assert len(failing) == 10 and failing[0] == record.witness_indices
    largest = max(max(abs(x) for x in jacobiator(corrupted, *t)) for t in failing)
    assert largest == Fraction(9, 2)


def test_jacobi_checked_once_per_model(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return check_jacobi(m)

    monkeypatch.setattr(liealg, "check_jacobi", counting)
    m = build_boeckx_model(2, 1, 3)
    native = analyze_structure(m)
    deformed = analyze_structure(m, d_homothetic(native.cs, Fraction(5, 2)))
    assert calls == [m]
    jacobi = [r for r in native.records if r.identity_id == "jacobi"]
    assert jacobi == [r for r in deformed.records if r.identity_id == "jacobi"]
    assert jacobi[0].passed
    # a swapped bracket table makes a new model, checked on its own
    structure = [list(row) for row in m.structure]
    structure[1][3] = structure[1][3] + Vec.basis(m.dim, 1)
    structure[3][1] = -structure[1][3]
    corrupted = replace(m, structure=tuple(tuple(row) for row in structure))
    assert not corrupted.jacobi.passed
    assert calls == [m, corrupted]


# ---------------------------------------------------------------------------
# constructor preconditions
# ---------------------------------------------------------------------------


def test_n_below_two_unsupported():
    with pytest.raises(UnsupportedDimensionError):
        build_boeckx_model(1, 0, 2)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, Fraction(3)])
def test_non_integer_n_rejected(n):
    with pytest.raises(ParameterError, match="n must be an int"):
        build_boeckx_model(n, 0, 1)


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 1), (3, -3)])
def test_degenerate_parameters_rejected(alpha, beta):
    with pytest.raises(DegenerateModelError):
        build_boeckx_model(2, alpha, beta)


def test_negative_alpha_rejected():
    with pytest.raises(DegenerateModelError):
        build_boeckx_model(2, -1, 3)


def test_dimension_and_metric():
    m = model(3, 1, 3)
    assert m.dim == 7
    assert m.metric == Mat.identity(7)
