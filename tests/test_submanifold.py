"""Legendrian distributions: construction, sigma, h split, leaf geometry."""

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmu import (
    Vec,
    analyze_submanifold,
    bracket,
    build_distribution,
    inner,
    second_fundamental_form,
    split_h,
)
from kmu.errors import NonInvolutiveError, ParameterError, StructureError
from kmu.linalg import Mat, dot, matsum, outer, rat_str
from kmu.report import all_passed
from kmu.submanifold import (
    DistributionSpec,
    eigen_split,
    gauss_codazzi_residuals,
    verify_prop32,
    verify_split_identities,
)

from helpers import analysis, bump, model


def lowered_bar(geom, a, b, c, d):
    """Rbar(v_a, v_b, v_c, v_d); on the orthogonal frame only v_d pairs with v_d."""
    return geom.rbar.column(a, b, c)[d] * geom.frame.norms[d]


def closed_form_theta(c, d):
    """(sin, cos) of the diagonal(c, d) leaf's angle, from c and d alone."""
    c, d = Fraction(c), Fraction(d)
    return (c * c - d * d) / (c * c + d * d), -2 * c * d / (c * c + d * d)


def summary_theta(summary):
    return Fraction(summary["theta"]["sin"]), Fraction(summary["theta"]["cos"])


def split_dims(cs, spec):
    split = eigen_split(cs, spec)
    return None if split is None else (len(split[0]), len(split[1]))


def spanned_indices(spec):
    out = []
    for v in spec.vectors:
        out.append(tuple(k for k in range(len(v)) if v[k] != 0))
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_x_family_spans_x_block():
    m = model(3, 1, 3)
    spec = build_distribution(m, "x")
    assert spec.vectors == tuple(Vec.basis(m.dim, m.x(i)) for i in range(1, 4))


def test_mixed_spans_choice_of_blocks():
    m = model(4, 1, 3)
    spec = build_distribution(m, "mixed", z_choices=("x", "y"))
    assert spec.vectors == (
        Vec.basis(m.dim, m.x(1)),
        Vec.basis(m.dim, m.y(2)),
        Vec.basis(m.dim, m.x(3)),
        Vec.basis(m.dim, m.y(4)),
    )


def test_diagonal_family_is_phi_isotropic():
    # oracle: expand g(c X_i + d Y_i, phi(c X_j + d Y_j)) on the
    # orthonormal basis; the cross terms cancel as cd - dc
    m = model(2, 0, 2)
    cs = analysis(2, 0, 2).cs
    spec = build_distribution(m, "diagonal", c=1, d=1)
    for u in spec.vectors:
        for v in spec.vectors:
            assert inner(u, cs.phi @ v, m.metric) == 0
            assert dot(cs.eta, u) == 0


def test_mixed_by_k_counts_x_choices():
    # k = 1 + #{"x"}: mixed by k spans exactly the leaf of its z_choices
    m = model(4, 1, 3)
    an = analysis(4, 1, 3)
    for k, z_choices in ((3, ("x", "x")), (1, ("y", "y"))):
        spec = build_distribution(m, "mixed", k=k)
        assert spec == build_distribution(m, "mixed", z_choices=z_choices)
        k_closed = 1 + sum(1 for z in z_choices if z == "x")
        assert split_dims(an.cs, spec) == (k_closed, 4 - k_closed)


def reference_vectors(m, kind, k=None, z_choices=None, c=None, d=None):
    """Spanning vectors by the four-branch construction the presets replaced."""
    n, dim = m.n, m.dim
    if kind == "x":
        return tuple(Vec.basis(dim, m.x(i)) for i in range(1, n + 1))
    if kind == "y":
        return tuple(Vec.basis(dim, m.y(i)) for i in range(1, n + 1))
    if kind == "mixed":
        if z_choices is None:
            z_choices = ("x",) * (k - 1) + ("y",) * (n - 1 - k)
        vectors = [Vec.basis(dim, m.x(1)), Vec.basis(dim, m.y(2))]
        for i, z in enumerate(z_choices, start=3):
            vectors.append(Vec.basis(dim, m.x(i) if z == "x" else m.y(i)))
        return tuple(vectors)
    c, d = Fraction(c), Fraction(d)
    return tuple(
        c * Vec.basis(dim, m.x(i)) + d * Vec.basis(dim, m.y(i)) for i in range(1, n + 1)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_presets_span_the_hand_built_basis_vectors(n):
    m = model(n, 1, 3)
    leaves = [("x", {}), ("y", {})]
    leaves += [("mixed", {"k": k}) for k in range(1, n)]
    leaves += [
        ("mixed", {"z_choices": z}) for z in itertools.product("xy", repeat=n - 2)
    ]
    leaves += [
        (kind, {"c": c, "d": d})
        for kind in ("diagonal", "diag")
        for c, d in [(1, 1), (2, -1), ("-1/2", "3/4"), ("-5/3", "-5/3"), (7, "2/9")]
    ]
    for kind, keys in leaves:
        spec = build_distribution(m, kind, **keys)
        assert spec.vectors == reference_vectors(m, kind, **keys), (kind, keys)
        assert spec.kind == ("diagonal" if kind == "diag" else kind)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "diagonal", "c": 0, "d": 1},
        {"kind": "diagonal", "c": 1, "d": 0},
        {"kind": "diagonal", "c": 1},
        {"kind": "mixed"},
        {"kind": "mixed", "k": 0},
        {"kind": "mixed", "k": 3},
        {"kind": "mixed", "z_choices": ("x", "z")},
        {"kind": "nonsense"},
        {"kind": "x", "k": 7, "c": "2", "d": "0"},
        {"kind": "x", "k": 2},
        {"kind": "y", "c": 1, "d": 1},
        {"kind": "mixed", "k": 1, "z_choices": ("x",)},
        {"kind": "mixed", "k": 2, "z_choices": ("x",)},
        {"kind": "mixed", "c": 1, "d": 1},
        {"kind": "diag", "c": 1},
        {"kind": "diagonal", "c": 1, "d": 1, "k": 1},
        {"kind": None},
        {"kind": ["x"]},
        {"kind": "mixed", "k": "2"},
        {"kind": "mixed", "k": 1.0},
        {"kind": "mixed", "k": True},
        {"kind": "mixed", "z_choices": 5},
        {"kind": "mixed", "z_choices": ("x", 1)},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    m = model(3, 1, 3)
    with pytest.raises(ParameterError):
        build_distribution(m, **kwargs)


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3), (4, 2, 3)])
def test_example_families_involutive(n, alpha, beta):
    m = model(n, alpha, beta)
    an = analysis(n, alpha, beta)
    specs = [build_distribution(m, "x"), build_distribution(m, "y")]
    specs += [build_distribution(m, "mixed", k=k) for k in range(1, n)]
    specs.append(build_distribution(m, "diagonal", c=1, d=1))
    for spec in specs:
        # raises NonInvolutiveError on a bracket that leaves the span
        geom = second_fundamental_form(an, spec)
        assert len(geom.br) == n, spec.kind


def test_x_family_brackets_stay_in_span_oracle():
    # [X_1, X_i] = alpha X_i and [X_i, X_j] = 0 row oracle
    m = model(3, 2, 3)
    spec = build_distribution(m, "x")
    for i in range(2, 4):
        assert bracket(
            m, Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.x(i))
        ) == 2 * Vec.basis(m.dim, m.x(i))
    assert bracket(m, Vec.basis(m.dim, m.x(2)), Vec.basis(m.dim, m.x(3))).is_zero()


def test_x1_y1_plane_not_involutive():
    # negative control: not one of the example families
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    spec = DistributionSpec(
        kind="x", vectors=(Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1)))
    )
    with pytest.raises(NonInvolutiveError, match=r"\[v_0, v_1\] leaves the span"):
        second_fundamental_form(an, spec)
    # the offending component is the full bracket -beta X_2 + 2 xi,
    # which is entirely normal to the plane
    br = bracket(m, *spec.vectors)
    assert br == -2 * Vec.basis(m.dim, m.x(2)) + 2 * Vec.basis(m.dim, 0)
    assert all(inner(br, v, m.metric) == 0 for v in spec.vectors)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brackets_are_taken_once_per_pair_a_below_b(monkeypatch, n):
    # br[b][a] = -br[a][b] and br[a][a] = 0 are filled in, not bracketed;
    # the table still equals the projection of every bracket
    m, an = model(n, 1, 3), analysis(n, 1, 3)
    specs = [build_distribution(m, "x"), build_distribution(m, "y")]
    specs += [build_distribution(m, "mixed", k=k) for k in range(1, n)]
    specs.append(build_distribution(m, "diag", c=2, d=1))
    calls = []

    def counted(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr("kmu.submanifold.bracket", counted)
    for spec in specs:
        calls.clear()
        geom = second_fundamental_form(an, spec)
        assert len(calls) == n * (n - 1) // 2, spec.kind
        vs = spec.vectors
        full = tuple(
            tuple(geom.frame.project(bracket(m, vs[a], vs[b]))[0] for b in range(n))
            for a in range(n)
        )
        assert geom.br == full, spec.kind


def test_second_fundamental_form_refuses_non_involutive():
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    spec = DistributionSpec(
        kind="x", vectors=(Vec.basis(m.dim, m.x(1)), Vec.basis(m.dim, m.y(1)))
    )
    with pytest.raises(NonInvolutiveError):
        second_fundamental_form(an, spec)


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (2, 1, 3), (3, 1, 3)])
def test_non_orthogonal_frame_refused(n, alpha, beta):
    # X_1 and X_1 + X_2 span the x-leaf's plane at n = 2, but every frame
    # table is read as orthogonal, so the frame is refused by name
    an = analysis(n, alpha, beta)
    m = an.model
    x = [Vec.basis(m.dim, m.x(i)) for i in range(1, n + 1)]
    spec = DistributionSpec(kind="x", vectors=(x[0], x[0] + x[1], *x[2:]))
    for check in (
        lambda: second_fundamental_form(an, spec),
        lambda: analyze_submanifold(an, spec),
    ):
        with pytest.raises(StructureError, match="vectors 0, 1 are not orthogonal"):
            check()


def test_zero_length_frame_vector_refused():
    an = analysis(2, 1, 3)
    m = an.model
    spec = DistributionSpec(kind="x", vectors=(Vec.basis(m.dim, m.x(1)), Vec.zero(m.dim)))
    with pytest.raises(StructureError, match="vector 1 has zero length"):
        second_fundamental_form(an, spec)


def test_asymmetric_sigma_refused():
    # adding Y_1 to nabla_{X_1} X_2 alone makes sigma(X_1, X_2) = Y_1 while
    # sigma(X_2, X_1) stays 0 on the x leaf, which a torsion-free
    # connection cannot give; the leaf is refused by the pair it breaks at
    an = analysis(2, 1, 3)
    m = an.model
    e2, e3 = Vec.basis(m.dim, m.x(2)), Vec.basis(m.dim, m.y(1))
    ops = list(an.conn.ops)
    ops[m.x(1)] = ops[m.x(1)] + outer(e3, e2)
    bad = replace(an, conn=replace(an.conn, ops=tuple(ops)))
    spec = build_distribution(m, "x")
    second_fundamental_form(an, spec)
    with pytest.raises(StructureError, match=r"^sigma is not symmetric at \(0, 1\)$"):
        second_fundamental_form(bad, spec)


# ---------------------------------------------------------------------------
# Legendrian check, made on every leaf where it is built
# ---------------------------------------------------------------------------


def test_leaf_of_the_wrong_rank_refused():
    # {X_1} at n = 2 is orthogonal and involutive, but not of rank n
    an = analysis(2, 0, 2)
    spec = DistributionSpec(kind="x", vectors=(Vec.basis(an.model.dim, an.model.x(1)),))
    with pytest.raises(StructureError, match="^expected 2 spanning vectors, got 1$"):
        second_fundamental_form(an, spec)


def test_leaf_with_no_spanning_vectors_refused():
    # the count is checked before the frame is built, so an empty spec is
    # named by its count, not by the shape of its empty frame matrix
    an = analysis(2, 0, 2)
    spec = DistributionSpec(kind="x", vectors=())
    with pytest.raises(StructureError, match="^expected 2 spanning vectors, got 0$"):
        second_fundamental_form(an, spec)


def test_leaf_with_too_many_spanning_vectors_refused():
    # {X_1, X_2, Y_1} is orthogonal but not involutive; the count is
    # checked first, so it is refused for its rank before its brackets
    an = analysis(2, 0, 2)
    m = an.model
    vectors = tuple(Vec.basis(m.dim, k) for k in (m.x(1), m.x(2), m.y(1)))
    spec = DistributionSpec(kind="x", vectors=vectors)
    with pytest.raises(StructureError, match="^expected 2 spanning vectors, got 3$"):
        second_fundamental_form(an, spec)


def test_leaf_containing_xi_refused():
    # {xi, X_1} is orthogonal and involutive at (2, 0, 2), so only the
    # Legendrian check stands between it and a report of failing records
    an = analysis(2, 0, 2)
    m = an.model
    spec = DistributionSpec(kind="x", vectors=(Vec.basis(m.dim, 0), Vec.basis(m.dim, m.x(1))))
    for check in (
        lambda: second_fundamental_form(an, spec),
        lambda: analyze_submanifold(an, spec),
    ):
        with pytest.raises(StructureError, match="^spanning vector 0 is not orthogonal to xi$"):
            check()


def test_leaf_that_is_not_anti_invariant_refused():
    # under the contact condition an involutive span orthogonal to xi is
    # anti-invariant, so the check is reached with a phi that moves X_2 by
    # X_1: g(v_0, phi v_1) = g(X_1, Y_2 + X_1) = 1 on the x leaf
    an = analysis(2, 1, 3)
    m = an.model
    x1, x2 = (Vec.basis(m.dim, m.x(i)) for i in (1, 2))
    bad = replace(an, cs=replace(an.cs, phi=an.cs.phi + outer(x1, x2)))
    spec = build_distribution(m, "x")
    second_fundamental_form(an, spec)
    with pytest.raises(StructureError, match=r"^anti-invariance fails: g\(v_0, phi v_1\) != 0$"):
        second_fundamental_form(bad, spec)


# ---------------------------------------------------------------------------
# second fundamental form and classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["x", "y"])
@pytest.mark.parametrize("n,alpha,beta", [(2, 1, 3), (3, 1, 3)])
def test_eigenblock_families_totally_geodesic(kind, n, alpha, beta):
    m = model(n, alpha, beta)
    an = analysis(n, alpha, beta)
    spec = build_distribution(m, kind)
    geom = second_fundamental_form(an, spec)
    assert geom.classification == "totally_geodesic"
    assert all(S.is_zero() for S in geom.sigma)
    assert geom.mean_curvature_vector.is_zero()


def test_diagonal_sigma_by_koszul_sum_oracle():
    # nabla_{X_1+Y_1}(X_1+Y_1) expands to four table entries:
    # 0 + 2 xi + 2 X_2 + 2 Y_2; its normal part is 2 xi
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    conn = an.conn
    pieces = (
        conn.gamma[m.x(1)][m.x(1)]
        + conn.gamma[m.x(1)][m.y(1)]
        + conn.gamma[m.y(1)][m.x(1)]
        + conn.gamma[m.y(1)][m.y(1)]
    )
    e = partial(Vec.basis, m.dim)
    assert pieces == 2 * e(0) + 2 * e(m.x(2)) + 2 * e(m.y(2))
    spec = build_distribution(m, "diagonal", c=1, d=1)
    geom = second_fundamental_form(an, spec)
    assert geom.sigma[0].col(0) == 2 * Vec.basis(m.dim, 0)


@pytest.mark.parametrize("c,d", [(1, 1), (2, 1), (1, 3)])
@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3)])
def test_diagonal_sigma_closed_form_and_umbilical(c, d, n, alpha, beta):
    m = model(n, alpha, beta)
    an = analysis(n, alpha, beta)
    lam = an.invariants.lam
    c, d = Fraction(c), Fraction(d)
    spec = build_distribution(m, "diagonal", c=c, d=d)
    geom = second_fundamental_form(an, spec)
    xi = Vec.basis(m.dim, 0)
    for a in range(n):
        for b in range(n):
            expected = (2 * c * d * lam) * xi if a == b else Vec.zero(m.dim)
            assert geom.sigma[a].col(b) == expected
    assert geom.classification == "totally_umbilical"
    assert geom.umbilical_vector == (2 * c * d * lam / (c * c + d * d)) * xi
    assert geom.mean_curvature_vector == geom.umbilical_vector


def test_mixed_family_totally_geodesic():
    m = model(4, 1, 3)
    an = analysis(4, 1, 3)
    for k in (1, 2, 3):
        spec = build_distribution(m, "mixed", k=k)
        geom = second_fundamental_form(an, spec)
        assert geom.classification == "totally_geodesic"


@pytest.mark.parametrize("n,alpha,beta,count", [
    (3, 1, 3, 4), (4, 1, 3, 6), (5, 1, 3, 10),
    (3, 0, 2, 5), (4, 0, 2, 9), (5, 0, 2, 17),
])
def test_coordinate_spans_involutive_exactly_on_the_known_families(n, alpha, beta, count):
    # every span {Z_1..Z_n}, Z_i in {X_i, Y_i}, as "x"/"y" per block: at
    # alpha != 0 the involutive ones are x, y and X_1 Y_2 Z_3..; at
    # alpha = 0 (I = -1) the Y_1 Y_2 Z_3.. spans are involutive too.  Each
    # passes every record, and its summary (theta, K, the h1 and h2
    # eigenvalues, the E(+-lambda) dimensions, V) and identity ids are
    # those of the x, y or some mixed preset: so the alpha = 0 family
    # shares the certified invariants of the mixed presets, which alone
    # does not make it locally isometric to a mixed leaf
    an = analysis(n, alpha, beta)
    m = an.model

    def certified(spec):
        _, records, summary = analyze_submanifold(an, spec)
        assert all_passed(records), [r.identity_id for r in records if not r.passed]
        del summary["kind"]
        return summary, [r.identity_id for r in records]

    presets = [certified(build_distribution(m, "x")), certified(build_distribution(m, "y"))]
    presets += [
        certified(build_distribution(m, "mixed", z_choices=z))
        for z in itertools.product("xy", repeat=n - 2)
    ]
    involutive = set()
    for choice in itertools.product("xy", repeat=n):
        vectors = tuple(
            Vec.basis(m.dim, m.x(i) if z == "x" else m.y(i))
            for i, z in enumerate(choice, start=1)
        )
        spec = DistributionSpec("span", vectors)
        try:
            geom = second_fundamental_form(an, spec)
        except NonInvolutiveError:
            continue
        assert geom.classification == "totally_geodesic", choice
        assert certified(spec) in presets, choice
        involutive.add("".join(choice))
    tails = {"".join(z) for z in itertools.product("xy", repeat=n - 2)}
    expected = {"x" * n, "y" * n} | {"xy" + t for t in tails}
    if alpha == 0:
        expected |= {"yy" + t for t in tails}
    assert involutive == expected
    assert len(involutive) == count


# ---------------------------------------------------------------------------
# h splitting
# ---------------------------------------------------------------------------


def test_split_on_x_family_is_ambient_restriction():
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    spec = build_distribution(m, "x")
    h1, h2 = split_h(an.cs, second_fundamental_form(an, spec).frame)
    assert h1 == an.invariants.lam * Mat.identity(3)
    assert h2.is_zero()
    spec = build_distribution(m, "y")
    h1, h2 = split_h(an.cs, second_fundamental_form(an, spec).frame)
    assert h1 == -an.invariants.lam * Mat.identity(3)
    assert h2.is_zero()


def test_split_on_diagonal_1_1_detailed_oracle():
    # h(X_1+Y_1) = X_1 - Y_1 is entirely normal: tangential projection
    # g(X_1 - Y_1, X_1 + Y_1)/2 = 0, so h1 = 0 and
    # h2 v = -phi(X_1 - Y_1) = -(Y_1 + X_1) = -v
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    cs = an.cs
    v = Vec.basis(m.dim, m.x(1)) + Vec.basis(m.dim, m.y(1))
    hv = cs.h @ v
    assert hv == Vec.basis(m.dim, m.x(1)) - Vec.basis(m.dim, m.y(1))
    assert inner(hv, v, m.metric) == 0
    assert -(cs.phi @ hv) == -v
    spec = build_distribution(m, "diagonal", c=1, d=1)
    geom = second_fundamental_form(an, spec)
    h1, h2 = split_h(cs, geom.frame)
    assert (h1, h2) == (geom.h1, geom.h2)
    assert h1.is_zero()
    assert h2 == -Mat.identity(2)
    # the sigma-h2 pairing of the geometry suite, checked by hand
    assert inner(geom.sigma[0].col(0), cs.xi, m.metric) + inner(
        v, h2[0, 0] * v, m.metric
    ) == 2 - 2


@pytest.mark.parametrize("c,d", [(1, 1), (2, 1), (1, 3)])
def test_split_on_diagonal_closed_forms(c, d):
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    lam = an.invariants.lam
    c, d = Fraction(c), Fraction(d)
    spec = build_distribution(m, "diagonal", c=c, d=d)
    h1, h2 = split_h(an.cs, second_fundamental_form(an, spec).frame)
    assert h1 == (lam * (c * c - d * d) / (c * c + d * d)) * Mat.identity(3)
    assert h2 == (-2 * c * d * lam / (c * c + d * d)) * Mat.identity(3)


def preset_leaves(n):
    """Every preset leaf at n: x, y, each mixed k and z_choices, and diag samples."""
    leaves = [("x", {}), ("y", {})]
    leaves += [("mixed", {"k": k}) for k in range(1, n)]
    leaves += [("mixed", {"z_choices": z}) for z in itertools.product("xy", repeat=n - 2)]
    leaves += [("diag", {"c": c, "d": d}) for c, d in [(1, 1), (2, -1), ("-1/2", "3/4")]]
    return leaves


def project_by_columns(frame, M):
    """(pairing w, w - span (pairing w)) one column w of M at a time."""
    columns = [M.col(b) for b in range(M.shape[1])]
    coeffs = [frame.pairing @ w for w in columns]
    normal = [w - frame.span @ x for w, x in zip(columns, coeffs)]
    return Mat.from_columns(coeffs), Mat.from_columns(normal)


def split_h_by_columns(cs, frame):
    """h1, h2 one frame vector at a time, the normal part as w - span (pairing w)."""
    h1_cols, h2_cols = [], []
    for a, v in enumerate(frame.vectors):
        hv = cs.h @ v
        coeffs = frame.pairing @ hv
        normal = hv - frame.span @ coeffs
        if inner(normal, cs.xi, cs.metric) != 0:
            raise StructureError(
                f"normal part of h v_{a} has a xi component; split undefined"
            )
        h2v = -(cs.phi @ normal)
        if not (h2v - frame.span @ (frame.pairing @ h2v)).is_zero():
            raise StructureError("vector is not tangent to the distribution")
        h1_cols.append(coeffs)
        h2_cols.append(frame.pairing @ h2v)
    return Mat.from_columns(h1_cols), Mat.from_columns(h2_cols)


def assert_matrix_split_is_the_column_split(an, geom):
    """project and coords on matrices against their columns, and split_h."""
    cs, frame = an.cs, geom.frame
    V = frame.span
    dim, n = V.shape
    tangent = [V, V @ geom.h1, V @ geom.h2] + [V @ op for op in geom.nbar.ops]
    nablas = [
        matsum([(x, an.conn.ops[i], V) for i, x in v.nonzero_entries()], dim, n)
        for v in frame.vectors
    ]
    for M in tangent + nablas + [cs.h @ V, cs.phi @ V]:
        columns = [frame.project(M.col(b)) for b in range(n)]
        expected = tuple(Mat.from_columns(half) for half in zip(*columns))
        assert frame.project(M) == expected == project_by_columns(frame, M)
    for M in tangent:
        assert frame.coords(M) == Mat.from_columns(frame.coords(M.col(b)) for b in range(n))
    # phi V is normal and nonzero on a Legendrian frame
    for M in [cs.phi @ V] + [S for S in geom.sigma if not S.is_zero()]:
        with pytest.raises(StructureError, match="vector is not tangent to the distribution"):
            frame.coords(M)
    for a, Sigma in enumerate(geom.sigma):
        assert (geom.nbar.ops[a], Sigma) == frame.project(nablas[a])
    assert split_h(cs, frame) == split_h_by_columns(cs, frame) == (geom.h1, geom.h2)


@pytest.mark.parametrize("alpha,beta", [(1, 3), (0, 2)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrix_projection_and_split_equal_their_columns(n, alpha, beta):
    an = analysis(n, alpha, beta)
    for kind, keys in preset_leaves(n):
        geom = second_fundamental_form(an, build_distribution(an.model, kind, **keys))
        assert_matrix_split_is_the_column_split(an, geom)


NONZERO_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1, 3), (3, 1, 3), (3, 0, 2), (4, 0, 2)]),
    NONZERO_RATIONALS,
    NONZERO_RATIONALS,
)
def test_diagonal_matrix_projection_and_split_equal_their_columns(point, c, d):
    an = analysis(*point)
    geom = second_fundamental_form(an, build_distribution(an.model, "diag", c=c, d=d))
    assert_matrix_split_is_the_column_split(an, geom)


@pytest.mark.parametrize("a", [0, 1, 2])
def test_split_h_names_the_first_normal_part_with_a_xi_component(a):
    # h + xi g(., v_a) adds g(v_a, v_a) xi to h v_a alone: a normal xi part
    an = analysis(3, 1, 3)
    frame = second_fundamental_form(an, build_distribution(an.model, "x")).frame
    cs = replace(an.cs, h=an.cs.h + outer(an.cs.xi, an.cs.metric @ frame.vectors[a]))
    message = f"normal part of h v_{a} has a xi component; split undefined"
    for split in (split_h, split_h_by_columns):
        with pytest.raises(StructureError, match=message):
            split(cs, frame)


@pytest.mark.parametrize("kind,kwargs", [
    ("x", {}),
    ("y", {}),
    ("mixed", {"k": 1}),
    ("diagonal", {"c": 2, "d": 1}),
])
@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3), (4, 2, 3)])
def test_split_identities_suite(kind, kwargs, n, alpha, beta):
    if kind == "mixed" and kwargs.get("k", 1) >= n:
        pytest.skip("k out of range at this dimension")
    m = model(n, alpha, beta)
    an = analysis(n, alpha, beta)
    spec = build_distribution(m, kind, **kwargs)
    records = verify_split_identities(
        an.cs, second_fundamental_form(an, spec), an.invariants.kappa
    )
    assert {r.identity_id for r in records} == {
        "h_split",
        "h1_symmetric",
        "h2_symmetric",
        "h1_sq_plus_h2_sq",
        "h1_h2_commute",
        "sigma_xi_h2",
    }
    assert all_passed(records)


# ---------------------------------------------------------------------------
# covariant identities of the split
# ---------------------------------------------------------------------------


def test_shape_operator_assembled_from_sigma_matches():
    # oracle: A_{phi v_b} from the pairing g(A_V X, Y) = g(sigma(X,Y), V),
    # then compare with -phi sigma for one explicit pair
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    spec = build_distribution(m, "diagonal", c=1, d=1)
    geom = second_fundamental_form(an, spec)
    v0 = spec.vectors[0]
    norms = [inner(v, v, m.metric) for v in spec.vectors]
    shape = Vec.zero(m.dim)
    for cdx, vc in enumerate(spec.vectors):
        coeff = inner(geom.sigma[0].col(cdx), an.cs.phi @ v0, m.metric) / norms[cdx]
        shape = shape + coeff * vc
    assert shape == -(an.cs.phi @ geom.sigma[0].col(0))


@pytest.mark.parametrize("kind,kwargs", [
    ("x", {}),
    ("y", {}),
    ("mixed", {"k": 2}),
    ("diagonal", {"c": 1, "d": 1}),
    ("diagonal", {"c": 2, "d": 1}),
])
def test_prop32_zero_residual(kind, kwargs):
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    spec = build_distribution(m, kind, **kwargs)
    records = verify_prop32(an.conn, an.cs, second_fundamental_form(an, spec))
    assert {r.identity_id for r in records} == {
        "shape_operator_phi",
        "normal_connection_phi",
        "nabla_h1",
        "nabla_h2",
    }
    assert all_passed(records)


def test_totally_geodesic_leaves_have_parallel_h1():
    # with sigma = 0 both sides of the h1 derivative identity vanish
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    spec = build_distribution(m, "x")
    geom = second_fundamental_form(an, spec)
    assert geom.h2.is_zero()
    # nablabar h1 = 0 holds entry by entry because h1 is lambda Id and
    # nablabar maps the frame into itself
    records = verify_prop32(an.conn, an.cs, geom)
    assert all_passed(records)


def test_prop32_refuses_phi_sigma_off_the_leaf():
    # sigma(v_0, v_0) gains the tangent v_0, so phi sigma(v_0, v_0) is
    # normal and has no frame coordinates for the nabla_h scans to share
    an = analysis(3, 1, 3)
    geom = second_fundamental_form(an, build_distribution(an.model, "x"))
    bad = replace(geom, sigma=bump(geom.sigma, (0, 0), geom.frame.vectors[0]))
    with pytest.raises(StructureError, match="not tangent to the distribution"):
        verify_prop32(an.conn, an.cs, bad)


# ---------------------------------------------------------------------------
# Gauss / Codazzi and leaf curvature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,kwargs", [
    ("x", {}),
    ("y", {}),
    ("mixed", {"k": 1}),
    ("diagonal", {"c": 1, "d": 1}),
    ("diagonal", {"c": 1, "d": 3}),
])
def test_gauss_codazzi_zero_residual(kind, kwargs):
    m = model(3, 1, 2)
    an = analysis(3, 1, 2)
    spec = build_distribution(m, kind, **kwargs)
    geom = second_fundamental_form(an, spec)
    records = gauss_codazzi_residuals(an.curvature, an.conn, geom)
    assert {r.identity_id for r in records} == {"gauss", "codazzi"}
    assert all_passed(records)


def test_x_leaf_curvature_equals_ambient():
    # totally geodesic: intrinsic sectional curvature equals the ambient
    # one, which is 2(1 + lambda) - mu = 2 lambda (I + 1)
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    inv = an.invariants
    spec = build_distribution(m, "x")
    geom = second_fundamental_form(an, spec)
    expected = 2 * (1 + inv.lam) - inv.mu
    assert expected == 2 * inv.lam * (inv.boeckx_invariant + 1)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert lowered_bar(geom, a, b, b, a) == expected


def test_y_leaf_curvature_negative():
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    inv = an.invariants
    spec = build_distribution(m, "y")
    geom = second_fundamental_form(an, spec)
    expected = 2 * (1 - inv.lam) - inv.mu
    assert expected == 2 * inv.lam * (inv.boeckx_invariant - 1)
    assert expected < 0
    assert lowered_bar(geom, 0, 1, 1, 0) == expected


def test_diagonal_leaf_space_form_cross_checked_by_gauss():
    # both sides of the Gauss relation on an orthogonal tangent pair:
    # Rbar = R(ambient) + |sigma(v,v)|^2-type corrections
    m = model(3, 0, 2)
    an = analysis(3, 0, 2)
    inv = an.invariants
    spec = build_distribution(m, "diagonal", c=1, d=1)
    geom = second_fundamental_form(an, spec)
    v0, v1 = spec.vectors[0], spec.vectors[1]
    ambient = an.curvature.lowered(v0, v1, v1, v0)
    sigma = geom.sigma
    gauss_rhs = ambient + inner(
        sigma[0].col(0), sigma[1].col(1), m.metric
    ) - inner(sigma[0].col(1), sigma[1].col(0), m.metric)
    assert lowered_bar(geom, 0, 1, 1, 0) == gauss_rhs
    # space form constant 2(1 - mu/2 + lambda sin theta) with sin = 0
    expected = 2 * (1 - inv.mu / 2)
    assert expected == -2
    norm_sq = inner(v0, v0, m.metric) * inner(v1, v1, m.metric)
    assert lowered_bar(geom, 0, 1, 1, 0) / norm_sq == expected


def test_eigen_split_dimensions():
    m = model(4, 1, 3)
    an = analysis(4, 1, 3)
    assert eigen_split(an.cs, build_distribution(m, "x")) == ([0, 1, 2, 3], [])
    assert eigen_split(an.cs, build_distribution(m, "y")) == ([], [0, 1, 2, 3])
    for k in (1, 2, 3):
        spec = build_distribution(m, "mixed", k=k)
        assert split_dims(an.cs, spec) == (k, 4 - k)
    diag = build_distribution(m, "diagonal", c=1, d=1)
    assert eigen_split(an.cs, diag) is None


# ---------------------------------------------------------------------------
# negative controls: one corrupted leaf table flips the records reading it
# ---------------------------------------------------------------------------


def _wrong_kappa(geom, kappa):
    return geom, kappa + 1


def _changed_h1_entry(geom, kappa):
    n = geom.spec.rank
    rows = [[geom.h1[i, j] for j in range(n)] for i in range(n)]
    rows[0][1] += 1
    return replace(geom, h1=Mat(rows)), kappa


def _changed_sigma_entry(geom, kappa):
    # sigma(v_0, v_0) gains a xi component; sigma stays symmetric
    xi = Vec.basis(geom.frame.span.shape[0], 0)
    return replace(geom, sigma=bump(geom.sigma, (0, 0), xi)), kappa


@pytest.mark.parametrize("corrupt,flipped", [
    (_wrong_kappa, {"h1_sq_plus_h2_sq"}),
    (_changed_h1_entry, {"h_split"}),
    (_changed_sigma_entry, {"gauss", "codazzi", "sigma_xi_h2"}),
])
def test_corrupted_leaf_table_flips_its_records(corrupt, flipped):
    an = analysis(3, 1, 3)
    spec = build_distribution(an.model, "diagonal", c=2, d=1)

    def records(geom, kappa):
        out = verify_split_identities(an.cs, geom, kappa)
        out += verify_prop32(an.conn, an.cs, geom)
        out += gauss_codazzi_residuals(an.curvature, an.conn, geom)
        return {r.identity_id: r for r in out}

    geom = second_fundamental_form(an, spec)
    clean = records(geom, an.invariants.kappa)
    bad = records(*corrupt(geom, an.invariants.kappa))
    for identity_id in flipped:
        assert clean[identity_id].passed
        assert bad[identity_id].status == "fail"
        assert bad[identity_id].witness_indices
        assert bad[identity_id].residual != 0


# ---------------------------------------------------------------------------
# theta, read off the leaf
# ---------------------------------------------------------------------------


def diagonal_summary(n, alpha, beta, c, d):
    an = analysis(n, alpha, beta)
    spec = build_distribution(an.model, "diagonal", c=c, d=d)
    return analyze_submanifold(an, spec)[2]


def test_theta_for_equal_coefficients():
    sin, cos = closed_form_theta(1, 1)
    assert (sin, cos) == (0, -1)
    summary = diagonal_summary(3, 1, 3, 1, 1)
    assert summary_theta(summary) == (sin, cos)
    # matches the h1 and h2 eigenvalues of the diagonal(1,1) split
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    lam = an.invariants.lam
    spec = build_distribution(m, "diagonal", c=1, d=1)
    h1, h2 = split_h(an.cs, second_fundamental_form(an, spec).frame)
    assert lam * sin == 0 and lam * cos == -lam
    assert h2[0, 0] == lam * cos
    assert h1[0, 0] == lam * sin


def test_theta_two_one():
    sin, cos = closed_form_theta(2, 1)
    assert (sin, cos) == (Fraction(3, 5), Fraction(-4, 5))
    for n, alpha, beta in [(2, 1, 3), (3, 0, 2)]:
        sin_leaf, cos_leaf = summary_theta(diagonal_summary(n, alpha, beta, 2, 1))
        assert (sin_leaf, cos_leaf) == (sin, cos)
        assert sin_leaf ** 2 + cos_leaf ** 2 == 1


def test_theta_pythagoras_ties_to_kappa():
    an = analysis(2, 1, 3)
    inv = an.invariants
    sin, cos = summary_theta(diagonal_summary(2, 1, 3, 2, 1))
    assert (sin, cos) == closed_form_theta(2, 1)
    a, b = inv.lam * cos, inv.lam * sin
    assert a ** 2 + b ** 2 == inv.lam ** 2 == 1 - inv.kappa


def test_theta_rejects_zero_coefficients():
    # c = 0 or d = 0 would put theta at +-pi/2: those leaves are the y and
    # x families, so the diagonal preset refuses them
    m = model(3, 1, 3)
    with pytest.raises(ParameterError):
        build_distribution(m, "diagonal", c=0, d=1)
    with pytest.raises(ParameterError):
        build_distribution(m, "diagonal", c=1, d=0)


@pytest.mark.parametrize("c,d", [(1, 1), (2, 1), (1, 3), (-2, 3), ("-1/2", "-1/2"),
                                 ("5/7", -3), (3, 2)])
@pytest.mark.parametrize("n,alpha,beta", [(3, 1, 3), (4, 0, 2), (5, "1/2", "5/3")])
def test_theta_and_leaf_constant_read_off_the_leaf(c, d, n, alpha, beta):
    an = analysis(n, Fraction(alpha), Fraction(beta))
    inv = an.invariants
    sin, cos = closed_form_theta(Fraction(c), Fraction(d))
    summary = diagonal_summary(n, Fraction(alpha), Fraction(beta), c, d)
    assert summary["theta"] == {"sin": rat_str(sin), "cos": rat_str(cos)}
    assert summary["leaf_curvature"] == rat_str(2 * (1 - inv.mu / 2 + inv.lam * sin))


# ---------------------------------------------------------------------------
# full analysis summaries
# ---------------------------------------------------------------------------


def test_analyze_diagonal_summary():
    m = model(3, 1, 3)
    an = analysis(3, 1, 3)
    spec = build_distribution(m, "diagonal", c=2, d=1)
    geom, records, summary = analyze_submanifold(an, spec)
    assert all_passed(records)
    assert summary["classification"] == "totally_umbilical"
    assert summary["h1_eigenvalue"] == "6/5"
    assert summary["h2_eigenvalue"] == "-8/5"
    assert summary["leaf_curvature"] == "-13/5"
    assert summary["theta"] == {"sin": "3/5", "cos": "-4/5"}
    sin, _ = closed_form_theta(2, 1)
    assert an.invariants.lam * sin == Fraction(6, 5)
    assert geom.h1[0, 0] == an.invariants.lam * sin


def test_diagonal_at_n_two_still_verifies():
    # below the dimension threshold of the umbilical classification the
    # identity suite still holds; only the classification claim is not
    # asserted beyond the verdict itself
    m = model(2, 1, 3)
    an = analysis(2, 1, 3)
    spec = build_distribution(m, "diagonal", c=2, d=1)
    geom, records, summary = analyze_submanifold(an, spec)
    assert all_passed(records)
    assert summary["classification"] == "totally_umbilical"
