"""Fault matrix: one minimal corruption per row, and its exact failing records.

Each row replaces one named call of the pipeline by the same call with a
corrupted input or output, runs ``analyze_structure`` (structure rows)
or ``analyze_submanifold`` (leaf rows) on model (3, 1, 3), and pins the
set of failing records with each one's witness and residual.  The other
records of the run must still pass, so a corruption that leaks into an
unrelated check shows up as well as one that is missed.
"""

import inspect
from dataclasses import replace
from fractions import Fraction

import pytest

from kmu import pipeline, submanifold
from kmu.linalg import Mat, Vec

from helpers import analysis, bump, model

N, ALPHA, BETA = 3, 1, 3
DIM = 2 * N + 1


def _bump_mat(M, row, col):
    n = M.shape[0]
    return M + Mat([[int((r, c) == (row, col)) for c in range(n)] for r in range(n)])


def _gamma_plus(i, j, k):
    """nabla_{e_i} e_j + e_k on a connection table: column j of ops[i] moves."""
    return lambda conn: bump(conn, (i, j), Vec.basis(DIM, k))


def _riemann_plus(i, j, k, e, scale=1):
    """R(e_i, e_j) e_k + scale e_e on a curvature table: one stored plane changes."""
    return lambda R: bump(R, (i, j, k), scale * Vec.basis(DIM, e))


def _structure_plus(p, q, r):
    """[e_p, e_q] + e_r on a model, with its mirror [e_q, e_p] - e_r."""
    def corrupt(m):
        e = Vec.basis(DIM, r)
        return replace(m, structure=bump(bump(m.structure, (p, q), e), (q, p), -e))
    return corrupt


def _invariant_plus(field, delta):
    return lambda inv: replace(inv, **{field: getattr(inv, field) + delta})


def _geom_plus(field, index, delta):
    """A leaf table entry plus ``delta``; ``delta`` may read the geometry."""
    def corrupt(geom):
        step = delta(geom) if callable(delta) else delta
        return replace(geom, **{field: bump(getattr(geom, field), index, step)})
    return corrupt


def _split_plus(which, row, col):
    """h1 or h2 of the split, with one entry plus 1."""
    def corrupt(hs):
        hs = list(hs)
        hs[which] = _bump_mat(hs[which], row, col)
        return tuple(hs)
    return corrupt


def _phi_v(b):
    return lambda geom: analysis(N, ALPHA, BETA).cs.phi @ geom.frame.vectors[b]


def _corrupt(monkeypatch, module, name, inputs=None, output=None):
    """Replace module.name by the same call with corrupted inputs or output.

    ``inputs`` maps a parameter name to a function of its value.
    """
    original = getattr(module, name)
    signature = inspect.signature(original)

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        for param, change in (inputs or {}).items():
            bound.arguments[param] = change(bound.arguments[param])
        result = original(*bound.args, **bound.kwargs)
        return output(result) if output else result

    monkeypatch.setattr(module, name, call)


DIAG = {"kind": "diagonal", "c": 2, "d": 1}
MIXED = {"kind": "mixed", "k": 2}

# (leaf or None for the structure, call, corruption, failing records as
# identity id -> (witness, residual))
ROWS = [
    pytest.param(
        None, "sectional_records", {"inputs": {"inv": _invariant_plus("mu", 1)}},
        {"sectional_curvature": ((1, 2), 1)},
        id="sectional_records-mu+1",
    ),
    pytest.param(
        None, "verify_identities", {"inputs": {"conn": _gamma_plus(1, 0, 2)}},
        {
            "nabla_phi": ((1, 0), 1),
            "nabla_h": ((1, 0), 2),
            "nabla_xi": ((1,), 1),
        },
        id="verify_identities-gamma10+e2",
    ),
    # only nabla_{Y_3} = ops[6], the last operator, changes: the difference
    # operators of nabla_phi and nabla_h are zero at every earlier i and
    # yield nothing, and the walk of i = 6 finds the failing columns
    pytest.param(
        None, "verify_identities", {"inputs": {"conn": _gamma_plus(6, 4, 2)}},
        {
            "nabla_phi": ((6, 1), 1),
            "nabla_h": ((6, 4), 4),
        },
        id="verify_identities-gamma64+e2",
    ),
    pytest.param(
        None, "levi_civita", {"output": _gamma_plus(1, 2, 3)},
        {
            "torsion_free": ((1, 2), 1),
            "metric_compatibility": ((1, 2, 3), 1),
            "curvature_symmetries": ((0, 1, 2), Fraction(7, 2)),
            "kappa_mu_condition": ((1, 5), 1),
            "nabla_phi": ((1, 2), 1),
            "curvature_closed_form": ((0, 1, 1), Fraction(3, 2)),
        },
        id="levi_civita-gamma12+e3",
    ),
    # model-input rows: one structure constant with no xi part, bumped
    # with its mirror, survives the contact axioms and the kappa-mu
    # extraction and fails the records downstream
    pytest.param(
        None, "analyze_structure", {"inputs": {"model": _structure_plus(2, 6, 1)}},
        {
            "jacobi": ((0, 1, 6), Fraction(3, 2)),
            "curvature_symmetries": ((0, 1, 6), Fraction(3, 2)),
            "kappa_mu_condition": ((1, 3), Fraction(3, 2)),
            "nabla_phi": ((1, 2), Fraction(1, 2)),
            "nabla_h": ((1, 2), 2),
            "curvature_closed_form": ((0, 1, 1), Fraction(3, 2)),
            "sectional_curvature": ((1, 2), Fraction(1, 4)),
        },
        id="structure-[X2,Y3]+X1",
    ),
    pytest.param(
        None, "analyze_structure", {"inputs": {"model": _structure_plus(1, 2, 4)}},
        {
            "jacobi": ((0, 1, 2), Fraction(9, 2)),
            "curvature_symmetries": ((0, 1, 2), Fraction(9, 2)),
            "kappa_mu_condition": ((1, 2), Fraction(5, 2)),
            "nabla_phi": ((1, 1), Fraction(1, 2)),
            "nabla_h": ((1, 2), 2),
            "curvature_closed_form": ((0, 1, 1), 2),
            "sectional_curvature": ((1, 2), Fraction(9, 4)),
        },
        id="structure-[X1,X2]+Y1",
    ),
    pytest.param(
        DIAG, "split_h", {"output": _split_plus(1, 0, 1)},
        {
            "h_split": ((1,), 2),
            "h2_symmetric": ((0, 1), -5),
            "h1_sq_plus_h2_sq": ((0, 1), Fraction(-16, 5)),
            "sigma_xi_h2": ((0, 1), 5),
            "nabla_h2": ((0, 0), 3),
        },
        id="diag-h2[0][1]+1",
    ),
    pytest.param(
        DIAG, "split_h", {"output": _split_plus(0, 0, 1)},
        {
            "h_split": ((1,), 2),
            "h1_symmetric": ((0, 1), -5),
            "h1_sq_plus_h2_sq": ((0, 1), Fraction(12, 5)),
            "normal_connection_phi": ((0, 1), 5),
            "nabla_h1": ((0, 0), 3),
        },
        id="diag-h1[0][1]+1",
    ),
    pytest.param(
        DIAG, "second_fundamental_form", {"output": _geom_plus("sigma", (0, 0), _phi_v(1))},
        {
            "shape_operator_phi": ((0, 0), 2),
            "nabla_h1": ((0, 0), Fraction(16, 5)),
            "nabla_h2": ((0, 0), Fraction(12, 5)),
            "codazzi": ((0, 1, 0), 11),
        },
        id="diag-sigma[0][0]+phi_v1",
    ),
    pytest.param(
        DIAG, "leaf_curvature_records", {"inputs": {"inv": _invariant_plus("mu", -100)}},
        {
            "leaf_space_form": ((0, 1, 0, 1), 2500),
            "leaf_curvature_negative": (None, Fraction(487, 5)),
        },
        id="diag-mu-100",
    ),
    pytest.param(
        MIXED, "split_h", {"output": _split_plus(1, 0, 1)},
        {
            "h_split": ((1,), 1),
            "h2_symmetric": ((0, 1), -1),
            "h1_h2_commute": ((0, 1), 4),
            "sigma_xi_h2": ((0, 1), 1),
            "nabla_h2": ((2, 1), 1),
        },
        id="mixed-h2[0][1]+1",
    ),
    pytest.param(
        MIXED, "second_fundamental_form",
        {"output": _geom_plus("nbar", (0, 1), Vec.basis(N, 2))},
        {
            "normal_connection_phi": ((0, 1), 1),
            "nabla_h1": ((0, 1), 4),
        },
        id="mixed-nb[0][1]+e2",
    ),
    # the leaf twin of verify_identities-gamma64+e2: only nablabar_{v_2},
    # the last operator, changes, so the nabla_h1 and nabla_h2 differences
    # are zero at every earlier a and yield nothing
    pytest.param(
        MIXED, "second_fundamental_form",
        {"output": _geom_plus("nbar", (2, 1), Vec.basis(N, 0))},
        {
            "normal_connection_phi": ((2, 1), 1),
            "nabla_h1": ((2, 1), 4),
        },
        id="mixed-nb[2][1]+e0",
    ),
    # sigma(v_0, .) and sigma(v_1, .) stay zero, so the shape-operator scan
    # skips a = 0 and 1 and finds the failure at a = 2
    pytest.param(
        MIXED, "second_fundamental_form", {"output": _geom_plus("sigma", (2, 2), _phi_v(0))},
        {
            "shape_operator_phi": ((2, 0), 1),
            "nabla_h2": ((2, 2), 4),
            "codazzi": ((0, 2, 2), 3),
        },
        id="mixed-sigma[2][2]+phi_v0",
    ),
    pytest.param(
        MIXED, "second_fundamental_form",
        {"output": _geom_plus("rbar", (0, 1, 1), Vec.basis(N, 0))},
        {
            "gauss": ((0, 1, 1, 0), -1),
            "leaf_curvature_mixed_planes": ((0, 1), 1),
        },
        id="mixed-rbar[0][1][1]+e0",
    ),
    # stored-plane rows: R stays antisymmetric in (i, j) by construction,
    # so curvature_symmetries fails on first Bianchi or on pair symmetry
    pytest.param(
        None, "riemann", {"output": _riemann_plus(1, 2, 3, 1)},
        {
            "curvature_symmetries": ((1, 2, 3), 1),
            "curvature_closed_form": ((1, 2, 3), 1),
        },
        id="riemann-bianchi-R123+e1",
    ),
    # R(X_1, X_2) X_1 is in no Bianchi triple of distinct indices
    pytest.param(
        None, "riemann", {"output": _riemann_plus(1, 2, 1, 3)},
        {
            "curvature_symmetries": ((1, 2, 1, 3), 1),
            "curvature_closed_form": ((1, 2, 1), 1),
        },
        id="riemann-pair-R121+e3",
    ),
    # R(X_1, Y_2) X_1 is in no Bianchi triple, and g(R(X_1, Y_2) X_1, xi)
    # has l < k, where pair symmetry does not read it: only the last-pair
    # check does
    pytest.param(
        None, "riemann", {"output": _riemann_plus(1, 5, 1, 0, -1)},
        {
            "curvature_symmetries": ((1, 5, 0, 1), -1),
            "curvature_closed_form": ((1, 5, 1), 1),
        },
        id="riemann-last-pair-R151-e0",
    ),
    pytest.param(
        {"kind": "x"}, "leaf_curvature_records",
        {"inputs": {"inv": _invariant_plus("boeckx_invariant", 1)}},
        {
            "leaf_curvature_e_lambda": ((0, 1), -4),
            "leaf_space_form": ((0, 1, 0, 1), 4),
        },
        id="x-I+1",
    ),
    pytest.param(
        {"kind": "y"}, "leaf_curvature_records",
        {"inputs": {"inv": _invariant_plus("boeckx_invariant", 1)}},
        {
            "leaf_curvature_e_minus_lambda": ((0, 1), -4),
            "leaf_space_form": ((0, 1, 0, 1), 4),
        },
        id="y-I+1",
    ),
    # the umbilical diagonal leaf, corrupted where the frame-coordinate
    # rows carry their extra terms: the space-form K-term sits at
    # (0, 1, 1, 0), and the Gauss row at (0, 1, 2) meets nonzero sigma
    pytest.param(
        DIAG, "leaf_curvature_records",
        {"inputs": {"geom": _geom_plus("rbar", (0, 1, 1), Vec.basis(N, 0))}},
        {"leaf_space_form": ((0, 1, 1, 0), 5)},
        id="diag-space_form-rbar[0][1][1]+e0",
    ),
    pytest.param(
        DIAG, "gauss_codazzi_residuals",
        {"inputs": {"geom": _geom_plus("rbar", (0, 1, 2), Vec.basis(N, 0))}},
        {"gauss": ((0, 1, 2, 0), -5)},
        id="diag-gauss-rbar[0][1][2]+e0",
    ),
    # the Gauss row of (0, 1, 2) is -5 (2 e_1 + 3 e_2): its first failing
    # entry is at d = 1, signed, and not the largest magnitude -15 at d = 2
    pytest.param(
        DIAG, "gauss_codazzi_residuals",
        {"inputs": {"geom": _geom_plus("rbar", (0, 1, 2), Vec([0, 2, 3]))}},
        {"gauss": ((0, 1, 2, 1), -10)},
        id="diag-gauss-rbar[0][1][2]+2e1+3e2",
    ),
    # rows with a bad ambient R fed to the leaf's Gauss and Codazzi, the
    # only path where a stored plane of R is applied to frame vectors: on
    # the x leaf (sigma = 0) R(X_1, X_2) X_1 moves by 2 X_3 - Y_2, a
    # tangent and a normal part; on the diagonal leaf (sigma != 0)
    # R(X_1, Y_2) X_1 moves by X_2 - xi, which R(v_0, v_1) v_0 reads with
    # the factor c^2 d = 4
    pytest.param(
        {"kind": "x"}, "gauss_codazzi_residuals",
        {"inputs": {"R": lambda R: bump(
            R, (1, 2, 1), 2 * Vec.basis(DIM, 3) - Vec.basis(DIM, 5)
        )}},
        {"gauss": ((0, 1, 0, 2), 2), "codazzi": ((0, 1, 0), 1)},
        id="x-gauss_codazzi-R121+2X3-Y2",
    ),
    pytest.param(
        DIAG, "gauss_codazzi_residuals",
        {"inputs": {"R": lambda R: bump(
            R, (1, 5, 1), Vec.basis(DIM, 2) - Vec.basis(DIM, 0)
        )}},
        {"gauss": ((0, 1, 0, 1), 8), "codazzi": ((0, 1, 0), 4)},
        id="diag-gauss_codazzi-R151+X2-xi",
    ),
    # the space-form row of (0, 1, 2) on the x leaf, whose frame is
    # orthonormal, is -2 e_0 + 3 e_2: its first failing entry is negative
    pytest.param(
        {"kind": "x"}, "leaf_curvature_records",
        {"inputs": {"geom": _geom_plus("rbar", (0, 1, 2), Vec([-2, 0, 3]))}},
        {"leaf_space_form": ((0, 1, 2, 0), -2)},
        id="x-space_form-rbar[0][1][2]-2e0+3e2",
    ),
]


@pytest.mark.parametrize("leaf,call,corruption,failing", ROWS)
def test_fault_matrix(monkeypatch, leaf, call, corruption, failing):
    an = analysis(N, ALPHA, BETA)
    if leaf is None:
        _corrupt(monkeypatch, pipeline, call, **corruption)
        records = pipeline.analyze_structure(model(N, ALPHA, BETA)).records
    else:
        spec = submanifold.build_distribution(an.model, **leaf)
        clean = submanifold.analyze_submanifold(an, spec)[1]
        assert all(r.passed for r in clean)
        _corrupt(monkeypatch, submanifold, call, **corruption)
        records = submanifold.analyze_submanifold(an, spec)[1]
    got = {
        r.identity_id: (r.witness_indices, r.residual) for r in records if not r.passed
    }
    assert got == failing
