"""End-to-end verification pipelines reused by the CLI and the tests.

``analyze_structure`` starts from the model's cached ``jacobi`` record
and drives contact axioms -> connection -> curvature -> h -> invariant
extraction -> identity suite for either the native structure of a model
or a deformed one, and returns every record produced along the way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connection import (
    ConnectionTable,
    CurvatureTable,
    curvature_symmetry_residuals,
    gram_determinant,
    levi_civita,
    metric_compatibility_residuals,
    riemann,
    torsion_residuals,
)
from .contact import (
    ContactStructure,
    ModelInvariants,
    attach_h,
    build_contact_structure,
    check_contact_axioms,
    extract_kappa_mu,
    verify_identities,
    verify_structure,
)
from .liealg import LieAlgebraModel
from .report import IdentityRecord, scan


@dataclass(frozen=True)
class StructureAnalysis:
    model: LieAlgebraModel
    cs: ContactStructure
    conn: ConnectionTable
    curvature: CurvatureTable
    invariants: ModelInvariants
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def sectional_records(
    model: LieAlgebraModel,
    R: CurvatureTable,
    cs: ContactStructure,
    inv: ModelInvariants,
) -> list[IdentityRecord]:
    """Sectional curvature of every eigenbasis plane vs closed forms.

    Planes inside E(lambda) have curvature 2(1 + lambda) - mu, planes
    inside E(-lambda) have 2(1 - lambda) - mu, and mixed planes have
    -(kappa + mu) g(X, phi Y)^2.  Each K(e_i, e_j) is read off the stored
    plane by ``CurvatureTable.sectional``.
    """
    n, dim = model.n, model.dim
    G, g_phi = cs.metric, cs.tables.g_phi
    k_plus = 2 * (1 + inv.lam) - inv.mu
    k_minus = 2 * (1 - inv.lam) - inv.mu

    def residuals():
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                yield (i, j), R.sectional(i, j) - k_plus
                yield (n + i, n + j), R.sectional(n + i, n + j) - k_minus
        for i in range(1, n + 1):
            for j in range(n + 1, dim):
                K = R.sectional(i, j)
                g_i_phi_j = g_phi[j, i]  # g(e_i, phi e_j)
                if not g_i_phi_j:
                    yield (i, j), K
                    continue
                # the closed form is stated for unit vectors; normalize by
                # the Gram determinant so non-unit frames are handled too
                gram = gram_determinant(G[i, i], G[j, j], G[i, j])
                expected = -(inv.kappa + inv.mu) * g_i_phi_j ** 2 / gram
                yield (i, j), K - expected

    return [scan("sectional_curvature", residuals())]


def analyze_structure(
    model: LieAlgebraModel, cs: ContactStructure | None = None
) -> StructureAnalysis:
    """Run the whole verification stack for one structure.

    With ``cs=None`` the native contact structure is built; passing a
    deformed structure re-derives the connection, curvature, h and
    invariants with respect to its metric.  Either way the contact metric
    axioms are checked here, once, on the structure analysed, and a
    failure raises ``StructureError``.
    """
    records = [model.jacobi]

    if cs is None:
        cs = build_contact_structure(model)
    records += check_contact_axioms(model, cs.phi, cs.xi, cs.eta, cs.metric)

    conn = levi_civita(model, metric=cs.metric)
    records.append(scan("torsion_free", torsion_residuals(model, conn)))
    records.append(scan("metric_compatibility", metric_compatibility_residuals(conn)))

    R = riemann(model, conn)
    records.append(scan("curvature_symmetries", curvature_symmetry_residuals(R)))

    cs = attach_h(model, cs)
    inv = extract_kappa_mu(R, cs)
    records += verify_structure(cs, R, inv)
    records += verify_identities(model, cs, R, invariants=inv, conn=conn)
    records += sectional_records(model, R, cs, inv)

    return StructureAnalysis(
        model=model,
        cs=cs,
        conn=conn,
        curvature=R,
        invariants=inv,
        records=tuple(records),
    )
