"""Contact metric structure, the h operator, and the identity suite.

Builds (phi, xi, eta, g) on a model, computes h as half the Lie
derivative of phi along xi, extracts (kappa, mu) from two curvature
probes and re-verifies the defining condition globally, and checks the
full set of structural identities of the class with zero residual.

The exterior derivative convention is d eta(X, Y) = -eta([X, Y])/2 on
left-invariant fields: the factor 1/2 is the unique one under which the
fundamental 2-form equals d eta on these models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .connection import (
    ConnectionTable,
    CurvatureTable,
    covariant_derivative_11,
    levi_civita,
)
from .errors import NotKappaMuError, StructureError
from .liealg import LieAlgebraModel, bracket
from .linalg import Mat, Vec, combine, dot, inner, outer, rank, rat_str
from .report import IdentityRecord, scan


@dataclass(frozen=True)
class ContactStructure:
    """phi, xi and eta with their metric; h and lambda once computed.

    ``eta`` stores covector coefficients: eta(u) = sum_i eta[i] u[i].
    ``axioms`` holds the contact metric axiom records of (phi, xi, eta,
    metric), checked once where the structure is built.
    """

    phi: Mat
    xi: Vec
    eta: Vec
    metric: Mat
    h: Mat | None = None
    lam: Fraction | None = None
    axioms: tuple = ()

    def eta_of(self, u: Vec) -> Fraction:
        return dot(self.eta, u)


@dataclass(frozen=True)
class ModelInvariants:
    kappa: Fraction
    mu: Fraction
    lam: Fraction
    boeckx_invariant: Fraction

    def to_dict(self) -> dict:
        return {
            "kappa": rat_str(self.kappa),
            "mu": rat_str(self.mu),
            "lambda": rat_str(self.lam),
            "boeckx_invariant": rat_str(self.boeckx_invariant),
        }


def d_eta(model: LieAlgebraModel, eta: Vec, u: Vec, v: Vec) -> Fraction:
    """d eta on left-invariant fields: -eta([u, v]) / 2."""
    br = bracket(model, u, v)
    return -dot(eta, br) / 2


def check_contact_axioms(
    model: LieAlgebraModel, phi: Mat, xi: Vec, eta: Vec, G: Mat
) -> list[IdentityRecord]:
    """All contact metric axioms as records; raises on any failure."""
    dim = model.dim
    records = []

    def verdict(identity_id, residuals):
        record = scan(identity_id, residuals)
        records.append(record)
        if not record.passed:
            raise StructureError(
                f"{identity_id} fails at {record.witness_indices}"
                f" with residual {rat_str(record.residual)}"
            )

    eta_xi = dot(eta, xi)
    verdict("eta_xi", [] if eta_xi == 1 else [((0,), eta_xi - 1)])

    phi_sq = phi @ phi + Mat.identity(dim) - outer(xi, eta)
    verdict("phi_square", phi_sq.nonzero_entries())

    phi_xi = phi @ xi
    verdict("phi_xi", [((k,), v) for k, v in phi_xi.nonzero_entries()])

    eta_phi = phi.transpose() @ eta
    verdict("eta_phi", [((j,), v) for j, v in eta_phi.nonzero_entries()])

    r = rank(phi)
    verdict("phi_rank", [] if r == 2 * model.n else [((r,), Fraction(r - 2 * model.n))])

    compat = phi.transpose() @ G @ phi - G + outer(eta, eta)
    verdict("metric_phi_compatibility", compat.nonzero_entries())

    bad = []
    for i in range(dim):
        for j in range(dim):
            lhs = inner(Vec.basis(dim, i), phi @ Vec.basis(dim, j), G)
            rhs = d_eta(model, eta, Vec.basis(dim, i), Vec.basis(dim, j))
            if lhs != rhs:
                bad.append(((i, j), lhs - rhs))
    verdict("contact_condition", bad)

    return records


def standard_phi(model: LieAlgebraModel) -> Mat:
    """phi with phi xi = 0, phi X_i = Y_i, phi Y_i = -X_i."""
    dim, n = model.dim, model.n
    cols = [Vec.zero(dim)]
    cols += [Vec.basis(dim, n + i) for i in range(1, n + 1)]
    cols += [-Vec.basis(dim, i) for i in range(1, n + 1)]
    return Mat.from_columns(cols)


def build_contact_structure(model: LieAlgebraModel) -> ContactStructure:
    """(phi, xi, eta, g) on the model; raises if any axiom fails.

    phi annihilates xi and rotates X_i to Y_i, Y_i to -X_i; eta is the
    metric dual of xi.
    """
    phi = standard_phi(model)
    xi = Vec.basis(model.dim, 0)
    eta = model.metric @ xi
    axioms = check_contact_axioms(model, phi, xi, eta, model.metric)
    return ContactStructure(
        phi=phi, xi=xi, eta=eta, metric=model.metric, axioms=tuple(axioms)
    )


def compute_h(
    model: LieAlgebraModel,
    cs: ContactStructure,
    conn: ConnectionTable | None = None,
) -> tuple[Mat, Fraction]:
    """h = (Lie derivative of phi along xi) / 2, plus its eigenvalue.

    On left-invariant fields h(u) = ([xi, phi u] - phi [xi, u]) / 2.
    Verifies symmetry, h xi = 0, anticommutation with phi, the exact
    eigenstructure {0, lambda^n, (-lambda)^n} on the X/Y blocks, and
    nabla xi = -phi - phi h against the connection table.
    """
    dim = model.dim
    n = model.n
    cols = []
    for j in range(dim):
        e = Vec.basis(dim, j)
        col = (bracket(model, cs.xi, cs.phi @ e) - cs.phi @ bracket(model, cs.xi, e)) * Fraction(1, 2)
        cols.append(col)
    h = Mat.from_columns(cols)

    gh = cs.metric @ h
    if not gh.is_symmetric():
        raise StructureError("h is not symmetric with respect to the metric")
    if not (h @ cs.xi).is_zero():
        raise StructureError("h xi != 0")
    if not (h @ cs.phi + cs.phi @ h).is_zero():
        raise StructureError("h phi + phi h != 0")

    lam = h[1, 1]
    for i in range(1, n + 1):
        if h.col(i) != lam * Vec.basis(dim, i):
            raise StructureError(f"h X_{i} is not lambda X_{i}")
        if h.col(n + i) != -lam * Vec.basis(dim, n + i):
            raise StructureError(f"h Y_{i} is not -lambda Y_{i}")
    if lam <= 0:
        raise StructureError(f"computed h eigenvalue {rat_str(lam)} is not positive")

    if conn is None:
        conn = levi_civita(model, metric=cs.metric)
    for i in range(dim):
        e = Vec.basis(dim, i)
        res = conn.nabla(e, cs.xi) + cs.phi @ e + cs.phi @ (h @ e)
        if not res.is_zero():
            raise StructureError(f"nabla xi = -phi - phi h fails on basis index {i}")

    return h, lam


def attach_h(model: LieAlgebraModel, cs: ContactStructure,
             conn: ConnectionTable | None = None) -> ContactStructure:
    """Convenience: return the structure with h and lambda filled in."""
    h, lam = compute_h(model, cs, conn=conn)
    return replace(cs, h=h, lam=lam)


def extract_kappa_mu(R: CurvatureTable, cs: ContactStructure) -> ModelInvariants:
    """Solve (kappa, mu) from two curvature probes, then re-verify.

    Probes: R(X_1, xi)xi = (kappa + mu lambda) X_1 and R(Y_1, xi)xi =
    (kappa - mu lambda) Y_1.  The defining condition

        R(u, v) xi = kappa (eta(v) u - eta(u) v)
                   + mu (eta(v) h u - eta(u) h v)

    is then checked for every basis pair; any nonzero residual raises
    with the witness pair.
    """
    if cs.h is None or cs.lam is None:
        raise StructureError("h has not been computed for this structure")
    dim = R.dim
    n = (dim - 1) // 2
    lam = cs.lam

    probe_x = R.apply(Vec.basis(dim, 1), cs.xi, cs.xi)
    if probe_x != probe_x[1] * Vec.basis(dim, 1):
        raise NotKappaMuError("R(X_1, xi) xi is not proportional to X_1")
    probe_y = R.apply(Vec.basis(dim, n + 1), cs.xi, cs.xi)
    if probe_y != probe_y[n + 1] * Vec.basis(dim, n + 1):
        raise NotKappaMuError("R(Y_1, xi) xi is not proportional to Y_1")

    c_plus = probe_x[1]
    c_minus = probe_y[n + 1]
    kappa = (c_plus + c_minus) / 2
    mu = (c_plus - c_minus) / (2 * lam)

    for i in range(dim):
        u = Vec.basis(dim, i)
        for j in range(dim):
            v = Vec.basis(dim, j)
            lhs = R.apply(u, v, cs.xi)
            rhs = kappa * (cs.eta_of(v) * u - cs.eta_of(u) * v) + mu * (
                cs.eta_of(v) * (cs.h @ u) - cs.eta_of(u) * (cs.h @ v)
            )
            if lhs != rhs:
                raise NotKappaMuError(
                    f"curvature condition fails on basis pair ({i}, {j})"
                )

    if lam * lam != 1 - kappa:
        raise StructureError(
            f"lambda^2 = 1 - kappa fails: lambda={rat_str(lam)}, kappa={rat_str(kappa)}"
        )
    if kappa >= 1:
        raise StructureError(f"kappa = {rat_str(kappa)} is not < 1")

    boeckx = (1 - mu / 2) / lam
    return ModelInvariants(kappa=kappa, mu=mu, lam=lam, boeckx_invariant=boeckx)


class _ClosedFormContext:
    """Per-structure tables for fast closed-form curvature sweeps."""

    def __init__(self, inv: ModelInvariants, cs: ContactStructure):
        dim = len(cs.xi)
        G, phi, h = cs.metric, cs.phi, cs.h
        self.dim = dim
        self.xi = cs.xi
        self.basis = [Vec.basis(dim, t) for t in range(dim)]
        self.hcol = [h @ e for e in self.basis]
        self.phicol = [phi @ e for e in self.basis]
        self.phihcol = [phi @ col for col in self.hcol]
        self.eta = [cs.eta[t] for t in range(dim)]
        # lowered pairings g(T e_a, e_b) as lookup tables
        self.g_id = [[inner(u, e, G) for e in self.basis] for u in self.basis]
        self.g_h = [[inner(u, e, G) for e in self.basis] for u in self.hcol]
        self.g_phi = [[inner(u, e, G) for e in self.basis] for u in self.phicol]
        self.g_phih = [[inner(u, e, G) for e in self.basis] for u in self.phihcol]
        self.one_minus_half_mu = 1 - inv.mu / 2
        self.coef_h = self.one_minus_half_mu / (1 - inv.kappa)
        self.coef_phih = (inv.kappa - inv.mu / 2) / (1 - inv.kappa)
        self.half_mu = inv.mu / 2
        self.mu = inv.mu
        self.c1 = inv.kappa - 1 + inv.mu / 2
        self.c2 = inv.mu - 1


def closed_form_curvature(
    inv: ModelInvariants,
    cs: ContactStructure,
    i: int,
    j: int,
    k: int,
    _ctx: _ClosedFormContext | None = None,
) -> Vec:
    """R(e_i, e_j) e_k from the closed-form curvature of the class.

    The formula is written in terms of g, h, phi, eta and the constants
    (kappa, mu) only, so it is an expansion fully independent of the
    connection-derived table it is compared against.
    """
    ctx = _ctx if _ctx is not None else _ClosedFormContext(inv, cs)
    dim = ctx.dim
    X, Y, Z = ctx.basis[i], ctx.basis[j], ctx.basis[k]
    hX, hY = ctx.hcol[i], ctx.hcol[j]
    phiX, phiY, phiZ = ctx.phicol[i], ctx.phicol[j], ctx.phicol[k]
    phihX, phihY = ctx.phihcol[i], ctx.phihcol[j]
    gYZ, gXZ = ctx.g_id[j][k], ctx.g_id[i][k]
    ghXZ, ghYZ = ctx.g_h[i][k], ctx.g_h[j][k]
    gphiYZ, gphiXZ = ctx.g_phi[j][k], ctx.g_phi[i][k]
    gphiXY = ctx.g_phi[i][j]
    gphihYZ, gphihXZ = ctx.g_phih[j][k], ctx.g_phih[i][k]
    eX, eY, eZ = ctx.eta[i], ctx.eta[j], ctx.eta[k]

    eXZ, eYZ = -eX * eZ, eY * eZ
    # (metric factor, constant, vector): a term costs nothing when its
    # metric factor vanishes, which it does for most index triples
    terms = (
        (gYZ, ctx.one_minus_half_mu, X),
        (-gXZ, ctx.one_minus_half_mu, Y),
        (gYZ, 1, hX),
        (-gXZ, 1, hY),
        (-ghXZ, 1, Y),
        (ghYZ, 1, X),
        (ghYZ, ctx.coef_h, hX),
        (-ghXZ, ctx.coef_h, hY),
        (-gphiYZ, ctx.half_mu, phiX),
        (gphiXZ, ctx.half_mu, phiY),
        (gphiXY, ctx.mu, phiZ),
        (gphihYZ, ctx.coef_phih, phihX),
        (-gphihXZ, ctx.coef_phih, phihY),
        # eta-tail: the unique completion antisymmetric in (X, Y) that
        # restricts to the defining curvature condition at Z = xi.
        (eXZ, ctx.c1, Y),
        (eXZ, ctx.c2, hY),
        (eYZ, ctx.c1, X),
        (eYZ, ctx.c2, hX),
    )
    out = combine(((g * c, v) for g, c, v in terms if g), dim)
    if eX or eY:
        tail = eX * (ctx.c1 * gYZ + ctx.c2 * ghYZ) - eY * (ctx.c1 * gXZ + ctx.c2 * ghXZ)
        out = out + tail * ctx.xi
    return out


def verify_identities(
    model: LieAlgebraModel,
    cs: ContactStructure,
    R: CurvatureTable,
    invariants: ModelInvariants | None = None,
    conn: ConnectionTable | None = None,
) -> list[IdentityRecord]:
    """Zero-residual check of the structural identity suite.

    Covers h^2 = (kappa - 1) phi^2, the covariant derivatives of phi and
    h, the closed-form curvature expansion against the computed table,
    and nabla xi = -phi - phi h.  ``invariants`` may be supplied
    explicitly (tests use this to inject corrupted constants and watch
    the checks fail).
    """
    if conn is None:
        conn = levi_civita(model, metric=cs.metric)
    if invariants is None:
        invariants = extract_kappa_mu(R, cs)
    dim = model.dim
    G, phi, h, xi = cs.metric, cs.phi, cs.h, cs.xi
    kappa, mu = invariants.kappa, invariants.mu
    h_square = h @ h - (kappa - 1) * (phi @ phi)

    def nabla_phi_residuals():
        for i in range(dim):
            X = Vec.basis(dim, i)
            D = covariant_derivative_11(conn, phi, X)
            for j in range(dim):
                Y = Vec.basis(dim, j)
                rhs = inner(X, Y + h @ Y, G) * xi - cs.eta_of(Y) * (X + h @ X)
                res = D @ Y - rhs
                if not res.is_zero():
                    yield (i, j), max(abs(x) for x in res)

    def nabla_h_residuals():
        for i in range(dim):
            X = Vec.basis(dim, i)
            D = covariant_derivative_11(conn, h, X)
            for j in range(dim):
                Y = Vec.basis(dim, j)
                rhs = (
                    ((1 - kappa) * inner(X, phi @ Y, G) - inner(X, phi @ (h @ Y), G))
                    * xi
                    - cs.eta_of(Y) * ((1 - kappa) * (phi @ X) + phi @ (h @ X))
                    - (mu * cs.eta_of(X)) * (phi @ (h @ Y))
                )
                res = D @ Y - rhs
                if not res.is_zero():
                    yield (i, j), max(abs(x) for x in res)

    def closed_form_residuals():
        ctx = _ClosedFormContext(invariants, cs)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    res = R.table[i][j][k] - closed_form_curvature(
                        invariants, cs, i, j, k, _ctx=ctx
                    )
                    if not res.is_zero():
                        yield (i, j, k), max(abs(x) for x in res)

    def nabla_xi_residuals():
        for i in range(dim):
            e = Vec.basis(dim, i)
            res = conn.nabla(e, xi) + phi @ e + phi @ (h @ e)
            if not res.is_zero():
                yield (i,), max(abs(x) for x in res)

    return [
        scan("h_square", h_square.nonzero_entries()),
        scan("nabla_phi", nabla_phi_residuals()),
        scan("nabla_h", nabla_h_residuals()),
        scan("curvature_closed_form", closed_form_residuals()),
        scan("nabla_xi", nabla_xi_residuals()),
    ]


def nijenhuis(model: LieAlgebraModel, cs: ContactStructure):
    """Torsion of phi plus the d eta twist, on all basis pairs.

    N(u, v) = phi^2 [u,v] + [phi u, phi v] - phi [phi u, v]
              - phi [u, phi v] + 2 d eta(u, v) xi.

    Nonzero somewhere exactly when the structure is not normal; every
    model here with kappa < 1 is non-normal.
    """
    dim = model.dim
    phi, xi = cs.phi, cs.xi
    table = []
    for i in range(dim):
        row = []
        u = Vec.basis(dim, i)
        for j in range(dim):
            v = Vec.basis(dim, j)
            val = (
                phi @ (phi @ bracket(model, u, v))
                + bracket(model, phi @ u, phi @ v)
                - phi @ bracket(model, phi @ u, v)
                - phi @ bracket(model, u, phi @ v)
                + (2 * d_eta(model, cs.eta, u, v)) * xi
            )
            row.append(val)
        table.append(tuple(row))
    return tuple(table)
