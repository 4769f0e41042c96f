"""Contact metric structure, the h operator, and the identity suite.

Builds (phi, xi, eta, g) on a model, computes h as half the Lie
derivative of phi along xi, extracts (kappa, mu) from two curvature
probes and re-verifies the defining condition globally, and checks the
full set of structural identities of the class with zero residual.

The closed-form curvature of the class is checked one plane R(e_i, e_j)
at a time: ``ClosedFormRows`` reads a few covector rows off the
structure's pairings once, and ``closed_form_plane`` sums them as
rank-one terms, row by row over their supports, into the matrix whose
column k is R(e_i, e_j) e_k.

The exterior derivative convention is d eta(X, Y) = -eta([X, Y])/2 on
left-invariant fields: the factor 1/2 is the unique one under which the
fundamental 2-form equals d eta on these models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .connection import ConnectionTable, CurvatureTable
from .errors import NotKappaMuError, StructureError
from .liealg import LieAlgebraModel, bracket
from .linalg import Mat, Vec, combine, dot, matsum, outer, rank, rat_str
from .report import IdentityRecord, column_residuals, scan


@dataclass(frozen=True)
class ContactStructure:
    """phi, xi and eta with their metric; h and lambda once computed.

    ``eta`` stores covector coefficients: eta(u) = sum_i eta[i] u[i].
    The structure holds its tensors only: the contact metric axioms are
    checked by ``analyze_structure`` on every structure it analyses.
    """

    phi: Mat
    xi: Vec
    eta: Vec
    metric: Mat
    h: Mat | None = None
    lam: Fraction | None = None

    @cached_property
    def tables(self) -> StructureTables:
        """The structure's columns and pairings, built on first read."""
        if self.h is None:
            raise StructureError("h has not been computed for this structure")
        return StructureTables(self)


class StructureTables:
    """The products of one structure with h, built once.

    phih is the operator phi h.  The pairings are matrices: g_h[a, b],
    g_phi[a, b] and g_phih[a, b] are g(h e_a, e_b), g(phi e_a, e_b) and
    g(phi h e_a, e_b), so row a is the covector g(u, .) of one vector u;
    the pairing of an operator T is the product T^T G.  The metric itself
    is ``cs.metric``, and a column T e_t is ``T.col(t)``, which ``Mat``
    caches.
    """

    def __init__(self, cs: ContactStructure):
        self.phih = cs.phi @ cs.h
        G = cs.metric
        self.g_h, self.g_phi, self.g_phih = (
            T.transpose() @ G for T in (cs.h, cs.phi, self.phih)
        )


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

    verdict("eta_xi", [((0,), dot(eta, xi) - 1)])

    phi_sq = phi @ phi + Mat.identity(dim) - outer(xi, eta)
    verdict("phi_square", phi_sq.nonzero_entries())

    phi_xi = phi @ xi
    verdict("phi_xi", [((k,), v) for k, v in phi_xi.nonzero_entries()])

    eta_phi = phi.transpose() @ eta
    verdict("eta_phi", [((j,), v) for j, v in eta_phi.nonzero_entries()])

    r = rank(phi)
    verdict("phi_rank", [((r,), Fraction(r - 2 * model.n))])

    compat = phi.transpose() @ G @ phi - G + outer(eta, eta)
    verdict("metric_phi_compatibility", compat.nonzero_entries())

    # g(e_i, phi e_j) - d eta(e_i, e_j) = (G phi)[i, j] + eta([e_i, e_j]) / 2,
    # with eta of each bracket read off the structure constants
    eta_brackets = Mat([[dot(c_ij, eta) for c_ij in row] for row in model.structure])
    contact = matsum(((1, G, phi), (Fraction(1, 2), eta_brackets)), dim, dim)
    verdict("contact_condition", contact.nonzero_entries())

    return records


def standard_phi(model: LieAlgebraModel) -> Mat:
    """phi with phi xi = 0, phi X_i = Y_i, phi Y_i = -X_i."""
    dim, n = model.dim, model.n
    cols = [Vec.zero(dim)]
    cols += [Vec.basis(dim, n + i) for i in range(1, n + 1)]
    cols += [-Vec.basis(dim, i) for i in range(1, n + 1)]
    return Mat.from_columns(cols)


def build_contact_structure(model: LieAlgebraModel) -> ContactStructure:
    """(phi, xi, eta, g) on the model, with h not yet computed.

    phi annihilates xi and rotates X_i to Y_i, Y_i to -X_i; eta is the
    metric dual of xi.  Only the tensors are built: ``analyze_structure``
    checks the contact metric axioms.
    """
    phi = standard_phi(model)
    xi = Vec.basis(model.dim, 0)
    return ContactStructure(phi=phi, xi=xi, eta=model.metric @ xi, metric=model.metric)


def attach_h(model: LieAlgebraModel, cs: ContactStructure) -> ContactStructure:
    """The structure with h = (Lie derivative of phi along xi) / 2 and lambda.

    On left-invariant fields h(u) = ([xi, phi u] - phi [xi, u]) / 2, so
    h = [ad_xi, phi] / 2 with ad_xi = [xi, .], and lambda is read off
    h X_1.  Raises only if lambda is not positive; the structure of h is
    checked by ``verify_structure``.
    """
    dim, half = model.dim, Fraction(1, 2)
    ad_xi = Mat.from_columns(bracket(model, cs.xi, Vec.basis(dim, j)) for j in range(dim))
    h = matsum(((half, ad_xi, cs.phi), (-half, cs.phi, ad_xi)), dim, dim)
    lam = h[1, 1]
    if lam <= 0:
        raise StructureError(f"computed h eigenvalue {rat_str(lam)} is not positive")
    return replace(cs, h=h, lam=lam)


def extract_kappa_mu(R: CurvatureTable, cs: ContactStructure) -> ModelInvariants:
    """Solve (kappa, mu) from two curvature probes.

    Probes: R(X_1, xi)xi = (kappa + mu lambda) X_1 and R(Y_1, xi)xi =
    (kappa - mu lambda) Y_1.  Raises only where a value cannot be read:
    a probe that is not proportional, or kappa >= 1.  The condition on
    every basis pair is checked by ``verify_structure``.
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
    if kappa >= 1:
        raise StructureError(f"kappa = {rat_str(kappa)} is not < 1")

    boeckx = (1 - mu / 2) / lam
    return ModelInvariants(kappa=kappa, mu=mu, lam=lam, boeckx_invariant=boeckx)


def verify_structure(
    cs: ContactStructure, R: CurvatureTable, inv: ModelInvariants
) -> list[IdentityRecord]:
    """The h_structure, kappa_mu_condition and lambda_kappa_identity records.

    h_structure: h is g-symmetric, h xi = 0, h phi + phi h = 0, and
    h X_i = lambda X_i, h Y_i = -lambda Y_i.  kappa_mu_condition, on
    every basis pair:

        R(u, v) xi = kappa (eta(v) u - eta(u) v)
                   + mu (eta(v) h u - eta(u) h v).

    lambda_kappa_identity: lambda^2 = 1 - kappa.  The condition's right-hand
    side at (u, v) = (e_i, e_j) is one ``combine`` over the terms where eta
    is nonzero, so a pair away from xi compares R(e_i, e_j) xi with zero.
    """
    t = cs.tables
    dim = len(cs.xi)
    n = (dim - 1) // 2
    h, lam = cs.h, cs.lam
    kappa, mu = inv.kappa, inv.mu

    def h_residuals():
        # g(e_a, h e_b) - g(h e_a, e_b) is entry (a, b) of g_h^T - g_h; it
        # is antisymmetric, so its first nonzero entry has a < b
        g_h = t.g_h
        yield from matsum(((1, g_h.transpose()), (-1, g_h)), dim, dim).nonzero_entries()
        yield from (((k,), x) for k, x in (h @ cs.xi).nonzero_entries())
        yield from matsum(((1, h, cs.phi), (1, cs.phi, h)), dim, dim).nonzero_entries()
        for s in range(1, dim):
            col = h.col(s) - (lam if s <= n else -lam) * Vec.basis(dim, s)
            yield from (((k, s), x) for k, x in col.nonzero_entries())

    def kappa_mu_residuals():
        # the rhs at (i, j) is eta(e_j) K e_i - eta(e_i) K e_j, K = kappa Id +
        # mu h; both sides are antisymmetric in (i, j), so i < j alone finds
        # the first failure of the full index order
        K = matsum(((kappa, Mat.identity(dim)), (mu, h)), dim, dim)
        eta = dict(cs.eta.nonzero_entries())
        for i in range(dim):
            for j in range(i + 1, dim):
                terms = []
                if j in eta:
                    terms.append((eta[j], K.col(i)))
                if i in eta:
                    terms.append((-eta[i], K.col(j)))
                yield (i, j), R.planes[i, j] @ cs.xi - combine(terms, dim)

    return [
        scan("h_structure", h_residuals()),
        scan("kappa_mu_condition", kappa_mu_residuals()),
        scan("lambda_kappa_identity", [(None, lam * lam - (1 - kappa))]),
    ]


class ClosedFormRows:
    """The covector rows of the closed-form curvature of the class.

    With (kappa, mu) of the invariants, the closed form of R(e_i, e_j) e_k,
    grouped by the vector each term carries, is

        W1[j][k] e_i - W1[i][k] e_j + W2[j][k] h e_i - W2[i][k] h e_j
        - P[j][k] phi e_i + P[i][k] phi e_j + mu g(phi e_i, e_j) phi e_k
        + Q[j][k] phi h e_i - Q[i][k] phi h e_j
        + (eta(e_i) T[j][k] - eta(e_j) T[i][k]) xi

    over the rows, each a covector with a few nonzero entries,

        W1[a] = (1 - mu/2) g(e_a, .) + g(h e_a, .) + c1 eta(e_a) eta
        W2[a] = g(e_a, .) + coef_h g(h e_a, .) + c2 eta(e_a) eta
        P[a] = (mu/2) g(phi e_a, .)
        Q[a] = coef_phih g(phi h e_a, .)
        T[a] = c1 g(e_a, .) + c2 g(h e_a, .),

    with coef_h = (1 - mu/2) / (1 - kappa), coef_phih = (kappa - mu/2) /
    (1 - kappa), c1 = kappa - 1 + mu/2 and c2 = mu - 1.  The eta(e_a) eta
    parts of W1 and W2 and the xi term form the eta tail: the unique
    completion antisymmetric in (e_i, e_j) that restricts to the defining
    curvature condition at e_k = xi.  The constants, the rows and the
    columns e_t, h e_t, phi e_t and phi h e_t of the vector families are
    built once; ``closed_form_plane`` sums them into one plane at a time.
    """

    def __init__(self, inv: ModelInvariants, cs: ContactStructure):
        t = cs.tables
        dim = self.dim = len(cs.xi)
        kappa, mu = inv.kappa, inv.mu
        half_mu = mu / 2
        one_minus_half_mu = 1 - half_mu
        coef_h = one_minus_half_mu / (1 - kappa)
        coef_phih = (kappa - half_mu) / (1 - kappa)
        c1, c2 = kappa - 1 + half_mu, mu - 1
        G, g_h, g_phi = cs.metric, t.g_h, t.g_phi
        eta_eta = outer(cs.eta, cs.eta)

        def rows(*terms):
            # row a of the sum, as the columns of its transpose
            sums = matsum(terms, dim, dim).transpose()
            return tuple(sums.col(a) for a in range(dim))

        def negated(ws):
            return tuple(-w for w in ws)

        W1 = rows((one_minus_half_mu, G), (1, g_h), (c1, eta_eta))
        W2 = rows((1, G), (coef_h, g_h), (c2, eta_eta))
        P = rows((half_mu, g_phi))
        Q = rows((coef_phih, t.g_phih))
        T = rows((c1, G), (c2, g_h))
        # (U, W, -W) per vector family: the plane (i, j) sums the rank-one
        # terms U[i] W[j]^T and U[j] (-W[i])^T of every family
        basis = tuple(Vec.basis(dim, a) for a in range(dim))
        hcol, phicol, phihcol = (
            tuple(map(op.col, range(dim))) for op in (cs.h, cs.phi, t.phih)
        )
        self.families = (
            (basis, W1, negated(W1)),
            (hcol, W2, negated(W2)),
            (phicol, negated(P), P),
            (phihcol, Q, negated(Q)),
            (tuple(cs.xi * e for e in cs.eta), T, negated(T)),
        )
        self.mu, self.g_phi = mu, g_phi
        phi_t = cs.phi.transpose()  # column r is row r of phi
        self.phi_rows = tuple(
            (r, w) for r, w in enumerate(map(phi_t.col, range(dim))) if not w.is_zero()
        )
        self.zero = Vec.zero(dim)


def closed_form_plane(rows: ClosedFormRows, i: int, j: int) -> Mat:
    """R(e_i, e_j) by the closed-form curvature: column k is R(e_i, e_j) e_k.

    The expansion (see ``ClosedFormRows``) reads g, h, phi, eta and the
    constants (kappa, mu) only, so it is fully independent of the
    connection-derived table it is compared against.  Row r of the plane
    accumulates u[r] w over the rank-one terms u w^T whose vector u is
    nonzero at r, as Gustavson's row-wise product does; a unit entry of
    u, as every entry of a basis vector is, scales w with no multiply.
    The rows go into the ``Mat`` as they are, to be compared row by row.
    """
    terms = {}
    for U, W, negated_W in rows.families:
        for u, w in ((U[i], W[j]), (U[j], negated_W[i])):
            if not w.is_zero():
                for r, x in u.nonzero_entries():
                    terms.setdefault(r, []).append((x, w))
    g = rows.g_phi[i, j]
    if g and rows.mu:
        c = rows.mu * g
        for r, w in rows.phi_rows:
            terms.setdefault(r, []).append((c, w))
    dim, zero = rows.dim, rows.zero
    return Mat._raw(tuple(combine(terms[r], dim) if r in terms else zero for r in range(dim)))


def verify_identities(
    model: LieAlgebraModel,
    cs: ContactStructure,
    R: CurvatureTable,
    invariants: ModelInvariants,
    conn: ConnectionTable,
) -> list[IdentityRecord]:
    """Zero-residual check of the structural identity suite.

    Covers h^2 = (kappa - 1) phi^2, the covariant derivatives of phi and
    h, the closed-form curvature expansion against the computed table,
    and nabla xi = -phi - phi h.  Tests pass corrupted ``invariants``
    to watch the checks fail.

    The closed form, nabla phi and nabla h compare whole planes or
    operators first: an equal plane or a zero operator is covered by that
    one comparison and yields nothing, and only the difference of one that
    differs is walked column by column by ``column_residuals``, in the
    order of a full walk.  nabla phi and nabla h are read by
    ``ConnectionTable.derivative_residuals``, as the leaf's nabla_h1 and
    nabla_h2 are.
    """
    t = cs.tables
    dim = model.dim
    phi, h, xi = cs.phi, cs.h, cs.xi
    kappa, mu = invariants.kappa, invariants.mu
    h_square = matsum(((1, h, h), (1 - kappa, phi, phi)), dim, dim)

    # Each right-hand side is one matrix whose column j is the identity at
    # Y = e_j; column i of phi_w and h_w is its xi coefficient at X = e_i.
    one_minus_kappa = 1 - kappa
    phi_w = cs.metric.transpose() + t.g_h
    h_w = matsum(((one_minus_kappa, t.g_phi), (-1, t.g_phih)), dim, dim)

    def nabla_phi_rhs(i):
        # minus g(X, Y + h Y) xi - eta(Y) (X + h X), at X = e_i
        return (
            (-1, outer(xi, phi_w.col(i))),
            (1, outer(Vec.basis(dim, i) + h.col(i), cs.eta)),
        )

    def nabla_h_rhs(i):
        # minus g((1 - kappa) phi Y - phi h Y, X) xi
        # - eta(Y) ((1 - kappa) phi X + phi h X) - mu eta(X) phi h Y, at X = e_i
        eta_factor = one_minus_kappa * phi.col(i) + t.phih.col(i)
        return (
            (-1, outer(xi, h_w.col(i))),
            (1, outer(eta_factor, cs.eta)),
            (mu * cs.eta[i] if cs.eta[i] else 0, t.phih),
        )

    def closed_form_differences():
        # both sides are antisymmetric in (i, j): R by construction, and
        # the closed form because g(phi ., .) is skew under the contact
        # axioms analyze_structure checks; so i < j alone finds the first
        # failure of the full index order.  An equal plane is covered by
        # one Mat equality and never subtracted.
        rows = ClosedFormRows(invariants, cs)
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs, rhs = R.planes[i, j], closed_form_plane(rows, i, j)
                if lhs != rhs:
                    yield (i, j), lhs - rhs

    def nabla_xi_residuals():
        for i in range(dim):
            yield (i,), conn.nabla(Vec.basis(dim, i), xi) + phi.col(i) + t.phih.col(i)

    return [
        scan("h_square", h_square.nonzero_entries()),
        scan("nabla_phi", conn.derivative_residuals(phi, nabla_phi_rhs)),
        scan("nabla_h", conn.derivative_residuals(h, nabla_h_rhs)),
        scan("curvature_closed_form", column_residuals(closed_form_differences())),
        scan("nabla_xi", nabla_xi_residuals()),
    ]
