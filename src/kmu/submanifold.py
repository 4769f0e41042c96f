"""Legendrian distributions and their leaf geometry.

Every tensor in play is left-invariant, so all submanifold identities
are verified pointwise at the group identity on a spanning frame of the
distribution; that certifies them on the whole leaf.  Frames are kept
unnormalized (for the diagonal family the spanning vectors have length
sqrt(c^2 + d^2), which is irrational) and every check used is
normalization-independent.

The normal space of a Legendrian distribution D is span(xi) + phi(D);
the h operator of the ambient space splits on tangents as

    h X = h1 X + phi h2 X,

with h1 the tangential part and h2 recovered as -phi(normal part),
which is the unique left inverse because phi^2 = -Id off xi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .connection import ConnectionTable, CurvatureTable, curvature_from
from .contact import ContactStructure, ModelInvariants, standard_phi
from .errors import NonInvolutiveError, ParameterError, StructureError
from .liealg import LieAlgebraModel, bracket
from .linalg import Mat, Vec, combine, dot, inner, matsum, rat, rat_str
from .report import IdentityRecord, scan

@dataclass(frozen=True)
class DistributionSpec:
    """A rank-n Legendrian distribution given by spanning vectors.

    ``kind`` is only the report label; every check reads ``vectors``.
    """

    kind: str
    vectors: tuple

    @property
    def rank(self) -> int:
        return len(self.vectors)


# per-block (c_i, d_i) of X_i and of Y_i
_X, _Y = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))


def _mixed_blocks(n: int, params: dict) -> list:
    """X_1, Y_2, then X_i or Y_i per z_choices entry, or per k = 1 + #{X_i}."""
    if "k" in params:
        k = params["k"]
        # a bool is an int, but True is no eigenspace dimension
        if not isinstance(k, int) or isinstance(k, bool):
            raise ParameterError(f"k must be an integer, got {k!r}")
        if not 1 <= k <= n - 1:
            raise ParameterError(f"k must be in 1..{n - 1}, got {k}")
        z_choices = ("x",) * (k - 1) + ("y",) * (n - 1 - k)
    else:
        z_choices = params["z_choices"]
        try:
            z_choices = tuple(z_choices)
        except TypeError:
            pass  # not iterable: refused below
        if (
            not isinstance(z_choices, tuple)
            or len(z_choices) != n - 2
            or any(z not in ("x", "y") for z in z_choices)
        ):
            raise ParameterError(
                f"z_choices must be {n - 2} entries of 'x'/'y', got {z_choices!r}"
            )
    return [_X, _Y] + [_X if z == "x" else _Y for z in z_choices]


def _diagonal_blocks(n: int, params: dict) -> list:
    c, d = rat(params["c"]), rat(params["d"])
    if not c or not d:
        raise ParameterError("diagonal distribution requires nonzero rationals c and d")
    return [(c, d)] * n


# kind -> (report label, the key sets it accepts, per-block (c_i, d_i) rule);
# this table alone says which keys a leaf kind takes
PRESETS = {
    "x": ("x", (set(),), lambda n, params: [_X] * n),
    "y": ("y", (set(),), lambda n, params: [_Y] * n),
    "mixed": ("mixed", ({"k"}, {"z_choices"}), _mixed_blocks),
    "diagonal": ("diagonal", ({"c", "d"},), _diagonal_blocks),
}
PRESETS["diag"] = PRESETS["diagonal"]


def leaf_preset(kind, keys):
    """The label and block rule of a leaf kind, given the keys it came with.

    Raises ParameterError for an unknown kind, or for keys that are not
    exactly one of the key sets the kind accepts.
    """
    if not isinstance(kind, str) or kind not in PRESETS:
        raise ParameterError(
            f"unknown distribution kind {kind!r}; one of {tuple(PRESETS)}"
        )
    label, key_sets, blocks = PRESETS[kind]
    if set(keys) not in key_sets:
        accepted = " or ".join(str(sorted(ks)) if ks else "no keys" for ks in key_sets)
        raise ParameterError(f"kind {kind!r} takes {accepted}, got {sorted(keys)}")
    return label, blocks


def build_distribution(model: LieAlgebraModel, kind: str, **params) -> DistributionSpec:
    """Spanning vectors {c_i X_i + d_i Y_i} of one of the four example families.

    kind "x" (no keys): {X_1..X_n};  "y" (no keys): {Y_1..Y_n};
    "mixed": {X_1, Y_2, Z_3..Z_n} with each Z_i one of X_i / Y_i, given
    by exactly one of z_choices (entries "x"/"y") or the eigenspace
    dimension k = 1 + #{Z_i = X_i};
    "diagonal" or "diag" (keys c and d): {c X_i + d Y_i} for nonzero
    rationals c, d.

    The spanning set is verified Legendrian: orthogonal to xi and
    anti-invariant (pairwise phi-orthogonal).
    """
    label, blocks = leaf_preset(kind, params)
    dim = model.dim
    vectors = tuple(
        combine(
            ((c, Vec.basis(dim, model.x(i))), (d, Vec.basis(dim, model.y(i)))), dim
        )
        for i, (c, d) in enumerate(blocks(model.n, params), start=1)
    )
    spec = DistributionSpec(kind=label, vectors=vectors)
    _check_legendrian(model, spec)
    return spec


def _check_legendrian(model: LieAlgebraModel, spec: DistributionSpec):
    G = model.metric
    phi = standard_phi(model)
    if len(spec.vectors) != model.n:
        raise StructureError(
            f"expected {model.n} spanning vectors, got {len(spec.vectors)}"
        )
    for a, v in enumerate(spec.vectors):
        if inner(v, Vec.basis(model.dim, 0), G) != 0:
            raise StructureError(f"spanning vector {a} is not orthogonal to xi")
    phi_vectors = [phi @ v for v in spec.vectors]
    for a, u in enumerate(spec.vectors):
        for b, phi_v in enumerate(phi_vectors):
            if inner(u, phi_v, G) != 0:
                raise StructureError(
                    f"anti-invariance fails: g(v_{a}, phi v_{b}) != 0"
                )
    _orthogonal_gram(spec.vectors, G)


def _orthogonal_gram(vectors, metric: Mat) -> tuple:
    """The Gram table of a frame that is orthogonal with nonzero norms.

    Raises StructureError naming the first zero-length vector or
    non-orthogonal pair: every frame table is read as orthogonal.
    """
    gram = tuple(tuple(inner(u, v, metric) for v in vectors) for u in vectors)
    for a, row in enumerate(gram):
        if not row[a]:
            raise StructureError(f"spanning vector {a} has zero length")
        for b in range(a + 1, len(row)):
            if row[b]:
                raise StructureError(f"spanning vectors {a}, {b} are not orthogonal")
    return gram


class _Frame:
    """An orthogonal frame: projection onto its span, and its Gram matrix.

    The frame is refused unless it is orthogonal with nonzero norms, so
    g(w, v_d) = norms[d] * coords[d] for the frame coordinates of the
    tangential part of any w.  Every leaf scan therefore reads rows in
    frame coordinates, lowered by ``induced`` = diag(norms), instead of
    pairing ambient vectors entry by entry.
    """

    def __init__(self, vectors, metric: Mat):
        self.vectors = tuple(vectors)
        self.gram = _orthogonal_gram(self.vectors, metric)
        self.norms = tuple(self.gram[a][a] for a in range(len(self.vectors)))
        self.induced = Mat.diagonal(self.norms)
        # row a is g(., v_a) / g(v_a, v_a), so coordinates = pairing @ w;
        # span has the frame vectors as columns
        self.pairing = Mat(
            (metric @ v) * (1 / nv) for v, nv in zip(self.vectors, self.norms)
        )
        self.span = Mat.from_columns(self.vectors)

    def project(self, w: Vec) -> tuple[Vec, Vec]:
        """Frame coordinates of the tangential part of w, and the normal part."""
        if w.is_zero():
            return Vec.zero(len(self.vectors)), w
        coeffs = self.pairing @ w
        return coeffs, w - self.span @ coeffs

    def normal(self, w: Vec) -> Vec:
        return self.project(w)[1]

    def coords(self, w: Vec) -> Vec:
        """Frame coordinates of a tangent vector; raises if not tangent."""
        coeffs, off = self.project(w)
        if not off.is_zero():
            raise StructureError("vector is not tangent to the distribution")
        return coeffs


@dataclass(frozen=True)
class SubmanifoldGeometry:
    """One leaf's tables, each built once, and its classification verdict.

    In frame coordinates nbar is the ``ConnectionTable`` of nablabar on
    the induced metric, br[a][b] is [v_a, v_b] and rbar.column(a, b, c) is
    Rbar(v_a, v_b) v_c; sigma[a][b] is sigma(v_a, v_b) in the ambient
    basis.  Every check on the leaf reads these tables, never rebuilds them.
    """

    spec: DistributionSpec
    frame: _Frame
    nbar: ConnectionTable
    br: tuple
    sigma: tuple
    rbar: CurvatureTable
    mean_curvature_vector: Vec
    classification: str
    umbilical_vector: Vec | None
    h1: Mat | None = None
    h2: Mat | None = None


def second_fundamental_form(
    model: LieAlgebraModel, conn: ConnectionTable, spec: DistributionSpec
) -> SubmanifoldGeometry:
    """The leaf's tables: frame, nablabar, brackets, sigma and Rbar.

    sigma(v_a, v_b) is the normal part of nabla_{v_a} v_b and nablabar
    its tangential part.  The verdict is totally_geodesic when sigma
    vanishes, totally_umbilical when sigma(X, Y) = g(X, Y) V for the
    mean curvature vector V, otherwise generic.  Refuses non-involutive
    distributions, which bound no integral submanifold.
    """
    frame = _Frame(spec.vectors, conn.metric)
    vectors = frame.vectors
    n = spec.rank
    nb = [[None] * n for _ in range(n)]
    br = [[None] * n for _ in range(n)]
    sigma = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            br[a][b], off = frame.project(bracket(model, vectors[a], vectors[b]))
            if not off.is_zero():
                raise NonInvolutiveError(
                    f"distribution is not involutive: [v_{a}, v_{b}] leaves the span"
                )
            nb[a][b], sigma[a][b] = frame.project(conn.nabla(vectors[a], vectors[b]))
    for a in range(n):
        for b in range(a + 1, n):
            if sigma[a][b] != sigma[b][a]:
                raise StructureError(f"sigma is not symmetric at ({a}, {b})")
    br, sigma = (tuple(tuple(row) for row in t) for t in (br, sigma))
    nbar = ConnectionTable(n, frame.induced, tuple(map(Mat.from_columns, nb)))

    mean = combine(((1 / (n * frame.norms[a]), sigma[a][a]) for a in range(n)), model.dim)

    umbilical = None
    if all(sigma[a][b].is_zero() for a in range(n) for b in range(n)):
        classification = "totally_geodesic"
    elif all(sigma[a][b] == mean * frame.gram[a][b] for a in range(n) for b in range(n)):
        classification, umbilical = "totally_umbilical", mean
    else:
        classification = "generic"

    return SubmanifoldGeometry(
        spec=spec,
        frame=frame,
        nbar=nbar,
        br=br,
        sigma=sigma,
        rbar=intrinsic_curvature(nbar, br),
        mean_curvature_vector=mean,
        classification=classification,
        umbilical_vector=umbilical,
    )


def intrinsic_curvature(nbar: ConnectionTable, br: tuple) -> CurvatureTable:
    """Leaf curvature Rbar(v_a, v_b) v_c in frame coordinates.

    The curvature of nablabar with the frame brackets br, lowered by the
    induced metric.
    """
    return curvature_from(nbar.ops, br, nbar.metric)


def split_h(cs: ContactStructure, geom: SubmanifoldGeometry) -> tuple[Mat, Mat]:
    """Tangential / phi-twisted-normal components of h on the frame.

    Returns (h1, h2) as rank-n matrices in frame coordinates.  The
    normal part of h X is checked to carry no xi component before
    applying -phi to it, and h2 X is checked to be tangent.
    """
    if cs.h is None:
        raise StructureError("h has not been computed for this structure")
    frame = geom.frame
    h1_cols, h2_cols = [], []
    for a, v in enumerate(frame.vectors):
        coeffs, normal = frame.project(cs.h @ v)
        if inner(normal, cs.xi, cs.metric) != 0:
            raise StructureError(
                f"normal part of h v_{a} has a xi component; split undefined"
            )
        h1_cols.append(coeffs)
        h2_cols.append(frame.coords(-(cs.phi @ normal)))
    return Mat.from_columns(h1_cols), Mat.from_columns(h2_cols)


def verify_split_identities(
    cs: ContactStructure, geom: SubmanifoldGeometry, kappa: Fraction
) -> list[IdentityRecord]:
    """The h-decomposition identity suite on one distribution.

    Checks the defining split h X = h1 X + phi h2 X, symmetry of both
    operators, h1^2 + h2^2 = (1 - kappa) Id, commutation, and the
    sigma-h2 pairing g(sigma(X, Y), xi) + g(X, h2 Y) = 0.  Each is one
    ``matsum``: the split is the dim x n matrix h V - V h1 - (phi V) h2,
    V the frame as columns, scanned column by column; every other identity
    is an n x n matrix in frame coordinates, scanned by its nonzero entries.
    """
    frame, sigma, h1, h2 = geom.frame, geom.sigma, geom.h1, geom.h2
    V, induced = frame.span, frame.induced
    dim, n = V.shape
    split = matsum(((1, cs.h, V), (-1, V, h1), (-1, cs.phi @ V, h2)), dim, n)

    def skew(M):
        # g(M v_a, v_b) - g(v_a, M v_b): diag(norms) M has entry (a, b)
        # g(v_a, M v_b), so this is M^T diag(norms) - diag(norms) M
        return matsum(((1, M.transpose(), induced), (-1, induced, M)), n, n)

    # g(v_a, h2 v_b) = norms[a] h2[a, b] in frame coordinates, and S[a, b]
    # is the pairing g(sigma(v_a, v_b), xi) with the covector G xi
    g_xi = cs.metric @ cs.xi
    S = Mat([dot(entry, g_xi) for entry in row] for row in sigma)
    sigma_xi = matsum(((1, S), (1, induced, h2)), n, n)
    square_sum = matsum(((1, h1, h1), (1, h2, h2), (kappa - 1, Mat.identity(n))), n, n)
    commutator = matsum(((1, h1, h2), (-1, h2, h1)), n, n)
    return [
        scan("h_split", (((a,), split.col(a)) for a in range(n))),
        scan("h1_symmetric", skew(h1).nonzero_entries()),
        scan("h2_symmetric", skew(h2).nonzero_entries()),
        scan("h1_sq_plus_h2_sq", square_sum.nonzero_entries()),
        scan("h1_h2_commute", commutator.nonzero_entries()),
        scan("sigma_xi_h2", sigma_xi.nonzero_entries()),
    ]


def verify_prop32(
    conn: ConnectionTable, cs: ContactStructure, geom: SubmanifoldGeometry
) -> list[IdentityRecord]:
    """Covariant-derivative identities of the split operators.

    Verifies, on all frame pairs: the shape operator relation
    A_{phi Y} X = -phi sigma(X, Y); the normal connection relation
    nabla^perp_X phi Y = phi nablabar_X Y + g(X, Y + h1 Y) xi; and

        (nablabar_X h1) Y = -phi sigma(X, h2 Y) - h2 phi sigma(X, Y),
        (nablabar_X h2) Y =  phi sigma(X, h1 Y) + h1 phi sigma(X, Y).

    The last two are read by ``ConnectionTable.derivative_residuals`` on
    nablabar, as nabla phi and nabla h are on the ambient connection.
    """
    frame, sigma, nbar, h1, h2 = geom.frame, geom.sigma, geom.nbar, geom.h1, geom.h2
    vectors = frame.vectors
    n = len(vectors)
    G, phi = cs.metric, cs.phi
    phi_vectors = [phi @ v for v in vectors]
    # phi sigma(v_a, v_b), and as operators on frame coordinates
    phi_sigma = [[phi @ s for s in row] for row in sigma]
    phi_sigma_ops = [Mat.from_columns(map(frame.coords, row)) for row in phi_sigma]

    def shape_operator_residuals():
        inverse = Mat.diagonal([1 / nv for nv in frame.norms])
        for a in range(n):
            # with sigma(v_a, .) = 0 every term at this a is zero
            if all(s.is_zero() for s in sigma[a]):
                continue
            for b in range(n):
                # A_{phi v_b} v_a assembled from sigma through the
                # shape-operator pairing g(A v_a, v_c) = g(sigma(v_a, v_c), phi v_b)
                pairings = Vec(inner(s, phi_vectors[b], G) for s in sigma[a])
                shape = frame.span @ (inverse @ pairings)
                yield (a, b), shape + phi_sigma[a][b]

    def normal_connection_residuals():
        # in frame coordinates g(v_a, v_b + h1 v_b) = norms[a] (Id + h1)[a, b]
        P = matsum(((1, frame.induced), (1, frame.induced, h1)), n, n)
        for a in range(n):
            for b in range(n):
                lhs = frame.normal(conn.nabla(vectors[a], phi_vectors[b]))
                rhs = phi @ (frame.span @ nbar.ops[a].col(b)) + cs.xi * P[a, b]
                yield (a, b), lhs - rhs

    # each rhs(a) is an anticommutator with C = phi sigma(v_a, .):
    # -(C h2 + h2 C) for nabla_h1 and C h1 + h1 C for nabla_h2
    def nabla_h1_rhs(a):
        C = phi_sigma_ops[a]
        return (1, C, h2), (1, h2, C)

    def nabla_h2_rhs(a):
        C = phi_sigma_ops[a]
        return (-1, C, h1), (-1, h1, C)

    return [
        scan("shape_operator_phi", shape_operator_residuals()),
        scan("normal_connection_phi", normal_connection_residuals()),
        scan("nabla_h1", nbar.derivative_residuals(h1, nabla_h1_rhs)),
        scan("nabla_h2", nbar.derivative_residuals(h2, nabla_h2_rhs)),
    ]


def gauss_codazzi_residuals(
    R: CurvatureTable, conn: ConnectionTable, geom: SubmanifoldGeometry
) -> list[IdentityRecord]:
    """Ambient-vs-intrinsic curvature compatibility on all frame tuples.

    Gauss:  R(X,Y,Z,W) = Rbar(X,Y,Z,W) - g(sigma(X,W), sigma(Y,Z))
                                       + g(sigma(X,Z), sigma(Y,W)).
    Codazzi: (R(X,Y)Z)^perp = (nabla_X sigma)(Y,Z) - (nabla_Y sigma)(X,Z)
    with (nabla_X sigma)(Y,Z) = nabla^perp_X(sigma(Y,Z))
         - sigma(nablabar_X Y, Z) - sigma(Y, nablabar_X Z).

    The plane coefficients of R(v_a, v_b) are computed once per frame
    pair a < b and applied to every v_c, and R(v_a, v_b) v_c is projected
    once per visited triple: Codazzi reads its normal part, and Gauss its
    frame coordinates.  The frame is orthogonal, so R(v_a, v_b, v_c, v_d)
    = norms[d] coords[d], and the Gauss residuals of all d at once are the
    row diag(norms) (coords - Rbar[a][b][c]) plus the sigma pairings,
    which are added only on a leaf with sigma != 0.  Each row's nonzero
    entries go to ``scan`` at their full witness (a, b, c, d).
    """
    frame, sigma, nb_ops = geom.frame, geom.sigma, geom.nbar.ops
    vectors = frame.vectors
    n = len(vectors)
    G = conn.metric
    # both equations are antisymmetric in (a, b), as R and Rbar are by
    # construction, so a < b alone finds the first failures of the full
    # index order
    triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(n)]
    # R(v_a, v_b) v_c projected onto the frame, and (nabla_{v_a} sigma)(v_b,
    # v_c), each built once; sigma is symmetric, so row c of sigma is
    # sigma(., v_c).  Codazzi reads nabla sigma only at a != b, and not at
    # all when sigma vanishes (a totally geodesic leaf).
    projected = {}
    for a in range(n):
        for b in range(a + 1, n):
            coeffs = R.pair_coefficients(vectors[a], vectors[b])
            for c in range(n):
                projected[a, b, c] = frame.project(R.plane_sum(coeffs, vectors[c]))
    nabla_sigma, sigma_pairs = {}, {}
    if not all(entry.is_zero() for row in sigma for entry in row):
        sigma_ops = [Mat.from_columns(row) for row in sigma]
        nabla_sigma = {
            (a, b, c): frame.normal(conn.nabla(vectors[a], sigma[b][c]))
            - sigma_ops[c] @ nb_ops[a].col(b)
            - sigma_ops[b] @ nb_ops[a].col(c)
            for a in range(n)
            for b in range(n)
            if a != b
            for c in range(n)
        }
        # sigma_pairs[b, c, a][d] = g(sigma(v_a, v_d), sigma(v_b, v_c)): the
        # rows of sigma(v_a, .) against sigma(v_b, v_c) lowered by the metric
        rows = [Mat(sigma[a]) for a in range(n)]
        lowered = [[G @ entry for entry in row] for row in sigma]
        sigma_pairs = {
            (b, c, a): rows[a] @ lowered[b][c]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        }

    def gauss_residuals():
        for a, b, c in triples:
            row = frame.induced @ (projected[a, b, c][0] - geom.rbar.column(a, b, c))
            if sigma_pairs:
                row = row + sigma_pairs[b, c, a] - sigma_pairs[a, c, b]
            yield from (((a, b, c, d), x) for d, x in row.nonzero_entries())

    def codazzi_residuals():
        for a, b, c in triples:
            normal = projected[a, b, c][1]
            if nabla_sigma:
                normal = normal - (nabla_sigma[a, b, c] - nabla_sigma[b, a, c])
            yield (a, b, c), normal

    return [scan("gauss", gauss_residuals()), scan("codazzi", codazzi_residuals())]


def eigen_split(cs: ContactStructure, spec: DistributionSpec):
    """(indices in E(lambda), indices in E(-lambda)) of the frame, else None.

    None is returned for frames that are not h-eigenvector frames (the
    diagonal family).
    """
    plus, minus = [], []
    for a, v in enumerate(spec.vectors):
        hv = cs.h @ v
        if hv == cs.lam * v:
            plus.append(a)
        elif hv == -cs.lam * v:
            minus.append(a)
        else:
            return None
    return plus, minus


def leaf_curvature_records(
    geom: SubmanifoldGeometry, cs: ContactStructure, inv: ModelInvariants, split
) -> tuple[list[IdentityRecord], dict]:
    """Constant-curvature verdicts for the leaf.

    Totally geodesic leaves: sectional curvature is 2 lambda (I + 1) on
    planes inside E(lambda), 2 lambda (I - 1) on planes inside
    E(-lambda), 0 on mixed planes.  Totally umbilical leaves are space
    forms of curvature 2 (1 - mu/2 + lambda sin theta) < 0, with theta
    read off the leaf: the umbilical vector V has g(V, xi) =
    -lambda cos theta, and g(h v, v) = lambda sin theta g(v, v) on the
    first frame vector v.  ``split`` is the frame's ``eigen_split``.
    Returns the records plus a summary dict with the constants found.
    """
    frame, rbar = geom.frame, geom.rbar
    norms = frame.norms
    n = len(norms)
    records = []
    summary: dict = {}

    def space_form_residuals(K):
        # Rbar(v_a, v_b, v_c, v_d) - K (g_ad g_bc - g_ac g_bd), all d at
        # once: the row diag(norms) Rbar(v_a, v_b) v_c, less the K-term,
        # which on an orthogonal frame lives only at d = a when c = b and
        # at d = b when c = a.  Both are antisymmetric in (a, b), so a < b
        # alone finds the first failure of the full index order
        for a in range(n):
            for b in range(a + 1, n):
                k_ab = K * norms[a] * norms[b]
                k_term = {b: k_ab * Vec.basis(n, a), a: -k_ab * Vec.basis(n, b)}
                for c in range(n):
                    row = frame.induced @ rbar.column(a, b, c)
                    if c in k_term:
                        row = row - k_term[c]
                    yield from (((a, b, c, d), x) for d, x in row.nonzero_entries())

    if geom.classification == "totally_geodesic":
        if split is None:
            return records, summary
        plus_idx, minus_idx = split
        k_plus, k_minus = len(plus_idx), len(minus_idx)
        summary["e_lambda_dim"] = k_plus
        summary["e_minus_lambda_dim"] = k_minus
        K_plus = 2 * inv.lam * (inv.boeckx_invariant + 1)
        K_minus = 2 * inv.lam * (inv.boeckx_invariant - 1)

        def block_gen(indices, K):
            for ia, a in enumerate(indices):
                for b in indices[ia + 1 :]:
                    yield (a, b), rbar.sectional(a, b) - K

        if k_plus >= 2:
            records.append(scan("leaf_curvature_e_lambda", block_gen(plus_idx, K_plus)))
            summary["e_lambda_curvature"] = rat_str(K_plus)
        if k_minus >= 2:
            records.append(
                scan("leaf_curvature_e_minus_lambda", block_gen(minus_idx, K_minus))
            )
            summary["e_minus_lambda_curvature"] = rat_str(K_minus)

        if plus_idx and minus_idx:
            records.append(scan("leaf_curvature_mixed_planes", (
                ((a, b), rbar.sectional(a, b)) for a in plus_idx for b in minus_idx
            )))
        if not (plus_idx and minus_idx):
            # pure eigenleaf: a genuine space form
            K = K_plus if plus_idx else K_minus
            records.append(scan("leaf_space_form", space_form_residuals(K)))
            summary["leaf_curvature"] = rat_str(K)
    elif geom.classification == "totally_umbilical":
        v = geom.frame.vectors[0]
        sin_theta = inner(cs.h @ v, v, cs.metric) / (inv.lam * geom.frame.norms[0])
        cos_theta = -inner(geom.umbilical_vector, cs.xi, cs.metric) / inv.lam
        K = 2 * (1 - inv.mu / 2 + inv.lam * sin_theta)
        records.append(scan("leaf_space_form", space_form_residuals(K)))
        records.append(scan("leaf_curvature_negative", [(None, K)] if K >= 0 else []))
        summary["leaf_curvature"] = rat_str(K)
        summary["theta"] = {"sin": rat_str(sin_theta), "cos": rat_str(cos_theta)}

    return records, summary


def analyze_submanifold(
    model: LieAlgebraModel,
    conn: ConnectionTable,
    R: CurvatureTable,
    cs: ContactStructure,
    inv: ModelInvariants,
    leaf: DistributionSpec,
) -> tuple[SubmanifoldGeometry, list[IdentityRecord], dict]:
    """Full verification pipeline for one distribution.

    Every check and summary entry reads the spanning vectors and the
    tables built from them; ``leaf.kind`` is only the report label.
    Returns the completed geometry (sigma, classification, h1/h2), the
    concatenated identity records, and a summary dict for reports.
    """
    geom = second_fundamental_form(model, conn, leaf)
    h1, h2 = split_h(cs, geom)
    geom = replace(geom, h1=h1, h2=h2)

    records = verify_split_identities(cs, geom, inv.kappa)
    records += verify_prop32(conn, cs, geom)
    records += gauss_codazzi_residuals(R, conn, geom)
    split = eigen_split(cs, leaf)
    leaf_records, summary = leaf_curvature_records(geom, cs, inv, split)
    records += leaf_records

    n = leaf.rank
    summary["kind"] = leaf.kind
    summary["involutive"] = True
    summary["classification"] = geom.classification
    summary["V"] = (
        [rat_str(x) for x in geom.umbilical_vector]
        if geom.umbilical_vector is not None
        else None
    )
    summary.setdefault("leaf_curvature", None)
    summary.setdefault("theta", None)

    def scalar_multiple_of_identity(M):
        s = M[0, 0]
        return s if M == s * Mat.identity(n) else None

    s1 = scalar_multiple_of_identity(h1)
    s2 = scalar_multiple_of_identity(h2)
    summary["h1_eigenvalue"] = rat_str(s1) if s1 is not None else None
    summary["h2_eigenvalue"] = rat_str(s2) if s2 is not None else None
    if split is not None:
        summary.setdefault("e_lambda_dim", len(split[0]))
        summary.setdefault("e_minus_lambda_dim", len(split[1]))
    return geom, records, summary
