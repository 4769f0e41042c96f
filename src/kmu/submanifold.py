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

from dataclasses import dataclass
from fractions import Fraction

from .connection import ConnectionTable, CurvatureTable, curvature_from
from .contact import ContactStructure, ModelInvariants
from .errors import NonInvolutiveError, ParameterError, StructureError
from .liealg import LieAlgebraModel, bracket
from .linalg import Mat, Vec, combine, inner, matsum, outer, rat, rat_str
from .pipeline import StructureAnalysis
from .report import IdentityRecord, column_residuals, entry_residuals, scan

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

    Only the parameters are checked here; ``second_fundamental_form``
    checks the spanning set Legendrian where it builds the leaf, as it
    does for every spanning set.
    """
    label, blocks = leaf_preset(kind, params)
    dim = model.dim
    vectors = tuple(
        combine(
            ((c, Vec.basis(dim, model.x(i))), (d, Vec.basis(dim, model.y(i)))), dim
        )
        for i, (c, d) in enumerate(blocks(model.n, params), start=1)
    )
    return DistributionSpec(kind=label, vectors=vectors)


class _Frame:
    """An orthogonal frame: projection onto its span, and its norms.

    The frame is refused unless it is orthogonal with nonzero norms,
    naming the first zero-length vector or non-orthogonal pair of its
    Gram matrix, so g(w, v_d) = norms[d] * coords[d] for the frame
    coordinates of the tangential part of any w.  Every leaf scan
    therefore reads rows in frame coordinates, lowered by ``induced`` =
    diag(norms), instead of pairing ambient vectors entry by entry.
    ``project`` is the one tangent/normal split of the leaf checks.
    """

    def __init__(self, vectors, metric: Mat):
        self.vectors = tuple(vectors)
        # row a of lowering is g(., v_a), and of pairing g(., v_a) / g(v_a,
        # v_a), so coordinates = pairing @ w; span has the frame vectors as
        # columns, and perp = Id - span pairing takes the normal part
        rows = [metric @ v for v in self.vectors]
        self.lowering, self.span = Mat(rows), Mat.from_columns(self.vectors)
        gram, n = self.lowering @ self.span, len(rows)
        for a in range(n):
            if not gram[a, a]:
                raise StructureError(f"spanning vector {a} has zero length")
            for b in range(a + 1, n):
                if gram[a, b]:
                    raise StructureError(f"spanning vectors {a}, {b} are not orthogonal")
        self.norms = tuple(gram[a, a] for a in range(n))
        self.induced = Mat.diagonal(self.norms)
        self.pairing = Mat(row * (1 / nv) for row, nv in zip(rows, self.norms))
        dim = metric.shape[0]
        self.perp = matsum(((1, Mat.identity(dim)), (-1, self.span, self.pairing)), dim, dim)

    def project(self, w):
        """Frame coordinates of the tangential part of a Vec or Mat w, and the normal part."""
        return self.pairing @ w, self.perp @ w

    def coords(self, w):
        """Frame coordinates of a tangent Vec or Mat; raises if not tangent."""
        coeffs, off = self.project(w)
        if not off.is_zero():
            raise StructureError("vector is not tangent to the distribution")
        return coeffs


@dataclass(frozen=True)
class SubmanifoldGeometry:
    """One leaf's tables, each built once, and its classification verdict.

    In frame coordinates nbar is the ``ConnectionTable`` of nablabar on
    the induced metric, br[a][b] is [v_a, v_b] (bracketed for a < b; the
    b > a half is its negation and the diagonal zero, and
    ``curvature_from`` reads only a < b), rbar.column(a, b, c) is
    Rbar(v_a, v_b) v_c, and h1, h2 are the split of h; sigma[a] is the
    dim x n matrix whose column b is sigma(v_a, v_b) in the ambient basis.
    Every check on the leaf reads these tables, never rebuilds them.
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
    h1: Mat
    h2: Mat


def second_fundamental_form(
    analysis: StructureAnalysis, spec: DistributionSpec
) -> SubmanifoldGeometry:
    """The one constructor of a leaf: every table, checked, and its verdict.

    In order: the count of spanning vectors, which must be n; the frame
    (refused unless orthogonal with nonzero norms); the brackets of the
    n(n-1)/2 pairs a < b, refused if one leaves the span, as a
    non-involutive distribution bounds no integral submanifold, with
    br[b][a] = -br[a][b] and a zero diagonal filled in (``curvature_from``
    reads the a < b half); nabla_{v_a} V for V the frame as
    columns, projected to its frame coordinates nablabar_{v_a} and its
    normal part Sigma_a, column b sigma(v_a, v_b); the Legendrian check;
    the split of h; and Rbar.  The verdict is totally_geodesic
    when sigma vanishes, totally_umbilical when sigma(X, Y) = g(X, Y) V
    for the mean curvature vector V, otherwise generic.
    """
    model, conn, cs = analysis.model, analysis.conn, analysis.cs
    if len(spec.vectors) != model.n:
        raise StructureError(
            f"expected {model.n} spanning vectors, got {len(spec.vectors)}"
        )
    frame = _Frame(spec.vectors, conn.metric)
    vectors, V = frame.vectors, frame.span
    dim, n = V.shape
    # (b, a) leaves the span exactly when (a, b) does, so the first
    # failure in row-major order is a pair a < b
    br = [[Vec.zero(n)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            coeffs, off = frame.project(bracket(model, vectors[a], vectors[b]))
            if not off.is_zero():
                raise NonInvolutiveError(
                    f"distribution is not involutive: [v_{a}, v_{b}] leaves the span"
                )
            br[a][b], br[b][a] = coeffs, -coeffs
    br = tuple(map(tuple, br))
    nb_ops, sigma = [], []
    for v in vectors:
        # nabla_{v_a} V, summed over the support of v_a
        N = matsum([(x, conn.ops[i], V) for i, x in v.nonzero_entries()], dim, n)
        coords, Sigma_a = frame.project(N)
        nb_ops.append(coords)
        sigma.append(Sigma_a)
    for a in range(n):
        for b in range(a + 1, n):
            if sigma[a].col(b) != sigma[b].col(a):
                raise StructureError(f"sigma is not symmetric at ({a}, {b})")
    _check_legendrian(cs, frame)
    h1, h2 = split_h(cs, frame)
    nbar = ConnectionTable(n, frame.induced, tuple(nb_ops))

    mean = combine(((1 / (n * frame.norms[a]), S.col(a)) for a, S in enumerate(sigma)), dim)
    umbilical = None
    if all(S.is_zero() for S in sigma):
        classification = "totally_geodesic"
    # sigma(v_a, .) = g(v_a, .) V is the rank-one Sigma_a = V (norms[a] e_a)^T
    elif all(S == outer(mean, frame.induced.col(a)) for a, S in enumerate(sigma)):
        classification, umbilical = "totally_umbilical", mean
    else:
        classification = "generic"

    return SubmanifoldGeometry(
        spec=spec,
        frame=frame,
        nbar=nbar,
        br=br,
        sigma=tuple(sigma),
        rbar=intrinsic_curvature(nbar, br),
        mean_curvature_vector=mean,
        classification=classification,
        umbilical_vector=umbilical,
        h1=h1,
        h2=h2,
    )


def _check_legendrian(cs: ContactStructure, frame: _Frame):
    """Refuse a frame that is not Legendrian, naming the first failure.

    A Legendrian frame has n vectors, a count ``second_fundamental_form``
    checks before it builds the frame; each is orthogonal to xi, and the
    frame is anti-invariant: g(v_a, phi v_b) = 0, entry (a, b) of the
    frame's lowering times phi V.
    """
    for a, _ in (frame.lowering @ cs.xi).nonzero_entries():
        raise StructureError(f"spanning vector {a} is not orthogonal to xi")
    for (a, b), _ in (frame.lowering @ (cs.phi @ frame.span)).nonzero_entries():
        raise StructureError(f"anti-invariance fails: g(v_{a}, phi v_{b}) != 0")


def intrinsic_curvature(nbar: ConnectionTable, br: tuple) -> CurvatureTable:
    """Leaf curvature Rbar(v_a, v_b) v_c in frame coordinates.

    The curvature of nablabar with the frame brackets br, lowered by the
    induced metric.
    """
    return curvature_from(nbar.ops, br, nbar.metric)


def split_h(cs: ContactStructure, frame: _Frame) -> tuple[Mat, Mat]:
    """Tangential / phi-twisted-normal components of h on the frame.

    Returns (h1, h2) as rank-n matrices in frame coordinates: h1 and
    the normal parts are one projection of h V.  The normal part of h X
    is checked to carry no xi component before applying -phi to it, and
    h2 X is checked to be tangent.
    """
    if cs.h is None:
        raise StructureError("h has not been computed for this structure")
    h1, normal = frame.project(cs.h @ frame.span)
    # entry a is g(normal part of h v_a, xi)
    for a, _ in (normal.transpose() @ (cs.metric @ cs.xi)).nonzero_entries():
        raise StructureError(f"normal part of h v_{a} has a xi component; split undefined")
    return h1, frame.coords(-(cs.phi @ normal))


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

    # g(v_a, h2 v_b) = norms[a] h2[a, b] in frame coordinates, and row a
    # of S is the pairing g(sigma(v_a, .), xi), Sigma_a^T G xi
    g_xi = cs.metric @ cs.xi
    S = Mat([Sigma.transpose() @ g_xi for Sigma in sigma])
    sigma_xi = matsum(((1, S), (1, induced, h2)), n, n)
    square_sum = matsum(((1, h1, h1), (1, h2, h2), (kappa - 1, Mat.identity(n))), n, n)
    commutator = matsum(((1, h1, h2), (-1, h2, h1)), n, n)
    return [
        scan("h_split", column_residuals([((), split)])),
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
    frame, Sigma, nbar, h1, h2 = geom.frame, geom.sigma, geom.nbar, geom.h1, geom.h2
    V = frame.span
    dim, n = V.shape
    phi, phi_V = cs.phi, cs.phi @ V
    # Sigma[a] has sigma(v_a, v_b) as column b, so phi_Sigma[a] has
    # phi sigma(v_a, v_b); as operators on frame coordinates too
    phi_Sigma = [S if S.is_zero() else phi @ S for S in Sigma]
    phi_sigma_ops = [frame.coords(S) for S in phi_Sigma]

    def shape_operator_differences():
        # column b is A_{phi v_b} v_a + phi sigma(v_a, v_b), A assembled from
        # the pairing g(A v_a, v_c) = g(sigma(v_a, v_c), phi v_b), which is
        # entry (c, b) of Sigma[a]^T G phi V; with sigma(v_a, .) = 0 every
        # term at this a is zero
        scaled_V = V @ Mat.diagonal([1 / nv for nv in frame.norms])
        g_phi_V = cs.metric @ phi_V
        for a, S in enumerate(Sigma):
            if not S.is_zero():
                pairings = S.transpose() @ g_phi_V
                yield (a,), matsum(((1, scaled_V, pairings), (1, phi_Sigma[a])), dim, n)

    def normal_connection_differences():
        # column b is the normal part of nabla_{v_a} phi v_b, less phi of
        # nablabar_{v_a} v_b and g(v_a, v_b + h1 v_b) xi, which is
        # norms[a] (Id + h1)[a, b] xi in frame coordinates
        P = matsum(((1, frame.induced), (1, frame.induced, h1)), n, n).transpose()
        for a, v in enumerate(frame.vectors):
            # nabla_{v_a} phi V, summed over the support of v_a
            M = matsum([(x, conn.ops[i], phi_V) for i, x in v.nonzero_entries()], dim, n)
            yield (a,), matsum((
                (1, frame.perp, M), (-1, phi_V, nbar.ops[a]), (-1, outer(cs.xi, P.col(a))),
            ), dim, n)

    # each rhs(a) is an anticommutator with C = phi sigma(v_a, .):
    # -(C h2 + h2 C) for nabla_h1 and C h1 + h1 C for nabla_h2
    def nabla_h1_rhs(a):
        C = phi_sigma_ops[a]
        return (1, C, h2), (1, h2, C)

    def nabla_h2_rhs(a):
        C = phi_sigma_ops[a]
        return (-1, C, h1), (-1, h1, C)

    return [
        scan("shape_operator_phi", column_residuals(shape_operator_differences())),
        scan("normal_connection_phi", column_residuals(normal_connection_differences())),
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

    Both are checked one frame pair a < b at a time, as matrices over
    (c, d); both are antisymmetric in (a, b), as R and Rbar are by
    construction, so a < b alone finds the first failures of the full
    index order.  With V the frame as columns, RV = sum of c R(e_i, e_j) V
    over the plane coefficients of R(v_a, v_b) is one ``matsum``.  The
    frame is orthogonal, so lowering RV is diag(norms) times the frame
    coordinates pairing RV, and Gauss is lowering RV - diag(norms) Rbar_ab
    + Sigma_a^T G Sigma_b - Sigma_b^T G Sigma_a, with sigma(v_a, v_d) as
    column d of Sigma_a, read by ``entry_residuals`` at (a, b, c, d).
    Codazzi, read by ``column_residuals`` at (a, b, c), is the normal part
    perp RV less the nabla sigma terms: nabla_{v_a} Sigma_b - nabla_{v_b}
    Sigma_a is one ``matsum`` over the supports of v_a and v_b, then its
    normal part, and the nablabar terms are products with Sigma.  No term
    of a zero Sigma_a is built, so none on a leaf with sigma = 0.
    """
    frame, rbar, nb_ops, Sigma = geom.frame, geom.rbar, geom.nbar.ops, geom.sigma
    vectors, V = frame.vectors, frame.span
    dim, n = V.shape
    live = [not S.is_zero() for S in Sigma]
    low = [conn.metric @ S if alive else None for S, alive in zip(Sigma, live)]
    ops, support = conn.ops, [v.nonzero_entries() for v in vectors]
    gauss, codazzi = [], []
    for a in range(n):
        for b in range(a + 1, n):
            coeffs = R.pair_coefficients(vectors[a], vectors[b])
            RV = matsum([(c, R.planes[pair], V) for pair, c in coeffs], dim, n)
            g_terms = [(1, frame.lowering, RV), (-1, frame.induced, rbar.planes[a, b])]
            if live[a] and live[b]:
                Sa, Sb = Sigma[a].transpose(), Sigma[b].transpose()
                g_terms += (1, Sa, low[b]), (-1, Sb, low[a])
            c_terms, nabla = [(1, frame.perp, RV)], []
            for s, t, sign in ((a, b, 1), (b, a, -1)):
                # +- nabla_{v_s} Sigma_t over the support of v_s, and over c
                # +- sigma(v_t, nablabar_s v_c) and sigma(nablabar_s v_t, v_c)
                if live[t]:
                    nabla += ((sign * x, ops[i], Sigma[t]) for i, x in support[s])
                    c_terms.append((sign, Sigma[t], nb_ops[s]))
                tangent = nb_ops[s].col(t).nonzero_entries()
                c_terms += ((sign * x, Sigma[e]) for e, x in tangent if live[e])
            if nabla:
                c_terms.append((-1, frame.perp, matsum(nabla, dim, n)))
            gauss.append(((a, b), matsum(g_terms, n, n)))
            codazzi.append(((a, b), matsum(c_terms, dim, n)))
    return [
        scan("gauss", entry_residuals(gauss)),
        scan("codazzi", column_residuals(codazzi)),
    ]


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

    def space_form_differences(K):
        # over (c, d), Rbar(v_a, v_b, v_c, v_d) - K (g_ad g_bc - g_ac g_bd) is
        # diag(norms) (Rbar_ab - F_ab) on an orthogonal frame, with the rank-two
        # F_ab = K (norms[b] e_a e_b^T - norms[a] e_b e_a^T); only a plane
        # Rbar_ab != F_ab is subtracted.  Both sides are antisymmetric in
        # (a, b), so a < b alone finds the first failure of the full order
        zero = [Vec.zero(n)] * n
        for a in range(n):
            for b in range(a + 1, n):
                rows = list(zero)
                rows[a] = Vec.from_dict({b: K * norms[b]}, n)
                rows[b] = Vec.from_dict({a: -K * norms[a]}, n)
                plane, form = rbar.planes[a, b], Mat(rows)
                if plane != form:
                    yield (a, b), frame.induced @ (plane - form)

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
            differences = space_form_differences(K)
            records.append(scan("leaf_space_form", entry_residuals(differences)))
            summary["leaf_curvature"] = rat_str(K)
    elif geom.classification == "totally_umbilical":
        v = geom.frame.vectors[0]
        sin_theta = inner(cs.h @ v, v, cs.metric) / (inv.lam * geom.frame.norms[0])
        cos_theta = -inner(geom.umbilical_vector, cs.xi, cs.metric) / inv.lam
        K = 2 * (1 - inv.mu / 2 + inv.lam * sin_theta)
        records.append(scan("leaf_space_form", entry_residuals(space_form_differences(K))))
        records.append(scan("leaf_curvature_negative", [(None, K)] if K >= 0 else []))
        summary["leaf_curvature"] = rat_str(K)
        summary["theta"] = {"sin": rat_str(sin_theta), "cos": rat_str(cos_theta)}

    return records, summary


def analyze_submanifold(
    analysis: StructureAnalysis, leaf: DistributionSpec
) -> tuple[SubmanifoldGeometry, list[IdentityRecord], dict]:
    """Full verification pipeline for one distribution of an analysed model.

    Every check and summary entry reads the spanning vectors and the
    tables built from them; ``leaf.kind`` is only the report label.
    Returns the geometry, the concatenated identity records, and a
    summary dict for reports.
    """
    conn, cs, inv = analysis.conn, analysis.cs, analysis.invariants
    geom = second_fundamental_form(analysis, leaf)

    records = verify_split_identities(cs, geom, inv.kappa)
    records += verify_prop32(conn, cs, geom)
    records += gauss_codazzi_residuals(analysis.curvature, conn, geom)
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

    s1 = scalar_multiple_of_identity(geom.h1)
    s2 = scalar_multiple_of_identity(geom.h2)
    summary["h1_eigenvalue"] = rat_str(s1) if s1 is not None else None
    summary["h2_eigenvalue"] = rat_str(s2) if s2 is not None else None
    if split is not None:
        summary.setdefault("e_lambda_dim", len(split[0]))
        summary.setdefault("e_minus_lambda_dim", len(split[1]))
    return geom, records, summary
