"""Homothetic deformations of the contact metric structure.

For a positive rational a the structure tensors transform as

    phi -> phi,   xi -> xi / a,   eta -> a eta,
    g   -> a g + a (a - 1) eta (x) eta,

which keeps the deformed tensors a contact metric structure and maps the
class into itself with

    kappa -> (kappa + a^2 - 1) / a^2,   mu -> (mu + 2a - 2) / a.

The rescaled xi (and unchanged phi) are forced: with eta -> a eta and
the metric above they are the only choices satisfying eta(xi) = 1,
phi^2 = -Id + eta (x) xi and the contact condition; the package
verifies all of these rather than assuming them.
"""

from __future__ import annotations

from fractions import Fraction

from .contact import ContactStructure, check_contact_axioms
from .errors import ParameterError
from .liealg import LieAlgebraModel
from .linalg import outer, rat

__all__ = ["d_homothetic", "predicted_invariants"]


def d_homothetic(model: LieAlgebraModel, cs: ContactStructure, a) -> ContactStructure:
    """Deform (phi, xi, eta, g) by the positive constant a.

    Returns the deformed structure, with h cleared (recompute it with
    ``compute_h``, which reads only the brackets, phi and the deformed
    xi); its ``metric`` is the deformed metric.  The model supplies the
    bracket table for the contact-condition recheck.  All contact metric
    axioms are re-verified exactly, and their records travel with the
    deformed structure.
    """
    a = rat(a)
    if a <= 0:
        raise ParameterError(f"deformation constant must be positive, got {a}")
    G = cs.metric
    phi_t = cs.phi
    xi_t = Fraction(1, a) * cs.xi
    eta_t = a * cs.eta
    G_t = a * G + (a * (a - 1)) * outer(cs.eta, cs.eta)
    axioms = check_contact_axioms(model, phi_t, xi_t, eta_t, G_t)
    return ContactStructure(
        phi=phi_t, xi=xi_t, eta=eta_t, metric=G_t, axioms=tuple(axioms)
    )


def predicted_invariants(kappa, mu, a) -> tuple[Fraction, Fraction]:
    """Closed-form (kappa, mu) of the deformed structure.

    The derived invariant (1 - mu/2)/sqrt(1 - kappa) is a fixed point of
    this map for every a > 0.
    """
    kappa = rat(kappa)
    mu = rat(mu)
    a = rat(a)
    if a <= 0:
        raise ParameterError(f"deformation constant must be positive, got {a}")
    kappa_t = (kappa + a * a - 1) / (a * a)
    mu_t = (mu + 2 * a - 2) / a
    if kappa_t >= 1:
        raise ParameterError(
            "deformation drove kappa to >= 1 (degenerate case); input kappa must be < 1"
        )
    return kappa_t, mu_t
