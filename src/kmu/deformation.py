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

from .contact import ContactStructure
from .errors import ParameterError
from .linalg import outer, rat

__all__ = ["d_homothetic", "predicted_invariants"]


def d_homothetic(cs: ContactStructure, a) -> ContactStructure:
    """Deform (phi, xi, eta, g) by the positive constant a.

    Returns the deformed tensors, with h cleared (``attach_h`` recomputes
    it from the brackets, phi and the deformed xi); its ``metric`` is the
    deformed metric.  Only the tensors are built: ``analyze_structure``
    checks the contact metric axioms on the deformed structure, as on
    every structure it analyses, against the model's brackets.
    """
    a = rat(a)
    if a <= 0:
        raise ParameterError(f"deformation constant must be positive, got {a}")
    return ContactStructure(
        phi=cs.phi,
        xi=Fraction(1, a) * cs.xi,
        eta=a * cs.eta,
        metric=a * cs.metric + (a * (a - 1)) * outer(cs.eta, cs.eta),
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
