"""Homothetic deformation: tensor transforms and invariant behavior."""

from fractions import Fraction

import pytest

from kmu import analyze_structure, d_homothetic, predicted_invariants
from kmu.errors import ParameterError
from kmu.linalg import Mat, dot, inner, outer

from helpers import analysis, model

A_VALUES = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)]


def test_identity_deformation_changes_nothing():
    an = analysis(2, 1, 3)
    cs_t = d_homothetic(an.cs, 1)
    G_t = cs_t.metric
    assert cs_t.phi == an.cs.phi
    assert cs_t.xi == an.cs.xi
    assert cs_t.eta == an.cs.eta
    assert G_t == an.cs.metric


def test_deformed_tensors_satisfy_the_transform():
    # direct evaluation oracle for the metric transform:
    # G_t = a G + a(a-1) eta (x) eta, i.e. a^2 on the xi line, a elsewhere
    m = model(2, 0, 2)
    an = analysis(2, 0, 2)
    a = Fraction(3)
    cs_t = d_homothetic(an.cs, a)
    G_t = cs_t.metric
    assert G_t == a * an.cs.metric + (a * (a - 1)) * outer(an.cs.eta, an.cs.eta)
    assert G_t == Mat.diagonal([a * a, a, a, a, a])
    assert cs_t.eta == a * an.cs.eta
    assert cs_t.xi == Fraction(1, a) * an.cs.xi
    assert cs_t.phi == an.cs.phi
    # axioms on the deformed tensors
    assert dot(cs_t.eta, cs_t.xi) == 1
    assert inner(cs_t.xi, cs_t.xi, G_t) == 1
    assert cs_t.phi @ cs_t.phi == -Mat.identity(m.dim) + outer(cs_t.xi, cs_t.eta)


def test_rejects_nonpositive_constant():
    an = analysis(2, 0, 2)
    for bad in (0, Fraction(-1, 2)):
        with pytest.raises(ParameterError):
            d_homothetic(an.cs, bad)
    with pytest.raises(ParameterError):
        predicted_invariants(0, 4, 0)


# ---------------------------------------------------------------------------
# predicted invariants
# ---------------------------------------------------------------------------


def test_predicted_values():
    assert predicted_invariants(0, 4, 2) == (Fraction(3, 4), Fraction(3))


def test_predicted_identity_at_a_equal_one():
    kappa, mu = Fraction(-3), Fraction(7)
    assert predicted_invariants(kappa, mu, 1) == (kappa, mu)


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(2), Fraction(5)])
def test_invariant_fixed_point_algebraically(a):
    # (1 - mu~/2) / sqrt(1 - kappa~) equals (1 - mu/2) / sqrt(1 - kappa):
    # with lambda rational both sides are exact rationals
    kappa, mu = Fraction(-3), Fraction(7)
    lam = Fraction(2)
    kappa_t, mu_t = predicted_invariants(kappa, mu, a)
    lam_t = lam / a
    assert lam_t * lam_t == 1 - kappa_t
    assert (1 - mu_t / 2) / lam_t == (1 - mu / 2) / lam == Fraction(-5, 4)


@pytest.mark.parametrize("a", A_VALUES)
def test_kappa_stays_below_one(a):
    for kappa, mu in [(0, 4), (-3, 7), (Fraction(15, 16), Fraction(5, 2))]:
        kappa_t, _ = predicted_invariants(kappa, mu, a)
        assert kappa_t < 1


# ---------------------------------------------------------------------------
# full-stack recomputation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,alpha,beta", [(2, 0, 2), (3, 1, 3)])
@pytest.mark.parametrize("a", A_VALUES)
def test_recomputed_invariants_match_prediction(n, alpha, beta, a):
    m = model(n, alpha, beta)
    an = analysis(n, alpha, beta)
    cs_t = d_homothetic(an.cs, a)
    deformed = analyze_structure(m, cs_t)
    kappa_t, mu_t = predicted_invariants(an.invariants.kappa, an.invariants.mu, a)
    assert deformed.invariants.kappa == kappa_t
    assert deformed.invariants.mu == mu_t
    assert deformed.invariants.lam == an.invariants.lam / a
    assert deformed.invariants.boeckx_invariant == an.invariants.boeckx_invariant
    assert deformed.passed


def test_deformed_structure_survives_whole_identity_suite():
    # the deformed structure is itself a model of the class; every
    # identity record must hold against its own metric
    m = model(2, 1, 2)
    an = analysis(2, 1, 2)
    cs_t = d_homothetic(an.cs, Fraction(5, 2))
    deformed = analyze_structure(m, cs_t)
    failing = [r.identity_id for r in deformed.records if not r.passed]
    assert failing == []
