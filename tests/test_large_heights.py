"""Rationals of height about 10^12 through the kernels and the CLI.

The kernels accumulate integer numerators and denominators and build one
Fraction per entry, so their results must not depend on small
denominators.  The Hypothesis tests below compare ``combine``,
``matsum``, ``dot`` and ``inner`` with dense Fraction loops on entries
whose numerators and denominators are around 10^12, with many entries
over one shared denominator and with terms that cancel exactly.  The
CLI tests run an n = 3 ``verify`` and ``deform`` with alpha, beta, a, c
and d of that height, and a Hypothesis ``verify`` draws all five at
n = 2, 4 and 5; each checks the closed forms and the Tanno maps, and
round-trips every rational of the reports through ``rat_str`` and ``rat``.
"""

import json
import re
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kmu.cli import main
from kmu.linalg import Mat, Vec, combine, dot, inner, matsum, rat, rat_str

from test_kernels import assert_support, dense_inner, dense_rows
from test_matsum import assert_exact_matrix, dense_sum

ZERO = Fraction(0)
HEIGHT = 10 ** 12
# two large denominators per example, so entries often share one
DENOMINATORS = st.lists(st.integers(HEIGHT // 2, HEIGHT), min_size=2, max_size=2)


@st.composite
def tall_entries(draw, denominators):
    """Zero, a numerator over one of ``denominators``, or any tall rational."""
    kind = draw(st.sampled_from(["zero", "zero", "shared", "any"]))
    if kind == "zero":
        return ZERO
    numerator = draw(st.integers(-HEIGHT, HEIGHT))
    if kind == "shared":
        return Fraction(numerator, draw(st.sampled_from(denominators)))
    return Fraction(numerator, draw(st.integers(1, HEIGHT)))


def tall_lists(denominators, length):
    return st.lists(tall_entries(denominators), min_size=length, max_size=length)


def tall_rows(denominators, nrows, ncols):
    return st.lists(tall_lists(denominators, ncols), min_size=nrows, max_size=nrows)


@st.composite
def tall_combinations(draw):
    """(dim, terms) for combine; some terms come back negated, to cancel."""
    dens = draw(DENOMINATORS)
    dim = draw(st.integers(1, 5))
    coeff = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), tall_entries(dens))
    terms = draw(st.lists(st.tuples(coeff, tall_lists(dens, dim)), min_size=1, max_size=5))
    for c, v in draw(st.lists(st.sampled_from(terms), max_size=2)):
        terms.append((-c, v))
    return dim, draw(st.permutations(terms))


@settings(max_examples=150, deadline=None)
@given(tall_combinations())
def test_combine_on_tall_rationals(example):
    dim, terms = example
    v = combine([(c, Vec(entries)) for c, entries in terms], dim)
    expected = [sum((c * entries[t] for c, entries in terms), ZERO) for t in range(dim)]
    assert list(v) == expected
    assert_support(v)


@st.composite
def tall_sums(draw):
    """(nrows, ncols, terms) for matsum, with exact cancellation."""
    dens = draw(DENOMINATORS)
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.one_of(st.sampled_from([1, -1, 2]), tall_entries(dens)))
        if draw(st.booleans()):
            k = draw(st.integers(1, 4))
            terms.append((c, draw(tall_rows(dens, nrows, k)), draw(tall_rows(dens, k, ncols))))
        else:
            terms.append((c, draw(tall_rows(dens, nrows, ncols))))
    for c, *factors in draw(st.lists(st.sampled_from(terms), max_size=2)):
        terms.append((-c, *factors))
    return nrows, ncols, draw(st.permutations(terms))


@settings(max_examples=100, deadline=None)
@given(tall_sums())
def test_matsum_on_tall_rationals(example):
    nrows, ncols, terms = example
    M = matsum([(c, *(Mat(f) for f in factors)) for c, *factors in terms], nrows, ncols)
    assert_exact_matrix(M, dense_sum(terms, nrows, ncols))


@st.composite
def tall_pairings(draw):
    dens = draw(DENOMINATORS)
    dim = draw(st.integers(1, 5))
    u, v = draw(tall_lists(dens, dim)), draw(tall_lists(dens, dim))
    g = draw(tall_rows(dens, dim, dim))
    return u, v, g


@settings(max_examples=150, deadline=None)
@given(tall_pairings())
def test_dot_and_inner_on_tall_rationals(example):
    u, v, g = example
    U, V, G = Vec(u), Vec(v), Mat(g)
    assert dot(U, V) == sum((x * y for x, y in zip(u, v)), ZERO)
    assert inner(U, V, G) == dense_inner(u, v, g)
    # the same pairings cancelled exactly: u against v and -v
    assert dot(U, V) + dot(U, -V) == 0
    assert inner(U, V + (-V), G) == 0 and (inner(U, V, G) + inner(U, -V, G)) == 0


def test_equal_denominators_cancel_to_the_shared_zero():
    d = 999_999_999_989  # a prime near 10^12
    u = Vec([Fraction(HEIGHT + 1, d), Fraction(-3, d), ZERO])
    w = Vec([Fraction(-HEIGHT - 1, d), Fraction(5, d), Fraction(7, d)])
    s = combine([(Fraction(1), u), (Fraction(1), w)], 3)
    assert list(s) == [ZERO, Fraction(2, d), Fraction(7, d)]
    assert_support(s)
    assert combine([(Fraction(d, 3), u), (Fraction(-d, 3), u)], 3).is_zero()
    M = Mat([list(u), list(w), [ZERO] * 3])
    assert matsum([(1, M), (Fraction(-1), M)], 3, 3).is_zero()
    assert dense_rows(matsum([(Fraction(d), M, M)], 3, 3)) == dense_sum(
        [(Fraction(d), dense_rows(M), dense_rows(M))], 3, 3
    )


# ---------------------------------------------------------------------------
# the CLI on tall parameters
# ---------------------------------------------------------------------------

ALPHA, BETA = Fraction(738291046573, 982341776201), Fraction(1894736251013, 1000000000039)
A = Fraction(1000000000007, 999999999989)
LEAVES = [
    {"kind": "x"},
    {"kind": "y"},
    {"kind": "mixed", "k": 2},
    {"kind": "diag", "c": "982451653001/3", "d": "-7/999999000001"},
]
RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _report(tmp_path, capsys, argv, descriptor):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] is True
    return report


def _rationals(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _rationals(value)
    elif isinstance(node, list):
        for value in node:
            yield from _rationals(value)
    elif isinstance(node, str) and RATIONAL.match(node):
        yield node


def _check_closed_forms(report, alpha, beta, a):
    lam = (beta ** 2 - alpha ** 2) / 4
    kappa, boeckx = 1 - lam ** 2, -(beta ** 2 + alpha ** 2) / (beta ** 2 - alpha ** 2)
    mu = 2 * (1 - lam * boeckx)
    native = {"kappa": kappa, "mu": mu, "lambda": lam, "boeckx_invariant": boeckx}
    assert {key: rat(value) for key, value in report["invariants"].items()} == native
    block = report["deformation"]
    assert rat(block["a"]) == a
    after = {key: rat(value) for key, value in block["after"].items()}
    assert after == {
        "kappa": (kappa + a ** 2 - 1) / a ** 2,
        "mu": (mu + 2 * a - 2) / a,
        "lambda": lam / a,
        "boeckx_invariant": boeckx,
    }
    assert block["kappa_mu_match"] == "pass" and block["boeckx_invariance"] == "pass"


def _check_round_trip(report):
    values = list(_rationals(report))
    assert values and all(rat_str(rat(value)) == value for value in values)
    # the reports carry rationals far taller than their inputs
    assert max(rat(value).denominator for value in values) > HEIGHT ** 2


def test_verify_at_height_ten_to_the_twelve(tmp_path, capsys):
    descriptor = {
        "n": 3, "alpha": rat_str(ALPHA), "beta": rat_str(BETA),
        "deformation_a": rat_str(A), "submanifolds": LEAVES,
    }
    report = _report(tmp_path, capsys, ["verify"], descriptor)
    _check_closed_forms(report, ALPHA, BETA, A)
    _check_round_trip(report)
    kinds = [block["classification"] for block in report["submanifolds"]]
    assert kinds == ["totally_geodesic"] * 3 + ["totally_umbilical"]


def test_deform_at_height_ten_to_the_twelve(tmp_path, capsys):
    descriptor = {"n": 3, "alpha": rat_str(ALPHA), "beta": rat_str(BETA)}
    report = _report(tmp_path, capsys, ["deform", "--a", rat_str(A)], descriptor)
    _check_closed_forms(report, ALPHA, BETA, A)
    _check_round_trip(report)


# the four primes after 10^12: over any of them a numerator in 1..10^12 is
# already in lowest terms, so every drawn rational keeps its height
PRIMES = (1000000000039, 1000000000061, 1000000000063, 1000000000091)


def tall_rationals(sign=1):
    """A rational of height about 10^12, of the given sign."""
    return st.builds(
        lambda p, q: Fraction(sign * p, q), st.integers(1, HEIGHT), st.sampled_from(PRIMES)
    )


@st.composite
def tall_descriptors(draw):
    """A verify descriptor at n in {2, 4, 5} with tall alpha, beta, a, c and d."""
    n = draw(st.sampled_from([2, 4, 5]))
    alpha, beta = sorted(draw(st.lists(tall_rationals(), min_size=2, max_size=2, unique=True)))
    c, d = (draw(st.one_of(tall_rationals(), tall_rationals(-1))) for _ in range(2))
    leaves = [
        {"kind": "x"},
        {"kind": "y"},
        {"kind": "mixed", "k": draw(st.integers(1, n - 1))},
        {"kind": "diag", "c": rat_str(c), "d": rat_str(d)},
    ]
    return {
        "n": n, "alpha": rat_str(alpha), "beta": rat_str(beta),
        "deformation_a": rat_str(draw(tall_rationals())), "submanifolds": leaves,
    }


# each example overwrites the one descriptor file and reads its own output,
# so the function-scoped fixtures carry nothing from one example to the next
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(tall_descriptors())
def test_verify_at_drawn_heights_and_other_n(tmp_path, capsys, descriptor):
    report = _report(tmp_path, capsys, ["verify"], descriptor)
    _check_closed_forms(
        report, *(rat(descriptor[key]) for key in ("alpha", "beta", "deformation_a"))
    )
    _check_round_trip(report)
    kinds = [block["classification"] for block in report["submanifolds"]]
    assert kinds == ["totally_geodesic"] * 3 + ["totally_umbilical"]
