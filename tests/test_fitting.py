"""Exact Newton fitting: recovery, onsets, refusals.

Oracles are closed-form tables: n(n+1)/2 (degree 2, coefficients 1/2),
a planted bivariate quadratic, and non-polynomial tables that must be
refused rather than force-fitted. The fitter validates in integers; its
onsets and validated points are compared with those that evaluating the fit
over Fraction gives, on seeded integer-valued tables with non-integer
coefficients, perturbed points and infinite lengths.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from functorlab.errors import ConfigurationError, ContractViolation
from functorlab import fitting
from functorlab.fitting import FittedPolynomial, fit_polynomial
from functorlab.grid import GridBox


def test_box_validation():
    with pytest.raises(ContractViolation):
        GridBox((3,), (1,))
    with pytest.raises(ContractViolation):
        GridBox((0, 0), (2, 2), shell=0)
    box = GridBox((1, 1), (2, 3))
    assert len(box.points()) == 6
    assert box.shell_floor() == (1, 2)


def test_hilbert_samuel_table():
    box = GridBox((1,), (10,), shell=2)
    table = {(n,): n * (n + 1) // 2 for n in range(1, 11)}
    fit = fit_polynomial(table, box, 2)
    assert fit is not None
    assert fit.total_degree == 2
    assert fit.coeffs[(2,)] == Fraction(1, 2)
    assert fit.coeffs[(1,)] == Fraction(1, 2)
    assert fit.onset == (1,)
    assert fit.evaluate((12,)) == 78
    assert len(fit.validated) == 10


def test_cap_above_true_degree_still_exact():
    box = GridBox((1,), (10,), shell=1)
    table = {(n,): n * (n + 1) // 2 for n in range(1, 11)}
    fit = fit_polynomial(table, box, 4)
    assert fit.total_degree == 2
    assert fit.coeffs[(2,)] == Fraction(1, 2)


def test_constant_table_degree_zero():
    box = GridBox((0,), (6,))
    fit = fit_polynomial({(n,): 7 for n in range(7)}, box, 1)
    assert fit.total_degree == 0
    assert fit.evaluate((100,)) == 7
    assert fit.to_string() == "7"


def test_bivariate_recovery():
    box = GridBox((1, 1), (6, 6), shell=1)
    poly = lambda a, b: a * b + 3 * a + 1
    table = {(a, b): poly(a, b) for a in range(1, 7) for b in range(1, 7)}
    fit = fit_polynomial(table, box, 2)
    assert fit is not None
    assert fit.total_degree == 2
    assert fit.coeffs == {(1, 1): 1, (1, 0): 3, (0, 0): 1}
    assert fit.onset == (1, 1)


def test_late_onset():
    box = GridBox((1,), (9,), shell=1)
    table = {(n,): (2 * n if n >= 3 else 99) for n in range(1, 10)}
    fit = fit_polynomial(table, box, 1)
    assert fit is not None
    assert fit.onset == (3,)
    assert set(fit.validated) == {(n,) for n in range(3, 10)}


def test_non_polynomial_is_refused():
    box = GridBox((1,), (8,), shell=1)
    table = {(n,): 2 ** n for n in range(1, 9)}
    assert fit_polynomial(table, box, 2) is None


def test_infinite_inside_grid_raises():
    box = GridBox((1,), (6,), shell=1)
    table = {(n,): 5 for n in range(1, 7)}
    table[(4,)] = math.inf
    with pytest.raises(ContractViolation):
        fit_polynomial(table, box, 1)


def test_infinite_below_onset_tolerated():
    box = GridBox((0,), (8,), shell=1)
    table = {(n,): 3 * n for n in range(9)}
    table[(0,)] = math.inf
    fit = fit_polynomial(table, box, 1)
    assert fit.onset == (1,)


def test_box_too_small_for_cap():
    box = GridBox((1,), (4,), shell=1)
    table = {(n,): n for n in range(1, 5)}
    with pytest.raises(ConfigurationError):
        fit_polynomial(table, box, 5)


def test_rendering_and_serialization():
    fit = FittedPolynomial(
        2, {(2, 0): Fraction(1, 2), (0, 1): Fraction(-3)}, onset=(1, 1)
    )
    s = fit.to_string()
    assert "1/2*n1^2" in s and "-3*n2" in s
    d = fit.as_dict()
    assert d["total_degree"] == 2
    assert d["onset"] == [1, 1]
    assert {"exponents": [2, 0], "numerator": 1, "denominator": 2} in d["coefficients"]


def _binomial_table(rng, box, degree):
    """Values of C(n_1, degree) plus a random integer combination of other
    products of binomials C(n_j + s_j, k_j), with distinct (k_j) of total
    degree at most degree: integer-valued, and the coefficient of n_1^degree
    is 1/degree!."""
    top = (degree,) + (0,) * (box.r - 1)
    others = [
        k for k in itertools.product(range(degree + 1), repeat=box.r) if sum(k) <= degree and k != top
    ]
    terms = [(1, [(0, k) for k in top])] + [
        (rng.choice((-3, -1, 1, 2, 5)), [(rng.randint(0, 2), kj) for kj in k])
        for k in rng.sample(others, rng.randint(1, 3))
    ]
    return {
        p: sum(a * math.prod(math.comb(n + s, k) for n, (s, k) in zip(p, sk)) for a, sk in terms)
        for p in box.points()
    }


def _fraction_verdict(table, box, cap):
    """(onset, validated points) of the fit by Fraction evaluation, the
    coefficients read off the same fit grid, or None."""
    top = tuple(h - box.shell for h in box.hi)
    base = tuple(t - cap for t in top)
    coeffs = fitting._expand(fitting._newton_table(table, base, cap, box.r), base, cap, box.r)
    poly = FittedPolynomial(box.r, coeffs, onset=box.lo)
    ok = {p for p in box.points() if table.get(p, math.inf) != math.inf and poly(p) == table[p]}
    for onset in sorted(box.points(), key=lambda p: (sum(p), p)):
        region = [p for p in box.points() if all(x >= o for x, o in zip(p, onset))]
        if all(o <= t for o, t in zip(onset, top)) and ok.issuperset(region):
            return onset, tuple(region)
    return None


@pytest.mark.parametrize("r, hi, cap", [(1, (12,), 4), (2, (7, 8), 3), (3, (5, 5, 6), 2)])
@pytest.mark.parametrize("seed", range(8))
def test_integer_validation_matches_fraction_evaluation(r, hi, cap, seed):
    rng = random.Random("fit/%d/%d" % (r, seed))
    box = GridBox((1,) * r, hi, shell=1)
    base = tuple(h - 1 - cap for h in hi)
    fit_grid = set(itertools.product(*(range(b, b + cap + 1) for b in base)))
    clean = _binomial_table(rng, box, cap)
    perturbed = dict(clean)
    perturbed[rng.choice(box.points())] += rng.choice((-1, 1))
    infinite = dict(clean)
    outside = [p for p in box.points() if p not in fit_grid]
    for p in rng.sample(outside, 2):
        infinite[p] = math.inf
    for table in (clean, perturbed, infinite):
        fit = fit_polynomial(table, box, cap)
        want = _fraction_verdict(table, box, cap)
        got = None if fit is None else (fit.onset, fit.validated)
        assert got == want, table
    fit = fit_polynomial(clean, box, cap)
    assert fit.onset == box.lo
    assert fit.coeffs[(cap,) + (0,) * (r - 1)] == Fraction(1, math.factorial(cap))
