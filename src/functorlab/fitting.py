"""Exact multivariate polynomial interpolation of length tables.

Fitting runs Newton finite differences over Fraction on the corner sub-box
of side degree_cap+1 that ends where the held-out shell begins; shell
points are validation-only. The reported onset is the smallest box point
from which every box point validates exactly. Validation runs in integers:
with D the lcm of the coefficient denominators, a point p validates when
the integer polynomial D*P takes the value D*lambda(p), which holds exactly
when P(p) = lambda(p). No fit is ever forced: a table with no valid onset
yields None.
"""

import itertools
import math
from fractions import Fraction

from .errors import ConfigurationError, ContractViolation


INF = float("inf")


class FittedPolynomial:
    """Polynomial in r variables with exact rational coefficients.

    coeffs maps exponent tuples to Fraction; onset is the smallest box
    point from which validation held; validated lists every point checked
    (all residuals were zero, enforced at construction time by the fitter).
    """

    __slots__ = ("nvars", "coeffs", "onset", "validated")

    def __init__(self, nvars, coeffs, onset, validated=()):
        self.nvars = nvars
        self.coeffs = {e: c for e, c in coeffs.items() if c}
        self.onset = tuple(onset)
        self.validated = tuple(validated)

    @property
    def total_degree(self):
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ContractViolation("point has wrong dimension")
        acc = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= Fraction(x) ** k
            acc += term
        return acc

    __call__ = evaluate

    def to_string(self):
        if not self.coeffs:
            return "0"
        names = ["n"] if self.nvars == 1 else ["n%d" % (j + 1) for j in range(self.nvars)]
        parts = []
        for e in sorted(self.coeffs, key=lambda t: (-sum(t), t)):
            c = self.coeffs[e]
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def as_dict(self):
        return {
            "variables": self.nvars,
            "total_degree": self.total_degree,
            "onset": list(self.onset),
            "coefficients": [
                {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
                for e, c in sorted(self.coeffs.items())
            ],
            "validated_points": [list(p) for p in self.validated],
        }

    def __repr__(self):
        return "FittedPolynomial(%s; onset=%r)" % (self.to_string(), self.onset)


def _falling_factorial_poly(shift, k):
    """Coefficients of (n - shift)(n - shift - 1)...(k factors) in n."""
    coeffs = [Fraction(1)]
    for i in range(k):
        root = shift + i
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= c * root
        coeffs = nxt
    return coeffs


def _newton_table(table, base, cap, r):
    """Divided differences on the unit grid base + [0, cap]^r."""
    diffs = {}
    for off in itertools.product(range(cap + 1), repeat=r):
        point = tuple(b + o for b, o in zip(base, off))
        value = table.get(point)
        if value is None:
            raise ContractViolation("fit grid point %r missing from the table" % (point,))
        if value == INF:
            raise ContractViolation("length at %r is infinite inside the fit grid" % (point,))
        diffs[off] = Fraction(value)
    for axis in range(r):
        for k in range(1, cap + 1):
            # descending order along the axis keeps lower entries intact
            for off in sorted(
                itertools.product(range(cap + 1), repeat=r),
                key=lambda o: -o[axis],
            ):
                if off[axis] < k:
                    continue
                prev = off[:axis] + (off[axis] - 1,) + off[axis + 1 :]
                diffs[off] = (diffs[off] - diffs[prev]) / k
    return diffs


def _expand(diffs, base, cap, r):
    """Newton form to plain monomial coefficients, exactly."""
    uni = {}
    for j in range(r):
        for k in range(cap + 1):
            uni[(j, k)] = _falling_factorial_poly(base[j], k)
    out = {}
    for off, c in diffs.items():
        if not c:
            continue
        acc = {tuple([0] * r): c}
        for j, k in enumerate(off):
            if k == 0:
                continue
            nxt = {}
            for e, ce in acc.items():
                for d, cd in enumerate(uni[(j, k)]):
                    if not cd:
                        continue
                    key = e[:j] + (e[j] + d,) + e[j + 1 :]
                    nxt[key] = nxt.get(key, Fraction(0)) + ce * cd
            acc = nxt
        for e, ce in acc.items():
            out[e] = out.get(e, Fraction(0)) + ce
    return {e: c for e, c in out.items() if c}


def fit_polynomial(table, box, degree_cap):
    """Exact polynomial fit of a length table over a box, or None.

    table maps box points to integer lengths (float('inf') allowed outside
    the fit grid). The fit grid is the corner cube of side degree_cap+1
    directly below the held-out shell; every box point at or above the
    returned onset validated exactly.
    """
    if degree_cap < 0:
        raise ConfigurationError("degree cap must be nonnegative")
    r = box.r
    top = tuple(h - box.shell for h in box.hi)
    base = tuple(t - degree_cap for t in top)
    if any(t < a for t, a in zip(top, box.lo)):
        raise ConfigurationError("shell leaves no fitting points inside the box")
    if any(b < a for b, a in zip(base, box.lo)):
        raise ConfigurationError(
            "box too small: degree cap %d needs %d points per axis below the shell"
            % (degree_cap, degree_cap + 1)
        )
    diffs = _newton_table(table, base, degree_cap, r)
    coeffs = _expand(diffs, base, degree_cap, r)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    scaled = [(e, c.numerator * (den // c.denominator)) for e, c in coeffs.items()]
    matches = {}
    for p in box.points():
        v = table.get(p)
        matches[p] = v is not None and v != INF and sum(
            c * math.prod(map(pow, p, e)) for e, c in scaled
        ) == den * v
    for onset in sorted(box.points(), key=lambda p: (sum(p), p)):
        if any(o > t for o, t in zip(onset, top)):
            continue
        region = [p for p in box.points() if all(x >= o for x, o in zip(p, onset))]
        if all(matches[p] for p in region):
            return FittedPolynomial(r, coeffs, onset=onset, validated=region)
    return None
