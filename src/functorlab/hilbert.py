"""Exact Hilbert series arithmetic from monomial lead data.

Everything a graded question needs reduces here to the numerator of a Hilbert
series: for a quotient of a twisted free module by a monomial lead module,

    H(t) = numerator(t) / prod_i (1 - t^(w_i)),

with the numerator of R/I, I a monomial ideal, computed by Bigatti's pivot
recursion ("Computation of Hilbert-Poincare series", JPAA 119, 1997): for a
monomial p outside I the exact sequence 0 -> R/(I : p)(-deg p) -> R/I ->
R/(I + (p)) -> 0 gives

    N(I) = N(I + (p)) + t^(deg p) * N(I : p).

The pivot is p = x_i^e, x_i the variable in the most minimal generators (the
first such) and e the upper median of its positive exponents there, lowered
below every pure power of x_i among the generators so that p is not in I.
When no variable is in two generators, the generators are pairwise coprime,
their Koszul complex is exact and N(I) = prod_m (1 - t^(deg m)).  The
recursion ends: with c_j the least of the pure x_j power's exponent and one
more than the largest x_j exponent, sum_j c_j drops on both sides, since
I + (p) holds the pure power x_i^e with e < c_i and I : p lowers every x_i
exponent by e >= 1, and no c_j grows.

Base case: when at most two variables x_i, x_j (i < j) occur in the minimal
generators, ordered g_1..g_k by ascending x_i exponent (so descending x_j
exponent), R/I is resolved by the staircase (Hilbert-Burch; Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 3):

    0 -> (+)_k R(-deg lcm(g_k, g_k+1)) -> (+)_k R(-deg g_k) -> R -> R/I -> 0,

as the syzygies of consecutive generators generate all the others, so

    N(I) = 1 - sum_k t^(deg g_k) + sum_k t^(deg lcm(g_k, g_k+1)).

This holds in any number of variables, so it also closes the sub-problems of
a larger recursion once two variables are left.  Staircase numerators cost
less than a memo key and are not memoized; every other numerator is memoized
on its minimal generating set, sorted by (degree, exponents).

A module numerator (module_numerator) takes per component the leads of a
reduced Groebner basis, which are already the minimal generators of the
lead ideal (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.7), so
it only sorts them for the recursion; ideal_numerator prunes an arbitrary
monomial set first.

Lengths come from exact division of the numerator by every (1 - t^(w_i))
factor (non-divisibility certifies infinite length), Krull dimension from
the pole order at t = 1, and graded dimensions from a finite window of the
power-series expansion.

Numerators are dicts {degree: int}; negative degrees are legal because twists
may be negative.
"""

from __future__ import annotations

import math
from operator import le, mul

_NUMERATOR_MEMO = {}


def _by_degree(ring, monos):
    """monos sorted by (degree, exponents), the order of the memo keys."""
    weights = ring.weights
    return sorted(monos, key=lambda m: (sum(map(mul, m, weights)), m))


def minimal_monomials(ring, monos):
    """Prune a monomial set to its minimal members under divisibility, sorted
    by (degree, exponents). With positive weights a proper divisor has lower
    degree, so one pass in that order meets every divisor of a monomial
    before the monomial itself. With at most two active variables x_i, x_j
    (i < j) one lexicographic pass suffices: it meets every divisor first,
    and m is minimal exactly when its x_j exponent is below all kept so far."""
    monos = set(monos)
    active = [i for i, column in enumerate(zip(*monos)) if any(column)]
    out = []
    if len(active) < 3:
        j = active[-1] if active else 0
        low = math.inf
        for m in sorted(monos):
            if m[j] < low:
                out.append(m)
                low = m[j]
        return _by_degree(ring, out)
    for m in _by_degree(ring, monos):
        for p in out:
            if all(map(le, p, m)):
                break
        else:
            out.append(m)
    return out


def monomial_colon(ring, monos, u):
    """Minimal monomials of (monos) : x^u, the m / gcd(m, x^u) pruned."""
    return minimal_monomials(ring, [ring.mono_div(m, ring.mono_gcd(m, u)) for m in monos])


def numer_add(a, b, sign=1):
    out = dict(a)
    for d, c in b.items():
        v = out.get(d, 0) + sign * c
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def numer_shift(a, shift):
    return {d + shift: c for d, c in a.items()}


def ideal_numerator(ring, monos):
    """Numerator of the Hilbert series of R/(monos), memoized."""
    return _minimal_numerator(ring, minimal_monomials(ring, monos))


def _minimal_numerator(ring, monos):
    """ideal_numerator of a list that minimal_monomials returned: minimal under
    divisibility and sorted by (degree, exponents)."""
    if not monos:
        return {0: 1}
    if not any(monos[0]):
        return {}  # the unit monomial is a generator; degree 0 sorts it first
    weights = ring.weights
    counts = [len(monos) - column.count(0) for column in zip(*monos)]
    active = [i for i, c in enumerate(counts) if c]
    if len(active) < 3:  # the staircase, unmemoized
        i, j = active[0], active[-1]
        out = {0: 1}
        prev = None
        for m in sorted(monos):  # ascending in x_i, so descending in x_j
            d = sum(map(mul, m, weights))
            out[d] = out.get(d, 0) - 1
            if prev is not None:  # lcm(prev, m)
                d = m[i] * weights[i] + prev[j] * weights[j]
                out[d] = out.get(d, 0) + 1
            prev = m
        return {d: c for d, c in out.items() if c}
    key = (weights, tuple(monos))
    hit = _NUMERATOR_MEMO.get(key)
    if hit is not None:
        return hit
    i = max(range(len(counts)), key=counts.__getitem__)
    if counts[i] < 2:  # pairwise coprime
        out = {0: 1}
        for m in monos:
            out = numer_add(out, numer_shift(out, sum(map(mul, m, weights))), sign=-1)
    else:
        exps = sorted(m[i] for m in monos if m[i])
        e = exps[len(exps) // 2]
        pure = [m[i] for m in monos if m[i] == sum(m)]
        if pure:
            e = min(e, min(pure) - 1)  # x_i^e stays outside I
        pivot = ring.var_mono(i, e)
        plus = _by_degree(ring, [m for m in monos if m[i] < e] + [pivot])
        colon = minimal_monomials(
            ring, [m[:i] + (max(m[i] - e, 0),) + m[i + 1 :] for m in monos]
        )
        out = numer_add(
            _minimal_numerator(ring, plus),
            numer_shift(_minimal_numerator(ring, colon), e * weights[i]),
        )
    _NUMERATOR_MEMO[key] = out
    return out


def module_numerator(ring, leads_by_comp, twists):
    """Numerator for (+)_c R(-twist_c) / (lead monomials in component c).

    Each leads_by_comp[c] must already be minimal under divisibility, in any
    order, as the leads of a reduced Groebner basis are
    (Submodule.lead_monomials): they are only sorted, not pruned again. An
    arbitrary monomial set goes through ideal_numerator instead."""
    out = {}
    for c, monos in enumerate(leads_by_comp):
        numer = _minimal_numerator(ring, _by_degree(ring, monos))
        out = numer_add(out, numer_shift(numer, twists[c]))
    return out


def _dense(numer):
    if not numer:
        return 0, []
    lo = min(numer)
    hi = max(numer)
    arr = [0] * (hi - lo + 1)
    for d, c in numer.items():
        arr[d - lo] = c
    return lo, arr


def _divide_exact(arr, w):
    """arr / (1 - t^w) when exact, else None (list convolution, ascending)."""
    if not arr:
        return []
    q = [0] * len(arr)
    for k in range(len(arr)):
        q[k] = arr[k] + (q[k - w] if k >= w else 0)
    tail = q[len(arr) - w :] if w <= len(arr) else q
    if any(tail):
        return None
    return q[: len(arr) - w] if w <= len(arr) else []


def series_window(ring, numer, lo, hi):
    """Hilbert function values in degrees lo..hi inclusive."""
    if hi < lo:
        return []
    if not numer:
        return [0] * (hi - lo + 1)
    start = min(min(numer), lo)
    width = hi - start + 1
    arr = [0] * width
    for d, c in numer.items():
        if d <= hi:
            arr[d - start] += c
    for w in ring.weights:
        for k in range(w, width):
            arr[k] += arr[k - w]
    return arr[lo - start :]


def length_value(ring, numer):
    """Total length, or math.inf when the series is not a polynomial."""
    if not numer:
        return 0
    _, arr = _dense(numer)
    for w in ring.weights:
        arr = _divide_exact(arr, w)
        if arr is None:
            return math.inf
    return sum(arr)


def krull_dim(ring, numer):
    """Pole order of the series at t = 1; -inf for the zero module."""
    if not numer:
        return float("-inf")
    _, arr = _dense(numer)
    mult = 0
    while arr and sum(arr) == 0:
        arr = _divide_exact(arr, 1)
        mult += 1
    return ring.nvars - mult
