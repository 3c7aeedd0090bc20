"""Exact Hilbert series arithmetic from monomial lead data.

Everything a graded question needs reduces here to the numerator of a Hilbert
series: for a quotient of a twisted free module by a monomial lead module,

    H(t) = numerator(t) / prod_i (1 - t^(w_i)),

with the numerator computed by the colon recursion (Bayer-Stillman,
"Computation of Hilbert functions", JSC 14, 1992)

    N(I + (m)) = N(I) - t^(deg m) * N(I : m)

memoized on minimal monomial generating sets. The input is pruned to its
minimal generators once; the recursion then drops the last generator from a
list that stays minimal and sorted, so only the colon list is pruned again.
Lengths come from exact division of the numerator by every (1 - t^(w_i))
factor (non-divisibility certifies infinite length), Krull dimension from
the pole order at t = 1, and graded dimensions from a finite window of the
power-series expansion.

Numerators are dicts {degree: int}; negative degrees are legal because twists
may be negative.
"""

from __future__ import annotations

import math

_NUMERATOR_MEMO = {}


def minimal_monomials(ring, monos):
    """Prune a monomial set to its minimal members under divisibility."""
    uniq = sorted(set(monos), key=lambda m: (ring.mono_degree(m), m))
    out = []
    for m in uniq:
        if not any(ring.mono_divides(p, m) for p in out):
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
    """ideal_numerator of a list that minimal_monomials returned, or a prefix
    of one: minimal under divisibility and sorted by (degree, exponents)."""
    if not monos:
        return {0: 1}
    if not any(monos[0]):
        return {}  # the unit monomial is a generator; degree 0 sorts it first
    key = (ring.weights, tuple(monos))
    hit = _NUMERATOR_MEMO.get(key)
    if hit is not None:
        return hit
    if len(monos) == 1:
        out = {0: 1, ring.mono_degree(monos[0]): -1}
        _NUMERATOR_MEMO[key] = out
        return out
    # split on the highest-degree generator, the last one
    pivot = monos[-1]
    rest = monos[:-1]
    n_rest = _minimal_numerator(ring, rest)
    n_colon = _minimal_numerator(ring, monomial_colon(ring, rest, pivot))
    out = numer_add(n_rest, numer_shift(n_colon, ring.mono_degree(pivot)), sign=-1)
    _NUMERATOR_MEMO[key] = out
    return out


def module_numerator(ring, leads_by_comp, twists):
    """Numerator for (+)_c R(-twist_c) / (lead monomials in component c)."""
    out = {}
    for c, monos in enumerate(leads_by_comp):
        out = numer_add(out, numer_shift(ideal_numerator(ring, monos), twists[c]))
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
