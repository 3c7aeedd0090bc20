"""Sparse exact polynomials and free-module vectors.

Poly stores {exponent tuple: coefficient} over a PolyRing. Vec stores
{(component, exponent tuple): coefficient} and represents an element of a free
module R^k; the rank is context the caller carries (vectors themselves only
know which components they touch). Both are immutable by convention: every
operation returns a fresh object.

Canonical string forms sort terms by a fixed grevlex key so that equal
elements always print identically; caches and reports rely on this.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigurationError, HomogeneityError
from .rings import PolyRing


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, value):
        c = ring.coeff(value)
        return cls(ring, {ring.unit_mono(): c} if c else {})

    @classmethod
    def variable(cls, ring, name):
        return cls(ring, {ring.var_mono(ring.var_index(name)): ring.one})

    # -- arithmetic ------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        ring = self.ring
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            s = ring.add(acc, c) if acc is not None else c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly(ring, terms)

    def __neg__(self):
        ring = self.ring
        return Poly(ring, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        if not self.terms or not other.terms:
            return Poly(ring, {})
        out = {}
        mul, add = ring.mul, ring.add
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = mul(c1, c2)
                acc = out.get(m)
                s = add(acc, c) if acc is not None else c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(ring, out)

    def scale(self, coeff):
        ring = self.ring
        coeff = ring.coeff(coeff)
        if not coeff:
            return Poly(ring, {})
        return Poly(ring, {m: ring.mul(c, coeff) for m, c in self.terms.items()})

    def mul_term(self, coeff, mono):
        ring = self.ring
        coeff = ring.coeff(coeff)
        if not coeff:
            return Poly(ring, {})
        mul = ring.mul
        return Poly(
            ring,
            {tuple(a + b for a, b in zip(m, mono)): mul(c, coeff) for m, c in self.terms.items()},
        )

    def __pow__(self, n):
        """self^n by repeated squaring."""
        out = Poly.constant(self.ring, 1)
        base, n = self, int(n)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- structure -------------------------------------------------------

    def degree(self):
        """Weighted degree of a homogeneous polynomial; raises otherwise."""
        degs = {self.ring.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError("inhomogeneous polynomial: %s" % self)
        return degs.pop()

    def is_homogeneous(self):
        return len({self.ring.mono_degree(m) for m in self.terms}) <= 1

    def lead(self, bound):
        mono = max(self.terms, key=bound.mono_key)
        return mono, self.terms[mono]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring.signature() == other.ring.signature()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.signature(), frozenset(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    __repr__ = __str__


class Vec:
    """Element of a free module R^k as {(component, mono): coeff}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def from_polys(cls, polys):
        terms = {}
        ring = polys[0].ring
        for c, p in enumerate(polys):
            for m, coeff in p.terms.items():
                terms[(c, m)] = coeff
        return cls(ring, terms)

    @classmethod
    def unit(cls, ring, comp):
        return cls(ring, {(comp, ring.unit_mono()): ring.one})

    @classmethod
    def from_poly(cls, poly, comp=0):
        return cls(poly.ring, {(comp, m): c for m, c in poly.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        ring = self.ring
        terms = dict(self.terms)
        for t, c in other.terms.items():
            acc = terms.get(t)
            s = ring.add(acc, c) if acc is not None else c
            if s:
                terms[t] = s
            else:
                terms.pop(t, None)
        return Vec(ring, terms)

    def __neg__(self):
        ring = self.ring
        return Vec(ring, {t: ring.neg(c) for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        ring = self.ring
        coeff = ring.coeff(coeff)
        if not coeff:
            return Vec(ring, {})
        return Vec(ring, {t: ring.mul(c, coeff) for t, c in self.terms.items()})

    def mul_term(self, coeff, mono):
        """Multiply by coeff * x^mono (ring monomial action)."""
        ring = self.ring
        coeff = ring.coeff(coeff)
        if not coeff:
            return Vec(ring, {})
        mul = ring.mul
        return Vec(
            ring,
            {
                (c, tuple(a + b for a, b in zip(m, mono))): mul(cf, coeff)
                for (c, m), cf in self.terms.items()
            },
        )

    def mul_poly(self, poly):
        ring = self.ring
        out = Vec(ring, {})
        for m, c in poly.terms.items():
            out = out + self.mul_term(c, m)
        return out

    def shifted(self, offset):
        """Same vector with every component index raised by offset."""
        return Vec(self.ring, {(c + offset, m): cf for (c, m), cf in self.terms.items()})

    def component(self, c):
        return Poly(self.ring, {m: cf for (cc, m), cf in self.terms.items() if cc == c})

    def components(self, rank):
        polys = [dict() for _ in range(rank)]
        for (c, m), cf in self.terms.items():
            polys[c][m] = cf
        return [Poly(self.ring, d) for d in polys]

    def max_component(self):
        return max((c for (c, _m) in self.terms), default=-1)

    def degree(self, twists):
        """Degree under ambient twists; raises on inhomogeneous input."""
        degs = {self.ring.mono_degree(m) + twists[c] for (c, m) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError("inhomogeneous vector: %s" % self.to_strings(len(twists)))
        return degs.pop()

    def is_homogeneous(self, twists):
        return len({self.ring.mono_degree(m) + twists[c] for (c, m) in self.terms}) <= 1

    def lead(self, bound):
        term = max(self.terms, key=bound.term_key)
        return term, self.terms[term]

    def __eq__(self, other):
        return (
            isinstance(other, Vec)
            and self.ring.signature() == other.ring.signature()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.signature(), frozenset(self.terms.items())))

    def to_strings(self, rank):
        return [format_poly(p) for p in self.components(rank)]

    def __repr__(self):
        return "Vec(%s)" % ", ".join(self.to_strings(self.max_component() + 1))


# -- formatting ------------------------------------------------------------


def _canonical_mono_key(ring, mono):
    return (ring.mono_degree(mono), tuple(-e for e in reversed(mono)))


def _format_mono(ring, mono):
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(ring.names[i])
        elif e > 1:
            parts.append("%s^%d" % (ring.names[i], e))
    return "*".join(parts)


def format_poly(poly):
    ring = poly.ring
    if not poly.terms:
        return "0"
    monos = sorted(poly.terms, key=lambda m: _canonical_mono_key(ring, m), reverse=True)
    out = []
    for m in monos:
        c = poly.terms[m]
        neg = (not ring.char) and c < 0
        mag = -c if neg else c
        mono_s = _format_mono(ring, m)
        if not mono_s:
            body = str(mag)
        elif mag == ring.one:
            body = mono_s
        else:
            body = "%s*%s" % (mag, mono_s)
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


# -- parsing ----------------------------------------------------------------


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch.isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j]))
                i = j
            elif ch in "+-*^()/":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ConfigurationError("bad character %r in polynomial %r" % (ch, text))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        if self.pos >= len(self.toks):
            raise ConfigurationError("unexpected end of polynomial")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ConfigurationError("expected %s, got %r" % (kind, tok[1]))
        self.pos += 1
        return tok


def parse_poly(ring, text):
    """Parse '+ - * ^ ( )' infix with integer or a/b rational coefficients."""
    if isinstance(text, Poly):
        if text.ring.signature() != ring.signature():
            raise ConfigurationError("polynomial belongs to a different ring")
        return text
    toks = _Tokens(str(text))
    poly = _parse_expr(ring, toks)
    if toks.peek() is not None:
        raise ConfigurationError("trailing tokens in polynomial %r" % text)
    return poly


def _parse_expr(ring, toks):
    if toks.peek() == "+":
        toks.take()
    negate = False
    if toks.peek() == "-":
        toks.take()
        negate = True
    acc = _parse_term(ring, toks)
    if negate:
        acc = -acc
    while toks.peek() in ("+", "-"):
        op = toks.take()[0]
        term = _parse_term(ring, toks)
        acc = acc + (-term if op == "-" else term)
    return acc


def _parse_term(ring, toks):
    acc = _parse_factor(ring, toks)
    while toks.peek() == "*":
        toks.take()
        acc = acc * _parse_factor(ring, toks)
    return acc


def _parse_factor(ring, toks):
    base = _parse_atom(ring, toks)
    if toks.peek() == "^":
        toks.take()
        exp = int(toks.take("int")[1])
        return base ** exp
    return base


def _parse_atom(ring, toks):
    kind = toks.peek()
    if kind == "(":
        toks.take()
        inner = _parse_expr(ring, toks)
        toks.take(")")
        return inner
    if kind == "-":
        toks.take()
        return -_parse_atom(ring, toks)
    if kind == "name":
        return Poly.variable(ring, toks.take()[1])
    if kind == "int":
        num = int(toks.take()[1])
        if toks.peek() == "/":
            toks.take()
            den = int(toks.take("int")[1])
            return Poly.constant(ring, Fraction(num, den))
        return Poly.constant(ring, num)
    raise ConfigurationError("unexpected token in polynomial")


def parse_vec(ring, strings):
    """Dense list of component polynomial strings -> Vec."""
    polys = [parse_poly(ring, s) for s in strings]
    return Vec.from_polys(polys) if polys else Vec.zero(ring)


# -- ring construction helpers ----------------------------------------------


def quotient_ring(ring, relations):
    """Attach homogeneous base relations, producing a quotient descriptor."""
    rels = []
    for r in relations:
        p = parse_poly(PolyRing(ring.names, ring.char, ring.weights), r) if isinstance(r, str) else r
        if not p.is_homogeneous():
            raise HomogeneityError("base relation %s is not homogeneous" % p)
        if p:
            rels.append(p)
    return PolyRing(ring.names, ring.char, ring.weights, tuple(rels))


def extend_ring(ring, new_names, new_weights):
    """R -> R[new vars]; base relations are carried over with padded exponents."""
    names = ring.names + tuple(new_names)
    weights = ring.weights + tuple(new_weights)
    big = PolyRing(names, ring.char, weights)
    rels = tuple(pad_poly(r, big) for r in ring.relations)
    return PolyRing(names, ring.char, weights, rels)


# Ring embeddings are prefixes: the larger ring appends variables and keeps
# the characteristic, so coefficients carry over unchanged.


def pad_poly(poly, ring):
    """poly read in ring, which extends poly.ring by trailing variables."""
    pad = (0,) * (ring.nvars - poly.ring.nvars)
    return Poly(ring, {m + pad: c for m, c in poly.terms.items()})


def pad_vec(vec, ring):
    """vec read in ring, which extends vec.ring by trailing variables."""
    pad = (0,) * (ring.nvars - vec.ring.nvars)
    return Vec(ring, {(c, m + pad): cf for (c, m), cf in vec.terms.items()})


def truncate_vec(vec, ring):
    """vec read in ring, a prefix of vec.ring; refuses a dropped variable."""
    n = ring.nvars
    terms = {}
    for (c, m), cf in vec.terms.items():
        if any(m[n:]):
            raise ConfigurationError("cannot truncate a term in a dropped variable")
        terms[(c, m[:n])] = cf
    return Vec(ring, terms)
