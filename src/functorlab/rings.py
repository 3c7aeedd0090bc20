"""Ring descriptors and term orders.

A PolyRing is a weighted-graded polynomial ring over GF(p) or Q, optionally
modulo a tuple of homogeneous relations. The descriptor owns coefficient
arithmetic; quotient-ring behaviour is realised downstream by adjoining
relation multiples to every Groebner computation, so one code path serves
polynomial and quotient bases alike.

Coefficients are plain ints in [0, p) for positive characteristic and
fractions.Fraction for characteristic zero. Monomials are exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
# integer exponent arithmetic, distinct from the coefficient field's add/mul
from operator import le as _le, mul as _mul, neg as _neg, sub as _sub

from .errors import ConfigurationError

DEFAULT_CHARACTERISTIC = 32003


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PolyRing:
    """Descriptor for k[x_1..x_n] with positive integer weights.

    relations, when nonempty, are homogeneous Poly instances over this same
    descriptor (attached via quotient_ring in poly.py to avoid a circular
    construction); they present a quotient ring k[x]/I0.
    """

    __slots__ = ("char", "names", "weights", "relations", "_index", "_sig")

    def __init__(self, names, char=DEFAULT_CHARACTERISTIC, weights=None, relations=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ConfigurationError("variable names must be distinct: %r" % (names,))
        if char != 0 and not _is_prime(char):
            raise ConfigurationError("characteristic must be 0 or prime, got %r" % char)
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names) or any(w <= 0 for w in weights):
            raise ConfigurationError("need one positive weight per variable")
        self.char = char
        self.names = names
        self.weights = weights
        self.relations = tuple(relations)
        self._index = {n: i for i, n in enumerate(names)}
        self._sig = None

    # -- coefficient field ---------------------------------------------------

    @property
    def nvars(self):
        return len(self.names)

    def coeff(self, value):
        """Normalize an int, Fraction, or 'a/b' string into the field."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.char:
            if isinstance(value, Fraction):
                return value.numerator * self.inv(value.denominator % self.char) % self.char
            return int(value) % self.char
        return Fraction(value)

    @property
    def zero(self):
        return 0 if self.char else Fraction(0)

    @property
    def one(self):
        return 1 if self.char else Fraction(1)

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if self.char:
            a %= self.char
            if a == 0:
                raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.char)
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return Fraction(1) / a

    # -- monomials -----------------------------------------------------------

    def mono_degree(self, mono):
        return sum(map(_mul, mono, self.weights))

    def mono_divides(self, a, b):
        """True when x^a divides x^b."""
        return all(map(_le, a, b))

    def mono_div(self, a, b):
        """Exponent tuple of x^a / x^b; caller guarantees divisibility."""
        return tuple(map(_sub, a, b))

    def mono_lcm(self, a, b):
        return tuple(map(max, a, b))

    def mono_gcd(self, a, b):
        return tuple(map(min, a, b))

    def unit_mono(self):
        return (0,) * self.nvars

    def var_mono(self, i, power=1):
        e = [0] * self.nvars
        e[i] = power
        return tuple(e)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError("unknown variable %r in ring %s" % (name, self.signature()))

    # -- identity ------------------------------------------------------------

    def signature(self):
        if self._sig is None:
            field = "QQ" if self.char == 0 else "GF(%d)" % self.char
            rels = ",".join(str(r) for r in self.relations)
            self._sig = "%s[%s;w=%s]/(%s)" % (
                field,
                ",".join(self.names),
                ",".join(str(w) for w in self.weights),
                rels,
            )
        return self._sig

    def __repr__(self):
        return "PolyRing(%s)" % self.signature()

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())


class TermOrder:
    """Term order descriptor: a ring order plus a module extension.

    kind: "grevlex", "lex" (with optional variable priority permutation), or
    "elim" (the variables listed in elim are compared first, grevlex within
    each block; used for elimination of Rees parameters).

    module_kind: "pot" (position over term, components ranked by descending
    twist, ties by index) or "top" (term over position). Elimination
    computations bind extra component blocks: any term in a higher block beats
    any term in a lower block, which is what makes "tag" coordinates readable
    off a Groebner basis.
    """

    __slots__ = ("kind", "priority", "elim", "module_kind")

    def __init__(self, kind="grevlex", priority=None, elim=(), module_kind="pot"):
        if kind not in ("grevlex", "lex", "elim"):
            raise ConfigurationError("unsupported ring order kind %r" % kind)
        if module_kind not in ("pot", "top"):
            raise ConfigurationError("unsupported module order kind %r" % module_kind)
        self.kind = kind
        self.priority = tuple(priority) if priority is not None else None
        self.elim = tuple(elim)
        self.module_kind = module_kind

    def signature(self):
        return "%s|p=%s|e=%s|%s" % (self.kind, self.priority, self.elim, self.module_kind)

    def bind(self, ring, twists, blocks=None):
        return BoundOrder(self, ring, twists, blocks)


class BoundOrder:
    """A term order bound to a ring and an ambient free module.

    Provides sort keys (larger key = larger term). Module terms are pairs
    (component, exponent tuple).
    """

    __slots__ = ("order", "ring", "twists", "blocks", "_rank_of", "_elim_rest")

    def __init__(self, order, ring, twists, blocks=None):
        self.order = order
        self.ring = ring
        self.twists = tuple(twists)
        if blocks is None:
            blocks = (0,) * len(self.twists)
        self.blocks = tuple(blocks)
        # position-over-term priority: descending twist, ties by index; the
        # earlier a component sorts, the larger its key contribution.
        comps = sorted(range(len(self.twists)), key=lambda c: (-self.twists[c], c))
        rank_of = [0] * len(self.twists)
        for pos, c in enumerate(comps):
            rank_of[c] = -pos
        self._rank_of = tuple(rank_of)
        if order.kind == "elim":
            in_elim = set(order.elim)
            self._elim_rest = tuple(i for i in range(ring.nvars) if i not in in_elim)
        else:
            self._elim_rest = ()

    def _grevlex_key(self, mono, idxs=None):
        w = self.ring.weights
        if idxs is None:
            return (sum(map(_mul, mono, w)), tuple(map(_neg, reversed(mono))))
        deg = sum(mono[i] * w[i] for i in idxs)
        return (deg, tuple(-mono[i] for i in reversed(idxs)))

    def mono_key(self, mono):
        o = self.order
        if o.kind == "grevlex":
            return self._grevlex_key(mono)
        if o.kind == "lex":
            pr = o.priority or range(len(mono))
            return tuple(mono[i] for i in pr)
        return (self._grevlex_key(mono, o.elim), self._grevlex_key(mono, self._elim_rest))

    def term_key(self, term):
        c, mono = term
        if self.order.module_kind == "pot":
            return (self.blocks[c], self._rank_of[c], self.mono_key(mono))
        return (self.blocks[c], self.mono_key(mono), self._rank_of[c])

    def signature(self):
        return "%s|tw=%s|bl=%s" % (self.order.signature(), self.twists, self.blocks)


GREVLEX = TermOrder()
