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
from operator import le as _le, mul as _mul, sub as _sub

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

    _residue_field holds k = R/m once invariants.residue_field has built it,
    so that every reader of Ext(k, -) grows one kept resolution of k.
    _bound_orders holds the BoundOrders that TermOrder.bind has made over
    this ring, one per (order signature, twists, blocks).
    """

    __slots__ = (
        "char", "names", "weights", "relations", "_index", "_sig", "_residue_field",
        "_bound_orders",
    )

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
        self._residue_field = None
        self._bound_orders = {}

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

    Each order compares a fixed sequence of integer fields, linear in the
    exponents: block, component rank (last under "top"), then the ring
    order's fields (grevlex: weighted degree, then the negated exponents
    from the last variable; lex: the exponents in priority order; elim: the
    grevlex fields of each block). BoundOrder packs them into one int.
    """

    __slots__ = ("kind", "priority", "elim", "module_kind", "_sig")

    def __init__(self, kind="grevlex", priority=None, elim=(), module_kind="pot"):
        if kind not in ("grevlex", "lex", "elim"):
            raise ConfigurationError("unsupported ring order kind %r" % kind)
        if module_kind not in ("pot", "top"):
            raise ConfigurationError("unsupported module order kind %r" % module_kind)
        self.kind = kind
        self.priority = tuple(priority) if priority is not None else None
        self.elim = tuple(elim)
        self.module_kind = module_kind
        self._sig = "%s|p=%s|e=%s|%s" % (kind, self.priority, self.elim, module_kind)

    def signature(self):
        return self._sig

    def bind(self, ring, twists, blocks=None):
        """The BoundOrder of this order over ring and the ambient twists
        and blocks. The ring keeps one per (signature, twists, blocks), so
        every submodule and solver over one ambient shares its keys."""
        twists = tuple(twists)
        blocks = (0,) * len(twists) if blocks is None else tuple(blocks)
        key = (self._sig, twists, blocks)
        bound = ring._bound_orders.get(key)
        if bound is None:
            bound = ring._bound_orders[key] = BoundOrder(self, ring, twists, blocks)
        return bound


# A packed key holds each field as a signed digit of FIELD_BITS bits. Two
# keys compare like their field tuples while the two values of every field
# differ by less than 2^FIELD_BITS; a field of a monomial of weighted degree
# d lies in [0, d] or, negated, in [-d, 0]. So MAX_DEGREE is the largest
# weighted degree the keys order exactly.
FIELD_BITS = 32
MAX_DEGREE = (1 << FIELD_BITS) - 1


def check_degree(ring, mono):
    """Refuse, with ConfigurationError, a monomial no packed key can order."""
    if ring.mono_degree(mono) > MAX_DEGREE:
        raise ConfigurationError(
            "monomial of weighted degree %d exceeds the term order limit %d"
            % (ring.mono_degree(mono), MAX_DEGREE)
        )


def _grevlex_fields(weights, idxs):
    """grevlex fields over the variables idxs: the degree, then the negated
    exponents from the last index; one coefficient row per field."""
    fields = [{i: weights[i] for i in idxs}]
    fields.extend({i: -1} for i in reversed(idxs))
    return fields


class BoundOrder:
    """A term order bound to a ring and an ambient free module.

    term_key((c, m)) is one int, base[c] + sum(m_i * coef[i]), and
    mono_key(m) is sum(m_i * mcoef[i]); larger key = larger term. The
    fields of TermOrder are packed as signed FIELD_BITS-bit digits, with the
    coefficients precomputed here. Monomials up to MAX_DEGREE are ordered
    exactly; reduce_vec and term_basis refuse larger ones (check_degree)
    rather than mis-order them. Rank and block values (0 and 1 in
    LiftSolver) sit far inside one field. Made by TermOrder.bind, which
    keeps one per key on the ring.
    """

    __slots__ = ("order", "ring", "twists", "blocks", "base", "coef", "mcoef")

    def __init__(self, order, ring, twists, blocks):
        self.order = order
        self.ring = ring
        self.twists = twists
        self.blocks = blocks
        n = ring.nvars
        if order.kind == "grevlex":
            fields = _grevlex_fields(ring.weights, range(n))
        elif order.kind == "lex":
            fields = [{i: 1} for i in (order.priority or range(n))]
        else:
            in_elim = set(order.elim)
            rest = [i for i in range(n) if i not in in_elim]
            fields = _grevlex_fields(ring.weights, order.elim) + _grevlex_fields(ring.weights, rest)
        top = len(fields)
        mcoef = [0] * n
        for pos, field in enumerate(fields):
            for i, a in field.items():
                mcoef[i] += a << (FIELD_BITS * (top - 1 - pos))
        # position-over-term priority: descending twist, ties by index; the
        # earlier a component sorts, the larger its rank field (0, -1, ...).
        comps = sorted(range(len(self.twists)), key=lambda c: (-self.twists[c], c))
        rank_of = [0] * len(self.twists)
        for pos, c in enumerate(comps):
            rank_of[c] = -pos
        block_shift = FIELD_BITS * (top + 1)
        if order.module_kind == "pot":
            self.coef = tuple(mcoef)
            self.base = tuple(
                (b << block_shift) + (r << FIELD_BITS * top) for b, r in zip(self.blocks, rank_of)
            )
        else:
            self.coef = tuple(a << FIELD_BITS for a in mcoef)
            self.base = tuple((b << block_shift) + r for b, r in zip(self.blocks, rank_of))
        self.mcoef = tuple(mcoef)

    def mono_key(self, mono):
        return sum(map(_mul, mono, self.mcoef))

    def term_key(self, term):
        c, mono = term
        return self.base[c] + sum(map(_mul, mono, self.coef))


GREVLEX = TermOrder()
