"""Every route that sets a Groebner basis leaves it reduced in its leads.

Hilbert numerators read the leads of a basis as they are, as the minimal
generators of its lead module, only sorted (hilbert.module_numerator). So
on every route that sets a basis (the Buchberger loop, term_basis, the
whole ambient module, blocks, products, the preset term bases of colons
and intersections, and a cache hit) the leads must be sorted by term_key
with no lead dividing another in its component, on each corpus base kind.
The numerator of a module over each basis is also compared with the old
route, which pruned the leads with minimal_monomials first.
"""

import random

import pytest

from functorlab import cache
from functorlab.corpus import INPUTS, KINDS, base
from functorlab.fpmodule import FPModule
from functorlab.groebner import base_relation_terms, buchberger, spans_terms, term_basis
from functorlab.hilbert import minimal_monomials, module_numerator, numer_add
from functorlab.oracles import monomials_of_degree
from functorlab.poly import Vec
from functorlab.submodule import IdealFamily, Submodule, ideal, submodule

TWISTS = (0, 1)


def _random_terms(rng, ring, count):
    out = []
    for _ in range(count):
        m = rng.choice(monomials_of_degree(ring, rng.randint(1, 4)))
        out.append((rng.randrange(len(TWISTS)), m))
    return out


def _term_module(ring, terms):
    gens = [Vec(ring, {t: ring.one}) for t in terms]
    return Submodule(ring, len(TWISTS), TWISTS, gens, check=False)


def _ideals(ring, inputs, terms):
    """The corpus ideals of one base whose generators are (or are not) all terms."""
    out = [ideal(ring, texts) for texts in inputs.ideals]
    return [i for i in out if all(len(g.terms) == 1 for g in i.gens) == terms]


def _module(ring, inputs):
    """The rank-2 corpus module of the base, spanned by two columns."""
    return submodule(ring, 2, (0, 0), inputs.syzygies[-1])


def _route_buchberger(ring, inputs, rng):
    out = []
    for sub in [ideal(ring, texts) for texts in inputs.ideals] + [_module(ring, inputs)]:
        sub._gb = buchberger(sub.gens, ring=ring, rank=sub.rank, twists=sub.twists,
                             bound=sub.bound)
        out.append(sub)
    return out


def _route_term_basis(ring, _inputs, rng):
    out = []
    for _ in range(4):
        terms = _random_terms(rng, ring, rng.randint(1, 9))
        sub = _term_module(ring, terms)
        sub._gb = term_basis(terms + base_relation_terms(ring, sub.rank), sub.bound, ring)
        out.append(sub)
    return out


def _route_whole(ring, _inputs, _rng):
    x, y = ring.var_mono(0), ring.var_mono(1)
    gens = [Vec.unit(ring, 1), Vec(ring, {(0, x): ring.one, (1, y): ring.one}), Vec.unit(ring, 0)]
    sub = Submodule(ring, len(TWISTS), TWISTS, gens, check=False)
    assert not spans_terms(sub.gens, ring)
    sub.groebner()
    return [sub]


def _route_blocks(ring, inputs, rng):
    out = []
    for sub in [_module(ring, inputs), _term_module(ring, _random_terms(rng, ring, 5))]:
        sub.groebner()
        copies = sub.blocks((0, 2, 1))
        assert copies._gb is not None
        out.append(copies)
    return out


def _route_multiply_ideal(ring, inputs, rng):
    out = []
    for multiplier in _ideals(ring, inputs, terms=True):
        target = _term_module(ring, _random_terms(rng, ring, 4))
        product = target.multiply_ideal(multiplier)
        assert (product._gb is None) == bool(ring.relations)
        out.append(product)
    terms = _ideals(ring, inputs, terms=True)
    family = IdealFamily(terms[:2])
    out.extend(family.power_product(exps) for exps in ((1, 0), (2, 1), (1, 3)))
    for multiplier in _ideals(ring, inputs, terms=False):
        out.append(_module(ring, inputs).multiply_ideal(multiplier))
    return out


def _route_term_submodule(ring, inputs, rng):
    out = []
    terms = _ideals(ring, inputs, terms=True)
    for i in terms:
        for j in terms:
            out.append(i.intersect(j))
            out.append(i.colon(j))
            out.append(i.colon_module([g.component(0) for g in j.gens]))
    target = _term_module(ring, _random_terms(rng, ring, 6))
    out.append(target.colon_module([terms[0].gens[0].component(0)]))
    if not ring.relations:  # the terms of the meets are the preset basis
        assert all(sub._gb is not None for sub in out)
    return out


def _route_cache(ring, inputs, directory):
    subs = _ideals(ring, inputs, terms=False) + [_module(ring, inputs)]
    previous = cache.install(cache.Cache(directory=directory))
    try:
        for sub in subs:
            sub.groebner()
        reader = cache.Cache(directory=directory)
        cache.install(reader)
        out = [Submodule(ring, sub.rank, sub.twists, sub.gens, check=False) for sub in subs]
        for sub in out:
            sub.groebner()
        assert reader.stats()["hits"] == len(subs)
    finally:
        cache.install(previous)
    return out


ROUTES = {
    "buchberger": _route_buchberger,
    "term_basis": _route_term_basis,
    "whole": _route_whole,
    "blocks": _route_blocks,
    "multiply_ideal": _route_multiply_ideal,
    "term_submodule": _route_term_submodule,
}


def _assert_reduced_leads(sub):
    ring, bound = sub.ring, sub.bound
    leads = [g.lead(bound)[0] for g in sub.groebner()]
    keys = [bound.term_key(t) for t in leads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys), leads
    for i, (c, m) in enumerate(leads):
        for j, (d, p) in enumerate(leads):
            assert i == j or c != d or not ring.mono_divides(p, m), (leads[j], leads[i])


def _reference_numerator(sub):
    """module_numerator over the leads pruned by minimal_monomials."""
    pruned = [minimal_monomials(sub.ring, monos) for monos in sub.lead_monomials()]
    return module_numerator(sub.ring, pruned, sub.twists)


def _assert_numerator(sub):
    ring = sub.ring
    whole = Submodule(ring, sub.rank, sub.twists,
                      [Vec.unit(ring, c) for c in range(sub.rank)], check=False)
    expected = numer_add(_reference_numerator(sub), _reference_numerator(whole), sign=-1)
    assert FPModule.of(whole, sub).numerator() == expected


def _check(subs):
    assert subs
    for sub in subs:
        _assert_reduced_leads(sub)
        _assert_numerator(sub)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_basis_route_keeps_its_leads_reduced(route, kind):
    ring = base(kind)
    _check(ROUTES[route](ring, INPUTS[kind], random.Random(KINDS.index(kind))))


@pytest.mark.parametrize("kind", KINDS)
def test_a_cache_hit_keeps_its_leads_reduced(kind, tmp_path):
    ring = base(kind)
    _check(_route_cache(ring, INPUTS[kind], str(tmp_path)))
