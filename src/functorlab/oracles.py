"""Degree-bounded brute-force oracles.

Nothing in this module touches the Groebner machinery. Strand bases are
enumerated monomial by monomial and kernels come from dense row reduction
over the coefficient field, so these routines can certify or indict the
fast routes on small windows. Costs are exponential-ish in the window;
keep them desk-sized.
"""

from .errors import ContractViolation
from .fpmodule import FPModule
from .poly import Poly, Vec


INF = float("inf")


def monomials_of_degree(ring, d):
    """All exponent tuples of weighted degree exactly d, in lex order."""
    if d < 0:
        return []
    out = []
    mono = [0] * ring.nvars

    def walk(i, remaining):
        if i == ring.nvars - 1:
            w = ring.weights[i]
            if remaining % w == 0:
                mono[i] = remaining // w
                out.append(tuple(mono))
                mono[i] = 0
            return
        w = ring.weights[i]
        for e in range(remaining // w + 1):
            mono[i] = e
            walk(i + 1, remaining - e * w)
        mono[i] = 0

    walk(0, d)
    return out


def strand_basis(ring, twists, d):
    """Basis [(component, mono)] of degree-d elements of the twisted free module."""
    basis = []
    for i, t in enumerate(twists):
        for mono in monomials_of_degree(ring, d - t):
            basis.append((i, mono))
    return basis


def rref(rows, ring):
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ring.add(a, ring.neg(ring.mul(f, b)))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(rows, ring):
    return len(rref([list(row) for row in rows], ring))


def nullspace(rows, ncols, ring):
    """Basis of {x : A x = 0} for A given by rows; coordinates per column."""
    work = [list(row) for row in rows]
    pivots = rref(work, ring)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        x = [ring.coeff(0)] * ncols
        x[fc] = ring.one
        for r, pc in enumerate(pivots):
            x[pc] = ring.neg(work[r][fc])
        basis.append(x)
    return basis


def _vec_coords(v, basis_index, ring):
    coords = [ring.coeff(0)] * len(basis_index)
    for key, cf in v.terms.items():
        slot = basis_index.get(key)
        if slot is None:
            raise ContractViolation("vector leaves the expected strand")
        coords[slot] = ring.add(coords[slot], cf)
    return coords


def brute_kernel_strand(ring, src_twists, columns, tgt_twists, d):
    """Nullspace of one graded strand of the free map with the given columns.

    columns[j] is the image Vec of the j-th source generator. Returns source
    Vecs spanning the kernel in degree d. Strands list every monomial and
    products are not reduced, so over a quotient base the base relations
    times each target unit vector are extra columns, cut off the kernel
    vectors: a vector whose image vanishes only modulo the relations is
    found.
    """
    count = len(columns)
    extra = [
        Vec(ring, {(i, m): c for m, c in rel.terms.items()})
        for rel in ring.relations for i in range(len(tgt_twists))
    ]
    columns = list(columns) + extra
    src_twists = tuple(src_twists) + tuple(v.degree(tgt_twists) for v in extra)
    src = strand_basis(ring, src_twists, d)
    tgt = strand_basis(ring, tgt_twists, d)
    tgt_index = {key: i for i, key in enumerate(tgt)}
    images = []
    for j, mono in src:
        img = columns[j].mul_poly(Poly(ring, {mono: ring.one}))
        images.append(_vec_coords(img, tgt_index, ring))
    # rows of the system are target coordinates, unknowns are source slots
    rows = [[images[s][t] for s in range(len(src))] for t in range(len(tgt))]
    out = []
    for x in nullspace(rows, len(src), ring):
        terms = {}
        for slot, cf in enumerate(x):
            j, mono = src[slot]
            if cf and j < count:
                terms[(j, mono)] = cf
        if terms:
            out.append(Vec(ring, terms))
    return out


def brute_kernel(ring, src_twists, columns, tgt_twists, degrees):
    out = []
    for d in degrees:
        out.extend(brute_kernel_strand(ring, src_twists, columns, tgt_twists, d))
    return out


def staircase_count(ring, gen_monos, degree_cap=200):
    """Number of monomials outside the monomial ideal; raises when infinite."""
    gens = [tuple(m) for m in gen_monos]
    total = 0
    d = 0
    while d <= degree_cap:
        standard = 0
        for mono in monomials_of_degree(ring, d):
            if not any(all(a >= b for a, b in zip(mono, g)) for g in gens):
                standard += 1
        if standard == 0:
            return total
        total += standard
        d += 1
    raise ContractViolation("staircase did not close below degree %d" % degree_cap)


# -- module strands and regular sequences -------------------------------------------


def _strand_matrix(vectors, basis_index, ring, twists, d):
    """Columns m*v restricted to the strand, for each vector and fitting mono."""
    cols = []
    for v in vectors:
        if not v:
            continue
        vdeg = v.degree(twists)
        for mono in monomials_of_degree(ring, d - vdeg):
            shifted = v.mul_poly(Poly(ring, {mono: ring.one}))
            cols.append(_vec_coords(shifted, basis_index, ring))
    return cols


def module_is_zero_brute(module):
    """Every generator lies in the relation span, checked strand by strand."""
    ring = module.ring
    for g in module.gens:
        if not g:
            continue
        d = g.degree(module.twists)
        basis = strand_basis(ring, module.twists, d)
        index = {key: i for i, key in enumerate(basis)}
        rel_cols = _strand_matrix(module.rels, index, ring, module.twists, d)
        gcol = _vec_coords(g, index, ring)
        rows_without = [list(col) for col in rel_cols]
        rows_with = rows_without + [gcol]
        if matrix_rank(rows_with, ring) != matrix_rank(rows_without, ring):
            return False
    return True


def is_regular_element_brute(module, f, window):
    """No strand of the module meets ker(f*) on [base, base + window)."""
    ring = module.ring
    if not f or not module.gens:
        return False
    fdeg = f.degree()
    base = min(g.degree(module.twists) for g in module.gens if g)
    for d in range(base, base + window):
        basis = strand_basis(ring, module.twists, d)
        if not basis:
            continue
        index = {key: i for i, key in enumerate(basis)}
        span_vecs = [v for v in list(module.gens) + list(module.rels) if v]
        span_cols = _strand_matrix(span_vecs, index, ring, module.twists, d)
        rel_cols = _strand_matrix(module.rels, index, ring, module.twists, d)
        up_basis = strand_basis(ring, module.twists, d + fdeg)
        up_index = {key: i for i, key in enumerate(up_basis)}
        up_rel_cols = _strand_matrix(module.rels, up_index, ring, module.twists, d + fdeg)
        # unknowns: a (span coords), b (upper relation coords); rows: f*span(a) = rel(b)
        n_a, n_b = len(span_cols), len(up_rel_cols)
        if n_a == 0:
            continue
        f_cols = []
        for v in span_vecs:
            vdeg = v.degree(module.twists)
            for mono in monomials_of_degree(ring, d - vdeg):
                shifted = v.mul_poly(f * Poly(ring, {mono: ring.one}))
                f_cols.append(_vec_coords(shifted, up_index, ring))
        rows = []
        for t in range(len(up_basis)):
            row = [f_cols[s][t] for s in range(n_a)]
            row.extend(ring.neg(up_rel_cols[s][t]) for s in range(n_b))
            rows.append(row)
        for x in nullspace(rows, n_a + n_b, ring):
            a = x[:n_a]
            if not any(a):
                continue
            # candidate kernel element: sum a_s * span_col_s ; regular iff it
            # already lies in the degree-d relation span
            vcol = [ring.coeff(0)] * len(basis)
            for s, cf in enumerate(a):
                if cf:
                    for t in range(len(basis)):
                        vcol[t] = ring.add(vcol[t], ring.mul(cf, span_cols[s][t]))
            if not any(vcol):
                continue
            rows_without = [list(col) for col in rel_cols]
            rows_with = rows_without + [vcol]
            if matrix_rank(rows_with, ring) != matrix_rank(rows_without, ring):
                return False
    return True


def grade_by_regular_sequence(ideal_polys, module, window=8):
    """Exhaustive search over generators and pairwise sums of the ideal.

    Returns the length of the longest regular sequence found, or inf when
    the module is (brute-verified) zero. Evidence-level: regular elements
    outside the candidate set are invisible, which suffices at desk scale.
    """
    if module_is_zero_brute(module):
        return INF
    candidates = [p for p in ideal_polys if p]
    for i in range(len(ideal_polys)):
        for j in range(i + 1, len(ideal_polys)):
            s = ideal_polys[i] + ideal_polys[j]
            if s:
                candidates.append(s)
    for f in candidates:
        if is_regular_element_brute(module, f, window):
            ring = module.ring
            rels = list(module.rels) + [g.mul_poly(f) for g in module.gens if g]
            quotient = FPModule(
                ring, module.rank, module.twists, module.gens, rels, check=False
            )
            deeper = grade_by_regular_sequence(ideal_polys, quotient, window)
            return INF if deeper == INF else 1 + deeper
    return 0
