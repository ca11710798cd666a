"""Brute-force reference implementations, independent of the package.

Everything up to the last section is written directly against
fractions.Fraction and plain lists so that agreement with the package is
evidence, not tautology.  The last section holds constructions built on
the package that no command needs; they stay as cross-checks, the stem
extension above all, which rebuilds the Hopf route's multiplier as a
central ideal of a covering algebra.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from chi_lie import (
    BracketExpr,
    ConsistencyFailure,
    Matrix,
    Presentation,
    SparseEchelon,
    Subspace,
    derived_subalgebra,
    hom_from_generator_images,
    kernel,
    quotient,
)
from chi_lie.homology import _hopf_setting


def gauss_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Textbook Gauss-Jordan elimination."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return [row for row in m if any(x != 0 for x in row)], pivots


def gauss_rank(rows: list[list[Fraction]]) -> int:
    return len(gauss_rref(rows)[0])


def gauss_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis via free variables of the reduced system."""
    red, pivots = gauss_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def brute_h2(dim: int, table: dict[tuple[int, int], list[tuple[int, Fraction]]]) -> int:
    """Second homology of the wedge complex, from the raw bracket table.

    table maps (i, j) with i < j to the coordinates of [e_i, e_j]; other
    pairs are zero.  No package code involved.
    """

    def bracket_basis(i: int, j: int) -> list[Fraction]:
        out = [Fraction(0)] * dim
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j = j, i
            sign = -1
        for k, c in table.get((i, j), ()):
            out[k] += sign * c
        return out

    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    pidx = {p: t for t, p in enumerate(pairs)}
    nw = len(pairs)

    # d2 columns: e_i ^ e_j -> [e_i, e_j]
    d2_cols = [bracket_basis(i, j) for i, j in pairs]

    def wedge_with_basis(vec: list[Fraction], k: int) -> list[Fraction]:
        out = [Fraction(0)] * nw
        for m, b in enumerate(vec):
            if b == 0 or m == k:
                continue
            if m < k:
                out[pidx[(m, k)]] += b
            else:
                out[pidx[(k, m)]] -= b
        return out

    d3_cols = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                col = wedge_with_basis(bracket_basis(i, j), k)
                for t, x in enumerate(wedge_with_basis(bracket_basis(i, k), j)):
                    col[t] -= x
                for t, x in enumerate(wedge_with_basis(bracket_basis(j, k), i)):
                    col[t] += x
                d3_cols.append(col)

    rank_d2 = gauss_rank([list(r) for r in zip(*d2_cols)]) if d2_cols else 0
    rank_d3 = gauss_rank([list(r) for r in zip(*d3_cols)]) if d3_cols else 0
    return (nw - rank_d2) - rank_d3


def brute_lyndon_count(m: int, d: int) -> int:
    """Count length-d words strictly smaller than all their proper rotations."""
    count = 0
    for w in product(range(m), repeat=d):
        if all(w < w[r:] + w[:r] for r in range(1, d)):
            count += 1
    return count


def dense_bracket(
    dim: int, table: dict[tuple[int, int], tuple], u: list[Fraction], v: list[Fraction]
) -> list[Fraction]:
    """[u, v] by a loop over the whole structure table (i < j keys)."""
    out = [Fraction(0)] * dim
    for (i, j), terms in table.items():
        coef = u[i] * v[j] - u[j] * v[i]
        if coef != 0:
            for k, c in terms:
                out[k] += coef * c
    return out


def dense_eval(expr, images: list[list[Fraction]], dim: int, table) -> list[Fraction]:
    """Value of a bracket expression tree, every node a dense vector."""
    if expr.kind == "gen":
        return list(images[expr.index])
    if expr.kind == "scale":
        return [expr.coeff * x for x in dense_eval(expr.parts[0], images, dim, table)]
    if expr.kind == "sum":
        acc = [Fraction(0)] * dim
        for p in expr.parts:
            acc = [a + b for a, b in zip(acc, dense_eval(p, images, dim, table))]
        return acc
    a = dense_eval(expr.parts[0], images, dim, table)
    b = dense_eval(expr.parts[1], images, dim, table)
    return dense_bracket(dim, table, a, b)


def dense_hom_defect(
    dom_dim: int, dom_table, cod_dim: int, cod_table, rows: list[list[Fraction]]
) -> tuple[int, int] | None:
    """First basis pair (i, j), i < j, with M[e_i, e_j] != [M e_i, M e_j], or None.

    rows is the cod_dim x dom_dim matrix M.
    """
    cols = [[rows[r][i] for r in range(cod_dim)] for i in range(dom_dim)]
    for i in range(dom_dim):
        for j in range(i + 1, dom_dim):
            e = [Fraction(0)] * dom_dim
            for k, c in dom_table.get((i, j), ()):
                e[k] += c
            lhs = [sum((a * b for a, b in zip(row, e)), Fraction(0)) for row in rows]
            if lhs != dense_bracket(cod_dim, cod_table, cols[i], cols[j]):
                return (i, j)
    return None


def rebased_table(
    dim: int, table, p: list[list[Fraction]]
) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """Structure table in the basis f_a = sum_i p[i][a] e_i (p invertible)."""
    aug = [list(p[i]) + [Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    red, _ = gauss_rref(aug)
    pinv = [row[dim:] for row in red]
    cols = [[p[i][a] for i in range(dim)] for a in range(dim)]
    out = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            br = dense_bracket(dim, table, cols[a], cols[b])
            coords = [sum((pinv[r][i] * br[i] for i in range(dim)), Fraction(0)) for r in range(dim)]
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                out[(a, b)] = terms
    return out


def seeded_basis(dim: int, seed: int) -> list[list[Fraction]]:
    """Unit lower times unit upper triangular integer matrix: invertible."""
    rng = random.Random(seed)
    low = [[Fraction(1) if i == j else Fraction(rng.randint(-2, 2)) if j < i else Fraction(0)
            for j in range(dim)] for i in range(dim)]
    up = [[Fraction(1) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
           for j in range(dim)] for i in range(dim)]
    return [[sum((low[i][k] * up[k][j] for k in range(dim)), Fraction(0)) for j in range(dim)]
            for i in range(dim)]


def brute_closure(dim: int, table, seeds: list[list[Fraction]], ideal: bool) -> list[list[Fraction]]:
    """RREF rows of the subalgebra (or ideal) generated by the seeds.

    Spans the seeds, adds the bracket of every spanning row with every
    spanning row (or every basis vector), and repeats until the rank stops
    growing.
    """
    basis = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rows = gauss_rref([list(s) for s in seeds])[0]
    while True:
        others = basis if ideal else rows
        grown = gauss_rref(rows + [dense_bracket(dim, table, a, b) for a in others for b in rows])[0]
        if len(grown) == len(rows):
            return rows
        rows = grown


def exterior_relations(dim: int, table) -> list[list[Fraction]]:
    """Both bracket-compatibility families of the exterior square, over all n^3 triples.

    The left-slot family rewrites [e_i,e_j]^e_k, the right-slot family
    e_i^[e_j,e_k]; zero vectors are dropped.  Wedge coordinates are the
    pairs (i, j), i < j, in lexicographic order.
    """
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    basis = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]

    def br(i: int, j: int) -> list[Fraction]:
        return dense_bracket(dim, table, basis[i], basis[j])

    def wv(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
        return [u[i] * v[j] - u[j] * v[i] for i, j in pairs]

    out = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                bij, bjk, bik = br(i, j), br(j, k), br(i, k)
                left = [a - b - c for a, b, c in zip(wv(bij, basis[k]), wv(bik, basis[j]), wv(basis[i], bjk))]
                right = [a - b - c for a, b, c in zip(wv(basis[i], bjk), wv(bij, basis[k]), wv(basis[j], bik))]
                out.extend(r for r in (left, right) if any(r))
    return out


def exterior_classes(dim: int, table) -> tuple[list[tuple[int, int]], list[list[Fraction]]]:
    """Quotient coordinates of the exterior square and the class of every coordinate wedge.

    The quotient coordinates are the wedge pairs that are not pivots of the
    reduced relations of ``exterior_relations``; the class of a pair lists
    its coordinates there, for every pair (i, j), i < j, in lexicographic
    order.
    """
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows, pivots = gauss_rref(exterior_relations(dim, table))
    cc = [t for t in range(len(pairs)) if t not in pivots]
    classes = []
    for t in range(len(pairs)):
        if t in cc:
            classes.append([Fraction(int(c == t)) for c in cc])
        else:
            classes.append([-rows[pivots.index(t)][c] for c in cc])
    return [pairs[c] for c in cc], classes


# -- package-built constructions that only tests use -------------------------


def center(g):
    """{v : [v, g] = 0} via the stacked adjoint maps."""
    rows = []
    for j in range(g.dim):
        # row block for v -> [v, e_j], one row per output coordinate k
        cols = [g.bracket_basis(i, j) for i in range(g.dim)]
        for k in range(g.dim):
            rows.append(tuple(col[k] for col in cols))
    return kernel(Matrix(rows, g.dim))


def structure_presentation(g):
    """Presentation of g on its basis: one relator per basis pair."""
    relators = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            terms = [BracketExpr.br(BracketExpr.gen(i), BracketExpr.gen(j))]
            for k, c in g.pair_terms(i, j):
                terms.append(BracketExpr.scale(-c, BracketExpr.gen(k)))
            relators.append(BracketExpr.add(*terms))
    return Presentation(g.dim, relators, g.labels)


def stem_extension(g, budget: int | None = None):
    """Cover of g with a central ideal realizing the multiplier.

    Returns (h, Z, projection) where Z sits inside both the center and
    the derived subalgebra of h, dim h = dim g + dim H2, and projection
    maps h onto g with kernel exactly Z.
    """
    data = _hopf_setting(g, budget)
    f = data.cover
    n = g.dim
    h2_dim = data.h2

    # pick a complement of the multiplier inside the relations: start from
    # the denominator span, mark the multiplier directions, then absorb
    # every remaining relation direction into the kernel-to-be
    marker = SparseEchelon(f.dim)
    for p in data.denominator.pivots():
        marker.insert(dict(data.denominator.rows[p]))
    lifts = []
    for v in data.numerator:
        piv = marker.insert_vector(v)
        if piv is not None:
            lifts.append(v)
    if len(lifts) != h2_dim:
        raise ConsistencyFailure("multiplier lift count disagrees with the Hopf count")
    kill = [data.denominator.rows[p] for p in data.denominator.pivots()]
    for p in data.relation_ideal.pivots():
        row = data.relation_ideal.rows[p]
        piv = marker.insert(dict(row))
        if piv is not None:
            kill.append(row)

    kill_span = SparseEchelon(f.dim)
    for row in kill:
        kill_span.insert(row)
    ideal = kill_span.to_subspace()
    if ideal.dim != data.relation_ideal.rank - h2_dim:
        raise ConsistencyFailure("stem ideal has the wrong codimension in the relations")

    cover, proj = quotient(f.algebra, ideal, name=f"{g.name} stem cover")
    if cover.dim != n + h2_dim:
        raise ConsistencyFailure("stem cover dimension disagrees with the multiplier")

    # the central part is the image of the relations in the cover
    central_vecs = [proj.apply(v) for v in data.numerator]
    central = Subspace.span(central_vecs, cover.dim)
    if central.dim != h2_dim:
        raise ConsistencyFailure("central part dimension disagrees with the multiplier")
    if not center(cover).contains_subspace(central):
        raise ConsistencyFailure("stem kernel is not central in the cover")
    if not derived_subalgebra(cover).contains_subspace(central):
        raise ConsistencyFailure("stem kernel is not inside the derived subalgebra")

    # the projection to g kills exactly the central part
    gens = [proj.apply(f.generator_vector(i)) for i in range(n)]
    images = [g.basis_vector(i) for i in range(n)]
    pi = hom_from_generator_images(cover, gens, images, g)
    if pi.kernel() != central:
        raise ConsistencyFailure("stem projection kernel differs from the central part")
    return cover, central, pi
