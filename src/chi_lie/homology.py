"""Lie algebra homology over Q in degrees one and two.

Three routes to the second homology, shared machinery none:

* the Chevalley-Eilenberg chain complex (kernel of the bracket map on
  wedges modulo the degree-three boundaries),
* the Hopf formula inside a free nilpotent cover of the algebra, and
* the kernel of the bracket map out of the nonabelian exterior square.

They must produce the same number; ``compute_homology`` runs whichever
apply and reports them side by side.  ``stem_extension`` realizes the
multiplier as a central ideal of a covering algebra, which exercises the
Hopf data through an independent construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConsistencyFailure, NotNilpotent
from .freelie import FreeNilpotentAlgebra, build_free_nilpotent
from .liealg import (
    LieAlgebra,
    LieHom,
    center,
    derived_subalgebra,
    hom_from_generator_images,
    nilpotency_class,
    quotient,
)
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    SparseEchelon,
    Subspace,
    Vector,
    column_space,
    complement_coords,
    integral,
    kernel,
    vec_is_zero,
)
from .nilquot import ideal_closure_echelon, int_bracket_with_generator


def h1(g: LieAlgebra) -> int:
    """First homology: the abelianization dimension."""
    return g.dim - derived_subalgebra(g).dim


# -- wedge coordinates -------------------------------------------------------


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def wedge_vector(u: Vector, v: Vector, pairs: list[tuple[int, int]]) -> Vector:
    """Coordinates of u wedge v on the standard basis of ordered pairs."""
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in pairs)


# -- route one: Chevalley-Eilenberg -----------------------------------------


def ce_boundary2(g: LieAlgebra) -> Matrix:
    """Boundary from wedges to the algebra: e_i ^ e_j maps to [e_i, e_j]."""
    pairs = wedge_pairs(g.dim)
    cols = [g.bracket_basis(i, j) for i, j in pairs]
    return Matrix.from_columns(cols, g.dim)


def ce_boundary3(g: LieAlgebra) -> Matrix:
    """Boundary from triple wedges to wedges."""
    n = g.dim
    pairs = wedge_pairs(n)
    pidx = {p: t for t, p in enumerate(pairs)}
    nw = len(pairs)

    def mixed(bvec: Vector, k: int) -> list[Fraction]:
        # (sum_m b_m e_m) ^ e_k in wedge coordinates
        out = [ZERO] * nw
        for m, b in enumerate(bvec):
            if b == 0 or m == k:
                continue
            if m < k:
                out[pidx[(m, k)]] += b
            else:
                out[pidx[(k, m)]] -= b
        return out

    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                col = mixed(g.bracket_basis(i, j), k)
                for t, x in enumerate(mixed(g.bracket_basis(i, k), j)):
                    col[t] -= x
                for t, x in enumerate(mixed(g.bracket_basis(j, k), i)):
                    col[t] += x
                cols.append(tuple(col))
    return Matrix.from_columns(cols, nw)


def h2_ce(g: LieAlgebra) -> tuple[int, Subspace]:
    """Degree-two homology dimension plus a lift of a homology basis.

    The lift is a subspace of the wedge space spanned by cycles that are
    independent of the boundaries, chosen by inserting the canonical
    cycle basis over the boundary span in order.
    """
    d2 = ce_boundary2(g)
    d3 = ce_boundary3(g)
    if d3.ncols:
        composite = d2.matmul(d3)
        if any(not vec_is_zero(row) for row in composite.rows):
            raise ConsistencyFailure("chain boundaries do not compose to zero")
    nw = len(wedge_pairs(g.dim))
    cycles = kernel(d2)
    boundaries = column_space(d3)
    ech = SparseEchelon(nw)
    for b in boundaries.basis_vectors():
        ech.insert_vector(b)
    lift_vecs = []
    for v in cycles.basis_vectors():
        if ech.insert_vector(v) is not None:
            lift_vecs.append(v)
    count = cycles.dim - boundaries.dim
    if len(lift_vecs) != count:
        raise ConsistencyFailure("homology lift count disagrees with rank arithmetic")
    return count, Subspace.span(lift_vecs, nw)


# -- route two: Hopf formula ------------------------------------------------


@dataclass(frozen=True)
class HopfData:
    """Free nilpotent cover data behind the Hopf formula."""

    cover: FreeNilpotentAlgebra
    relation_ideal: SparseEchelon  # kernel of the cover onto the algebra
    numerator: tuple[Vector, ...]  # basis of (relations meet derived cover)
    denominator: SparseEchelon  # span of [cover, relations]

    @property
    def h2(self) -> int:
        return len(self.numerator) - self.denominator.rank


def _hopf_setting(g: LieAlgebra, budget: int | None = None) -> HopfData:
    c = nilpotency_class(g)
    if c is None:
        raise NotNilpotent(f"{g.name} is not nilpotent; the free cover does not truncate")
    n = g.dim
    f = build_free_nilpotent(n, c + 1, budget)

    # relator values of the structure presentation, directly in integer form:
    # the bracket of two generator words is the basis word (i, j)
    seeds = [
        integral({f.index[(i, j)]: ONE, **{k: -coef for k, coef in g.pair_terms(i, j)}})
        for i in range(n)
        for j in range(i + 1, n)
    ]
    rel = ideal_closure_echelon(f, seeds)
    if rel.rank != f.dim - n:
        raise ConsistencyFailure(
            f"relation ideal has dimension {rel.rank}, expected {f.dim - n}"
        )
    # rows with pivot past the generators lie in the derived cover and span
    # the full intersection, because every row's support starts at its pivot
    numerator = tuple(rel.row_vector(p) for p in rel.pivots() if p >= n)
    denom = SparseEchelon(f.dim)
    for p in rel.pivots():
        row = rel.rows[p]
        for gen in range(n):
            val = int_bracket_with_generator(f, gen, row)
            if val:
                denom.insert(val)
    for p in denom.pivots():
        if p < n:
            raise ConsistencyFailure("bracket of cover with relations left the derived cover")
    return HopfData(cover=f, relation_ideal=rel, numerator=numerator, denominator=denom)


def h2_hopf(g: LieAlgebra, budget: int | None = None) -> int:
    """Relations meet derived cover, modulo brackets of cover with relations."""
    return _hopf_setting(g, budget).h2


# -- route three: nonabelian exterior square --------------------------------


@dataclass(frozen=True)
class ExteriorSquare:
    """Exterior square of an algebra with its bracket-induced map back.

    ``generators`` lists the class of each coordinate wedge e_i ^ e_j
    (pairs ordered lexicographically) in the quotient coordinates.
    """

    base: LieAlgebra
    dim: int
    generators: tuple[Vector, ...]
    table: LieAlgebra
    phi: LieHom  # exterior square onto the derived subalgebra of base

    def wedge(self, u, v) -> Vector:
        """Class of u wedge v in the exterior square coordinates."""
        pairs = wedge_pairs(self.base.dim)
        full = wedge_vector(tuple(u), tuple(v), pairs)
        out = [ZERO] * self.dim
        for t, x in enumerate(full):
            if x == 0:
                continue
            gvec = self.generators[t]
            for s in range(self.dim):
                out[s] += x * gvec[s]
        return tuple(out)


def exterior_square(g: LieAlgebra) -> ExteriorSquare:
    """Quotient of the wedge square by the bracket-compatibility relations.

    The relation of a triple is [e_i,e_j]^e_k - [e_i,e_k]^e_j - e_i^[e_j,e_k].
    It is alternating in (i, j, k), so it vanishes on repeated indices, and
    the family that rewrites a bracket in the right slot is its negative;
    each relation is therefore stated once, for i < j < k.  The bracket on
    the quotient wedges the bracket values of the two classes; that is
    well-defined exactly because the bracket map kills every relation
    vector, which is asserted here.
    """
    n = g.dim
    pairs = wedge_pairs(n)
    pidx = {p: t for t, p in enumerate(pairs)}
    nw = len(pairs)

    def wedge_into(acc: dict[int, Fraction], sign: int, u, v) -> None:
        # acc += sign * (u ^ v) for u, v given as (index, coefficient) terms
        for a, x in u:
            for b, y in v:
                if a != b:
                    t, sg = (pidx[(a, b)], sign) if a < b else (pidx[(b, a)], -sign)
                    acc[t] = acc.get(t, ZERO) + sg * x * y

    ech = SparseEchelon(nw)
    for i, j, k in combinations(range(n), 3):
        rel: dict[int, Fraction] = {}
        wedge_into(rel, 1, g.pair_terms(i, j), ((k, ONE),))
        wedge_into(rel, -1, g.pair_terms(i, k), ((j, ONE),))
        wedge_into(rel, -1, ((i, ONE),), g.pair_terms(j, k))
        ech.insert(integral(rel))
    relations = ech.to_subspace()

    # the induced bracket map on wedge coordinates
    d2 = ce_boundary2(g)
    for r in relations.basis_vectors():
        if not vec_is_zero(d2.matvec(r)):
            raise ConsistencyFailure(
                "bracket map does not vanish on an exterior-square relation"
            )

    cc = complement_coords(relations)
    qdim = len(cc)

    def project(full: Vector) -> Vector:
        red = relations.reduce(full)
        return tuple(red[c] for c in cc)

    generators = []
    ident = Matrix.identity(nw)
    for t in range(nw):
        generators.append(project(ident.row(t)))

    # bracket values of the quotient coordinates, one per complement pair
    phi_cols = [g.bracket_basis(*pairs[c]) for c in cc]

    table: dict[tuple[int, int], list] = {}
    for a in range(qdim):
        fa = phi_cols[a]
        for b in range(a + 1, qdim):
            prod = project(wedge_vector(fa, phi_cols[b], pairs))
            terms = [(t, x) for t, x in enumerate(prod) if x != 0]
            if terms:
                table[(a, b)] = terms
    labels = [f"{g.labels[pairs[c][0]]}^{g.labels[pairs[c][1]]}" for c in cc]
    sq = LieAlgebra(f"{g.name} exterior square", qdim, table, labels, check=True)
    phi = LieHom(sq, g, Matrix.from_columns(phi_cols, n))
    return ExteriorSquare(
        base=g,
        dim=qdim,
        generators=tuple(generators),
        table=sq,
        phi=phi,
    )


def schur_via_exterior(g: LieAlgebra) -> int:
    """Kernel dimension of the exterior square's bracket map."""
    sq = exterior_square(g)
    return sq.phi.kernel().dim


# -- stem extensions ---------------------------------------------------------


def stem_extension(
    g: LieAlgebra, budget: int | None = None
) -> tuple[LieAlgebra, Subspace, LieHom]:
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


# -- combined report ---------------------------------------------------------


@dataclass(frozen=True)
class HomologyReport:
    """First and second homology through every applicable route.

    ``base_name`` and ``base_dim`` identify the algebra the report was
    computed for; they stay out of the JSON form.
    """

    h1_dim: int
    h2_ce_dim: int
    h2_hopf_dim: int | None
    h2_exterior_dim: int | None
    agree: bool
    base_name: str
    base_dim: int

    def to_json_dict(self) -> dict:
        return {
            "h1": self.h1_dim,
            "h2_ce": self.h2_ce_dim,
            "h2_hopf": self.h2_hopf_dim,
            "h2_exterior": self.h2_exterior_dim,
            "agree": self.agree,
        }


def compute_homology(g: LieAlgebra, budget: int | None = None) -> HomologyReport:
    """All homology routes on one algebra; the Hopf route only when the
    algebra is nilpotent (its free cover must truncate)."""
    first = h1(g)
    ce, _ = h2_ce(g)
    try:
        hopf: int | None = h2_hopf(g, budget)
    except NotNilpotent:
        hopf = None
    ext = schur_via_exterior(g)
    agree = ce == ext and (hopf is None or hopf == ce)
    return HomologyReport(
        h1_dim=first,
        h2_ce_dim=ce,
        h2_hopf_dim=hopf,
        h2_exterior_dim=ext,
        agree=agree,
        base_name=g.name,
        base_dim=g.dim,
    )
