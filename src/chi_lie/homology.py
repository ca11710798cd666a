"""Lie algebra homology over Q in degrees one and two.

Three routes to the second homology, shared machinery none:

* the Chevalley-Eilenberg chain complex (kernel of the bracket map on
  wedges modulo the degree-three boundaries),
* the Hopf formula inside a free nilpotent cover of the algebra, and
* the kernel of the bracket map out of the nonabelian exterior square.

They must produce the same number; ``compute_homology`` runs whichever
apply and reports them side by side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConsistencyFailure, NotNilpotent
from .freelie import FreeNilpotentAlgebra, build_free_nilpotent
from .liealg import LieAlgebra, LieHom, derived_subalgebra, nilpotency_class
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

    The quotient coordinates are the coordinate wedges e_i ^ e_j (pairs
    ordered lexicographically) that are not pivots of the relations.
    """

    base: LieAlgebra
    dim: int
    table: LieAlgebra
    phi: LieHom  # exterior square onto the derived subalgebra of base


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
    return ExteriorSquare(base=g, dim=qdim, table=sq, phi=phi)


def schur_via_exterior(g: LieAlgebra) -> int:
    """Kernel dimension of the exterior square's bracket map."""
    sq = exterior_square(g)
    return sq.phi.kernel().dim


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
