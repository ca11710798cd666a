"""Finite-dimensional Lie algebras over Q given by structure constants.

A ``LieAlgebra`` stores only the nonzero brackets of basis pairs (i, j)
with i < j; antisymmetry fills in the rest.  Constructors validate the
Jacobi identity by default.  Subspaces, quotients, and homomorphisms all
use the exact rational linear algebra from ``linalg``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    InvalidAlgebra,
    NotAnIdeal,
    NotGenerating,
    NotWellDefined,
)
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    SparseEchelon,
    Subspace,
    Vector,
    densify,
    format_rational,
    integral,
    rational,
    sparsify,
    unit_vector,
    vector,
    zero_vector,
)

Terms = tuple[tuple[int, Fraction], ...]


def _normalize_terms(terms: Iterable, dim: int) -> Terms:
    acc: dict[int, Fraction] = {}
    for k, c in terms:
        if not 0 <= k < dim:
            raise InvalidAlgebra(f"structure constant target {k} outside dimension {dim}")
        c = rational(c)
        if c != 0:
            acc[k] = acc.get(k, ZERO) + c
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k] != 0)


class LieAlgebra:
    """Structure-constant Lie algebra over Q."""

    __slots__ = ("name", "dim", "labels", "table")

    def __init__(
        self,
        name: str,
        dim: int,
        table: dict[tuple[int, int], Iterable],
        labels: Sequence[str] | None = None,
        *,
        check: bool = True,
    ):
        if dim < 0:
            raise InvalidAlgebra("negative dimension")
        self.name = name
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{i}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise InvalidAlgebra("label count differs from dimension")
        self.labels = labels
        tbl: dict[tuple[int, int], Terms] = {}
        for (i, j), terms in table.items():
            if not (0 <= i < j < dim):
                raise InvalidAlgebra(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            norm = _normalize_terms(terms, dim)
            if norm:
                tbl[(i, j)] = norm
        self.table = tbl
        if check:
            bad = jacobi_defect(self)
            if bad is not None:
                triple, defect = bad
                raise InvalidAlgebra(
                    f"Jacobi identity fails on basis triple {triple} of {name}",
                    triple=triple,
                    defect=defect,
                )

    # -- basic bracket machinery -------------------------------------------

    def pair_terms(self, i: int, j: int) -> Terms:
        """Signed table entry for arbitrary basis indices."""
        if i == j:
            return ()
        if i < j:
            return self.table.get((i, j), ())
        return tuple((k, -c) for k, c in self.table.get((j, i), ()))

    def bracket_basis(self, i: int, j: int) -> Vector:
        out = [ZERO] * self.dim
        for k, c in self.pair_terms(i, j):
            out[k] = c
        return tuple(out)

    def bracket_sparse(self, u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, Fraction]:
        """Bracket of two {index: coefficient} dicts, without zero entries.

        Only the pairs of the two supports are visited, so the cost is
        |supp u| * |supp v| table lookups, whatever the size of the table.
        """
        table = self.table
        out: dict[int, Fraction] = {}
        for i, a in u.items():
            for j, b in v.items():
                if i == j:
                    continue
                terms = table.get((i, j) if i < j else (j, i))
                if terms:
                    coef = a * b if i < j else -(a * b)
                    for k, c in terms:
                        out[k] = out.get(k, ZERO) + coef * c
        return {k: x for k, x in out.items() if x}

    def bracket(self, u: Sequence, v: Sequence) -> Vector:
        u = vector(u)
        v = vector(v)
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("bracket arguments must match the algebra dimension")
        return densify(self.bracket_sparse(sparsify(u), sparsify(v)), self.dim)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j) in sorted(self.table):
            brackets.append(
                {
                    "i": i,
                    "j": j,
                    "terms": [{"k": k, "c": format_rational(c)} for k, c in self.table[(i, j)]],
                }
            )
        return {"name": self.name, "dim": self.dim, "basis": list(self.labels), "brackets": brackets}

    @classmethod
    def from_json_dict(cls, data: dict, *, check: bool = True) -> "LieAlgebra":
        try:
            name = data["name"]
            dim = _index(data["dim"])
            labels = list(data["basis"])
            table: dict[tuple[int, int], list] = {}
            for ent in data["brackets"]:
                key = (_index(ent["i"]), _index(ent["j"]))
                if key in table:
                    raise InvalidAlgebra(f"duplicate bracket key ({key[0]},{key[1]})")
                table[key] = [(_index(t["k"]), rational(t["c"])) for t in ent["terms"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidAlgebra(f"malformed Lie algebra JSON: {exc}") from exc
        return cls(name, dim, table, labels, check=check)

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def _index(x) -> int:
    """A dimension or basis index from JSON: a true integer, never a truncated float or a bool."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple[int, int, int]
    defect: Vector


def jacobi_defect(g: LieAlgebra) -> tuple[tuple[int, int, int], Vector] | None:
    """First failing Jacobi triple, or None.

    Only triples touching a nonzero pairwise bracket can fail, so the scan
    is over (nonzero pair) x (third index) instead of all of dim^3.
    """
    seen: set[tuple[int, int, int]] = set()
    for (i, j) in g.table:
        for k in range(g.dim):
            if k == i or k == j:
                continue
            a, b, c = sorted((i, j, k))
            if (a, b, c) in seen:
                continue
            seen.add((a, b, c))
            acc: dict[int, Fraction] = {}
            for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                for mid, coef in g.pair_terms(p, q):
                    for k2, c2 in g.pair_terms(mid, r):
                        val = acc.get(k2, ZERO) + coef * c2
                        if val:
                            acc[k2] = val
                        elif k2 in acc:
                            del acc[k2]
            if acc:
                defect = [ZERO] * g.dim
                for k2, val in acc.items():
                    defect[k2] = val
                return (a, b, c), tuple(defect)
    return None


def validate(g: LieAlgebra) -> JacobiViolation | None:
    """Check the Jacobi identity on every relevant basis triple."""
    bad = jacobi_defect(g)
    if bad is None:
        return None
    return JacobiViolation(triple=bad[0], defect=bad[1])


# -- subspace machinery -----------------------------------------------------


def _seed_rows(vectors: Iterable[Sequence], dim: int) -> list[dict[int, int]]:
    """Integer rows of the given vectors, each checked to have length dim."""
    rows = []
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatch(f"vector of length {len(v)} in an algebra of dimension {dim}")
        rows.append(integral(sparsify(v)))
    return rows


def subalgebra_closure(g: LieAlgebra, vectors: Sequence[Sequence]) -> Subspace:
    """Smallest subalgebra containing the given vectors."""
    stored: list[dict[int, int]] = []

    def step(x: dict[int, int]) -> list[dict[int, int]]:
        out = [integral(g.bracket_sparse(x, y)) for y in stored]
        stored.append(x)
        return out

    return SparseEchelon(g.dim).close(_seed_rows(vectors, g.dim), step).to_subspace()


def ideal_closure(g: LieAlgebra, vectors: Sequence[Sequence]) -> Subspace:
    """Smallest ideal containing the given vectors."""

    def step(x: dict[int, int]) -> list[dict[int, int]]:
        return [integral(g.bracket_sparse({i: ONE}, x)) for i in range(g.dim)]

    return SparseEchelon(g.dim).close(_seed_rows(vectors, g.dim), step).to_subspace()


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """[g, g]: spanned by all basis brackets (an ideal automatically)."""
    vecs = [g.bracket_basis(i, j) for (i, j) in sorted(g.table)]
    return Subspace.span(vecs, g.dim)


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """gamma_1 = g, gamma_{k+1} = [g, gamma_k]; stops when it stabilizes."""
    series = [Subspace.full(g.dim)]
    while True:
        prev = series[-1]
        vecs = []
        for b in prev.basis_vectors():
            for i in range(g.dim):
                vecs.append(g.bracket(g.basis_vector(i), b))
        nxt = Subspace.span(vecs, g.dim)
        if nxt == prev:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def nilpotency_class(g: LieAlgebra) -> int | None:
    """Class c with gamma_{c+1} = 0, or None if not nilpotent."""
    series = lower_central_series(g)
    if series[-1].dim != 0:
        return None
    # dim-0 tail entry corresponds to gamma_{len} = 0
    return len(series) - 1 if g.dim > 0 else 0


def is_nilpotent(g: LieAlgebra) -> bool:
    return nilpotency_class(g) is not None


def is_abelian(g: LieAlgebra) -> bool:
    return not g.table


def is_perfect(g: LieAlgebra) -> bool:
    return derived_subalgebra(g).dim == g.dim


def direct_sum(parts: Sequence[LieAlgebra], name: str | None = None) -> LieAlgebra:
    """Direct sum with block-diagonal brackets."""
    total = sum(p.dim for p in parts)
    labels = []
    table: dict[tuple[int, int], list] = {}
    offset = 0
    for t, p in enumerate(parts):
        labels.extend(f"{lbl}_{t}" for lbl in p.labels)
        for (i, j), terms in p.table.items():
            table[(i + offset, j + offset)] = [(k + offset, c) for k, c in terms]
        offset += p.dim
    if name is None:
        name = " + ".join(p.name for p in parts)
    return LieAlgebra(name, total, table, labels, check=False)


def embed_direct_sum(v: Sequence, component: int, parts: Sequence[LieAlgebra]) -> Vector:
    """Embed a vector of parts[component] into the direct sum coordinates."""
    v = vector(v)
    if len(v) != parts[component].dim:
        raise DimensionMismatch("embed: wrong component dimension")
    pre = sum(p.dim for p in parts[:component])
    post = sum(p.dim for p in parts[component + 1 :])
    return zero_vector(pre) + v + zero_vector(post)


# -- homomorphisms ----------------------------------------------------------


class LieHom:
    """Linear map between Lie algebras that respects brackets."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: LieAlgebra, codomain: LieAlgebra, matrix: Matrix, *, check: bool = True):
        if matrix.nrows != codomain.dim or matrix.ncols != domain.dim:
            raise DimensionMismatch(
                f"hom matrix must be {codomain.dim}x{domain.dim}, got {matrix.nrows}x{matrix.ncols}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        if check:
            cols = [sparsify(matrix.column(i)) for i in range(domain.dim)]
            for (i, j) in _all_pairs(domain.dim):
                # M[e_i, e_j] = sum of c * M e_k over the table entry of (i, j)
                lhs: dict[int, Fraction] = {}
                for k, c in domain.pair_terms(i, j):
                    for r, x in cols[k].items():
                        lhs[r] = lhs.get(r, ZERO) + c * x
                rhs = codomain.bracket_sparse(cols[i], cols[j])
                if {r: x for r, x in lhs.items() if x} != rhs:
                    raise NotWellDefined(
                        f"map does not respect the bracket on basis pair ({i},{j})"
                    )

    def apply(self, v: Sequence) -> Vector:
        return self.matrix.matvec(vector(v))

    def kernel(self) -> Subspace:
        from .linalg import kernel as _kernel

        return _kernel(self.matrix)

    def image(self) -> Subspace:
        from .linalg import column_space

        return column_space(self.matrix)

    def to_json_dict(self) -> dict:
        return {
            "rows": [[format_rational(x) for x in row] for row in self.matrix.rows],
        }

    def __repr__(self) -> str:
        return f"LieHom({self.domain.name} -> {self.codomain.name})"


def _all_pairs(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j)


def hom_from_generator_images(
    domain: LieAlgebra,
    generators: Sequence[Sequence],
    images: Sequence[Sequence],
    codomain: LieAlgebra,
) -> LieHom:
    """Unique homomorphism sending each generator to its image.

    The graph {(gen, image)} is closed as a subalgebra of domain + codomain.
    A pivot in the codomain block means the images are inconsistent; a
    rank below dim(domain) means the given vectors do not generate.
    """
    if len(generators) != len(images):
        raise DimensionMismatch("generator and image counts differ")
    dd, dc = domain.dim, codomain.dim
    for gvec, ivec in zip(generators, images):
        if len(gvec) != dd or len(ivec) != dc:
            raise DimensionMismatch(
                f"generator of length {len(gvec)} and image of length {len(ivec)} "
                f"for a map from dimension {dd} to dimension {dc}"
            )
    graph = subalgebra_closure(
        direct_sum([domain, codomain]),
        [tuple(gvec) + tuple(ivec) for gvec, ivec in zip(generators, images)],
    )
    if any(p >= dd for p in graph.pivots()):
        raise NotWellDefined(
            "generator images are inconsistent: a relation in the domain "
            "maps to a nonzero element of the codomain"
        )
    if graph.dim < dd:
        raise NotGenerating(f"given vectors generate a subalgebra of dimension {graph.dim} < {dd}")
    # fully reduced graph rows are (e_i | M e_i), so columns drop out directly
    cols = [row[dd:] for row in graph.basis_vectors()]
    return LieHom(domain, codomain, Matrix.from_columns(cols, dc))


# -- quotients --------------------------------------------------------------


def quotient(g: LieAlgebra, ideal: Subspace, name: str | None = None) -> tuple[LieAlgebra, LieHom]:
    """Quotient algebra g / ideal plus the projection homomorphism."""
    if ideal.ambient_dim != g.dim:
        raise DimensionMismatch("ideal lives in a different ambient space")
    for b in ideal.basis_vectors():
        for i in range(g.dim):
            if not ideal.contains(g.bracket(g.basis_vector(i), b)):
                raise NotAnIdeal(
                    f"bracket of basis vector {i} with a spanning vector leaves the subspace"
                )
    from .linalg import complement_coords

    cc = complement_coords(ideal)
    pos = {c: t for t, c in enumerate(cc)}
    qdim = len(cc)
    proj_cols = []
    for i in range(g.dim):
        rep = ideal.reduce(g.basis_vector(i))
        proj_cols.append(tuple(rep[c] for c in cc))
    table: dict[tuple[int, int], list] = {}
    for a in range(qdim):
        for b in range(a + 1, qdim):
            rep = ideal.reduce(g.bracket_basis(cc[a], cc[b]))
            terms = [(pos[c], rep[c]) for c in cc if rep[c] != 0]
            if terms:
                table[(a, b)] = terms
    if name is None:
        name = f"{g.name}/ideal"
    labels = [g.labels[c] for c in cc]
    q = LieAlgebra(name, qdim, table, labels, check=True)
    proj = LieHom(g, q, Matrix.from_columns(proj_cols, qdim))
    return q, proj
