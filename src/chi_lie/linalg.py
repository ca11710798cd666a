"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction``, matrices are immutable tuples
of row tuples, and subspaces are stored in reduced row echelon form so that
equal subspaces compare equal structurally.  No floating point anywhere.

``SparseEchelon`` is the one elimination: an integer row-echelon
accumulator keyed by pivot column.  Rows are scale invariant, so plain
integer arithmetic suffices; ``integral`` clears the denominators of a
rational vector on the way in, and ``to_subspace`` recovers the canonical
rational RREF.  ``rref`` (and through it ``Subspace``, ``kernel`` and
``rank``) is insertion plus ``to_subspace``.  ``SparseEchelon.close`` is the
one closure loop: every fixed point of the package (subalgebra, ideal and
graph closures, nilpotent quotients) is a ``step`` function handed to it.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import AmbientMismatch, DimensionMismatch

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(x) -> Fraction:
    """Coerce ints, strings like '2/3', or Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input rejected; use Fraction or str")
    return Fraction(x)


def format_rational(x: Fraction) -> str:
    # str(Fraction) already gives "p/q", or "p" when the denominator is 1
    return str(x)


def vector(entries: Iterable) -> Vector:
    return tuple(rational(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise IndexError(f"unit vector index {i} outside dimension {n}")
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def sparsify(u: Sequence) -> dict[int, Fraction]:
    """{index: entry} of the nonzero entries, each coerced by ``rational``."""
    return {i: rational(a) for i, a in enumerate(u) if a}


def densify(d: dict[int, Fraction], n: int) -> Vector:
    out = [ZERO] * n
    for i, a in d.items():
        out[i] = a
    return tuple(out)


class Matrix:
    """Immutable rational matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        normalized = tuple(vector(r) for r in rows)
        if normalized:
            ncols = len(normalized[0]) if ncols is None else ncols
            for r in normalized:
                if len(r) != ncols:
                    raise DimensionMismatch("ragged rows in matrix")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit ncols")
        self.rows = normalized
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(unit_vector(n, i) for i in range(n)), n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        colvecs = tuple(vector(c) for c in cols)
        if colvecs:
            nrows = len(colvecs[0]) if nrows is None else nrows
            for c in colvecs:
                if len(c) != nrows:
                    raise DimensionMismatch("ragged columns")
        elif nrows is None:
            raise DimensionMismatch("empty matrix needs an explicit nrows")
        return cls(tuple(tuple(c[i] for c in colvecs) for i in range(nrows)), len(colvecs))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.column(j) for j in range(self.ncols)), self.nrows)

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise DimensionMismatch(f"matvec: {self.ncols} columns vs vector of length {len(v)}")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.rows)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul shape mismatch")
        cols = [other.column(j) for j in range(other.ncols)]
        return Matrix(
            tuple(tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in cols) for row in self.rows),
            other.ncols,
        )

    def stack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise DimensionMismatch("stack needs equal column counts")
        return Matrix(self.rows + other.rows, self.ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form, padded with zero rows, and pivot columns."""
    ech = SparseEchelon(m.ncols)
    for row in m.rows:
        ech.insert(integral(sparsify(row)))
    rows = ech.to_subspace().basis.rows
    zeros = (zero_vector(m.ncols),) * (m.nrows - len(rows))
    return Matrix(rows + zeros, m.ncols), tuple(ech.pivots())


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Right null space {v : m v = 0} as a subspace of Q^ncols."""
    red, pivots = rref(m)
    nc = m.ncols
    free = [j for j in range(nc) if j not in set(pivots)]
    basis = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red.rows[r][f]
        basis.append(tuple(v))
    return Subspace.span(basis, nc)


def column_space(m: Matrix) -> "Subspace":
    return Subspace.span([m.column(j) for j in range(m.ncols)], m.nrows)


class Subspace:
    """Subspace of Q^n held as an RREF basis; equality is structural."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, vectors: Sequence[Sequence], ambient_dim: int, *, _canonical: bool = False):
        self.ambient_dim = ambient_dim
        if _canonical:
            self.basis = Matrix(vectors, ambient_dim)
            return
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient_dim}")
        red, pivots = rref(Matrix(vecs, ambient_dim))
        self.basis = Matrix(red.rows[: len(pivots)], ambient_dim)

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        return cls(vectors, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls((), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(Matrix.identity(ambient_dim).rows, ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.rows

    def pivots(self) -> tuple[int, ...]:
        out = []
        for row in self.basis.rows:
            out.append(next(j for j, x in enumerate(row) if x != 0))
        return tuple(out)

    def reduce(self, v: Sequence) -> Vector:
        """Canonical representative of v modulo this subspace."""
        w = list(vector(v))
        if len(w) != self.ambient_dim:
            raise AmbientMismatch("reduce: ambient dimension mismatch")
        for row, p in zip(self.basis.rows, self.pivots()):
            c = w[p]
            if c != 0:
                for j in range(p, self.ambient_dim):
                    w[j] -= c * row[j]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("containment across different ambients")
        return all(self.contains(r) for r in other.basis.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("sum of subspaces in different ambients")
    return Subspace.span(a.basis.rows + b.basis.rows, a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via left-kernel of the stacked bases."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("intersection of subspaces in different ambients")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = a.basis.stack(b.basis)
    # coefficients (u | v) with u·A + v·B = 0 give u·A in the intersection
    deps = kernel(stacked.transpose())
    vecs = []
    for coeff in deps.basis.rows:
        u = coeff[: a.dim]
        w = [ZERO] * a.ambient_dim
        for c, row in zip(u, a.basis.rows):
            if c != 0:
                for j, x in enumerate(row):
                    if x != 0:
                        w[j] += c * x
        vecs.append(tuple(w))
    return Subspace.span(vecs, a.ambient_dim)


def complement_coords(s: Subspace) -> tuple[int, ...]:
    """Coordinate indices spanning a complement: the non-pivot columns."""
    piv = set(s.pivots())
    return tuple(j for j in range(s.ambient_dim) if j not in piv)


# ---------------------------------------------------------------------------
# sparse integer echelon


def integral(d: dict[int, Fraction]) -> dict[int, int]:
    """The rational dict times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in d.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in d.items()}


def _strip_gcd(num: dict[int, int], extra: int = 0) -> int:
    g = extra
    for v in num.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    if g > 1:
        for c in num:
            num[c] //= g
    return g if g else 1


class SparseEchelon:
    """Integer sparse echelon accumulator; rows keyed by pivot column.

    Rows are only forward-reduced (no back substitution), which keeps
    insertion cheap; each stored row has its pivot as the smallest
    nonzero coordinate, positive pivot entry, and content gcd 1.
    Representative reduction is still canonical because the free
    (non-pivot) coordinates of a reduced vector determine it uniquely.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def complement(self) -> list[int]:
        return [j for j in range(self.width) if j not in self.rows]

    def insert(self, num: dict[int, int]) -> int | None:
        """Add a vector to the span; returns the new pivot or None."""
        num = {c: v for c, v in num.items() if v}
        steps = 0
        while num:
            j = min(num)
            row = self.rows.get(j)
            if row is None:
                if num[j] < 0:
                    for c in num:
                        num[c] = -num[c]
                _strip_gcd(num)
                self.rows[j] = num
                return j
            a = num.pop(j)
            p = row[j]
            g = gcd(a, p)
            ma, mr = p // g, a // g
            if ma != 1:
                for c in num:
                    num[c] *= ma
            for c, v in row.items():
                if c == j:
                    continue
                nv = num.get(c, 0) - mr * v
                if nv:
                    num[c] = nv
                elif c in num:
                    del num[c]
            steps += 1
            if steps % 16 == 0 and num:
                _strip_gcd(num)
        return None

    def close(
        self,
        seeds: Iterable[dict[int, int]],
        step: Callable[[dict[int, int]], Iterable[dict[int, int]]],
    ) -> "SparseEchelon":
        """Insert the seeds, then step(row) for every row that takes a new pivot.

        The worklist is LIFO and seeds go in their given order, so the rows
        depend only on the seeds and ``step``.  ``step`` must not mutate the
        stored row it is given.  Stops when no insertion adds a pivot.
        """
        work: list[dict[int, int]] = []

        def push(vectors: Iterable[dict[int, int]]) -> None:
            for v in vectors:
                piv = self.insert(v) if v else None
                if piv is not None:
                    work.append(self.rows[piv])

        push(seeds)
        while work:
            push(step(work.pop()))
        return self

    def insert_vector(self, v: Sequence[Fraction]) -> int | None:
        return self.insert(integral(sparsify(v)))

    def reduce_intden(self, num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
        """Forward-eliminate every pivot coordinate; canonical modulo span."""
        num = dict((c, v) for c, v in num.items() if v)
        steps = 0
        while True:
            hit = min((c for c in num if c in self.rows), default=None)
            if hit is None:
                break
            row = self.rows[hit]
            a = num.pop(hit)
            p = row[hit]
            g = gcd(a, p)
            ma, mr = p // g, a // g
            if ma != 1:
                den *= ma
                for c in num:
                    num[c] *= ma
            for c, v in row.items():
                if c == hit:
                    continue
                nv = num.get(c, 0) - mr * v
                if nv:
                    num[c] = nv
                elif c in num:
                    del num[c]
            steps += 1
            if steps % 16 == 0 and num:
                den //= _strip_gcd(num, extra=den) or 1
        if num:
            den //= _strip_gcd(num, extra=den) or 1
        if den < 0:
            den = -den
            for c in num:
                num[c] = -num[c]
        return num, den

    def reduce_vector(self, v: Sequence[Fraction]) -> Vector:
        d = sparsify(v)
        num, den = self.reduce_intden(integral(d), lcm(*(x.denominator for x in d.values())))
        out = [ZERO] * self.width
        for c, x in num.items():
            out[c] = Fraction(x, den)
        return tuple(out)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return not self.reduce_intden(integral(sparsify(v)), 1)[0]

    def row_vector(self, pivot: int) -> Vector:
        out = [ZERO] * self.width
        for c, x in self.rows[pivot].items():
            out[c] = Fraction(x)
        return tuple(out)

    def to_subspace(self) -> Subspace:
        """Canonical RREF Subspace (runs the deferred back substitution)."""
        canon: dict[int, dict[int, Fraction]] = {}
        for j in sorted(self.rows, reverse=True):
            row = self.rows[j]
            fr = {c: Fraction(v, row[j]) for c, v in row.items()}
            while True:
                hit = min((c for c in fr if c != j and c in canon), default=None)
                if hit is None:
                    break
                coef = fr.pop(hit)
                if coef == 0:
                    continue
                for c2, v2 in canon[hit].items():
                    if c2 == hit:
                        continue
                    nv = fr.get(c2, ZERO) - coef * v2
                    if nv:
                        fr[c2] = nv
                    elif c2 in fr:
                        del fr[c2]
            canon[j] = fr
        rows = []
        for j in sorted(canon):
            dense = [ZERO] * self.width
            for c, x in canon[j].items():
                dense[c] = x
            rows.append(tuple(dense))
        return Subspace(tuple(rows), self.width, _canonical=True)
