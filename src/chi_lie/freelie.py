"""Free Lie algebras on an ordered alphabet, truncated at a nilpotency class.

The basis is indexed by Lyndon words ordered by (degree, lex).  Each basis
element is the bracketing of its word given by the standard factorization
(longest proper Lyndon suffix).  Structure constants are computed in the
associative envelope: expand both sides as noncommutative polynomials,
take the commutator, and peel the result back into basis elements.  That
decomposition is triangular because the polynomial of a Lyndon bracketing
is its own word plus lexicographically larger words of the same degree,
with leading coefficient 1, so all structure constants are integers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BudgetExceeded, ChiLieError, DimensionMismatch, IndexOutOfRange
from .liealg import LieAlgebra
from .linalg import ONE, ZERO, Vector, densify, format_rational, rational, sparsify

Word = tuple[int, ...]

DEFAULT_BUDGET = 5000
BUDGET_ENV_VAR = "CHI_LIE_BUDGET"


def dimension_budget(override: int | None = None) -> int:
    """Active basis-size budget: explicit override, else env var, else default."""
    if override is not None:
        return override
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ChiLieError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ChiLieError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


# -- Witt dimensions --------------------------------------------------------


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def witt_dim(m: int, d: int) -> int:
    """Number of degree-d basis elements of the free Lie algebra on m letters."""
    if d < 1:
        raise ChiLieError("degree must be >= 1")
    if m == 0:
        return 0
    total = sum(_mobius(e) * m ** (d // e) for e in _divisors(d))
    assert total % d == 0
    return total // d


def free_nilpotent_dimension(m: int, c: int) -> int:
    return sum(witt_dim(m, d) for d in range(1, c + 1))


# -- Lyndon words -----------------------------------------------------------


def is_lyndon(w: Word) -> bool:
    """A nonempty word strictly smaller than all of its proper rotations."""
    n = len(w)
    if n == 0:
        return False
    for s in range(1, n):
        if w[s:] + w[:s] <= w:
            return False
    return True


def lyndon_words(m: int, max_len: int) -> list[Word]:
    """All Lyndon words over 0..m-1 of length <= max_len, sorted by (len, lex)."""
    if m <= 0 or max_len <= 0:
        return []
    words: list[Word] = []
    # Duval's iteration: emit, extend periodically, then increment the tail
    w = [0]
    while w:
        words.append(tuple(w))
        period = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - period])
        while w and w[-1] == m - 1:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(words, key=lambda u: (len(u), u))


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word as u then v with v its longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ChiLieError("standard factorization needs length >= 2")
    for s in range(1, len(w)):
        if is_lyndon(w[s:]):
            return w[:s], w[s:]
    raise ChiLieError(f"{w} has no Lyndon proper suffix; not a Lyndon word?")


Bracketing = int | tuple  # leaf generator index, or (left, right) pair


def standard_bracketing(w: Word) -> Bracketing:
    """Binary tree over the word following the standard factorization."""
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (standard_bracketing(u), standard_bracketing(v))


@dataclass(frozen=True)
class LyndonElement:
    """Basis element of a free Lie algebra: a Lyndon word with its bracketing."""

    word: Word
    degree: int
    bracketing: Bracketing

    def __str__(self) -> str:
        return _bracketing_label(self.bracketing)


def _bracketing_label(b: Bracketing) -> str:
    if isinstance(b, int):
        return f"x{b}"
    return f"[{_bracketing_label(b[0])},{_bracketing_label(b[1])}]"


def lyndon_basis(m: int, c: int) -> list[LyndonElement]:
    """Lyndon words of degree <= c in (degree, lex) order, with bracketings."""
    return [
        LyndonElement(word=w, degree=len(w), bracketing=standard_bracketing(w))
        for w in lyndon_words(m, c)
    ]


# -- bracket expressions ----------------------------------------------------


@dataclass(frozen=True)
class BracketExpr:
    """Formal expression over numbered generators: sums, scalings, brackets."""

    kind: str  # "gen" | "scale" | "sum" | "br"
    index: int = 0
    coeff: Fraction = ONE
    parts: tuple["BracketExpr", ...] = ()

    @staticmethod
    def gen(i: int) -> "BracketExpr":
        if i < 0:
            raise IndexOutOfRange("generator index must be >= 0")
        return BracketExpr("gen", index=i)

    @staticmethod
    def scale(c, e: "BracketExpr") -> "BracketExpr":
        return BracketExpr("scale", coeff=rational(c), parts=(e,))

    @staticmethod
    def add(*es: "BracketExpr") -> "BracketExpr":
        if len(es) == 1:
            return es[0]
        return BracketExpr("sum", parts=tuple(es))

    @staticmethod
    def br(a: "BracketExpr", b: "BracketExpr") -> "BracketExpr":
        return BracketExpr("br", parts=(a, b))

    def leaves(self) -> set[int]:
        if self.kind == "gen":
            return {self.index}
        out: set[int] = set()
        for p in self.parts:
            out |= p.leaves()
        return out

    def substitute(self, mapping: dict[int, "BracketExpr"]) -> "BracketExpr":
        if self.kind == "gen":
            return mapping.get(self.index, self)
        if not self.parts:
            return self
        new_parts = tuple(p.substitute(mapping) for p in self.parts)
        return BracketExpr(self.kind, index=self.index, coeff=self.coeff, parts=new_parts)

    def remap(self, index_map: dict[int, int]) -> "BracketExpr":
        if self.kind == "gen":
            return BracketExpr("gen", index=index_map[self.index])
        if not self.parts:
            return self
        return BracketExpr(self.kind, index=self.index, coeff=self.coeff,
                           parts=tuple(p.remap(index_map) for p in self.parts))

    def to_json_dict(self) -> dict:
        if self.kind == "gen":
            return {"gen": self.index}
        if self.kind == "scale":
            return {"scale": format_rational(self.coeff), "of": self.parts[0].to_json_dict()}
        if self.kind == "sum":
            return {"sum": [p.to_json_dict() for p in self.parts]}
        return {"br": [self.parts[0].to_json_dict(), self.parts[1].to_json_dict()]}

    @staticmethod
    def from_json_dict(data: dict) -> "BracketExpr":
        if "gen" in data:
            return BracketExpr.gen(int(data["gen"]))
        if "scale" in data:
            return BracketExpr.scale(rational(data["scale"]), BracketExpr.from_json_dict(data["of"]))
        if "sum" in data:
            return BracketExpr.add(*(BracketExpr.from_json_dict(d) for d in data["sum"]))
        if "br" in data:
            a, b = data["br"]
            return BracketExpr.br(BracketExpr.from_json_dict(a), BracketExpr.from_json_dict(b))
        raise ChiLieError(f"malformed bracket expression JSON: {data!r}")

    def __str__(self) -> str:
        if self.kind == "gen":
            return f"g{self.index}"
        if self.kind == "scale":
            return f"({self.coeff})*{self.parts[0]}"
        if self.kind == "sum":
            return "(" + " + ".join(str(p) for p in self.parts) + ")" if self.parts else "0"
        return f"[{self.parts[0]},{self.parts[1]}]"


def eval_sparse(
    expr: BracketExpr,
    images: Sequence[dict[int, Fraction]],
    bracket: Callable[[dict[int, Fraction], dict[int, Fraction]], dict[int, Fraction]],
) -> dict[int, Fraction]:
    """Evaluate an expression on sparse {index: coefficient} generator images.

    ``bracket`` brackets two such dicts, for example
    ``LieAlgebra.bracket_sparse``; the result has no zero entries.
    """

    def ev(e: BracketExpr) -> dict[int, Fraction]:
        if e.kind == "gen":
            if e.index >= len(images):
                raise IndexOutOfRange(f"expression uses generator {e.index}, only {len(images)} given")
            return images[e.index]
        if e.kind == "scale":
            return {k: e.coeff * x for k, x in ev(e.parts[0]).items()} if e.coeff else {}
        if e.kind == "sum":
            acc: dict[int, Fraction] = {}
            for p in e.parts:
                for k, x in ev(p).items():
                    acc[k] = acc.get(k, ZERO) + x
            return {k: x for k, x in acc.items() if x}
        return bracket(ev(e.parts[0]), ev(e.parts[1]))

    return ev(expr)


def eval_in_algebra(expr: BracketExpr, images: Sequence[Vector], algebra: LieAlgebra) -> Vector:
    """Evaluate an expression with the given dense generator images.

    The images of the generators the expression uses are made sparse and
    the tree is evaluated by ``eval_sparse`` through
    ``LieAlgebra.bracket_sparse``; only the result is made dense.
    """
    sparse_images: list[dict[int, Fraction]] = [{}] * len(images)
    for i in expr.leaves():
        if i < len(images):
            if len(images[i]) != algebra.dim:
                raise DimensionMismatch("generator images must match the algebra dimension")
            sparse_images[i] = sparsify(images[i])
    return densify(eval_sparse(expr, sparse_images, algebra.bracket_sparse), algebra.dim)


# -- free nilpotent algebras ------------------------------------------------

Poly = dict[Word, int]


def _poly_commutator(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for wp, cp in p.items():
        for wq, cq in q.items():
            w1 = wp + wq
            out[w1] = out.get(w1, 0) + cp * cq
            w2 = wq + wp
            out[w2] = out.get(w2, 0) - cp * cq
    return {w: c for w, c in out.items() if c}


def _bracketing_poly(cache: dict[Word, Poly], w: Word) -> Poly:
    cached = cache.get(w)
    if cached is not None:
        return cached
    if len(w) == 1:
        poly: Poly = {w: 1}
    else:
        u, v = standard_factorization(w)
        poly = _poly_commutator(_bracketing_poly(cache, u), _bracketing_poly(cache, v))
    assert poly.get(w) == 1 and min(poly) == w, "Lyndon leading-term property failed"
    cache[w] = poly
    return poly


def _decompose(cache: dict[Word, Poly], index: dict[Word, int], poly: Poly) -> list[tuple[int, int]]:
    """Peel a Lie-element polynomial into Lyndon basis coordinates."""
    work = {w: c for w, c in poly.items() if c}
    terms: list[tuple[int, int]] = []
    while work:
        w = min(work, key=lambda u: (len(u), u))
        coef = work[w]
        idx = index.get(w)
        if idx is None:
            raise ChiLieError(f"leading word {w} is not a basis word; not a Lie element?")
        terms.append((idx, coef))
        for w2, c2 in _bracketing_poly(cache, w).items():
            nv = work.get(w2, 0) - coef * c2
            if nv:
                work[w2] = nv
            elif w2 in work:
                del work[w2]
    terms.sort()
    return terms


@dataclass
class FreeNilpotentAlgebra:
    """Free Lie algebra on `generators` letters, truncated past `max_class`."""

    generators: int
    max_class: int
    basis: tuple[LyndonElement, ...]
    words: tuple[Word, ...]
    index: dict[Word, int]
    degrees: tuple[int, ...]
    algebra: LieAlgebra
    table_int: dict[tuple[int, int], tuple[tuple[int, int], ...]]

    @property
    def dim(self) -> int:
        return len(self.words)

    def generator_vector(self, i: int) -> Vector:
        if not 0 <= i < self.generators:
            raise IndexOutOfRange(f"generator {i} out of range for {self.generators} letters")
        return self.algebra.basis_vector(i)


_FREE_CACHE: dict[tuple[int, int], FreeNilpotentAlgebra] = {}


def build_free_nilpotent(m: int, c: int, budget: int | None = None) -> FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra of class c on m generators, fully tabled."""
    if m < 0:
        raise ChiLieError("generator count must be >= 0")
    if c < 1:
        raise ChiLieError("nilpotency class must be >= 1")
    limit = dimension_budget(budget)
    total = free_nilpotent_dimension(m, c)
    if total > limit:
        raise BudgetExceeded(
            f"free nilpotent algebra on {m} generators at class {c} needs {total} "
            f"basis elements, over the budget of {limit}"
        )
    cached = _FREE_CACHE.get((m, c))
    if cached is not None:
        return cached

    basis = tuple(lyndon_basis(m, c))  # already sorted by (degree, lex)
    words = tuple(b.word for b in basis)
    index = {w: t for t, w in enumerate(words)}
    degrees = tuple(b.degree for b in basis)
    polys: dict[Word, Poly] = {}
    table_int: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    table_frac: dict[tuple[int, int], list] = {}
    n = len(words)
    for i in range(n):
        di = degrees[i]
        for j in range(i + 1, n):
            if di + degrees[j] > c:
                continue
            prod = _poly_commutator(_bracketing_poly(polys, words[i]), _bracketing_poly(polys, words[j]))
            if not prod:
                continue
            terms = _decompose(polys, index, prod)
            if terms:
                table_int[(i, j)] = tuple(terms)
                table_frac[(i, j)] = [(k, Fraction(cf)) for k, cf in terms]
    labels = [str(b) for b in basis]
    # Jacobi holds by construction (associative commutator); the targeted
    # validation tests cover the contract range, so skip the O(pairs*dim) scan
    algebra = LieAlgebra(f"free_nilpotent({m},{c})", n, table_frac, labels, check=False)
    f = FreeNilpotentAlgebra(
        generators=m,
        max_class=c,
        basis=basis,
        words=words,
        index=index,
        degrees=degrees,
        algebra=algebra,
        table_int=table_int,
    )
    _FREE_CACHE[(m, c)] = f
    return f

