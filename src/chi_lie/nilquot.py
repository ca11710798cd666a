"""Nilpotent quotients of finitely presented Lie algebras.

A presentation is a generator count plus relator expressions.  The class-c
quotient is the free nilpotent algebra of class c on those generators
modulo the ideal generated by the relator values.  ``stable_quotient``
sweeps the class upward until two consecutive quotients have the same
dimension, which certifies that the lower central series of the presented
algebra has gone stationary and the result is its maximal nilpotent
quotient.

Before touching the free algebra, ``class_quotient`` eliminates generators
that some relator expresses in terms of the others (a relator with a
linear occurrence of x_k and no other occurrence of x_k defines x_k).
The substitution preserves the presented algebra, hence every class-c
quotient, while shrinking the free algebra the computation runs in.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChiLieError, ConsistencyFailure, InvalidAlgebra
from .freelie import (
    BracketExpr,
    FreeNilpotentAlgebra,
    build_free_nilpotent,
    eval_in_algebra,
)
from .liealg import LieAlgebra, subalgebra_closure, validate
from .linalg import ONE, ZERO, SparseEchelon, Vector, integral, sparsify, vec_is_zero

VALIDATE_DIM_LIMIT = 64


class Presentation:
    """Finitely many generators and Lie relator expressions."""

    __slots__ = ("generators", "labels", "relators")

    def __init__(self, generators: int, relators, labels=None):
        if generators < 0:
            raise ChiLieError("generator count must be >= 0")
        self.generators = generators
        self.relators = tuple(relators)
        if labels is None:
            labels = tuple(f"x{i}" for i in range(generators))
        else:
            labels = tuple(labels)
            if len(labels) != generators:
                raise ChiLieError("label count differs from generator count")
        self.labels = labels
        for r in self.relators:
            bad = [i for i in r.leaves() if i >= generators]
            if bad:
                raise ChiLieError(f"relator mentions unknown generator {bad[0]}")

    def to_json_dict(self) -> dict:
        return {
            "gens": self.generators,
            "gen_labels": list(self.labels),
            "relators": [r.to_json_dict() for r in self.relators],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Presentation":
        try:
            gens = int(data["gens"])
            labels = data.get("gen_labels")
            relators = [BracketExpr.from_json_dict(d) for d in data["relators"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ChiLieError(f"malformed presentation JSON: {exc}") from exc
        return cls(gens, relators, labels)

    def __repr__(self) -> str:
        return f"Presentation({self.generators} generators, {len(self.relators)} relators)"


def structure_presentation(g: LieAlgebra) -> Presentation:
    """Presentation of g on its basis: one relator per basis pair."""
    relators = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            terms = [BracketExpr.br(BracketExpr.gen(i), BracketExpr.gen(j))]
            for k, c in g.pair_terms(i, j):
                terms.append(BracketExpr.scale(-c, BracketExpr.gen(k)))
            relators.append(BracketExpr.add(*terms))
    return Presentation(g.dim, relators, g.labels)


# -- generator elimination ---------------------------------------------------


def _linear_split(expr: BracketExpr):
    """Split into (linear coefficients on bare generators, bracket terms)."""
    lin: dict[int, Fraction] = {}
    rest: list[tuple[Fraction, BracketExpr]] = []

    def walk(e: BracketExpr, m: Fraction) -> None:
        if e.kind == "gen":
            lin[e.index] = lin.get(e.index, ZERO) + m
        elif e.kind == "scale":
            walk(e.parts[0], m * e.coeff)
        elif e.kind == "sum":
            for p in e.parts:
                walk(p, m)
        else:
            rest.append((m, e))

    walk(expr, ONE)
    return {i: c for i, c in lin.items() if c != 0}, rest


def _rebuild(lin: dict[int, Fraction], rest) -> BracketExpr:
    parts = []
    for i in sorted(lin):
        c = lin[i]
        parts.append(BracketExpr.gen(i) if c == 1 else BracketExpr.scale(c, BracketExpr.gen(i)))
    for m, e in rest:
        parts.append(e if m == 1 else BracketExpr.scale(m, e))
    return BracketExpr.add(*parts)


def eliminate_redundant_generators(p: Presentation) -> tuple[Presentation, list[BracketExpr]]:
    """Remove generators that a relator defines in terms of the others.

    Returns the reduced presentation and one expression per original
    generator, written over the reduced presentation's generators.
    """
    relators = list(p.relators)
    defs: dict[int, BracketExpr] = {}
    while True:
        chosen = None
        for ridx, r in enumerate(relators):
            lin, rest = _linear_split(r)
            bracket_leaves = set()
            for _, e in rest:
                bracket_leaves |= e.leaves()
            candidates = [k for k in lin if k not in bracket_leaves]
            if candidates:
                chosen = (ridx, max(candidates), lin, rest)
                break
        if chosen is None:
            break
        ridx, k, lin, rest = chosen
        gamma = lin.pop(k)
        remainder = _rebuild(lin, rest)
        definition = BracketExpr.scale(-1 / gamma, remainder)
        mapping = {k: definition}
        relators = [r.substitute(mapping) for t, r in enumerate(relators) if t != ridx]
        defs = {i: e.substitute(mapping) for i, e in defs.items()}
        defs[k] = definition
    kept = [i for i in range(p.generators) if i not in defs]
    index_map = {old: new for new, old in enumerate(kept)}
    reduced = Presentation(
        len(kept),
        [r.remap(index_map) for r in relators],
        [p.labels[i] for i in kept],
    )
    originals = []
    for i in range(p.generators):
        if i in defs:
            originals.append(defs[i].remap(index_map))
        else:
            originals.append(BracketExpr.gen(index_map[i]))
    return reduced, originals


# -- ideal closure in a free nilpotent algebra -------------------------------


def int_bracket_with_generator(
    f: FreeNilpotentAlgebra, gen: int, row: dict[int, int]
) -> dict[int, int]:
    """[e_gen, row] in integer coordinates via the integer table."""
    out: dict[int, int] = {}
    for t, v in row.items():
        if t == gen:
            continue
        if gen < t:
            terms = f.table_int.get((gen, t), ())
            sign = 1
        else:
            terms = f.table_int.get((t, gen), ())
            sign = -1
        for k, c in terms:
            nv = out.get(k, 0) + sign * v * c
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return out


def ideal_closure_echelon(f: FreeNilpotentAlgebra, seeds) -> SparseEchelon:
    """Echelonized ideal of f generated by integer seed vectors.

    Bracketing with the generators alone closes the ideal: brackets with
    longer basis words unfold into generator brackets by the Jacobi
    identity, and the worklist revisits every new row.
    """

    def step(row: dict[int, int]) -> list[dict[int, int]]:
        return [int_bracket_with_generator(f, gen, row) for gen in range(f.generators)]

    return SparseEchelon(f.dim).close(seeds, step)


# -- quotient construction ---------------------------------------------------


@dataclass(frozen=True)
class QuotientResult:
    """A nilpotent quotient with the images of the presented generators.

    ``stabilized`` is only set by the class sweep; a single class_quotient
    call certifies nothing about higher classes and reports it False.
    """

    algebra: LieAlgebra
    generator_images: tuple[Vector, ...]
    class_used: int
    stabilized: bool
    history: tuple[int, ...]


def _quotient_from_ideal(
    f: FreeNilpotentAlgebra, ech: SparseEchelon, name: str, *, validate_result: bool
) -> tuple[LieAlgebra, list[int]]:
    """Quotient of f by the echelonized ideal, on the non-pivot coordinates."""
    cc = ech.complement()
    pos = {c: t for t, c in enumerate(cc)}
    qdim = len(cc)
    table: dict[tuple[int, int], list] = {}
    for a in range(qdim):
        for b in range(a + 1, qdim):
            terms_int = f.table_int.get((cc[a], cc[b]))
            if not terms_int:
                continue
            num, den = ech.reduce_intden({k: c for k, c in terms_int}, 1)
            if num:
                table[(a, b)] = [(pos[k], Fraction(v, den)) for k, v in sorted(num.items())]
    labels = [f.algebra.labels[c] for c in cc]
    q = LieAlgebra(name, qdim, table, labels, check=False)
    if validate_result and qdim <= VALIDATE_DIM_LIMIT:
        bad = validate(q)
        if bad is not None:
            raise InvalidAlgebra(
                f"quotient table fails Jacobi on triple {bad.triple}",
                triple=bad.triple,
                defect=bad.defect,
            )
    return q, cc


def class_quotient(
    p: Presentation, c: int, budget: int | None = None
) -> QuotientResult:
    """Class-c quotient of the presented algebra plus generator images."""
    reduced, originals = eliminate_redundant_generators(p)
    m = reduced.generators
    f = build_free_nilpotent(m, c, budget)
    gen_vectors = [f.generator_vector(i) for i in range(m)]

    seeds = [
        integral(sparsify(eval_in_algebra(r, gen_vectors, f.algebra))) for r in reduced.relators
    ]
    ech = ideal_closure_echelon(f, seeds)

    name = f"presented({p.generators} gens)/class<={c}"
    q, cc = _quotient_from_ideal(f, ech, name, validate_result=True)

    def project(v: Vector) -> Vector:
        red = ech.reduce_vector(v)
        return tuple(red[t] for t in cc)

    images = tuple(
        project(eval_in_algebra(e, gen_vectors, f.algebra)) for e in originals
    )
    # the original relators must evaluate to zero in the quotient
    for r in p.relators:
        if not vec_is_zero(eval_in_algebra(r, images, q)):
            raise ConsistencyFailure(
                "a relator does not vanish in the constructed quotient"
            )
    if q.dim <= VALIDATE_DIM_LIMIT:
        if subalgebra_closure(q, images).dim != q.dim:
            raise ConsistencyFailure(
                "generator images do not generate the constructed quotient"
            )
    return QuotientResult(
        algebra=q,
        generator_images=images,
        class_used=c,
        stabilized=False,
        history=(q.dim,),
    )


def stable_quotient(
    p: Presentation, max_class: int, budget: int | None = None
) -> QuotientResult:
    """Raise the class until the quotient dimension repeats.

    Never raises on failure to stabilize; the caller inspects the flag.
    Equal consecutive dimensions certify the maximal nilpotent quotient:
    the next graded piece vanishes, and all higher pieces are generated
    by it.
    """
    if max_class < 2:
        raise ChiLieError("max_class must be >= 2")
    history: list[int] = []
    prev: QuotientResult | None = None
    for c in range(1, max_class + 1):
        cur = class_quotient(p, c, budget)
        history.append(cur.algebra.dim)
        if prev is not None and prev.algebra.dim == cur.algebra.dim:
            return QuotientResult(
                algebra=prev.algebra,
                generator_images=prev.generator_images,
                class_used=c - 1,
                stabilized=True,
                history=tuple(history),
            )
        prev = cur
    assert prev is not None
    return QuotientResult(
        algebra=prev.algebra,
        generator_images=prev.generator_images,
        class_used=max_class,
        stabilized=False,
        history=tuple(history),
    )
