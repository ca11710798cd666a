"""Nilpotent quotients of finitely presented Lie algebras.

A presentation is a generator count plus relator expressions.  The class-c
quotient is the free nilpotent algebra of class c on those generators
modulo the ideal generated by the relator values.  ``stable_quotient``
sweeps the class upward until two consecutive quotients have the same
dimension, which certifies that the lower central series of the presented
algebra has gone stationary and the result is its maximal nilpotent
quotient.

The sweep never builds the class that confirms the stop.  After class c,
``tail_step_dim`` computes dim Q_{c+1} from Q_c alone: a central tail
step over an adapted basis of Q_c, with Jacobi and the relators imposed
as linear conditions on the tails.  Its cost follows dim Q_c, not the
free algebra of class c+1.  An unchanged dimension stops the sweep; a
larger one builds class c+1, whose dimension must equal the prediction
(``ConsistencyFailure`` otherwise), so every class the sweep goes on to
build cross-checks the tail step.

Before touching the free algebra, ``class_quotient`` eliminates generators
that some relator expresses in terms of the others (a relator with a
linear occurrence of x_k and no other occurrence of x_k defines x_k).
The substitution preserves the presented algebra, hence every class-c
quotient, while shrinking the free algebra the computation runs in.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BudgetExceeded, ChiLieError, ConsistencyFailure, InvalidAlgebra
from .freelie import (
    BracketExpr,
    FreeNilpotentAlgebra,
    build_free_nilpotent,
    dimension_budget,
    eval_sparse,
)
from .liealg import LieAlgebra, subalgebra_closure, validate
from .linalg import ONE, ZERO, SparseEchelon, Vector, integral, sparsify


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

    def __repr__(self) -> str:
        return f"Presentation({self.generators} generators, {len(self.relators)} relators)"


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


def _reduce(ech: SparseEchelon, v: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """v modulo the span of ech, as integer numerators over one denominator."""
    return ech.reduce_intden(integral(v), lcm(*(x.denominator for x in v.values())))


def _quotient_from_ideal(
    f: FreeNilpotentAlgebra, ech: SparseEchelon, name: str
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
    units = [{i: ONE} for i in range(m)]

    def evaluate(e: BracketExpr) -> dict[int, Fraction]:
        return eval_sparse(e, units, f.algebra.bracket_sparse)

    ech = ideal_closure_echelon(f, [integral(evaluate(r)) for r in reduced.relators])

    name = f"presented({p.generators} gens)/class<={c}"
    q, cc = _quotient_from_ideal(f, ech, name)

    def project(v: dict[int, Fraction]) -> Vector:
        num, den = _reduce(ech, v)
        return tuple(Fraction(num.get(t, 0), den) for t in cc)

    images = tuple(project(evaluate(e)) for e in originals)
    # the original relators must evaluate to zero in the quotient
    sparse_images = [sparsify(v) for v in images]
    for r in p.relators:
        if eval_sparse(r, sparse_images, q.bracket_sparse):
            raise ConsistencyFailure(
                "a relator does not vanish in the constructed quotient"
            )
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


def tail_step_dim(
    qr: QuotientResult, relators, budget: int | None = None
) -> int:
    """dim Q_{c+1} from Q_c = qr by one central tail step, with no free algebra.

    ``qr`` is ``class_quotient(p, c)`` and ``relators`` are ``p.relators``.
    Q_c is P/K with K = γ_{c+1}P.  P/[K,P] is the central extension of Q_c
    by free tails, cut down by the tail parts of Jacobi on basis triples;
    dividing it by the relators gives Q_{c+1}, since γ_{c+2}P lies in
    [K,P].  This is the tail step of Havas, Newman and Vaughan-Lee (J. Symb.
    Comp. 9, 1990) and Schneider (DMTCS 1, 1997).

    The adapted basis of Q_c is the generator images independent modulo
    [Q_c, Q_c], then every [generator, earlier element] independent of
    those before it.  Its definition pairs get no tail, nor do pairs whose
    definition depths sum to c+2 or more: a depth is a lower bound on the
    lower-central degree, so such a bracket lies in γ_{c+2}P.  Every other
    pair, and every generator whose image is not a basis element, gets one.
    The budget is charged dim Q_c plus the tail count before any tail is
    allocated.

    One integer ``SparseEchelon`` holds everything.  Columns [0, d) are
    Q_c's coordinates, [d, 2d) mark the adapted basis and the rest are
    tails.  Basis element k is stored as a multiple of (b_k | -e_k), so
    reducing a vector of Q_c leaves its adapted coordinates in the marker
    columns; the conditions on the tails live in the tail columns alone.
    """
    q, c = qr.algebra, qr.class_used
    d = q.dim
    ech = SparseEchelon(2 * d)
    vecs: list[dict[int, Fraction]] = []  # Q_c coordinates of the adapted basis
    depth: list[int] = []  # definition depth: b_k lies in γ_depth
    defining: set[tuple[int, int]] = set()
    gen_basis: dict[int, int] = {}  # presentation generator -> adapted index

    def adjoin(v: dict[int, Fraction], k_depth: int) -> bool:
        if not v:
            return False
        num, _ = ech.reduce_intden(integral({**v, d + len(vecs): -ONE}), 1)
        if min(num) >= d:
            return False
        ech.insert(num)
        vecs.append(v)
        depth.append(k_depth)
        return True

    # generator images independent modulo [Q, Q] generate the nilpotent Q
    derived = SparseEchelon(d)
    for terms in q.table.values():
        derived.insert(integral(dict(terms)))
    for i, img in enumerate(qr.generator_images):
        v = sparsify(img)
        if v and derived.insert(integral(v)) is not None and adjoin(v, 1):
            gen_basis[i] = len(vecs) - 1
    gens = sorted(gen_basis.values())
    e = 0
    while e < len(vecs) < d:
        for g in gens:
            if adjoin(q.bracket_sparse(vecs[g], vecs[e]), 1 + depth[e]):
                defining.add((min(g, e), max(g, e)))
        e += 1
    if len(vecs) < d:
        raise ConsistencyFailure("generator images do not generate the class quotient")

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d) if depth[i] + depth[j] <= c + 1]
    ntails = len(pairs) - len(defining) + len(qr.generator_images) - len(gen_basis)
    limit = dimension_budget(budget)
    if d + ntails > limit:
        raise BudgetExceeded(
            f"tail step from class {c} needs dim {d} plus {ntails} tails = "
            f"{d + ntails}, over the budget of {limit}"
        )

    def coords(v: dict[int, Fraction]) -> dict[int, Fraction]:
        num, den = _reduce(ech, v)
        return {k - d: Fraction(x, den) for k, x in num.items()}

    tail: dict[tuple[int, int], int] = {}  # pair (i, j), i < j -> its tail column
    table: dict[tuple[int, int], dict[int, Fraction]] = {}  # in adapted coordinates
    for i, j in pairs:
        if (i, j) not in defining:
            tail[(i, j)] = 2 * d + len(tail)
        if depth[i] + depth[j] <= c:  # else the bracket is in γ_{c+1}Q = 0
            br = coords(q.bracket_sparse(vecs[i], vecs[j]))
            if br:
                table[(i, j)] = br
    lifts = []  # a generator's lift: its basis element, or coordinates plus a tail
    col = 2 * d + len(tail)
    for i, img in enumerate(qr.generator_images):
        if i in gen_basis:
            lifts.append({gen_basis[i]: ONE})
        else:
            lifts.append({**coords(sparsify(img)), col: ONE})
            col += 1
    assert col == 2 * d + ntails

    def add_tails(row: dict[int, Fraction], br: dict[int, Fraction], z: int, sign: int) -> None:
        """row += sign * (the tail part of [br, b_z])."""
        for k, x in br.items():
            t = tail.get((k, z)) if k < z else tail.get((z, k))
            if t is not None:
                row[t] = row.get(t, ZERO) + (sign if k < z else -sign) * x

    # the tail part of [[a,b],z] + [[b,z],a] + [[z,a],b] for a < b < z
    for a in range(d):
        for b in range(a + 1, d):
            ab = table.get((a, b))
            for z in range(b + 1, d):
                bz, az = table.get((b, z)), table.get((a, z))
                if not (ab or bz or az):
                    continue
                row: dict[int, Fraction] = {}
                for br, w, sign in ((ab, z, 1), (bz, a, 1), (az, b, -1)):
                    if br:
                        add_tails(row, br, w, sign)
                row = {k: x for k, x in row.items() if x}
                if row:
                    ech.insert(integral(row))

    def bracket(u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, Fraction]:
        """Bracket in the extension; tails are central."""
        out: dict[int, Fraction] = {}
        for i, x in u.items():
            for j, y in v.items():
                if i >= d or j >= d or i == j:
                    continue
                key, coef = ((i, j), x * y) if i < j else ((j, i), -(x * y))
                for k, z in table.get(key, {}).items():
                    out[k] = out.get(k, ZERO) + coef * z
                t = tail.get(key)
                if t is not None:
                    out[t] = out.get(t, ZERO) + coef
        return {k: x for k, x in out.items() if x}

    for r in relators:
        value = eval_sparse(r, lifts, bracket)
        if any(k < d for k in value):
            raise ConsistencyFailure("a relator does not vanish in the class quotient")
        ech.insert(integral(value))
    # the tails that no condition pins down extend Q_c
    return d + ntails - (ech.rank - d)


def stable_quotient(
    p: Presentation, max_class: int, budget: int | None = None
) -> QuotientResult:
    """Raise the class until the quotient dimension repeats.

    Never raises on failure to stabilize; the caller inspects the flag.
    After each class c < max_class, ``tail_step_dim`` predicts dim Q_{c+1}
    without building the free algebra of class c+1.  An unchanged
    dimension stops the sweep at class c: the next graded piece vanishes,
    and all higher pieces are generated by it, so Q_c is the maximal
    nilpotent quotient.  A larger one builds class c+1 and raises
    ``ConsistencyFailure`` unless its dimension is the predicted one.
    ``history`` lists the dimension of every class built, then the
    prediction that stopped the sweep.
    """
    if max_class < 2:
        raise ChiLieError("max_class must be >= 2")
    history: list[int] = []
    predicted: int | None = None
    for c in range(1, max_class + 1):
        cur = class_quotient(p, c, budget)
        if predicted is not None and cur.algebra.dim != predicted:
            raise ConsistencyFailure(
                f"class {c} has dimension {cur.algebra.dim}, the tail step "
                f"from class {c - 1} predicted {predicted}"
            )
        history.append(cur.algebra.dim)
        if c == max_class:
            break
        predicted = tail_step_dim(cur, p.relators, budget)
        if predicted == cur.algebra.dim:
            return QuotientResult(
                algebra=cur.algebra,
                generator_images=cur.generator_images,
                class_used=c,
                stabilized=True,
                history=tuple(history + [predicted]),
            )
    return QuotientResult(
        algebra=cur.algebra,
        generator_images=cur.generator_images,
        class_used=max_class,
        stabilized=False,
        history=tuple(history),
    )
