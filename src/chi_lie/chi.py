"""The weak-commutativity algebra of a Lie algebra over Q.

Two isomorphic copies of the input algebra g, written x and x', generate
an algebra in which every bracket [x, x'] of an element with its own
copy vanishes.  ``chi_presentation`` writes that down as a finite
presentation; ``compute_chi`` realizes the algebra itself together with
the maps that compare the copies:

* alpha folds both copies onto g,
* beta separates them into g + g,
* rho sends x to (x, x, 0) and x' to (0, x, x) in g + g + g.

Their kernels L, D, W = L meet D and the triple-bracket ideal R form a
chain R inside W inside L whose quotient W/R matches the second
homology of g; that identity is asserted during construction.

Three construction methods, tagged on the result: a closed form for
abelian inputs, the nilpotent-quotient engine for nilpotent inputs, and
a direct sum of three copies for perfect inputs with vanishing second
homology.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ChiLieError,
    ConsistencyFailure,
    InvalidAlgebra,
    NonvanishingH2,
    NotNilpotent,
    NotPerfect,
    NotStabilized,
)
from .freelie import BracketExpr, eval_in_algebra
from .homology import h2_ce
from .liealg import (
    LieAlgebra,
    LieHom,
    derived_subalgebra,
    direct_sum,
    embed_direct_sum,
    hom_from_generator_images,
    ideal_closure,
    is_abelian,
    is_perfect,
    nilpotency_class,
    validate,
)
from .linalg import (
    ONE,
    Matrix,
    Subspace,
    Vector,
    complement_coords,
    format_rational,
    intersect,
    kernel,
    vec_add,
    vec_is_zero,
)
from .nilquot import Presentation, stable_quotient

METHOD_ABELIAN = "abelian-closed-form"
METHOD_NILPOTENT = "nilpotent-quotient"
METHOD_SUPERPERFECT = "superperfect"


@dataclass(frozen=True)
class ChiAlgebra:
    """The constructed algebra with its comparison maps and ideal chain.

    ``gen_images`` lists the images of the 2n presentation generators
    (the copy of g first, then the primed copy) inside ``chi``.
    ``class_used`` is None for methods that do not truncate by class.
    """

    base: LieAlgebra
    chi: LieAlgebra
    gen_images: tuple[Vector, ...]
    alpha: LieHom
    beta: LieHom
    rho: LieHom
    L: Subspace
    D: Subspace
    W: Subspace
    R: Subspace
    method: str
    class_used: int | None
    stabilized: bool

    def to_json_dict(self) -> dict:
        def vec(v: Vector) -> list[str]:
            return [format_rational(x) for x in v]

        def sub(s: Subspace) -> list[list[str]]:
            return [vec(b) for b in s.basis_vectors()]

        return {
            "base": self.base.to_json_dict(),
            "chi": self.chi.to_json_dict(),
            "gen_images": [vec(v) for v in self.gen_images],
            "alpha": self.alpha.to_json_dict(),
            "beta": self.beta.to_json_dict(),
            "rho": self.rho.to_json_dict(),
            "L": sub(self.L),
            "D": sub(self.D),
            "W": sub(self.W),
            "R": sub(self.R),
            "method": self.method,
            "class_used": self.class_used,
            "stabilized": self.stabilized,
        }


def chi_presentation(g: LieAlgebra) -> Presentation:
    """Presentation on two copies of g's basis.

    Relators: the structure relators of each copy, [x_i, x_i'] for every
    i, and the polarized family [x_i, x_j'] + [x_j, x_i'] for i < j.  The
    polarized pairs recover [v, v'] = 0 for arbitrary v by bilinear
    expansion, which needs 2 to be invertible and Q provides that.
    """
    bad = validate(g)
    if bad is not None:
        raise InvalidAlgebra(
            f"structure constants fail the Jacobi identity on {bad.triple}",
            triple=bad.triple,
            defect=bad.defect,
        )
    n = g.dim
    labels = list(g.labels) + [f"{lbl}'" for lbl in g.labels]
    relators: list[BracketExpr] = []
    for shift in (0, n):
        for i in range(n):
            for j in range(i + 1, n):
                terms = [
                    BracketExpr.br(BracketExpr.gen(i + shift), BracketExpr.gen(j + shift))
                ]
                for k, c in g.pair_terms(i, j):
                    terms.append(BracketExpr.scale(-c, BracketExpr.gen(k + shift)))
                relators.append(BracketExpr.add(*terms))
    for i in range(n):
        relators.append(BracketExpr.br(BracketExpr.gen(i), BracketExpr.gen(i + n)))
    for i in range(n):
        for j in range(i + 1, n):
            relators.append(
                BracketExpr.add(
                    BracketExpr.br(BracketExpr.gen(i), BracketExpr.gen(j + n)),
                    BracketExpr.br(BracketExpr.gen(j), BracketExpr.gen(i + n)),
                )
            )
    return Presentation(2 * n, relators, labels)


# -- shared assembly ---------------------------------------------------------


def _comparison_maps(
    g: LieAlgebra, chi: LieAlgebra, images: tuple[Vector, ...]
) -> tuple[LieHom, LieHom, LieHom]:
    """alpha, beta, rho from the generator images."""
    n = g.dim
    basis = [g.basis_vector(i) for i in range(n)]
    two = [g, g]
    three = [g, g, g]
    alpha_imgs = basis + basis
    beta_imgs = [embed_direct_sum(b, 0, two) for b in basis] + [
        embed_direct_sum(b, 1, two) for b in basis
    ]
    rho_imgs = [
        vec_add(embed_direct_sum(b, 0, three), embed_direct_sum(b, 1, three))
        for b in basis
    ] + [
        vec_add(embed_direct_sum(b, 1, three), embed_direct_sum(b, 2, three))
        for b in basis
    ]
    alpha = hom_from_generator_images(chi, images, alpha_imgs, g)
    beta = hom_from_generator_images(chi, images, beta_imgs, direct_sum(two))
    rho = hom_from_generator_images(chi, images, rho_imgs, direct_sum(three))
    return alpha, beta, rho


def _triple_bracket_ideal(
    chi: LieAlgebra, images: tuple[Vector, ...], n: int, L: Subspace
) -> Subspace:
    """Ideal generated by the brackets [x_i, [l, x_j']] over a basis of L.

    The spanning set is closed under scaling both copy slots, so ranging
    over basis generators suffices.  The closure is computed anyway and
    must add nothing.
    """
    vecs = []
    for ell in L.basis_vectors():
        for j in range(n):
            inner = chi.bracket(ell, images[n + j])
            if vec_is_zero(inner):
                continue
            for i in range(n):
                v = chi.bracket(images[i], inner)
                if not vec_is_zero(v):
                    vecs.append(v)
    span = Subspace.span(vecs, chi.dim)
    closed = ideal_closure(chi, span.basis_vectors())
    if closed != span:
        raise ConsistencyFailure(
            "triple-bracket span was not already an ideal "
            f"({span.dim} grew to {closed.dim})"
        )
    return closed


def _assemble(
    g: LieAlgebra,
    chi: LieAlgebra,
    images: tuple[Vector, ...],
    method: str,
    class_used: int | None,
    stabilized: bool,
) -> ChiAlgebra:
    """Maps, kernels, the ideal chain, and the homology cross-check."""
    alpha, beta, rho = _comparison_maps(g, chi, images)
    L = alpha.kernel()
    D = beta.kernel()
    W = rho.kernel()
    if W != intersect(L, D):
        raise ConsistencyFailure("kernel of rho differs from the intersection of L and D")
    R = _triple_bracket_ideal(chi, images, g.dim, L)
    if not W.contains_subspace(R) or not L.contains_subspace(W):
        raise ConsistencyFailure("ideal chain R inside W inside L is violated")
    h2, _ = h2_ce(g)
    if W.dim - R.dim != h2:
        raise ConsistencyFailure(
            f"dim W - dim R = {W.dim - R.dim} disagrees with the second homology {h2}"
        )
    return ChiAlgebra(
        base=g,
        chi=chi,
        gen_images=images,
        alpha=alpha,
        beta=beta,
        rho=rho,
        L=L,
        D=D,
        W=W,
        R=R,
        method=method,
        class_used=class_used,
        stabilized=stabilized,
    )


# -- the three construction methods -----------------------------------------


def _abelian_chi(g: LieAlgebra) -> ChiAlgebra:
    """Closed form for abelian g: central elements w_ij = [x_i, x_j']."""
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pidx = {p: t for t, p in enumerate(pairs)}
    dim = 2 * n + len(pairs)
    labels = (
        list(g.labels)
        + [f"{lbl}'" for lbl in g.labels]
        + [f"w({g.labels[i]},{g.labels[j]})" for i, j in pairs]
    )
    table: dict[tuple[int, int], list] = {}
    for i, j in pairs:
        # [x_i, x_j'] = w_ij = -[x_j, x_i'] and everything else commutes
        table[(i, j + n)] = [(2 * n + pidx[(i, j)], ONE)]
        table[(j, i + n)] = [(2 * n + pidx[(i, j)], -ONE)]
    chi = LieAlgebra(f"chi({g.name})", dim, table, labels, check=True)
    images = tuple(chi.basis_vector(t) for t in range(2 * n))
    cls = nilpotency_class(chi)
    return _assemble(g, chi, images, METHOD_ABELIAN, cls, True)


def compute_chi(
    g: LieAlgebra,
    max_class: int | None = None,
    *,
    method: str = "auto",
    budget: int | None = None,
) -> ChiAlgebra:
    """Construct the weak-commutativity algebra of a nilpotent g.

    ``method`` picks the construction: "auto" uses the abelian closed
    form when it applies and the nilpotent-quotient engine otherwise;
    either name forces that path.  ``max_class`` bounds the quotient
    sweep and defaults to twice the nilpotency class plus two.
    """
    if method not in ("auto", METHOD_ABELIAN, METHOD_NILPOTENT):
        raise ChiLieError(f"unknown method {method!r}")
    if method == METHOD_ABELIAN or (method == "auto" and is_abelian(g)):
        if not is_abelian(g):
            raise ChiLieError("closed form requested for a non-abelian algebra")
        bad = validate(g)
        if bad is not None:
            raise InvalidAlgebra(
                f"structure constants fail the Jacobi identity on {bad.triple}",
                triple=bad.triple,
                defect=bad.defect,
            )
        return _abelian_chi(g)

    c = nilpotency_class(g)
    if c is None:
        raise NotNilpotent(
            f"{g.name} is not nilpotent; use the perfect-input construction instead"
        )
    if max_class is None:
        max_class = 2 * c + 2
    pres = chi_presentation(g)
    qr = stable_quotient(pres, max_class, budget)
    if not qr.stabilized:
        raise NotStabilized(
            f"dimension still growing at class {max_class}", history=qr.history
        )
    raw = qr.algebra
    chi = LieAlgebra(
        f"chi({g.name})", raw.dim, dict(raw.table), list(raw.labels), check=False
    )
    return _assemble(
        g, chi, qr.generator_images, METHOD_NILPOTENT, qr.class_used, True
    )


def compute_chi_superperfect(g: LieAlgebra) -> ChiAlgebra:
    """Weak-commutativity algebra of a perfect g with zero second homology.

    For such g the algebra is the direct sum of three copies, with x
    mapped to (x, x, 0) and x' to (0, x, x); rho comes out as the
    identity.  Both hypotheses are checked, and the relators are
    re-evaluated on the images as a sanity pass.
    """
    if not is_perfect(g):
        raise NotPerfect(f"{g.name} is not perfect")
    h2, _ = h2_ce(g)
    if h2:
        raise NonvanishingH2(
            f"{g.name} has second homology of dimension {h2}; "
            "the three-copy model does not apply"
        )
    n = g.dim
    three = [g, g, g]
    chi = direct_sum(three, name=f"chi({g.name})")
    basis = [g.basis_vector(i) for i in range(n)]
    images = tuple(
        [
            vec_add(embed_direct_sum(b, 0, three), embed_direct_sum(b, 1, three))
            for b in basis
        ]
        + [
            vec_add(embed_direct_sum(b, 1, three), embed_direct_sum(b, 2, three))
            for b in basis
        ]
    )
    for r in chi_presentation(g).relators:
        if not vec_is_zero(eval_in_algebra(r, list(images), chi)):
            raise ConsistencyFailure("a defining relator does not vanish on the images")
    result = _assemble(g, chi, images, METHOD_SUPERPERFECT, None, True)
    if result.rho.matrix != Matrix.identity(chi.dim):
        raise ConsistencyFailure("rho is not the identity on the three-copy model")
    if result.W.dim or result.R.dim:
        raise ConsistencyFailure("W and R must vanish on the three-copy model")
    return result


# -- the image of rho --------------------------------------------------------


def predicted_rho_image(g: LieAlgebra) -> Subspace:
    """The subspace {(x, y, z) : x - y + z in [g, g]} of g + g + g.

    Computed as the kernel of (x, y, z) -> x - y + z followed by the
    projection onto a complement of the derived subalgebra.
    """
    n = g.dim
    gp = derived_subalgebra(g)
    cc = complement_coords(gp)
    reduced = [gp.reduce(g.basis_vector(col)) for col in range(n)]
    rows = []
    for t in cc:
        row = []
        for block_sign in (ONE, -ONE, ONE):
            for col in range(n):
                row.append(block_sign * reduced[col][t])
        rows.append(tuple(row))
    return kernel(Matrix(tuple(rows), 3 * n))
