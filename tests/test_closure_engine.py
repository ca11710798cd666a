"""The one closure worklist against brute force.

``subalgebra_closure``, ``ideal_closure`` and ``hom_from_generator_images``
all run through ``SparseEchelon.close``, and ``exterior_square`` states
each relation once.  The oracles in ``oracles`` span, bracket and
re-eliminate with textbook Gauss-Jordan until the rank stops growing, and
keep the old loop over all ordered triples and both relation families.
Every catalog algebra is checked, in its own basis, in a seeded one and
with its basis order reversed.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_lie import (
    ENTRIES,
    DimensionMismatch,
    LieAlgebra,
    NotGenerating,
    NotWellDefined,
    SparseEchelon,
    abelian,
    exterior_square,
    heisenberg,
    hom_from_generator_images,
    ideal_closure,
    subalgebra_closure,
)
from oracles import (
    brute_closure,
    dense_bracket,
    dense_hom_defect,
    exterior_classes,
    rebased_table,
    seeded_basis,
)

F = Fraction

fixed_seed = settings(derandomize=True, max_examples=60, deadline=None)

CATALOG = [e.build() for e in ENTRIES]


def _rebased(g: LieAlgebra, seed: int) -> tuple[LieAlgebra, LieAlgebra, list[list[Fraction]]]:
    """(h, g, P) with h the algebra g in the basis f_a = sum_i P[i][a] e_i."""
    p = seeded_basis(g.dim, seed)
    return LieAlgebra(f"rebased {g.name}", g.dim, rebased_table(g.dim, g.table, p)), g, p


REBASED = [_rebased(g, seed) for seed, g in enumerate(CATALOG, start=1)]
# the same algebras with the basis order reversed, so the last basis vector matters
REVERSED = [
    LieAlgebra(f"reversed {g.name}", g.dim, rebased_table(
        g.dim, g.table, [[F(int(i + j == g.dim - 1)) for j in range(g.dim)] for i in range(g.dim)]))
    for g in CATALOG
]
ALGEBRAS = CATALOG + [h for h, _, _ in REBASED] + REVERSED

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def vectors(dim: int):
    """Sparse vectors (at most two nonzero entries) or fully dense ones."""
    sparse = st.dictionaries(st.integers(0, dim - 1), rationals, max_size=2).map(
        lambda d: [d.get(i, F(0)) for i in range(dim)]
    )
    dense = st.lists(rationals.filter(bool), min_size=dim, max_size=dim)
    return st.one_of(sparse, dense)


def _apply(p: list[list[Fraction]], v) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, v)), F(0)) for row in p]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_closures_match_brute_force(data):
    alg = data.draw(st.sampled_from(ALGEBRAS))
    seeds = data.draw(st.lists(vectors(alg.dim), max_size=3))
    for closure, ideal in ((subalgebra_closure, False), (ideal_closure, True)):
        got = [list(r) for r in closure(alg, seeds).basis_vectors()]
        assert got == brute_closure(alg.dim, alg.table, seeds, ideal)


@pytest.mark.parametrize("g", ALGEBRAS, ids=lambda g: g.name)
def test_closures_of_each_basis_vector_match_brute_force(g):
    for i in range(g.dim):
        seeds = [list(g.basis_vector(i))]
        assert [list(r) for r in subalgebra_closure(g, seeds).basis_vectors()] == seeds
        got = [list(r) for r in ideal_closure(g, seeds).basis_vectors()]
        assert got == brute_closure(g.dim, g.table, seeds, True)


@fixed_seed
@given(st.data())
def test_hom_from_generator_images_against_dense_check(data):
    """h -> g sending s to P s has matrix P whenever the seeds generate h."""
    h, g, p = data.draw(st.sampled_from(REBASED))
    seeds = data.draw(st.lists(vectors(h.dim), max_size=3))
    if data.draw(st.booleans()):
        seeds += [list(h.basis_vector(i)) for i in data.draw(st.permutations(range(h.dim)))]
    images = [_apply(p, s) for s in seeds]
    if len(brute_closure(h.dim, h.table, seeds, False)) < h.dim:
        with pytest.raises(NotGenerating):
            hom_from_generator_images(h, seeds, images, g)
        return
    phi = hom_from_generator_images(h, seeds, images, g)
    rows = [list(r) for r in phi.matrix.rows]
    assert rows == p
    assert dense_hom_defect(h.dim, h.table, g.dim, g.table, rows) is None


@fixed_seed
@given(st.data())
def test_hom_from_perturbed_basis_images(data):
    """Images of a basis define a linear map; it is returned exactly when it is a hom."""
    h, g, p = data.draw(st.sampled_from(REBASED))
    r = data.draw(st.integers(0, g.dim - 1))
    c = data.draw(st.integers(0, h.dim - 1))
    rows = [list(row) for row in p]
    rows[r][c] += data.draw(rationals.filter(bool))
    basis = [list(h.basis_vector(i)) for i in range(h.dim)]
    images = [[rows[i][a] for i in range(g.dim)] for a in range(h.dim)]
    if dense_hom_defect(h.dim, h.table, g.dim, g.table, rows) is None:
        phi = hom_from_generator_images(h, basis, images, g)
        assert [list(row) for row in phi.matrix.rows] == rows
    else:
        with pytest.raises(NotWellDefined):
            hom_from_generator_images(h, basis, images, g)


def test_inconsistent_images_win_over_non_generation():
    a3 = abelian(3)
    e0, e1 = a3.basis_vector(0), a3.basis_vector(1)
    with pytest.raises(NotWellDefined):
        hom_from_generator_images(a3, [e0, e0], [e0, e1], a3)


def test_wrong_length_vectors_raise():
    h = heisenberg(3)
    for closure in (subalgebra_closure, ideal_closure):
        for seeds in ([[1, 0]], [[1, 0, 0, 0]], [h.basis_vector(0), [0, 1]]):
            with pytest.raises(DimensionMismatch):
                closure(h, seeds)
    a2 = abelian(2)
    # a short generator used to shift coordinates into the image block
    with pytest.raises(DimensionMismatch):
        hom_from_generator_images(a2, [[1], [0, 1]], [[1, 0], [0, 1]], a2)
    with pytest.raises(DimensionMismatch):
        hom_from_generator_images(a2, [[1, 0], [0, 1]], [[1, 0, 0], [1]], a2)
    with pytest.raises(DimensionMismatch):
        hom_from_generator_images(a2, [[1, 0]], [[1, 0], [0, 1]], a2)


def test_close_inserts_seeds_first_then_expands_newest_row():
    seen = []

    def shift(row):
        seen.append(dict(row))
        return [{c + 1: v for c, v in row.items() if c + 1 < 4}]

    ech = SparseEchelon(4).close([{0: 2}, {2: -3}], shift)
    assert ech.pivots() == [0, 1, 2, 3]
    assert seen == [{2: 1}, {3: 1}, {0: 1}, {1: 1}]


@pytest.mark.parametrize("g", CATALOG + [h for h, _, _ in REBASED], ids=lambda g: g.name)
def test_exterior_square_relations_match_all_triples_loop(g):
    """Same relation subspace, so the same quotient coordinates and table."""
    coords, classes = exterior_classes(g.dim, g.table)
    pairs = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
    sq = exterior_square(g)
    assert sq.dim == len(coords)
    assert sq.table.labels == tuple(f"{g.labels[i]}^{g.labels[j]}" for i, j in coords)
    units = [[F(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    phi = [dense_bracket(g.dim, g.table, units[i], units[j]) for i, j in coords]
    for a in range(len(coords)):
        for b in range(a + 1, len(coords)):
            want = [F(0)] * len(coords)
            for (p, q), cls in zip(pairs, classes):
                x = phi[a][p] * phi[b][q] - phi[a][q] * phi[b][p]
                if x:
                    want = [w + x * c for w, c in zip(want, cls)]
            assert list(sq.table.bracket_basis(a, b)) == want, (a, b)
