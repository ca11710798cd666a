"""The sparse bracket kernel against the dense loops it replaced.

``LieAlgebra.bracket``, ``eval_in_algebra`` and the ``LieHom`` re-check all
run on ``LieAlgebra.bracket_sparse``; the dense versions live in
``oracles`` and must agree on every catalog algebra and on a seeded
rebased one.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_lie import (
    ENTRIES,
    BracketExpr,
    DimensionMismatch,
    IndexOutOfRange,
    LieAlgebra,
    LieHom,
    Matrix,
    NotWellDefined,
    abelian,
    eval_in_algebra,
    heisenberg,
)
from oracles import dense_bracket, dense_eval, dense_hom_defect, rebased_table, seeded_basis

F = Fraction

fixed_seed = settings(derandomize=True, max_examples=60, deadline=None)


def _rebased(g: LieAlgebra, seed: int) -> tuple[LieAlgebra, list[list[Fraction]]]:
    p = seeded_basis(g.dim, seed)
    return LieAlgebra(f"rebased {g.name}", g.dim, rebased_table(g.dim, g.table, p)), p


REBASED, REBASE_MATRIX = _rebased(heisenberg(5), seed=3)
ALGEBRAS = [e.build() for e in ENTRIES] + [REBASED]

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def vectors(dim: int):
    """Sparse vectors (at most three nonzero entries) or fully dense ones."""
    sparse = st.dictionaries(st.integers(0, dim - 1), rationals, max_size=3).map(
        lambda d: [d.get(i, F(0)) for i in range(dim)]
    )
    dense = st.lists(rationals.filter(bool), min_size=dim, max_size=dim)
    return st.one_of(sparse, dense)


def _nonzero(v) -> dict:
    return {k: x for k, x in enumerate(v) if x}


def test_rebased_algebra_is_a_new_table():
    assert REBASED.table != heisenberg(5).table
    LieHom(REBASED, heisenberg(5), Matrix(REBASE_MATRIX, 5))


@fixed_seed
@given(st.data())
def test_bracket_matches_dense_oracle(data):
    g = data.draw(st.sampled_from(ALGEBRAS))
    u = data.draw(vectors(g.dim))
    v = data.draw(vectors(g.dim))
    want = dense_bracket(g.dim, g.table, u, v)
    assert list(g.bracket(u, v)) == want
    assert g.bracket_sparse(_nonzero(u), _nonzero(v)) == _nonzero(want)


def expressions(generators: int):
    leaf = st.integers(0, generators - 1).map(BracketExpr.gen)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(st.one_of(st.just(F(0)), rationals), inner).map(
                lambda t: BracketExpr.scale(*t)
            ),
            st.lists(inner, max_size=3).map(lambda ps: BracketExpr.add(*ps)),
            st.tuples(inner, inner).map(lambda t: BracketExpr.br(*t)),
        ),
        max_leaves=8,
    )


@fixed_seed
@given(st.data())
def test_eval_in_algebra_matches_dense_oracle(data):
    g = data.draw(st.sampled_from(ALGEBRAS))
    images = [data.draw(vectors(g.dim)) for _ in range(3)]
    expr = data.draw(expressions(3))
    got = eval_in_algebra(expr, images, g)
    assert isinstance(got, tuple) and len(got) == g.dim
    assert list(got) == dense_eval(expr, images, g.dim, g.table)


def test_eval_in_algebra_rejects_missing_and_misshapen_images():
    g = heisenberg(3)
    with pytest.raises(IndexOutOfRange):
        eval_in_algebra(BracketExpr.gen(2), [g.basis_vector(0)], g)
    with pytest.raises(DimensionMismatch):
        eval_in_algebra(BracketExpr.gen(0), [(F(1), F(0))], g)


def _perturbed(rows, r: int, c: int, by: Fraction) -> list[list[Fraction]]:
    out = [list(row) for row in rows]
    out[r][c] += by
    return out


@fixed_seed
@given(st.data())
def test_hom_recheck_agrees_with_dense_oracle(data):
    """Identity and rebasing maps pass; one changed entry fails at the oracle's pair."""
    g = data.draw(st.sampled_from(ALGEBRAS))
    if g is REBASED:
        cod, rows = heisenberg(5), REBASE_MATRIX
    else:
        cod, rows = g, [[F(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    assert dense_hom_defect(g.dim, g.table, cod.dim, cod.table, rows) is None
    LieHom(g, cod, Matrix(rows, g.dim))
    if g.dim == 0:
        return
    r = data.draw(st.integers(0, cod.dim - 1))
    c = data.draw(st.integers(0, g.dim - 1))
    bad = _perturbed(rows, r, c, data.draw(rationals.filter(bool)))
    pair = dense_hom_defect(g.dim, g.table, cod.dim, cod.table, bad)
    if pair is None:
        LieHom(g, cod, Matrix(bad, g.dim))
    else:
        with pytest.raises(NotWellDefined, match=rf"\({pair[0]},{pair[1]}\)"):
            LieHom(g, cod, Matrix(bad, g.dim))


def test_hom_recheck_rejects_a_break_on_the_last_pair_only():
    # abelian(3) -> heisenberg(3): e0 -> z, e1 -> x, e2 -> y; only [e1, e2] breaks
    h = heisenberg(3)
    rows = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]]
    assert dense_hom_defect(3, {}, 3, h.table, rows) == (1, 2)
    with pytest.raises(NotWellDefined, match=r"\(1,2\)"):
        LieHom(abelian(3), h, Matrix(rows, 3))
    LieHom(abelian(3), h, Matrix(rows, 3), check=False)


def test_dense_wrapper_keeps_its_input_checks():
    g = heisenberg(3)
    with pytest.raises(DimensionMismatch):
        g.bracket([F(1), F(0)], g.basis_vector(1))
    with pytest.raises(DimensionMismatch):
        g.bracket(g.basis_vector(0), [F(0)] * 4)
    with pytest.raises(TypeError):
        g.bracket([1.0, 0, 0], g.basis_vector(1))
