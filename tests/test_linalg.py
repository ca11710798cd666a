"""Exact linear algebra over Q."""
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_lie import (
    AmbientMismatch,
    Matrix,
    SparseEchelon,
    Subspace,
    complement_coords,
    format_rational,
    intersect,
    kernel,
    rref,
)
from chi_lie.linalg import integral, rational

from oracles import gauss_kernel, gauss_rank, gauss_rref

F = Fraction

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def small_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda nc: st.lists(
            st.lists(rationals, min_size=nc, max_size=nc), min_size=1, max_size=max_dim
        )
    )


def test_rref_identity_fixed_point():
    m = Matrix.identity(3)
    red, pivots = rref(m)
    assert red.rows == m.rows
    assert pivots == (0, 1, 2)


def test_rref_dependent_rows():
    red, pivots = rref(Matrix([[F(1), F(2)], [F(2), F(4)]]))
    assert red.rows == ((F(1), F(2)), (F(0), F(0)))
    assert pivots == (0,)


def test_rref_zero_matrix():
    red, pivots = rref(Matrix([[0, 0, 0], [0, 0, 0]]))
    assert pivots == ()
    assert all(all(x == 0 for x in row) for row in red.rows)


def tall_matrix(max_cols=6):
    """Sparse rows (at most two nonzero entries) followed by many rows that
    combine two earlier ones, so most rows are dependent."""

    def build(nc):
        row = st.dictionaries(st.integers(0, nc - 1), rationals, max_size=2).map(
            lambda d: [d.get(j, F(0)) for j in range(nc)]
        )
        return st.lists(row, min_size=1, max_size=5).flatmap(
            lambda base: st.lists(
                st.tuples(st.integers(0, len(base) - 1), st.integers(0, len(base) - 1), rationals),
                min_size=4,
                max_size=15,
            ).map(lambda combos: base + [[a + c * b for a, b in zip(base[i], base[j])]
                                         for i, j, c in combos])
        )

    return st.integers(1, max_cols).flatmap(build)


@given(st.one_of(small_matrix(), tall_matrix()))
@settings(max_examples=100, deadline=None)
def test_rref_idempotent_and_matches_oracle(rows):
    m = Matrix(rows)
    red, pivots = rref(m)
    assert red.nrows == m.nrows and red.ncols == m.ncols
    again, pivots2 = rref(red)
    assert red.rows == again.rows
    assert pivots == pivots2
    oracle_rows, oracle_pivots = gauss_rref(rows)
    nonzero = [list(r) for r in red.rows if any(x != 0 for x in r)]
    assert nonzero == oracle_rows
    assert list(pivots) == oracle_pivots


def test_kernel_invertible_is_zero():
    assert kernel(Matrix([[F(2), F(1)], [F(1), F(1)]])).dim == 0


def test_kernel_rank_one():
    ker = kernel(Matrix([[F(1), F(2)], [F(2), F(4)]]))
    assert ker.dim == 1
    assert ker.contains([F(-2), F(1)])


def test_kernel_zero_map_is_everything():
    assert kernel(Matrix([[0, 0, 0], [0, 0, 0]])).dim == 3


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_kernel_members_annihilate_and_dim_matches(rows):
    m = Matrix(rows)
    ker = kernel(m)
    for v in ker.basis_vectors():
        assert all(x == 0 for x in m.matvec(v))
    assert ker.dim == m.ncols - gauss_rank(rows)
    for v in gauss_kernel(rows, m.ncols):
        assert ker.contains(v)


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_rank_nullity(rows):
    m = Matrix(rows)
    assert len(rref(m)[1]) + kernel(m).dim == m.ncols


def test_intersect_transverse_lines():
    a = Subspace.span([[F(1), F(0)]], 2)
    b = Subspace.span([[F(0), F(1)]], 2)
    assert intersect(a, b).dim == 0


def test_intersect_idempotent():
    a = Subspace.span([[F(1), F(1), F(0)], [F(0), F(1), F(1)]], 3)
    assert intersect(a, a) == a


def test_intersect_two_planes_in_q3():
    # distinct planes in Q^3 meet in a line
    a = Subspace.span([[F(1), F(0), F(0)], [F(0), F(1), F(0)]], 3)
    b = Subspace.span([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 3)
    got = intersect(a, b)
    assert got.dim == 1
    assert got.contains([F(0), F(1), F(0)])


def test_intersect_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect(Subspace.zero(2), Subspace.zero(3))


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=0, max_size=4),
       st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_intersection_dimension_formula(aa, bb):
    a = Subspace.span(aa, 4)
    b = Subspace.span(bb, 4)
    total = Subspace.span(a.basis_vectors() + b.basis_vectors(), 4)
    meet = intersect(a, b)
    assert a.dim + b.dim == total.dim + meet.dim
    for v in meet.basis_vectors():
        assert a.contains(v) and b.contains(v)


def test_complement_coords_of_zero_space():
    assert complement_coords(Subspace.zero(3)) == (0, 1, 2)


def test_complement_coords_of_full_space():
    assert complement_coords(Subspace.span([[F(1), F(0)], [F(0), F(1)]], 2)) == ()


def test_complement_coords_of_line():
    assert complement_coords(Subspace.span([[F(1), F(2)]], 2)) == (1,)


@given(st.lists(st.lists(rationals, min_size=5, max_size=5), min_size=0, max_size=5))
@settings(max_examples=40, deadline=None)
def test_complement_coords_completes_basis(rows):
    s = Subspace.span(rows, 5)
    extra = complement_coords(s)
    assert len(extra) == 5 - s.dim
    vecs = [list(b) for b in s.basis_vectors()]
    for c in extra:
        unit = [F(0)] * 5
        unit[c] = F(1)
        vecs.append(unit)
    assert Subspace.span(vecs, 5).dim == 5


def test_subspace_equality_is_basis_free():
    a = Subspace.span([[F(1), F(1)], [F(1), F(-1)]], 2)
    b = Subspace.span([[F(2), F(0)], [F(0), F(3)]], 2)
    assert a == b


def test_subspace_contains_exact():
    s = Subspace.span([[F(1, 3), F(1), F(0)]], 3)
    assert s.contains([F(1), F(3), F(0)])
    assert not s.contains([F(1), F(3), F(1, 10**12)])


def reduce_dense(ech, v):
    """v modulo the span of ech, through reduce_intden, as a dense vector."""
    d = {c: x for c, x in enumerate(v) if x}
    num, den = ech.reduce_intden(integral(d), lcm(*(x.denominator for x in d.values())))
    return [F(num.get(c, 0), den) for c in range(ech.width)]


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_sparse_echelon_tracks_span(rows):
    ech = SparseEchelon(4)
    for r in rows:
        ech.insert_vector(r)
    s = Subspace.span(rows, 4)
    assert ech.rank == s.dim
    assert ech.to_subspace() == s
    for r in rows:
        assert all(x == 0 for x in reduce_dense(ech, r))


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_sparse_echelon_reduce_is_canonical(rows, v):
    ech = SparseEchelon(4)
    for r in rows:
        ech.insert_vector(r)
    red = reduce_dense(ech, v)
    # reduction is a coset representative, stable under re-reduction
    assert reduce_dense(ech, red) == red
    diff = [a - b for a, b in zip(v, red)]
    assert all(x == 0 for x in reduce_dense(ech, diff))


def test_rational_parses_strings_and_ints():
    assert rational("3/4") == F(3, 4)
    assert rational("-7") == F(-7)
    assert rational(5) == F(5)


def test_rational_rejects_float():
    with pytest.raises(Exception):
        rational(0.5)


def test_format_rational_round_trip():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-2)) == "-2"
    assert format_rational(F(0)) == "0"
    assert rational(format_rational(F(22, 7))) == F(22, 7)


def test_exact_arithmetic_has_no_drift():
    x = F(1, 3)
    acc = F(0)
    for _ in range(3000):
        acc += x
    assert acc == F(1000)


def test_matrix_matmul_and_matvec():
    a = Matrix([[F(1), F(2)], [F(0), F(1)]])
    b = Matrix([[F(1), F(0)], [F(3), F(1)]])
    assert a.matmul(b).rows == ((F(7), F(2)), (F(3), F(1)))
    assert a.matvec([F(1), F(1)]) == (F(3), F(1))
