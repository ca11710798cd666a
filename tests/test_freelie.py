"""Free nilpotent Lie algebras on Lyndon bases."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_lie import (
    BracketExpr,
    BudgetExceeded,
    ChiLieError,
    IndexOutOfRange,
    build_free_nilpotent,
    eval_in_algebra,
    lyndon_basis,
    lyndon_words,
    standard_factorization,
    validate,
    witt_dim,
)
from chi_lie.freelie import free_nilpotent_dimension, is_lyndon

from oracles import brute_lyndon_count

F = Fraction


def test_witt_dimensions():
    assert witt_dim(2, 1) == 2
    assert witt_dim(3, 1) == 3
    assert witt_dim(2, 2) == 1
    assert witt_dim(3, 2) == 3
    assert witt_dim(2, 3) == 2
    assert witt_dim(2, 4) == 3
    assert witt_dim(2, 5) == 6
    assert witt_dim(1, 1) == 1
    assert witt_dim(1, 2) == 0


def test_witt_rejects_bad_degree():
    with pytest.raises(ChiLieError):
        witt_dim(2, 0)


def test_witt_matches_rotation_count():
    for m in range(1, 5):
        for d in range(1, 6):
            assert witt_dim(m, d) == brute_lyndon_count(m, d)


def test_lyndon_words_two_letters_up_to_len3():
    per_degree = {}
    for w in lyndon_words(2, 3):
        per_degree.setdefault(len(w), []).append(w)
    assert [len(per_degree[d]) for d in (1, 2, 3)] == [2, 1, 2]
    assert per_degree[2] == [(0, 1)]
    assert sorted(per_degree[3]) == [(0, 0, 1), (0, 1, 1)]


def test_lyndon_words_are_rotation_minimal():
    for w in lyndon_words(3, 4):
        assert is_lyndon(w)
        assert all(w < w[r:] + w[:r] for r in range(1, len(w)))


def test_lyndon_basis_sizes():
    assert len(lyndon_basis(3, 2)) == 6
    assert len(lyndon_basis(1, 5)) == 1
    assert len(lyndon_basis(2, 3)) == 5


def test_standard_factorization_examples():
    assert standard_factorization((0, 1)) == ((0,), (1,))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    with pytest.raises(ChiLieError):
        standard_factorization((0,))


def test_standard_factorization_parts_are_lyndon():
    for w in lyndon_words(3, 5):
        if len(w) < 2:
            continue
        left, right = standard_factorization(w)
        assert left + right == w
        assert is_lyndon(left) and is_lyndon(right)
        assert tuple(left) < tuple(right)


def test_build_free_nilpotent_rank2_class2():
    f = build_free_nilpotent(2, 2)
    assert f.algebra.dim == 3
    x, y = f.algebra.basis_vector(0), f.algebra.basis_vector(1)
    assert f.algebra.bracket(x, y) == f.algebra.basis_vector(2)


def test_build_free_nilpotent_rank3_class2():
    f = build_free_nilpotent(3, 2)
    assert f.algebra.dim == 6


def test_build_free_nilpotent_class1_is_abelian():
    f = build_free_nilpotent(2, 1)
    assert f.algebra.dim == 2
    assert not f.algebra.table


def test_free_nilpotent_tables_satisfy_jacobi():
    for m in range(1, 5):
        for c in range(1, 6):
            f = build_free_nilpotent(m, c)
            assert f.algebra.dim == free_nilpotent_dimension(m, c)
            assert validate(f.algebra) is None


def test_degrees_partition_the_basis():
    f = build_free_nilpotent(2, 4)
    by_deg = {}
    for el in f.basis:
        by_deg[el.degree] = by_deg.get(el.degree, 0) + 1
    assert by_deg == {1: 2, 2: 1, 3: 2, 4: 3}


def test_bracket_respects_grading():
    f = build_free_nilpotent(3, 3)
    for i, a in enumerate(f.basis):
        for j, b in enumerate(f.basis):
            v = f.algebra.bracket(f.algebra.basis_vector(i), f.algebra.basis_vector(j))
            if a.degree + b.degree > 3:
                assert all(c == 0 for c in v)
            else:
                for k, c in enumerate(v):
                    if c != 0:
                        assert f.basis[k].degree == a.degree + b.degree


def test_normal_form_alternating():
    f = build_free_nilpotent(2, 3)
    x = f.algebra.basis_vector(0)
    assert all(c == 0 for c in f.algebra.bracket(x, x))


def test_normal_form_antisymmetry_on_generators():
    f = build_free_nilpotent(2, 3)
    x, y = f.algebra.basis_vector(0), f.algebra.basis_vector(1)
    # basis index 2 is the word xy
    assert list(f.algebra.bracket(y, x)) == [0, 0, -1, 0, 0]


def test_normal_form_nested_bracket():
    f = build_free_nilpotent(2, 3)
    y = f.algebra.basis_vector(1)
    xy = f.algebra.basis_vector(2)
    # [y,[x,y]] = -[[x,y],y], the basis element for the word xyy
    assert list(f.algebra.bracket(y, xy)) == [0, 0, 0, 0, -1]


small_vec = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                     min_size=5, max_size=5)


@given(small_vec, small_vec)
@settings(max_examples=40, deadline=None)
def test_normal_form_is_bracket_antisymmetric(u, v):
    f = build_free_nilpotent(2, 3)
    ab = f.algebra.bracket(u, v)
    ba = f.algebra.bracket(v, u)
    assert [x + y for x, y in zip(ab, ba)] == [F(0)] * 5


def _generators(f):
    return [f.generator_vector(i) for i in range(f.generators)]


def test_eval_expr_single_bracket():
    f = build_free_nilpotent(2, 2)
    e = BracketExpr.br(BracketExpr.gen(0), BracketExpr.gen(1))
    assert list(eval_in_algebra(e, _generators(f), f.algebra)) == [0, 0, 1]


def test_eval_expr_difference_doubles():
    f = build_free_nilpotent(2, 2)
    xy = BracketExpr.br(BracketExpr.gen(0), BracketExpr.gen(1))
    yx = BracketExpr.br(BracketExpr.gen(1), BracketExpr.gen(0))
    e = BracketExpr.add(xy, BracketExpr.scale(-1, yx))
    assert list(eval_in_algebra(e, _generators(f), f.algebra)) == [0, 0, 2]


def test_eval_expr_deep_bracket_truncates():
    f = build_free_nilpotent(2, 2)
    e = BracketExpr.br(BracketExpr.gen(0),
                       BracketExpr.br(BracketExpr.gen(0), BracketExpr.gen(1)))
    assert all(c == 0 for c in eval_in_algebra(e, _generators(f), f.algebra))


def test_eval_expr_rejects_out_of_range_leaf():
    f = build_free_nilpotent(2, 2)
    with pytest.raises(IndexOutOfRange):
        eval_in_algebra(BracketExpr.gen(2), _generators(f), f.algebra)


def test_bracket_expr_json_round_trip():
    e = BracketExpr.add(
        BracketExpr.br(BracketExpr.gen(0), BracketExpr.gen(1)),
        BracketExpr.scale(F(-3, 2), BracketExpr.gen(2)),
    )
    back = BracketExpr.from_json_dict(e.to_json_dict())
    assert back.to_json_dict() == e.to_json_dict()


def test_bracket_expr_rejects_malformed_json():
    with pytest.raises(ChiLieError):
        BracketExpr.from_json_dict({"mystery": 1})


def test_lyndon_element_labels_show_bracketing():
    names = [str(el) for el in lyndon_basis(2, 3)]
    assert names[0] == "x0"
    assert names[1] == "x1"
    assert "[x0,x1]" in names[2]


def test_budget_refuses_oversized_build():
    with pytest.raises(BudgetExceeded):
        build_free_nilpotent(2, 40)


def test_budget_env_var_override(monkeypatch):
    monkeypatch.setenv("CHI_LIE_BUDGET", "4")
    with pytest.raises(BudgetExceeded):
        build_free_nilpotent(2, 3)
    monkeypatch.delenv("CHI_LIE_BUDGET")
    assert build_free_nilpotent(2, 3).algebra.dim == 5


def test_budget_argument_override():
    with pytest.raises(BudgetExceeded):
        build_free_nilpotent(3, 3, budget=10)
