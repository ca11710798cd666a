"""Structure-constant Lie algebras: brackets, closures, quotients, homs."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_lie import (
    LieAlgebra,
    LieHom,
    NotAnIdeal,
    NotGenerating,
    NotWellDefined,
    Subspace,
    abelian,
    center,
    derived_subalgebra,
    direct_sum,
    heisenberg,
    hom_from_generator_images,
    ideal_closure,
    is_abelian,
    is_nilpotent,
    is_perfect,
    lower_central_series,
    nilpotency_class,
    quotient,
    sl2,
    subalgebra_closure,
    validate,
)

F = Fraction

h3 = heisenberg(3)

coords3 = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                   min_size=3, max_size=3)


def test_validate_accepts_heisenberg():
    assert validate(h3) is None


def test_validate_accepts_sl2_and_abelian():
    assert validate(sl2()) is None
    assert validate(abelian(4)) is None


def test_validate_reports_first_bad_triple_with_defect():
    # [e0,e1]=e2, [e0,e2]=e0, [e1,e2]=0 breaks Jacobi with defect -e2
    bad = LieAlgebra(
        "broken", 3,
        {(0, 1): [(2, F(1))], (0, 2): [(0, F(1))]},
        check=False,
    )
    violation = validate(bad)
    assert violation is not None
    assert violation.triple == (0, 1, 2)
    assert list(violation.defect) == [F(0), F(0), F(-1)]


def test_constructor_rejects_bad_table():
    from chi_lie import InvalidAlgebra

    with pytest.raises(InvalidAlgebra) as exc:
        LieAlgebra("broken", 3, {(0, 1): [(2, F(1))], (0, 2): [(0, F(1))]})
    assert exc.value.triple == (0, 1, 2)


def test_bracket_of_generators():
    x, y, z = (h3.basis_vector(i) for i in range(3))
    assert h3.bracket(x, y) == z


def test_bracket_bilinear_combination():
    x, y, z = (h3.basis_vector(i) for i in range(3))
    u = [a + b for a, b in zip(x, y)]
    v = [a - b for a, b in zip(x, y)]
    # [x+y, x-y] = -2[x,y]
    assert list(h3.bracket(u, v)) == [F(0), F(0), F(-2)]


@given(coords3, coords3)
@settings(max_examples=50, deadline=None)
def test_bracket_alternating_and_antisymmetric(u, v):
    for g in (h3, sl2()):
        assert all(c == 0 for c in g.bracket(u, u))
        uv = g.bracket(u, v)
        vu = g.bracket(v, u)
        assert [a + b for a, b in zip(uv, vu)] == [F(0)] * 3


@given(coords3, coords3, coords3)
@settings(max_examples=30, deadline=None)
def test_bracket_jacobi_on_random_vectors(u, v, w):
    g = sl2()
    s1 = g.bracket(g.bracket(u, v), w)
    s2 = g.bracket(g.bracket(v, w), u)
    s3 = g.bracket(g.bracket(w, u), v)
    assert [a + b + c for a, b, c in zip(s1, s2, s3)] == [F(0)] * 3


def test_subalgebra_closure_generators_of_heisenberg():
    got = subalgebra_closure(h3, [h3.basis_vector(0), h3.basis_vector(1)])
    assert got.dim == 3


def test_subalgebra_closure_central_element_stays_put():
    got = subalgebra_closure(h3, [h3.basis_vector(2)])
    assert got == Subspace.span([h3.basis_vector(2)], 3)


def test_subalgebra_closure_in_abelian_is_plain_span():
    g = abelian(4)
    vecs = [[F(1), F(1), F(0), F(0)], [F(0), F(0), F(2), F(0)]]
    assert subalgebra_closure(g, vecs) == Subspace.span(vecs, 4)


def test_ideal_closure_pulls_in_brackets():
    got = ideal_closure(h3, [h3.basis_vector(0)])
    assert got.dim == 2
    assert got.contains(h3.basis_vector(2))
    assert not got.contains(h3.basis_vector(1))


def test_ideal_closure_of_nothing():
    assert ideal_closure(h3, []).dim == 0


def test_derived_subalgebra_examples():
    assert derived_subalgebra(h3) == Subspace.span([h3.basis_vector(2)], 3)
    assert derived_subalgebra(abelian(3)).dim == 0
    assert derived_subalgebra(sl2()).dim == 3


@given(st.lists(coords3, min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_closures_nest_and_are_stable(seeds):
    for g in (h3, sl2()):
        sub = subalgebra_closure(g, seeds)
        idl = ideal_closure(g, seeds)
        assert idl.contains_subspace(sub)
        # closing again adds nothing
        assert ideal_closure(g, idl.basis_vectors()) == idl
        for a in idl.basis_vectors():
            for i in range(g.dim):
                assert idl.contains(g.bracket(g.basis_vector(i), a))


def test_quotient_heisenberg_by_center_is_abelian_plane():
    q, pi = quotient(h3, Subspace.span([h3.basis_vector(2)], 3))
    assert q.dim == 2
    assert not q.table
    assert pi.kernel() == Subspace.span([h3.basis_vector(2)], 3)


def test_quotient_by_zero_keeps_structure():
    q, pi = quotient(h3, Subspace.zero(3))
    assert q.dim == 3
    x, y = q.basis_vector(0), q.basis_vector(1)
    assert any(c != 0 for c in q.bracket(x, y))
    assert pi.image().dim == 3


def test_quotient_by_everything_is_zero():
    q, _ = quotient(h3, Subspace.full(3))
    assert q.dim == 0


def test_quotient_rejects_non_ideal():
    with pytest.raises(NotAnIdeal):
        quotient(h3, Subspace.span([h3.basis_vector(0)], 3))


def test_quotient_projection_is_a_hom():
    q, pi = quotient(h3, Subspace.span([h3.basis_vector(2)], 3))
    for i in range(3):
        for j in range(3):
            lhs = pi.apply(h3.bracket(h3.basis_vector(i), h3.basis_vector(j)))
            rhs = q.bracket(pi.apply(h3.basis_vector(i)), pi.apply(h3.basis_vector(j)))
            assert lhs == rhs


def test_direct_sum_of_lines_is_plane():
    g = direct_sum([abelian(1), abelian(1)])
    assert g.dim == 2
    assert is_abelian(g)


def test_direct_sum_three_copies():
    g = direct_sum([sl2(), sl2(), sl2()])
    assert g.dim == 9
    assert validate(g) is None
    assert is_perfect(g)
    # cross-component brackets vanish
    assert all(c == 0 for c in g.bracket(g.basis_vector(0), g.basis_vector(4)))


def test_hom_identity_from_basis():
    phi = hom_from_generator_images(
        h3, [h3.basis_vector(i) for i in range(3)],
        [h3.basis_vector(i) for i in range(3)], h3)
    assert phi.kernel().dim == 0
    assert phi.image().dim == 3


def test_hom_collapsing_abelian_plane():
    g = abelian(2)
    phi = hom_from_generator_images(
        g, [g.basis_vector(0), g.basis_vector(1)],
        [g.basis_vector(0), g.basis_vector(0)], g)
    assert phi.kernel() == Subspace.span([[F(1), F(-1)]], 2)


def test_hom_heisenberg_onto_abelianization():
    a2 = abelian(2)
    phi = hom_from_generator_images(
        h3, [h3.basis_vector(0), h3.basis_vector(1)],
        [a2.basis_vector(0), a2.basis_vector(1)], a2)
    assert phi.kernel() == Subspace.span([h3.basis_vector(2)], 3)
    assert phi.image().dim == 2


def test_hom_rejects_inconsistent_images():
    a2 = abelian(2)
    # z = [x,y] must go to 0, so sending it elsewhere is inconsistent
    with pytest.raises(NotWellDefined):
        hom_from_generator_images(
            h3, [h3.basis_vector(i) for i in range(3)],
            [a2.basis_vector(0), a2.basis_vector(1), a2.basis_vector(0)], a2)


def test_hom_rejects_non_generating_set():
    g = abelian(2)
    with pytest.raises(NotGenerating):
        hom_from_generator_images(g, [g.basis_vector(0)], [g.basis_vector(0)], g)


def test_liehom_constructor_checks_bracket_preservation():
    from chi_lie import Matrix

    bad = Matrix([[F(0), F(0), F(0)], [F(0), F(0), F(0)], [F(1), F(0), F(0)]])
    with pytest.raises(NotWellDefined):
        LieHom(h3, h3, bad.transpose(), check=True)


def test_center_and_series():
    assert center(h3) == Subspace.span([h3.basis_vector(2)], 3)
    assert center(sl2()).dim == 0
    dims = [s.dim for s in lower_central_series(h3)]
    assert dims == [3, 1, 0]


def test_nilpotency_classifications():
    assert nilpotency_class(h3) == 2
    assert nilpotency_class(abelian(3)) == 1
    assert nilpotency_class(sl2()) is None
    assert is_nilpotent(h3) and not is_nilpotent(sl2())
    assert is_perfect(sl2()) and not is_perfect(h3)
    assert is_abelian(abelian(2)) and not is_abelian(h3)


def test_nilpotency_class_of_zero_algebra():
    assert nilpotency_class(abelian(0)) == 0


def test_json_round_trip_preserves_structure():
    doc = h3.to_json_dict()
    assert doc["dim"] == 3
    back = LieAlgebra.from_json_dict(doc)
    assert back.dim == h3.dim
    assert back.table == h3.table
    assert back.labels == h3.labels


def test_json_serializes_rationals_as_strings():
    g = LieAlgebra("half", 3, {(0, 1): [(2, F(1, 2))]})
    doc = g.to_json_dict()
    (entry,) = [b for b in doc["brackets"] if b["i"] == 0 and b["j"] == 1]
    assert entry["terms"] == [{"k": 2, "c": "1/2"}]
    assert LieAlgebra.from_json_dict(doc).table == g.table


def test_json_duplicate_bracket_key_is_rejected():
    from chi_lie import InvalidAlgebra

    doc = h3.to_json_dict()
    # a later empty entry for (0, 1) would otherwise make the table abelian
    doc["brackets"].append({"i": 0, "j": 1, "terms": []})
    with pytest.raises(InvalidAlgebra, match=r"duplicate bracket key \(0,1\)"):
        LieAlgebra.from_json_dict(doc)


def test_hom_json_shape():
    q, pi = quotient(h3, Subspace.span([h3.basis_vector(2)], 3))
    doc = pi.to_json_dict()
    assert len(doc["rows"]) == 2
    assert all(len(row) == 3 for row in doc["rows"])
    assert all(isinstance(x, str) for row in doc["rows"] for x in row)
