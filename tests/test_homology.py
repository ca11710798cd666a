"""Second homology by three routes, plus stem covers."""
from fractions import Fraction

import pytest

from chi_lie import (
    ConsistencyFailure,
    NotNilpotent,
    Subspace,
    abelian,
    build,
    compute_homology,
    derived_subalgebra,
    exterior_square,
    free_nilpotent,
    h1,
    h2_ce,
    h2_hopf,
    heisenberg,
    nilpotency_class,
    paper_example_1,
    quotient,
    schur_via_exterior,
    sl2,
    validate,
)
from chi_lie.homology import (
    _hopf_setting,
    ce_boundary2,
    ce_boundary3,
    wedge_pairs,
    wedge_vector,
)
from chi_lie.linalg import SparseEchelon, vec_is_zero
from chi_lie.nilquot import int_bracket_with_generator

from oracles import brute_h2, center, exterior_classes, stem_extension

F = Fraction


def table_for_oracle(g):
    return {pair: list(terms) for pair, terms in g.table.items()}


def test_h1_examples():
    assert h1(abelian(4)) == 4
    assert h1(heisenberg(3)) == 2
    assert h1(sl2()) == 0
    assert h1(paper_example_1()) == 3


def test_boundaries_compose_to_zero():
    for g in (heisenberg(3), paper_example_1(), sl2(), free_nilpotent(3, 2)):
        d2 = ce_boundary2(g)
        d3 = ce_boundary3(g)
        prod = d2.matmul(d3)
        assert all(all(x == 0 for x in row) for row in prod.rows)


def test_h2_ce_against_independent_oracle():
    for g in (abelian(2), abelian(3), abelian(4), heisenberg(3),
              paper_example_1(), sl2(), free_nilpotent(3, 2)):
        count, _ = h2_ce(g)
        assert count == brute_h2(g.dim, table_for_oracle(g))


def test_h2_ce_known_values():
    assert h2_ce(abelian(3))[0] == 3
    assert h2_ce(heisenberg(3))[0] == 2
    assert h2_ce(paper_example_1())[0] == 4
    assert h2_ce(free_nilpotent(3, 2))[0] == 8
    assert h2_ce(sl2())[0] == 0


def test_h2_ce_lift_is_a_transversal_of_cycles():
    g = paper_example_1()
    count, lift = h2_ce(g)
    assert lift.dim == count
    d2 = ce_boundary2(g)
    d3 = ce_boundary3(g)
    for v in lift.basis_vectors():
        assert vec_is_zero(d2.matvec(v))
    from chi_lie.linalg import column_space

    boundaries = column_space(d3)
    both = Subspace.span(boundaries.basis_vectors() + lift.basis_vectors(), d3.nrows)
    assert both.dim == boundaries.dim + count


def test_h2_hopf_known_values():
    assert h2_hopf(abelian(2)) == 1
    assert h2_hopf(heisenberg(3)) == 2
    assert h2_hopf(paper_example_1()) == 4
    assert h2_hopf(free_nilpotent(2, 2)) == 2


def test_h2_hopf_needs_nilpotency():
    with pytest.raises(NotNilpotent):
        h2_hopf(sl2())


def test_hopf_bracket_span_same_from_generators_or_whole_basis():
    # ad by generators alone spans [cover, relations]: compare against
    # brackets with every cover basis element
    for g in (abelian(2), heisenberg(3), paper_example_1()):
        data = _hopf_setting(g)
        f = data.cover
        full = SparseEchelon(f.dim)
        for p in data.relation_ideal.pivots():
            row = data.relation_ideal.rows[p]
            for b in range(f.dim):
                val = int_bracket_with_generator(f, b, row)
                if val:
                    full.insert(val)
        assert full.rank == data.denominator.rank
        assert full.to_subspace() == data.denominator.to_subspace()


def test_exterior_square_of_abelian_is_plain_wedge():
    for n in (2, 3, 4):
        sq = exterior_square(abelian(n))
        assert sq.dim == n * (n - 1) // 2
        assert not sq.table.table
        assert all(all(x == 0 for x in row) for row in sq.phi.matrix.rows)


def test_exterior_square_of_sl2_is_adjoint():
    sq = exterior_square(sl2())
    assert sq.dim == 3
    assert sq.phi.kernel().dim == 0
    assert sq.phi.image().dim == 3


def test_exterior_square_of_heisenberg():
    sq = exterior_square(heisenberg(3))
    assert sq.dim == 3
    assert sq.phi.kernel().dim == 2
    assert sq.phi.image() == derived_subalgebra(heisenberg(3))


def test_exterior_square_wedge_map_hits_generators():
    # every coordinate wedge e_i ^ e_j is the unit vector of its pair, and
    # each quotient coordinate is the class of its own coordinate wedge
    g = heisenberg(3)
    sq = exterior_square(g)
    pairs = wedge_pairs(g.dim)
    for t, (i, j) in enumerate(pairs):
        w = wedge_vector(g.basis_vector(i), g.basis_vector(j), pairs)
        assert w == tuple(F(int(s == t)) for s in range(len(pairs)))
    coords, classes = exterior_classes(g.dim, g.table)
    assert sq.dim == len(coords)
    assert list(sq.table.labels) == [f"{g.labels[i]}^{g.labels[j]}" for i, j in coords]
    for a, pair in enumerate(coords):
        assert classes[pairs.index(pair)] == [F(int(b == a)) for b in range(sq.dim)]


def test_exterior_square_wedge_alternates():
    g = paper_example_1()
    sq = exterior_square(g)
    pairs = wedge_pairs(g.dim)
    _, classes = exterior_classes(g.dim, g.table)
    u = [F(0), F(1), F(1), F(-2)]
    v = [F(1), F(2), F(-1), F(3)]

    def cls(w):
        return tuple(sum((x * c[b] for x, c in zip(w, classes)), F(0)) for b in range(sq.dim))

    assert all(x == 0 for x in wedge_vector(v, v, pairs))
    assert wedge_vector(u, v, pairs) == tuple(-x for x in wedge_vector(v, u, pairs))
    assert sq.phi.apply(cls(wedge_vector(u, v, pairs))) == tuple(g.bracket(u, v))


def test_exterior_square_phi_computes_bracket():
    # phi(class of e_i ^ e_j) = [e_i, e_j] for every pair, with the classes
    # computed by the oracle over all n^3 relation triples
    for g in (heisenberg(3), paper_example_1(), sl2(), free_nilpotent(3, 2)):
        sq = exterior_square(g)
        _, classes = exterior_classes(g.dim, g.table)
        pairs = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
        for (i, j), cls in zip(pairs, classes):
            assert sq.phi.apply(cls) == g.bracket_basis(i, j), (g.name, i, j)


def test_schur_via_exterior_known_values():
    assert schur_via_exterior(abelian(3)) == 3
    assert schur_via_exterior(heisenberg(3)) == 2
    assert schur_via_exterior(paper_example_1()) == 4
    assert schur_via_exterior(sl2()) == 0
    assert schur_via_exterior(free_nilpotent(3, 2)) == 8


def test_stem_extension_of_abelian_plane_is_heisenberg():
    h, z, pi = stem_extension(abelian(2))
    assert h.dim == 3
    assert z.dim == 1
    assert nilpotency_class(h) == 2
    assert len(h.table) == 1
    assert center(h).contains_subspace(z)
    assert derived_subalgebra(h) == z


def test_stem_extension_dimensions():
    for name, params, expected_h2 in (
        ("heisenberg", (3,), 2),
        ("paper_example_1", (), 4),
        ("abelian", (3,), 3),
    ):
        g = build(name, list(params))
        h, z, pi = stem_extension(g)
        assert h.dim == g.dim + expected_h2
        assert z.dim == expected_h2
        assert validate(h) is None
        assert pi.image().dim == g.dim
        assert pi.kernel() == z
        assert center(h).contains_subspace(z)
        assert derived_subalgebra(h).contains_subspace(z)


def test_stem_extension_quotient_recovers_base():
    g = paper_example_1()
    h, z, pi = stem_extension(g)
    q, _ = quotient(h, z)
    assert q.dim == g.dim
    count, _ = h2_ce(q)
    assert count == h2_ce(g)[0]


def test_stem_extension_needs_nilpotency():
    with pytest.raises(NotNilpotent):
        stem_extension(sl2())


def test_compute_homology_report_nilpotent():
    rep = compute_homology(heisenberg(3))
    assert rep.h1_dim == 2
    assert rep.h2_ce_dim == rep.h2_hopf_dim == rep.h2_exterior_dim == 2
    assert rep.agree
    assert rep.base_name == "heisenberg(3)"
    assert rep.base_dim == 3


def test_compute_homology_report_non_nilpotent():
    rep = compute_homology(sl2())
    assert rep.h2_hopf_dim is None
    assert rep.h2_ce_dim == rep.h2_exterior_dim == 0
    assert rep.agree


def test_homology_report_json_shape():
    doc = compute_homology(abelian(3)).to_json_dict()
    assert doc == {"h1": 3, "h2_ce": 3, "h2_hopf": 3, "h2_exterior": 3, "agree": True}
