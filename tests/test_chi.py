"""The weak-commutativity construction and its ideal chain."""
import json
from fractions import Fraction

import pytest

import chi_lie.chi as chi_module
import chi_lie.nilquot as nilquot
from chi_lie import (
    ChiLieError,
    ConsistencyFailure,
    InvalidAlgebra,
    LieAlgebra,
    NonvanishingH2,
    NotNilpotent,
    NotPerfect,
    NotStabilized,
    Subspace,
    abelian,
    build,
    chi_presentation,
    compute_chi,
    compute_chi_superperfect,
    free_nilpotent,
    h2_ce,
    heisenberg,
    intersect,
    paper_example_1,
    predicted_rho_image,
    sl2,
    stable_quotient,
    validate,
    witt_dim,
)

F = Fraction


def sl2_module():
    """sl2 acting on its natural 2-dim module: perfect, but H2 is a line."""
    return LieAlgebra(
        "sl2+V", 5,
        {
            (0, 1): [(0, F(-2))],
            (0, 2): [(1, F(1))],
            (1, 2): [(2, F(-2))],
            (0, 4): [(3, F(1))],
            (1, 3): [(3, F(1))],
            (1, 4): [(4, F(-1))],
            (2, 3): [(4, F(1))],
        },
    )


def test_presentation_generator_and_relator_counts():
    p = chi_presentation(abelian(2))
    assert p.generators == 4
    assert len(p.relators) == 5
    p = chi_presentation(heisenberg(3))
    assert p.generators == 6
    assert len(p.relators) == 12
    p = chi_presentation(abelian(1))
    assert p.generators == 2
    assert len(p.relators) == 1


def test_presentation_relator_count_formula():
    # 3*C(n,2) + n: structure relators twice, polarization pairs, squares
    for n in (1, 2, 3, 4):
        p = chi_presentation(abelian(n))
        assert len(p.relators) == 3 * n * (n - 1) // 2 + n


def test_presentation_labels_mark_the_second_copy():
    p = chi_presentation(heisenberg(3))
    n = 3
    assert p.labels[:n] == heisenberg(3).labels
    assert all(p.labels[n + i] == heisenberg(3).labels[i] + "'" for i in range(n))


def test_presentation_rejects_invalid_table():
    bad = LieAlgebra("broken", 3,
                     {(0, 1): [(2, F(1))], (0, 2): [(0, F(1))]},
                     check=False)
    with pytest.raises(InvalidAlgebra):
        chi_presentation(bad)


def test_abelian_chi_dimensions_both_methods():
    for n in range(1, 5):
        g = abelian(n)
        pairs = n * (n - 1) // 2
        closed = compute_chi(g, method="abelian-closed-form")
        swept = compute_chi(g, method="nilpotent-quotient")
        for c in (closed, swept):
            assert c.chi.dim == 2 * n + pairs
            assert c.W.dim == pairs
            assert c.D.dim == pairs
            assert c.R.dim == 0
            assert c.rho.image().dim == 2 * n
        assert closed.chi.dim == swept.chi.dim
        assert closed.method == "abelian-closed-form"
        assert swept.method == "nilpotent-quotient"


def test_heisenberg_chi_profile(chi_of):
    c = chi_of("heisenberg", 3)
    assert c.chi.dim == 9
    assert c.L.dim == 6
    assert c.D.dim == 3
    assert c.W.dim == 2
    assert c.R.dim == 0
    assert c.rho.image().dim == 7


def test_dim4_example_chi_profile(chi_of):
    c = chi_of("paper_example_1")
    assert c.chi.dim == 14
    assert c.L.dim == 10
    assert c.D.dim == 6
    assert c.W.dim == 5
    assert c.R.dim == 1
    assert c.rho.image().dim == 9


def test_rank3_class2_chi_profile(chi_of):
    c = chi_of("free_nilpotent", 3, 2)
    assert c.chi.dim == 27
    assert c.L.dim == 21
    assert c.D.dim == 15
    assert c.W.dim == 12
    assert c.R.dim == 4
    assert c.rho.image().dim == 15
    assert c.class_used == 4
    assert c.stabilized


def test_chi_table_is_a_lie_algebra(chi_of):
    for key in (("heisenberg", 3), ("paper_example_1",), ("free_nilpotent", 3, 2)):
        c = chi_of(*key)
        assert validate(c.chi) is None


def test_ideal_chain_nesting(chi_of):
    for key in (("heisenberg", 3), ("paper_example_1",), ("free_nilpotent", 3, 2)):
        c = chi_of(*key)
        assert c.L.contains_subspace(c.W)
        assert c.W.contains_subspace(c.R)
        assert c.W == intersect(c.L, c.D)


def test_characterizing_identity_of_w(chi_of):
    # W collapses to the multiplier once R is removed
    for key in (("heisenberg", 3), ("paper_example_1",), ("free_nilpotent", 3, 2)):
        c = chi_of(*key)
        assert c.W.dim - c.R.dim == h2_ce(c.base)[0]


def test_polarized_brackets_agree(chi_of):
    # [x_i, y_j'] = [x_j, y_i'] would be false; the symmetric combination
    # [x_i, x_j'] = [x_j', x_i] style identity holds through both copies
    c = chi_of("heisenberg", 3)
    n = c.base.dim
    for i in range(n):
        for j in range(n):
            lhs = c.chi.bracket(c.gen_images[i], c.gen_images[n + j])
            rhs = c.chi.bracket(c.gen_images[n + i], c.gen_images[j])
            assert list(lhs) == list(rhs)


def test_comparison_maps_on_generators(chi_of):
    c = chi_of("heisenberg", 3)
    g = c.base
    n = g.dim
    for i in range(n):
        plain = c.gen_images[i]
        primed = c.gen_images[n + i]
        # alpha folds both copies onto g
        assert list(c.alpha.apply(plain)) == list(g.basis_vector(i))
        assert list(c.alpha.apply(primed)) == list(g.basis_vector(i))
        # beta separates them into the two summands
        b_plain = list(c.beta.apply(plain))
        b_primed = list(c.beta.apply(primed))
        assert b_plain[:n] == list(g.basis_vector(i)) and all(x == 0 for x in b_plain[n:])
        assert b_primed[n:] == list(g.basis_vector(i)) and all(x == 0 for x in b_primed[:n])
        # rho uses three summands with the middle shared
        r_plain = list(c.rho.apply(plain))
        r_primed = list(c.rho.apply(primed))
        assert r_plain[:n] == list(g.basis_vector(i)) and r_plain[n:2 * n] == list(g.basis_vector(i))
        assert all(x == 0 for x in r_plain[2 * n:])
        assert r_primed[n:2 * n] == list(g.basis_vector(i)) and r_primed[2 * n:] == list(g.basis_vector(i))
        assert all(x == 0 for x in r_primed[:n])


def test_kernels_match_reported_subspaces(chi_of):
    c = chi_of("paper_example_1")
    assert c.alpha.kernel() == c.L
    assert c.beta.kernel() == c.D
    assert c.rho.kernel() == c.W


def test_rho_image_matches_prediction(chi_of):
    for key in (("heisenberg", 3), ("paper_example_1",), ("free_nilpotent", 3, 2),
                ("abelian", 3)):
        c = chi_of(*key)
        assert c.rho.image() == predicted_rho_image(c.base)


def test_compute_chi_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        compute_chi(sl2())


def test_compute_chi_reports_unstable_sweep():
    with pytest.raises(NotStabilized) as exc:
        compute_chi(free_nilpotent(2, 3), max_class=4)
    assert exc.value.history == (4, 7, 13, 16)


def test_default_max_class_is_twice_the_class_plus_two(monkeypatch):
    seen = []

    def spy(p, max_class, budget=None):
        seen.append(max_class)
        return stable_quotient(p, max_class, budget)

    monkeypatch.setattr(chi_module, "stable_quotient", spy)
    compute_chi(heisenberg(3))
    assert seen == [6]


def test_multiplier_mismatch_message_prints_w_minus_r(monkeypatch):
    # paper_example_1 has dim W = 5 and dim R = 1 over H2 = 4; claim H2 = 5
    real = chi_module.h2_ce
    monkeypatch.setattr(chi_module, "h2_ce", lambda g: (real(g)[0] + 1, real(g)[1]))
    with pytest.raises(ConsistencyFailure) as exc:
        compute_chi(paper_example_1())
    assert str(exc.value) == "dim W - dim R = 4 disagrees with the second homology 5"


# beyond the old confirming class: the tail step stops these sweeps under the
# default budget, where building one more class would not fit
@pytest.mark.parametrize("name, params, chi_dim, w_dim, r_dim", [
    ("heisenberg", (7,), 35, 20, 6),
    ("upper_triangular_nil", (5,), 42, 16, 7),
    ("free_nilpotent", (4, 2), 65, 39, 19),
    ("heisenberg", (9,), 54, 35, 8),
])
def test_frontier_chi_under_the_default_budget(monkeypatch, name, params, chi_dim, w_dim, r_dim):
    monkeypatch.delenv("CHI_LIE_BUDGET", raising=False)
    # every class quotient gets Jacobi and the generation check, whatever its
    # dimension: free_nilpotent(4,2)'s is 65
    validated, generated = [], []
    real_validate, real_closure = nilquot.validate, nilquot.subalgebra_closure
    monkeypatch.setattr(nilquot, "validate", lambda q: validated.append(q.dim) or real_validate(q))
    monkeypatch.setattr(
        nilquot, "subalgebra_closure",
        lambda q, gens: generated.append(q.dim) or real_closure(q, gens),
    )
    c = compute_chi(build(name, params))
    assert (c.chi.dim, c.W.dim, c.R.dim) == (chi_dim, w_dim, r_dim)
    assert validated[-1] == generated[-1] == chi_dim
    if name == "free_nilpotent":
        assert c.W.dim - c.R.dim == witt_dim(4, 3) == 20


def test_compute_chi_rejects_bad_method():
    with pytest.raises(ChiLieError):
        compute_chi(heisenberg(3), method="abelian-closed-form")
    with pytest.raises(ChiLieError):
        compute_chi(abelian(2), method="mystery")


def test_superperfect_chi_is_triple_sum(chi_of):
    c = chi_of("sl2")
    assert c.chi.dim == 9
    assert c.W.dim == 0
    assert c.R.dim == 0
    assert c.method == "superperfect"
    assert c.class_used is None
    assert c.stabilized
    # rho is an isomorphism here
    assert c.rho.kernel().dim == 0
    assert c.rho.image().dim == 9


def test_superperfect_gate_rejects_non_perfect():
    with pytest.raises(NotPerfect):
        compute_chi_superperfect(heisenberg(3))
    with pytest.raises(NotPerfect):
        compute_chi_superperfect(abelian(2))


def test_superperfect_gate_rejects_nonvanishing_multiplier():
    g = sl2_module()
    assert validate(g) is None
    with pytest.raises(NonvanishingH2):
        compute_chi_superperfect(g)


def test_chi_naming_and_base_passthrough(chi_of):
    c = chi_of("heisenberg", 3)
    assert c.chi.name == "chi(heisenberg(3))"
    assert c.base.name == "heisenberg(3)"


def test_chi_json_is_deterministic(chi_of):
    c = chi_of("heisenberg", 3)
    doc = c.to_json_dict()
    assert set(doc) >= {"base", "chi", "gen_images", "alpha", "beta", "rho",
                        "L", "D", "W", "R", "method", "class_used", "stabilized"}
    s1 = json.dumps(doc, sort_keys=True)
    s2 = json.dumps(compute_chi(heisenberg(3)).to_json_dict(), sort_keys=True)
    assert s1 == s2


def test_gen_images_have_full_count(chi_of):
    for key in (("heisenberg", 3), ("paper_example_1",), ("sl2",)):
        c = chi_of(*key)
        assert len(c.gen_images) == 2 * c.base.dim


def test_abelian_rho_image_is_pullback_plane():
    c = compute_chi(abelian(2))
    img = c.rho.image()
    assert img.dim == 4
    # the middle copy is forced equal to the sum of the outer ones
    for v in img.basis_vectors():
        for k in range(2):
            assert v[2 + k] == v[k] + v[4 + k]
