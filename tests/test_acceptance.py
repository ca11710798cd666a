"""End-to-end acceptance suite.

Ten structural facts as tests.  Every equality is exact rational arithmetic;
nothing here tolerates drift.  Each test prints one summary line on
success so a transcript shows the whole battery at a glance.
"""
import dataclasses

from chi_lie import (
    ENTRIES,
    Presentation,
    abelian,
    chi_presentation,
    class_quotient,
    compute_chi,
    compute_chi_superperfect,
    h2_ce,
    heisenberg,
    ideal_closure,
    intersect,
    is_nilpotent,
    lyndon_basis,
    predicted_rho_image,
    run_checks,
    sl2,
    stable_quotient,
    witt_dim,
)
from chi_lie.liealg import LieHom, direct_sum, embed_direct_sum, hom_from_generator_images
from chi_lie.linalg import Matrix, vec_add

from oracles import brute_h2, brute_lyndon_count


def report(n, line):
    print(f"criterion {n}: PASS  {line}")


def test_abelian_dimension_formula_both_construction_paths():
    for n in range(1, 6):
        g = abelian(n)
        pairs = n * (n - 1) // 2
        closed = compute_chi(g, method="abelian-closed-form")
        swept = compute_chi(g, method="nilpotent-quotient")
        for c in (closed, swept):
            assert c.chi.dim == 2 * n + pairs
            assert c.W.dim == pairs
            assert c.D.dim == pairs
            assert c.R.dim == 0
            img = c.rho.image()
            assert img.dim == 2 * n
            assert img == predicted_rho_image(g)
        assert closed.L.dim == swept.L.dim
        assert len(closed.chi.table) == len(swept.chi.table)
    report(1, "abelian n=1..5: dim chi = 2n + C(n,2), W = D = C(n,2), R = 0, "
              "rho image is the double copy, closed form agrees with the quotient sweep")


def test_dim4_example_full_profile(chi_of, homology_of):
    c = chi_of("paper_example_1")
    h = homology_of("paper_example_1")
    assert c.chi.dim == 14
    assert c.R.dim == 1
    assert c.W.dim == 5
    assert c.rho.image().dim == 9
    assert h.h2_ce_dim == h.h2_hopf_dim == h.h2_exterior_dim == 4
    report(2, "dim-4 example: chi = 14, R = 1, W = 5, rho image = 9, "
              "H2 = 4 by all three routes")


def test_free_nilpotent_rank3_class2_profile(chi_of, homology_of):
    c = chi_of("free_nilpotent", 3, 2)
    h = homology_of("free_nilpotent", 3, 2)
    assert c.chi.dim == 27
    assert c.R.dim == 4
    assert c.W.dim == 12
    assert c.rho.image().dim == 15
    assert h.h2_ce_dim == h.h2_hopf_dim == h.h2_exterior_dim == 8
    report(3, "free nilpotent rank 3 class 2: chi = 27, R = 4, W = 12, "
              "rho image = 15, H2 = 8 by all three routes")


def test_rank_three_free_quotient_has_obstruction_witness(chi_of):
    # rank 2 keeps R trivial; rank 3 does not, and the witness is explicit
    assert chi_of("free_nilpotent", 2, 2).R.dim == 0
    c = chi_of("free_nilpotent", 3, 2)
    assert c.R.dim == 4
    w = c.R.basis_vectors()[0]
    assert any(x != 0 for x in w)
    assert c.W.contains(w)
    report(4, "R vanishes at rank 2 but is 4-dimensional at rank 3; "
              "a nonzero witness vector lies inside W")


def test_two_generated_heisenberg_splits_as_image_plus_multiplier(chi_of):
    # oracle first: the multiplier of h3 is 2-dimensional, no package code
    oracle_h2 = brute_h2(3, {(0, 1): [(2, 1)]})
    assert oracle_h2 == 2
    c = chi_of("heisenberg", 3)
    assert c.R.dim == 0
    img = c.rho.image().dim
    assert img == 7
    assert c.chi.dim == img + oracle_h2 == 9
    report(5, "heisenberg(3): R = 0 and dim chi = 7 + 2 splits as rho image "
              "plus the oracle-computed multiplier")


def test_superperfect_base_gives_triple_direct_sum(chi_of):
    g = sl2()
    assert h2_ce(g)[0] == 0
    assert brute_h2(3, {p: list(t) for p, t in g.table.items()}) == 0
    c = chi_of("sl2")
    assert c.chi.dim == 9
    assert c.W.dim == 0
    assert c.R.dim == 0
    assert c.rho.kernel().dim == 0
    assert c.rho.image().dim == 9
    assert c.rho.matrix == Matrix.identity(9)
    report(6, "sl2: trivial multiplier, chi is the triple direct sum, "
              "rho an isomorphism, W = R = 0")


def test_multiplier_identity_on_every_catalog_entry(chi_of, homology_of):
    for entry in ENTRIES:
        key = (entry.name, *entry.params)
        c = chi_of(*key)
        h = homology_of(*key)
        assert c.W.dim - c.R.dim == h.h2_ce_dim, key
        expected = entry.expected
        assert c.chi.dim == expected["chi"][0], key
        assert c.W.dim == expected["W"][0], key
        assert c.R.dim == expected["R"][0], key
        assert h.h2_ce_dim == expected["h2"][0], key
    report(7, f"dim W - dim R = dim H2 on all {len(ENTRIES)} catalog entries, "
              "matching every recorded expectation")


def _assemble_unchecked(g, q):
    """Build the chi record for a quotient result without the safety rails."""
    from chi_lie.chi import ChiAlgebra

    n = g.dim
    chi = q.algebra
    images = list(q.generator_images)
    gbasis = [g.basis_vector(i) for i in range(n)]
    alpha = hom_from_generator_images(chi, images, gbasis + gbasis, g)
    g2 = direct_sum([g, g])
    beta = hom_from_generator_images(
        chi, images,
        [embed_direct_sum(v, 0, [g, g]) for v in gbasis]
        + [embed_direct_sum(v, 1, [g, g]) for v in gbasis], g2)
    g3 = direct_sum([g, g, g])
    rho = hom_from_generator_images(
        chi, images,
        [vec_add(embed_direct_sum(v, 0, [g, g, g]),
                 embed_direct_sum(v, 1, [g, g, g])) for v in gbasis]
        + [vec_add(embed_direct_sum(v, 1, [g, g, g]),
                   embed_direct_sum(v, 2, [g, g, g])) for v in gbasis], g3)
    L = alpha.kernel()
    D = beta.kernel()
    W = rho.kernel()
    seeds = []
    for a in L.basis_vectors():
        for i in range(n):
            for j in range(n):
                seeds.append(chi.bracket(images[i], chi.bracket(a, images[n + j])))
    R = ideal_closure(chi, seeds)
    return ChiAlgebra(base=g, chi=chi, gen_images=tuple(images),
                      alpha=alpha, beta=beta, rho=rho,
                      L=L, D=D, W=W, R=R,
                      method="nilpotent-quotient", class_used=q.class_used,
                      stabilized=q.stabilized)


def test_check_battery_and_fault_injection(chi_of, homology_of):
    from chi_lie import LieAlgebra

    for entry in ENTRIES:
        key = (entry.name, *entry.params)
        rep = run_checks(chi_of(*key), homology_of(*key))
        assert rep.all_passed, key

    c = chi_of("heisenberg", 3)
    h = homology_of("heisenberg", 3)

    # fault 1: one structure constant of the constructed algebra
    table = {pair: list(terms) for pair, terms in c.chi.table.items()}
    table[(0, 1)] = [(8, 1)]
    bad_chi = LieAlgebra(c.chi.name, c.chi.dim, table, c.chi.labels, check=False)
    rep1 = run_checks(dataclasses.replace(c, chi=bad_chi), h)
    failed1 = [r for r in rep1.checks if r.status == "fail"]
    assert failed1 and all(r.witness is not None for r in failed1)

    # fault 2: one relator dropped from the defining presentation
    p = chi_presentation(heisenberg(3))
    polarization = p.relators[-1]
    weaker = Presentation(p.generators,
                          [r for r in p.relators if r is not polarization],
                          labels=p.labels)
    assert len(weaker.relators) == len(p.relators) - 1
    q = class_quotient(weaker, 3)
    rep2 = run_checks(_assemble_unchecked(heisenberg(3), q), h)
    failed2 = [r for r in rep2.checks if r.status == "fail"]
    assert failed2 and all(r.witness is not None for r in failed2)

    # fault 3: one matrix entry of a comparison map
    rows = [list(row) for row in c.rho.matrix.rows]
    rows[0][0] += 1
    bad_rho = LieHom(c.rho.domain, c.rho.codomain, Matrix(rows), check=False)
    rep3 = run_checks(dataclasses.replace(c, rho=bad_rho), h)
    failed3 = [r for r in rep3.checks if r.status == "fail"]
    assert failed3 and all(r.witness is not None for r in failed3)

    report(8, "C1-C12 pass on all catalog entries; corrupting a structure "
              f"constant, a relator, and a map entry flips "
              f"{len(failed1)}/{len(failed2)}/{len(failed3)} checks with witnesses")


def test_homology_routes_and_word_counts_agree(homology_of):
    nilpotent_entries = [e for e in ENTRIES if is_nilpotent(e.build())]
    assert len(nilpotent_entries) == len(ENTRIES) - 1
    for entry in nilpotent_entries:
        h = homology_of(entry.name, *entry.params)
        assert h.h2_ce_dim == h.h2_hopf_dim == h.h2_exterior_dim, entry.name
        assert h.agree

    for m in range(1, 5):
        for c in range(1, 6):
            per_degree = {}
            for el in lyndon_basis(m, c):
                per_degree[el.degree] = per_degree.get(el.degree, 0) + 1
            for d in range(1, c + 1):
                count = per_degree.get(d, 0)
                assert count == witt_dim(m, d)
                assert count == brute_lyndon_count(m, d)
    report(9, "three homology routes agree on all nilpotent entries; "
              "Lyndon counts = Witt numbers = brute enumeration for m <= 4, c <= 5")


def test_relator_free_rank2_presentation_never_stabilizes():
    free2 = Presentation(2, [])
    partial_sums = []
    total = 0
    for d in range(1, 9):
        total += witt_dim(2, d)
        partial_sums.append(total)
    assert partial_sums == [2, 3, 5, 8, 14, 23, 41, 71]
    for max_class in range(2, 9):
        res = stable_quotient(free2, max_class)
        assert not res.stabilized
        assert list(res.history) == partial_sums[:max_class]
        assert all(a < b for a, b in zip(res.history, res.history[1:]))
    report(10, "free rank-2 presentation: stabilized stays false through "
               "max_class 8 with history equal to the Witt partial sums")
