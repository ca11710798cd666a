"""The structural check battery and its fault sensitivity."""
import dataclasses
import json

import pytest

from chi_lie import (
    InputMismatch,
    LieAlgebra,
    LieHom,
    Matrix,
    Subspace,
    compute_homology,
    run_checks,
)

ALL_IDS = [f"C{i}" for i in range(1, 13)]


def report_for(chi_of, homology_of, name, *params):
    return run_checks(chi_of(name, *params), homology_of(name, *params))


def test_all_checks_pass_on_catalog_algebras(chi_of, homology_of):
    for key in (("abelian", 3), ("heisenberg", 3), ("paper_example_1",),
                ("free_nilpotent", 3, 2), ("sl2",)):
        rep = report_for(chi_of, homology_of, *key)
        assert rep.all_passed, key
        assert [r.id for r in rep.checks] == ALL_IDS
        assert all(r.status in ("pass", "skip") for r in rep.checks)


def test_skips_carry_reasons(chi_of, homology_of):
    rep = report_for(chi_of, homology_of, "abelian", 3)
    by_id = {r.id: r for r in rep.checks}
    # three basis vectors plus pairwise sums cannot two-generate Q^3
    assert by_id["C10"].status == "skip"
    assert isinstance(by_id["C10"].witness, str)
    # not perfect either
    assert by_id["C11"].status == "skip"


def test_perfect_base_activates_the_perfect_checks(chi_of, homology_of):
    rep = report_for(chi_of, homology_of, "sl2")
    by_id = {r.id: r for r in rep.checks}
    assert by_id["C10"].status == "pass"
    assert by_id["C11"].status == "pass"


def test_two_generated_check_passes_on_heisenberg(chi_of, homology_of):
    rep = report_for(chi_of, homology_of, "heisenberg", 3)
    by_id = {r.id: r for r in rep.checks}
    assert by_id["C10"].status == "pass"


def test_report_shape_and_determinism(chi_of, homology_of):
    rep1 = report_for(chi_of, homology_of, "heisenberg", 3)
    rep2 = report_for(chi_of, homology_of, "heisenberg", 3)
    doc1 = json.dumps(rep1.to_json_dict(), sort_keys=True)
    doc2 = json.dumps(rep2.to_json_dict(), sort_keys=True)
    assert doc1 == doc2
    doc = rep1.to_json_dict()
    assert doc["algebra"] == "heisenberg(3)"
    assert doc["all_passed"] is True
    assert [c["id"] for c in doc["checks"]] == ALL_IDS
    assert all(set(c) == {"id", "desc", "status", "witness"} for c in doc["checks"])


def test_mismatched_inputs_are_rejected(chi_of, homology_of):
    with pytest.raises(InputMismatch):
        run_checks(chi_of("heisenberg", 3), homology_of("abelian", 3))


def corrupt_table_entry(chi, i, j, k):
    """Replace the (i, j) bracket with basis vector k, skipping validation."""
    table = {pair: list(terms) for pair, terms in chi.table.items()}
    table[(i, j)] = [(k, 1)]
    return LieAlgebra(chi.name, chi.dim, table, chi.labels, check=False)


def test_corrupted_structure_constant_fails_commuting_check(chi_of, homology_of):
    c = chi_of("heisenberg", 3)
    h = homology_of("heisenberg", 3)
    flipped = None
    for i in range(c.chi.dim):
        for j in range(i + 1, c.chi.dim):
            bad = dataclasses.replace(c, chi=corrupt_table_entry(c.chi, i, j, 0))
            rep = run_checks(bad, h)
            by_id = {r.id: r for r in rep.checks}
            if by_id["C2"].status == "fail":
                flipped = by_id["C2"]
                break
        if flipped:
            break
    assert flipped is not None
    assert not rep.all_passed
    assert flipped.witness is not None
    assert "pair" in flipped.witness


def test_corrupted_generator_image_fails_a_check(chi_of, homology_of):
    c = chi_of("heisenberg", 3)
    h = homology_of("heisenberg", 3)
    images = list(c.gen_images)
    images[0] = c.chi.basis_vector(c.chi.dim - 1)
    bad = dataclasses.replace(c, gen_images=tuple(images))
    rep = run_checks(bad, h)
    assert not rep.all_passed
    failed = [r for r in rep.checks if r.status == "fail"]
    assert failed
    assert all(r.witness is not None for r in failed)


def test_corrupted_map_entry_fails_a_check(chi_of, homology_of):
    c = chi_of("heisenberg", 3)
    h = homology_of("heisenberg", 3)
    rows = [list(row) for row in c.rho.matrix.rows]
    rows[0][0] += 1
    bad_rho = LieHom(c.rho.domain, c.rho.codomain, Matrix(rows), check=False)
    bad = dataclasses.replace(c, rho=bad_rho)
    rep = run_checks(bad, h)
    assert not rep.all_passed
    failed = [r for r in rep.checks if r.status == "fail"]
    assert failed
    assert all(r.witness is not None for r in failed)


def test_homology_disagreement_shows_up_as_failure(chi_of, homology_of):
    c = chi_of("heisenberg", 3)
    h = homology_of("heisenberg", 3)
    wrong = dataclasses.replace(h, h2_ce_dim=h.h2_ce_dim + 1, agree=False)
    rep = run_checks(c, wrong)
    by_id = {r.id: r for r in rep.checks}
    assert by_id["C5"].status == "fail"
    assert by_id["C5"].witness is not None


def test_abelianization_cap_fails_when_l_is_the_whole_algebra(chi_of, homology_of):
    # chi(abelian(2)) has dim 5 and a 1-dimensional derived algebra, so with
    # L set to all of it the abelianization is 4 > 2 + C(2,2)
    c = chi_of("abelian", 2)
    whole = dataclasses.replace(c, L=Subspace.full(c.chi.dim))
    by_id = {r.id: r for r in run_checks(whole, homology_of("abelian", 2)).checks}
    assert by_id["C9"].status == "fail"
    assert by_id["C9"].witness == {"dim_L_ab": 4, "cap": 3}


def test_two_generated_base_fails_with_nonzero_r(chi_of, homology_of):
    c = chi_of("heisenberg", 3)
    bad = dataclasses.replace(c, R=Subspace.span([c.chi.basis_vector(c.chi.dim - 1)], c.chi.dim))
    by_id = {r.id: r for r in run_checks(bad, homology_of("heisenberg", 3)).checks}
    assert by_id["C10"].status == "fail"
    assert by_id["C10"].witness == {
        "generating_pair": [["1", "0", "0"], ["0", "1", "0"]],
        "dim_R": 1,
    }
