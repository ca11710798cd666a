"""Nilpotent quotients of finitely presented Lie algebras."""
import pytest

import chi_lie.nilquot as nilquot
from chi_lie import (
    ENTRIES,
    BracketExpr,
    BudgetExceeded,
    ChiLieError,
    ConsistencyFailure,
    LieAlgebra,
    Presentation,
    SparseEchelon,
    chi_presentation,
    class_quotient,
    eliminate_redundant_generators,
    eval_in_algebra,
    heisenberg,
    is_abelian,
    is_nilpotent,
    stable_quotient,
    subalgebra_closure,
    tail_step_dim,
    validate,
    witt_dim,
)
from oracles import rebased_table, seeded_basis, structure_presentation

br = BracketExpr.br
gen = BracketExpr.gen
add = BracketExpr.add
scale = BracketExpr.scale


def commutator_relator():
    return br(gen(0), gen(1))


def test_presentation_validates_relator_leaves():
    with pytest.raises(ChiLieError):
        Presentation(2, [br(gen(0), gen(2))])


def test_presentation_label_defaults_and_mismatch():
    p = Presentation(3, [])
    assert p.labels == ("x0", "x1", "x2")
    with pytest.raises(ChiLieError):
        Presentation(2, [], labels=["a"])


def test_structure_presentation_of_heisenberg():
    h3 = heisenberg(3)
    p = structure_presentation(h3)
    assert p.generators == 3
    assert len(p.relators) == 3
    assert p.labels == h3.labels


def test_eliminate_redundant_generators_on_heisenberg():
    p = structure_presentation(heisenberg(3))
    reduced, originals = eliminate_redundant_generators(p)
    assert reduced.generators == 2
    assert len(originals) == 3
    # the eliminated generator is rebuilt as a bracket of survivors
    q = class_quotient(reduced, 2)
    rebuilt = eval_in_algebra(originals[2], list(q.generator_images), q.algebra)
    expected = q.algebra.bracket(q.generator_images[0], q.generator_images[1])
    assert list(rebuilt) == list(expected)
    assert any(x != 0 for x in rebuilt)


def test_eliminated_generators_rebuild_in_quotient():
    p = structure_presentation(heisenberg(3))
    reduced, originals = eliminate_redundant_generators(p)
    res = class_quotient(p, 2)
    # original generator images satisfy the defining bracket
    x, y, z = res.generator_images
    assert list(res.algebra.bracket(x, y)) == list(z)


def test_class_quotient_of_free_presentation():
    res = class_quotient(Presentation(3, []), 2)
    assert res.algebra.dim == 6
    assert res.class_used == 2
    assert not res.stabilized
    assert res.history == (6,)


def test_class_quotient_abelianizes_commutator_relator():
    res = class_quotient(Presentation(2, [commutator_relator()]), 3)
    assert res.algebra.dim == 2
    assert is_abelian(res.algebra)


def test_class_quotient_equalized_brackets():
    # three generators with [a,b] = [b,c] = [a,c] identified at class 2
    r1 = add(br(gen(0), gen(1)), scale(-1, br(gen(1), gen(2))))
    r2 = add(br(gen(0), gen(1)), scale(-1, br(gen(0), gen(2))))
    res = class_quotient(Presentation(3, [r1, r2]), 2)
    assert res.algebra.dim == 4
    assert validate(res.algebra) is None
    a, b, c, *_ = (res.algebra.basis_vector(i) for i in range(4))
    ab = res.algebra.bracket(res.generator_images[0], res.generator_images[1])
    bc = res.algebra.bracket(res.generator_images[1], res.generator_images[2])
    ac = res.algebra.bracket(res.generator_images[0], res.generator_images[2])
    assert list(ab) == list(bc) == list(ac)
    assert any(x != 0 for x in ab)


def test_class_quotient_generator_images_generate():
    res = class_quotient(structure_presentation(heisenberg(3)), 3)
    got = subalgebra_closure(res.algebra, res.generator_images)
    assert got.dim == res.algebra.dim


def test_stable_quotient_requires_room_to_compare():
    with pytest.raises(ChiLieError):
        stable_quotient(Presentation(2, []), 1)


def test_stable_quotient_of_heisenberg_presentation():
    res = stable_quotient(structure_presentation(heisenberg(3)), 6)
    assert res.stabilized
    assert res.algebra.dim == 3
    assert res.class_used == 2
    assert res.history == (2, 3, 3)


def test_stable_quotient_free_rank2_never_settles():
    res = stable_quotient(Presentation(2, []), 6)
    assert not res.stabilized
    expected = []
    total = 0
    for c in range(1, 7):
        total += witt_dim(2, c)
        expected.append(total)
    assert list(res.history) == expected
    assert all(a < b for a, b in zip(res.history, res.history[1:]))


def test_stable_quotient_history_is_weakly_increasing():
    res = stable_quotient(structure_presentation(heisenberg(3)), 5)
    assert all(a <= b for a, b in zip(res.history, res.history[1:]))


def test_stable_quotient_budget_propagates():
    with pytest.raises(BudgetExceeded):
        stable_quotient(Presentation(2, []), 8, budget=50)


def test_zero_generator_presentation():
    res = class_quotient(Presentation(0, []), 2)
    assert res.algebra.dim == 0


# -- the tail step against the next class -----------------------------------

NILPOTENT = [e.build() for e in ENTRIES if is_nilpotent(e.build())]


def _in_basis(g: LieAlgebra, seed: int) -> LieAlgebra:
    """g itself for seed 0, else g in the seeded basis of that seed."""
    if seed == 0:
        return g
    p = seeded_basis(g.dim, seed)
    return LieAlgebra(f"rebased {g.name}", g.dim, rebased_table(g.dim, g.table, p))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("g", NILPOTENT, ids=lambda g: g.name)
def test_tail_step_predicts_the_next_class(g, seed):
    p = chi_presentation(_in_basis(g, seed))
    cur = class_quotient(p, 1)
    for c in range(1, 8):
        predicted = tail_step_dim(cur, p.relators)
        nxt = class_quotient(p, c + 1)
        assert predicted == nxt.algebra.dim, f"class {c}"
        if predicted == cur.algebra.dim:
            return
        cur = nxt
    pytest.fail("the sweep did not stop by class 7")


@pytest.mark.parametrize("m, top", [(2, 6), (3, 4)])
def test_tail_step_on_free_presentations_gives_witt_partial_sums(m, top):
    p = Presentation(m, [])
    for c in range(1, top + 1):
        expected = sum(witt_dim(m, k) for k in range(1, c + 2))
        assert tail_step_dim(class_quotient(p, c), p.relators) == expected


def test_wrong_prediction_raises_consistency_failure(monkeypatch):
    real = nilquot.tail_step_dim
    monkeypatch.setattr(
        nilquot, "tail_step_dim", lambda qr, relators, budget=None: real(qr, relators, budget) + 1
    )
    with pytest.raises(ConsistencyFailure, match="predicted 8"):
        stable_quotient(chi_presentation(heisenberg(3)), 6)


def test_tail_step_budget_counts_the_tails_before_allocating_them(monkeypatch):
    # chi(heisenberg(3)) at class 1: Q is spanned by x, y, x', y'; the images
    # of z and z' vanish.  The 6 pairs of depth-1 elements and those 2
    # generators take tails, so the step needs 4 + 8 = 12.
    p = chi_presentation(heisenberg(3))
    q1 = class_quotient(p, 1)
    assert q1.algebra.dim == 4
    widest = []
    real_insert = SparseEchelon.insert

    def spy(self, num):
        widest.append(max(num, default=-1))
        return real_insert(self, num)

    monkeypatch.setattr(SparseEchelon, "insert", spy)
    with pytest.raises(BudgetExceeded, match="8 tails") as err:
        tail_step_dim(q1, p.relators, budget=11)
    assert "12" in str(err.value) and "11" in str(err.value)
    # no row touched a tail column (those start at 2 * dim Q)
    assert max(widest) < 2 * 4
    assert tail_step_dim(q1, p.relators, budget=12) == class_quotient(p, 2).algebra.dim == 7


def test_stable_quotient_stops_on_the_tail_step():
    # the stable class is never built: its free algebra would be over budget
    p = chi_presentation(heisenberg(3))
    res = stable_quotient(p, 6, budget=40)
    assert res.stabilized and res.class_used == 3 and res.history == (4, 7, 9, 9)
    with pytest.raises(BudgetExceeded):
        class_quotient(p, 4, budget=40)
