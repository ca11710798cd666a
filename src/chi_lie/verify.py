"""Structural checks on a constructed weak-commutativity algebra.

Each check asserts one exact structural fact about the algebra, its
comparison maps, or its ideal chain, in exact rational arithmetic.
``run_checks`` executes every applicable check and collects a report;
checks whose hypotheses fail are marked skipped, never silently passed,
and every failure carries a witness.
"""
from __future__ import annotations

from dataclasses import dataclass

from .chi import ChiAlgebra, predicted_rho_image
from .errors import InputMismatch
from .homology import HomologyReport
from .liealg import derived_subalgebra, is_perfect, subalgebra_closure
from .linalg import format_rational, intersect, vec_add, vec_is_zero, vec_sub

Witness = object


@dataclass(frozen=True)
class CheckResult:
    id: str
    desc: str
    status: str  # "pass" | "fail" | "skip"
    witness: Witness | None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "desc": self.desc,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class VerificationReport:
    algebra: str
    checks: tuple[CheckResult, ...]
    all_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "checks": [c.to_json_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }


def _vec_json(v) -> list[str]:
    return [format_rational(x) for x in v]


def run_checks(c: ChiAlgebra, h: HomologyReport) -> VerificationReport:
    """Run the full check battery; deterministic for identical inputs."""
    if h.base_name != c.base.name or h.base_dim != c.base.dim:
        raise InputMismatch(
            f"homology report is for {h.base_name} (dim {h.base_dim}), "
            f"chi was built from {c.base.name} (dim {c.base.dim})"
        )
    g = c.base
    chi = c.chi
    n = g.dim
    images = c.gen_images
    h2 = h.h2_ce_dim
    results: list[CheckResult] = []

    def record(cid: str, desc: str, status: str, witness: Witness | None = None) -> None:
        results.append(CheckResult(cid, desc, status, witness))

    # C1: W is abelian
    wbasis = c.W.basis_vectors()
    witness = None
    for a in range(len(wbasis)):
        for b in range(a + 1, len(wbasis)):
            val = chi.bracket(wbasis[a], wbasis[b])
            if not vec_is_zero(val):
                witness = {"pair": [a, b], "bracket": _vec_json(val)}
                break
        if witness:
            break
    record("C1", "W is an abelian ideal", "fail" if witness else "pass", witness)

    # C2: [D, L] = 0
    witness = None
    lbasis = c.L.basis_vectors()
    for a, d in enumerate(c.D.basis_vectors()):
        for b, l in enumerate(lbasis):
            val = chi.bracket(d, l)
            if not vec_is_zero(val):
                witness = {"pair": [a, b], "bracket": _vec_json(val)}
                break
        if witness:
            break
    record("C2", "D and L commute", "fail" if witness else "pass", witness)

    # C3: W = L meet D
    meet = intersect(c.L, c.D)
    ok = c.W == meet
    record(
        "C3",
        "W equals the intersection of L and D",
        "pass" if ok else "fail",
        None if ok else {"dim_W": c.W.dim, "dim_meet": meet.dim},
    )

    # C4: image of rho is the x - y + z in [g,g] subspace
    actual = c.rho.image()
    predicted = predicted_rho_image(g)
    ok = actual == predicted
    record(
        "C4",
        "image of rho is {(x,y,z) : x - y + z lies in the derived subalgebra}",
        "pass" if ok else "fail",
        None if ok else {"dim_image": actual.dim, "dim_predicted": predicted.dim},
    )

    # C5: dim W - dim R = dim H2
    ok = c.W.dim - c.R.dim == h2
    record(
        "C5",
        "dim W minus dim R equals the second homology dimension",
        "pass" if ok else "fail",
        None if ok else {"dim_W": c.W.dim, "dim_R": c.R.dim, "h2": h2},
    )

    # C6: dimension bound with equality exactly when R = 0
    gp_dim = derived_subalgebra(g).dim
    bound = 2 * n + gp_dim + h2
    if chi.dim < bound:
        record(
            "C6",
            "dim chi is at least 2n + dim [g,g] + dim H2, equality exactly when R = 0",
            "fail",
            {"dim_chi": chi.dim, "bound": bound},
        )
    else:
        equality_ok = (chi.dim == bound) == (c.R.dim == 0)
        record(
            "C6",
            "dim chi is at least 2n + dim [g,g] + dim H2, equality exactly when R = 0",
            "pass" if equality_ok else "fail",
            None
            if equality_ok
            else {"dim_chi": chi.dim, "bound": bound, "dim_R": c.R.dim},
        )

    # C7: L is generated by the differences x_i - x_i'
    diffs = [vec_sub(images[i], images[n + i]) for i in range(n)]
    gen_l = subalgebra_closure(chi, diffs)
    ok = gen_l == c.L
    record(
        "C7",
        "L is generated by the differences between the two copies",
        "pass" if ok else "fail",
        None if ok else {"dim_generated": gen_l.dim, "dim_L": c.L.dim},
    )

    # C8: polarization identity between the copies
    witness = None
    for i in range(n):
        for j in range(n):
            lhs = chi.bracket(images[i], images[n + j])
            rhs = chi.bracket(images[n + i], images[j])
            if lhs != rhs:
                witness = {
                    "pair": [i, j],
                    "lhs": _vec_json(lhs),
                    "rhs": _vec_json(rhs),
                }
                break
        if witness:
            break
    record(
        "C8",
        "bracketing a generator with a primed generator is symmetric in the copies",
        "fail" if witness else "pass",
        witness,
    )

    # C9: the abelianization of L has dimension at most n + C(n,2)
    lb = list(lbasis)
    pair_brackets = []
    for a in range(len(lb)):
        for b in range(a + 1, len(lb)):
            v = chi.bracket(lb[a], lb[b])
            if not vec_is_zero(v):
                pair_brackets.append(v)
    lp = subalgebra_closure(chi, pair_brackets)
    cap = n + n * (n - 1) // 2
    ok = c.L.dim - lp.dim <= cap
    record(
        "C9",
        "the abelianization of L has dimension at most n + C(n,2)",
        "pass" if ok else "fail",
        None if ok else {"dim_L_ab": c.L.dim - lp.dim, "cap": cap},
    )

    # C10: a two-generated base forces R = 0
    candidates = [g.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(vec_add(g.basis_vector(i), g.basis_vector(j)))
    found = None
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            if subalgebra_closure(g, [candidates[a], candidates[b]]).dim == n:
                found = (a, b)
                break
        if found:
            break
    if found is None:
        record(
            "C10",
            "a base generated by two elements has R = 0",
            "skip",
            "no generating pair found among basis vectors and pairwise sums",
        )
    else:
        ok = c.R.dim == 0
        record(
            "C10",
            "a base generated by two elements has R = 0",
            "pass" if ok else "fail",
            None
            if ok
            else {
                "generating_pair": [_vec_json(candidates[found[0]]), _vec_json(candidates[found[1]])],
                "dim_R": c.R.dim,
            },
        )

    # C11: a perfect base forces W central and R = 0
    if not is_perfect(g):
        record(
            "C11",
            "a perfect base has central W and R = 0",
            "skip",
            "base is not perfect",
        )
    else:
        witness = None
        for a, w in enumerate(wbasis):
            for t in range(chi.dim):
                val = chi.bracket(w, chi.basis_vector(t))
                if not vec_is_zero(val):
                    witness = {"w_index": a, "basis_index": t, "bracket": _vec_json(val)}
                    break
            if witness:
                break
        if witness is None and c.R.dim != 0:
            witness = {"dim_R": c.R.dim}
        record(
            "C11",
            "a perfect base has central W and R = 0",
            "fail" if witness else "pass",
            witness,
        )

    # C12: rank-nullity across rho
    im_rho = c.rho.image().dim
    ok = chi.dim - c.W.dim == im_rho
    record(
        "C12",
        "dim chi minus dim W equals the dimension of the image of rho",
        "pass" if ok else "fail",
        None if ok else {"dim_chi": chi.dim, "dim_W": c.W.dim, "dim_image": im_rho},
    )

    results.sort(key=lambda r: int(r.id[1:]))
    all_passed = all(r.status != "fail" for r in results)
    return VerificationReport(
        algebra=g.name, checks=tuple(results), all_passed=all_passed
    )
