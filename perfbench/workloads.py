"""The benchmark's workloads and its seeded change of basis.

A member is one algebra run through one pipeline, as the command line
runs it: ``verify`` builds chi, computes homology and runs the check
battery (``chi-lie verify``); ``homology`` runs the three H2 routes only
(``chi-lie homology``).  Members run in the listed order.  Why each
workload holds what it holds is written up in README.md.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Member:
    builder: str
    params: tuple[int, ...]
    pipeline: str  # "verify" or "homology"
    rebased: bool = False

    @property
    def catalog_name(self) -> str:
        """The name the catalog builder gives the algebra."""
        if not self.params:
            return self.builder
        return f"{self.builder}({','.join(str(p) for p in self.params)})"

    @property
    def key(self) -> str:
        """Identifies the member in results, spans and the expected table."""
        return ("rebased " if self.rebased else "") + self.catalog_name


def _v(builder: str, *params: int, rebased: bool = False) -> Member:
    return Member(builder, params, "verify", rebased)


def _h(builder: str, *params: int) -> Member:
    return Member(builder, params, "homology")


WORKLOADS: dict[str, tuple[Member, ...]] = {
    "nilpotent-sweep": (
        _v("paper_example_1"),
        _v("heisenberg", 3),
        _v("free_nilpotent", 2, 2),
        _v("upper_triangular_nil", 3),
        _v("free_nilpotent", 3, 2),
        _v("heisenberg", 5, rebased=True),
        _v("paper_example_1", rebased=True),
    ),
    "closed-form": (
        _v("abelian", 2),
        _v("abelian", 3),
        _v("sl2"),
        _v("abelian", 5),
        _v("abelian", 7),
    ),
    "homology-wide": (
        # the one verify member keeps chi_s and checks_s defined on this
        # workload; it is abelian, so nilquot still does no work here
        _v("abelian", 6),
        _h("abelian", 10),
        _h("heisenberg", 9),
        _h("free_nilpotent", 4, 2),
    ),
}


# -- seeded change of basis --------------------------------------------------


def basis_change(n: int, rng: random.Random) -> list[list[int]]:
    """M = U P: U unitriangular with entries in {-1, 0, 1}, P a permutation.

    Column j of M holds the old coordinates of new basis vector j.
    """
    u = [
        [1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[u[i][perm[j]] for j in range(n)] for i in range(n)]


def _inverse(m: list[list[int]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rebase_json(doc: dict, seed: int) -> dict:
    """Structure-constant JSON of the same algebra in a seeded random basis.

    The seed and the algebra's name fix the basis, so the same seed gives
    byte-identical output in every process.
    """
    n = int(doc["dim"])
    rng = random.Random(f"{seed}/{doc['name']}")
    m = basis_change(n, rng)
    minv = _inverse(m)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for ent in doc["brackets"]:
        table[(int(ent["i"]), int(ent["j"]))] = {int(t["k"]): Fraction(t["c"]) for t in ent["terms"]}

    def bracket_old(u: list[int], v: list[int]) -> list[Fraction]:
        out = [Fraction(0)] * n
        for (i, j), terms in table.items():
            coef = u[i] * v[j] - u[j] * v[i]
            if coef:
                for k, c in terms.items():
                    out[k] += coef * c
        return out

    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            old = bracket_old(cols[a], cols[b])
            new = [sum((minv[r][k] * old[k] for k in range(n)), Fraction(0)) for r in range(n)]
            terms = [{"k": k, "c": str(c)} for k, c in enumerate(new) if c != 0]
            if terms:
                brackets.append({"i": a, "j": b, "terms": terms})
    return {
        "name": f"rebased {doc['name']}",
        "dim": n,
        "basis": [f"b{j + 1}" for j in range(n)],
        "brackets": brackets,
    }
