"""The correctness gate: expected dimensions with provenance, and digests.

Every value is (number, provenance).  Catalog values are copied from
``chi_lie.catalog.ENTRIES`` with the tag recorded there; closed forms are
computed here from the formula named in the provenance.  A rebased member
expects exactly the values of the algebra it was rebased from, since every
dimension is invariant under a change of basis.

``digests.json`` holds the sha256 of each catalog-basis member's chi,
homology and verify documents, serialized as the command line writes
them.  ``record_digests.py`` regenerates it.
"""
from __future__ import annotations

import json
from math import comb
from pathlib import Path

from workloads import Member

Value = tuple[int, str]


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt(r: int, d: int) -> int:
    """Dimension of the degree-d component of the free Lie algebra on r letters."""
    return sum(_mobius(e) * r ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _catalog(chi: int, w: int, r: int, h2: int, tag: str) -> dict[str, Value]:
    src = f"catalog ENTRIES ({tag})"
    return {"chi": (chi, src), "W": (w, src), "R": (r, src), "h2": (h2, src)}


def _abelian(n: int) -> dict[str, Value]:
    c2 = comb(n, 2)
    return {
        "chi": (2 * n + c2, "closed form, abelian(n): chi = 2n + C(n,2)"),
        "W": (c2, "closed form, abelian(n): W = C(n,2)"),
        "R": (0, "closed form, abelian(n): R = 0"),
        "h2": (c2, "closed form, abelian(n): H2 = C(n,2)"),
    }


def _heisenberg_h2(d: int) -> Value:
    k = (d - 1) // 2
    return (comb(2 * k, 2) - 1, "closed form, heisenberg(2k+1) with k >= 2: H2 = C(2k,2) - 1")


def _free_nilpotent_h2(r: int, c: int) -> Value:
    return (witt(r, c + 1), "closed form, free_nilpotent(r,c): H2 = witt(r, c+1)")


_DERIVED = "derived: compute_chi on the catalog basis, seed code"

EXPECTED: dict[str, dict[str, Value]] = {
    "abelian(2)": _catalog(5, 1, 0, 1, "closed-form"),
    "abelian(3)": _catalog(9, 3, 0, 3, "closed-form"),
    "heisenberg(3)": _catalog(9, 2, 0, 2, "derived"),
    "paper_example_1": _catalog(14, 5, 1, 4, "reference"),
    "free_nilpotent(2,2)": _catalog(9, 2, 0, 2, "derived"),
    "free_nilpotent(3,2)": _catalog(27, 12, 4, 8, "reference"),
    "sl2": _catalog(9, 0, 0, 0, "reference"),
    "upper_triangular_nil(3)": _catalog(9, 2, 0, 2, "derived"),
    "abelian(5)": _abelian(5),
    "abelian(6)": _abelian(6),
    "abelian(7)": _abelian(7),
    "heisenberg(5)": {
        "chi": (20, _DERIVED),
        "W": (9, _DERIVED),
        "R": (4, _DERIVED),
        "h2": _heisenberg_h2(5),
    },
    "abelian(10)": {"h2": _abelian(10)["h2"]},
    "heisenberg(9)": {"h2": _heisenberg_h2(9)},
    "free_nilpotent(4,2)": {"h2": _free_nilpotent_h2(4, 2)},
}

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict[str, dict[str, str]]:
    """Recorded digests, keyed by member and then by document."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def expected_for(member: Member) -> dict[str, int]:
    """Expected values of a member; rebased members share their source's."""
    return {k: v for k, (v, _) in EXPECTED[member.catalog_name].items()}
