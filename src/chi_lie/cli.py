"""Command-line front end.

Four commands: ``catalog`` lists the named example algebras, ``chi``
builds the weak-commutativity algebra, ``homology`` runs the homology
routes, ``verify`` runs the structural check battery.  One input source
per run: either ``--input file.json`` (a structure-constant algebra in
the JSON schema) or ``--catalog NAME [PARAMS...]``.

JSON is the persistence format and is byte-deterministic; text output is
a short human summary.  Exit codes: 0 success, 1 input or parse error,
2 class sweep did not stabilize, 3 unsupported algebra class or budget,
4 internal consistency or verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import catalog as _catalog
from .chi import ChiAlgebra, compute_chi, compute_chi_superperfect
from .errors import (
    BudgetExceeded,
    ChiLieError,
    ConsistencyFailure,
    InvalidAlgebra,
    NonvanishingH2,
    NotNilpotent,
    NotPerfect,
    NotStabilized,
)
from .homology import compute_homology
from .liealg import LieAlgebra, is_nilpotent, nilpotency_class
from .verify import run_checks

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_STABILIZED = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONSISTENT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chi-lie",
        description="Weak-commutativity algebras and Schur multipliers over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, *, with_class: bool) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="PATH", help="algebra JSON file")
        src.add_argument(
            "--catalog",
            nargs="+",
            metavar=("NAME", "PARAMS"),
            help="catalog name plus integer parameters",
        )
        if with_class:
            p.add_argument(
                "--max-class",
                type=int,
                default=None,
                help="bound for the nilpotent class sweep",
            )
        p.add_argument("--output", metavar="PATH", help="write the JSON document here")
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="text",
            help="stdout format (default text)",
        )

    p_cat = sub.add_parser("catalog", help="list the named example algebras")
    p_cat.add_argument("--output", metavar="PATH")
    p_cat.add_argument("--format", choices=("json", "text"), default="text")

    add_io(sub.add_parser("chi", help="build the weak-commutativity algebra"), with_class=True)
    add_io(sub.add_parser("homology", help="run the homology routes"), with_class=False)
    add_io(sub.add_parser("verify", help="run the structural checks"), with_class=True)
    return parser


def _load_algebra(args: argparse.Namespace) -> LieAlgebra:
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError as exc:
                raise InvalidAlgebra("input JSON nests too deeply") from exc
        return LieAlgebra.from_json_dict(data)
    name, *raw = args.catalog
    try:
        params = [int(p) for p in raw]
    except ValueError as exc:
        raise ChiLieError(f"catalog parameters must be integers: {exc}") from exc
    return _catalog.build(name, params)


def _emit(doc: dict, args: argparse.Namespace, text_lines: list[str]) -> None:
    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.format == "json":
        if not args.output:
            sys.stdout.write(payload)
    else:
        for line in text_lines:
            print(line)


def _compute_chi_for(args: argparse.Namespace, g: LieAlgebra) -> ChiAlgebra:
    if is_nilpotent(g):
        return compute_chi(g, max_class=args.max_class)
    return compute_chi_superperfect(g)


def _effective_max_class(args: argparse.Namespace, g: LieAlgebra) -> int | None:
    if not is_nilpotent(g):
        return None
    if args.max_class is not None:
        return args.max_class
    c = nilpotency_class(g)
    assert c is not None
    return 2 * c + 2


def _chi_summary(c: ChiAlgebra) -> str:
    return (
        f"{c.chi.dim} / {c.L.dim} / {c.D.dim} / {c.W.dim} / {c.R.dim}"
    )


def cmd_catalog(args: argparse.Namespace) -> int:
    doc = _catalog.listing()
    lines = [f"{b['name']} (params: {b['arity']})" for b in doc["builders"]]
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_chi(args: argparse.Namespace) -> int:
    g = _load_algebra(args)
    c = _compute_chi_for(args, g)
    doc = c.to_json_dict()
    doc["max_class"] = _effective_max_class(args, g)
    _emit(doc, args, [_chi_summary(c)])
    return EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    g = _load_algebra(args)
    rep = compute_homology(g)
    doc = rep.to_json_dict()
    hopf = "-" if rep.h2_hopf_dim is None else str(rep.h2_hopf_dim)
    lines = [
        f"h1={rep.h1_dim} h2_ce={rep.h2_ce_dim} h2_hopf={hopf} "
        f"h2_exterior={rep.h2_exterior_dim} agree={str(rep.agree).lower()}"
    ]
    _emit(doc, args, lines)
    return EXIT_OK if rep.agree else EXIT_INCONSISTENT


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_algebra(args)
    c = _compute_chi_for(args, g)
    rep = run_checks(c, compute_homology(g))
    lines = [f"{r.id:<4} {r.status:<5} {r.desc}" for r in rep.checks]
    lines.append("all passed" if rep.all_passed else "FAILED")
    _emit(rep.to_json_dict(), args, lines)
    return EXIT_OK if rep.all_passed else EXIT_INCONSISTENT


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the input-error code
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    handlers = {
        "catalog": cmd_catalog,
        "chi": cmd_chi,
        "homology": cmd_homology,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotStabilized as exc:
        print(f"error: {exc} (history {list(exc.history)})", file=sys.stderr)
        return EXIT_NOT_STABILIZED
    except (NotNilpotent, NotPerfect, NonvanishingH2, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ConsistencyFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (InvalidAlgebra, ChiLieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
